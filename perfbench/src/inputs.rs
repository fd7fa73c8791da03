//! Everything a run feeds the platform. The same `--seed` gives the same
//! inputs.
//!
//! What the seed draws: the churn uploads, every FPM noise draw, the privacy
//! corpora, and where each loop enters its request pool. What it does not:
//! the `R517` and `N2000` corpora and their pools come from one fixed
//! generator seed. The greedy search runs 5 to 10 rounds depending on the
//! corpus drawn, and on a redrawn pool the slowest of 8 tasks moves by half,
//! so seed-drawn corpora put a 40 % quartile spread on `search_p50_ms`
//! between seeds (measured over seeds 1–10) — wider than any bound the
//! benchmark may set, and it would hide every change smaller than that.

use mileena::datagen::{generate_corpus, CorpusConfig};
use mileena::privacy::PrivacyBudget;
use mileena::relation::{Relation, RelationBuilder};
use mileena::search::{SearchConfig, SearchRequest, SketchedRequest, TaskSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Requester tasks per corpus, cycled in order by every search loop.
pub const POOL: usize = 8;

/// Generator seed of the `R517` and `N2000` corpora and their pools.
const CORPUS_SEED: u64 = 1;

/// Rows of one churn upload.
const CHURN_ROWS: usize = 800;
/// Distinct keys of one churn upload (so 8 rows per key: heavy enough for
/// FPM noise at ε = 1 to leave a usable sketch).
const CHURN_KEYS: i64 = 100;

/// Corpus sizes. `--smoke` shrinks them so a debug build finishes all four
/// workloads in seconds; its numbers are labelled non-comparable.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub r517: usize,
    pub n2000: usize,
    /// Datasets registered after the snapshot on the `restart` directory.
    pub wal_tail: usize,
    /// Sizes of the privacy corpora behind `privacy.utility_ratio.*`.
    pub privacy: [usize; 3],
    /// Calls that make one direct per-layer row.
    pub direct_calls: usize,
}

impl Scale {
    pub const FULL: Scale =
        Scale { r517: 517, n2000: 2000, wal_tail: 100, privacy: [20, 100, 500], direct_calls: 50 };
    pub const SMOKE: Scale =
        Scale { r517: 60, n2000: 120, wal_tail: 10, privacy: [10, 12, 14], direct_calls: 4 };
}

/// The task every pool request trains: predict `y` from `base_x`.
pub fn task_spec() -> TaskSpec {
    TaskSpec::new("y", &["base_x"])
}

fn key_columns() -> Vec<String> {
    vec!["zone".to_string()]
}

/// One requester task: the raw form stays with the harness (it materializes
/// selections to score them), the sketched form is what crosses the service.
pub struct Task {
    pub raw: SearchRequest,
    pub sketched: SketchedRequest,
}

impl Task {
    fn new(train: Relation, test: Relation) -> Task {
        let keys = key_columns();
        let sketched = SketchedRequest::sketch(&train, &test, &task_spec(), Some(&keys))
            .expect("generated requester relations are non-empty and carry the task columns");
        let raw =
            SearchRequest { train, test, task: task_spec(), budget: None, key_columns: Some(keys) };
        Task { raw, sketched }
    }
}

/// A provider corpus with its request pool.
pub struct Corpus {
    pub providers: Vec<Relation>,
    pub pool: Vec<Task>,
    /// Search configuration the pool is sent with (`None`: the platform's
    /// default).
    pub search: Option<SearchConfig>,
}

impl Corpus {
    /// The search configuration in force, for calls that need it spelled out.
    pub fn search_config(&self) -> SearchConfig {
        self.search.clone().unwrap_or_default()
    }
}

/// Generate a corpus and its pool: the generator's train and test rows are
/// pooled and re-split under eight different seeds, so the eight tasks share
/// a corpus and a target but not their rows.
fn nyc(cfg: &CorpusConfig, search: Option<SearchConfig>) -> Corpus {
    let corpus = generate_corpus(cfg);
    let rows = corpus.train.union(&corpus.test).expect("train and test share a schema");
    let test_fraction = cfg.test_rows as f64 / (cfg.train_rows + cfg.test_rows) as f64;
    let pool = (0..POOL as u64)
        .map(|k| {
            let split_seed = cfg.seed.wrapping_mul(1_000).wrapping_add(k);
            let (train, test) = rows.train_test_split(test_fraction, split_seed);
            Task::new(train.with_name("train"), test.with_name("test"))
        })
        .collect();
    Corpus { providers: corpus.providers, pool, search }
}

/// `R517`: the paper's headline corpus.
pub fn r517(scale: Scale) -> Corpus {
    nyc(&CorpusConfig { num_datasets: scale.r517, ..CorpusConfig::paper_scale(CORPUS_SEED) }, None)
}

/// `N2000`: the same generator at 2000 datasets.
pub fn n2000(scale: Scale) -> Corpus {
    nyc(&CorpusConfig { num_datasets: scale.n2000, ..CorpusConfig::paper_scale(CORPUS_SEED) }, None)
}

/// A privacy-regime corpus (heavy keys, measurement-style signal tables).
/// Measurement tables fan a join out by `signal_rows_per_key`, which the
/// default fan-out guard would reject.
pub fn privacy_corpus(n: usize, seed: u64) -> Corpus {
    let search = SearchConfig { max_join_fanout: 60.0, ..Default::default() };
    nyc(&CorpusConfig::privacy_scale(n, seed), Some(search))
}

/// The (ε, δ) every private upload of the benchmark spends.
pub fn upload_budget() -> PrivacyBudget {
    PrivacyBudget::new(1.0, 1e-6).expect("a valid budget")
}

/// Name of the `i`-th churn upload.
pub fn churn_name(i: usize) -> String {
    format!("churn_{i:06}")
}

/// The `i`-th churn upload: an 800-row keyed table on a key domain no
/// requester touches (requesters use zones below 200, foreign distractors
/// 10 000–20 000), as most of a registry is disjoint from any one task.
pub fn churn_relation(seed: u64, i: usize) -> Relation {
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0xC4A2_0000_0000 ^ (i as u64).wrapping_mul(0x9E37_79B9));
    let base = 1_000_000 + (i as i64 % 64) * 1_000;
    let keys: Vec<i64> = (0..CHURN_ROWS as i64).map(|r| base + r % CHURN_KEYS).collect();
    let a: Vec<f64> = (0..CHURN_ROWS).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f64> = (0..CHURN_ROWS).map(|_| rng.gen_range(-1.0..1.0)).collect();
    RelationBuilder::new(churn_name(i))
        .int_col("site", &keys)
        .float_col(&format!("reading_{}", i % 7), &a)
        .float_col("level", &b)
        .build()
        .expect("equal-length columns")
}

/// Noise seed of the `i`-th private upload.
pub fn upload_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = r517(Scale::SMOKE);
        let b = r517(Scale::SMOKE);
        assert_eq!(a.providers.len(), Scale::SMOKE.r517);
        assert_eq!(a.pool.len(), POOL);
        assert_eq!(a.pool[5].sketched, b.pool[5].sketched);
        assert_ne!(a.pool[5].sketched, a.pool[6].sketched);
        let p = privacy_corpus(10, 3);
        assert_eq!(p.pool[0].sketched, privacy_corpus(10, 3).pool[0].sketched);
        assert_ne!(p.pool[0].sketched, privacy_corpus(10, 4).pool[0].sketched);
        assert_eq!(churn_relation(3, 17), churn_relation(3, 17));
        assert_ne!(churn_relation(3, 17), churn_relation(4, 17));
        assert_eq!(churn_relation(3, 17).num_rows(), CHURN_ROWS);
    }
}
