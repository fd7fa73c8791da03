//! Cold-start benchmark: how fast does a restarted platform come back?
//!
//! Three ways to stand up a 500-dataset platform:
//!
//! - `open_snapshot/500` — `CentralPlatform::open_with` on a directory
//!   holding one checkpointed snapshot (the steady-state restart path:
//!   deserialize sketches, rebuild the discovery index from
//!   stored profiles, hydrate the ledger);
//! - `open_wal_replay/500` — the same recovery from a WAL that was never
//!   checkpointed (worst-case restart: 500 records replayed one by one);
//! - `resketch_raw/500` — the no-durability baseline: re-profile and
//!   re-sketch every raw provider relation from scratch and re-register.
//!
//! Interpreting the numbers: this synthetic corpus uses 200-row
//! providers, so `resketch_raw` is artificially cheap — it scales with
//! *raw data* size while the `open_*` arms scale with *sketch* size
//! (~1000× smaller in the paper's regime). More fundamentally,
//! `resketch_raw` is not an option for a real central platform at all:
//! it never held the raw relations (only providers did), and it cannot
//! reconstruct the budget ledger from any amount of re-sketching. The
//! bench exists to track restart latency as the corpus format evolves.
//!
//! **Registry scale: `first_search/{500,5000,20000}`.** The corpus-size
//! sweep uses the open-data-registry corpus of `discovery_scale` (tiny
//! keyed datasets across disjoint key domains) and measures
//! *time-to-first-search*: `open_with` on a v2 binary snapshot plus one
//! full search. Lazy sketch hydration makes this sublinear in corpus
//! size — the eager phase touches only profiles + ledger, and the search
//! hydrates only the candidate sketches it evaluates. The background
//! hydrator is held off (`MILEENA_NO_BG_HYDRATION`) so iterations don't
//! race a drain thread; each setup prints the snapshot's on-disk
//! `snapshot_bytes` so byte growth is visible next to the timings.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mileena_core::{CentralPlatform, LocalDataStore, PlatformConfig, StoragePolicy};
use mileena_datagen::{generate_corpus, CorpusConfig, NycCorpus};
use mileena_relation::{Relation, RelationBuilder};
use mileena_search::{SearchConfig, SearchRequest, TaskSpec};
use std::path::{Path, PathBuf};

const DATASETS: usize = 500;

fn corpus_cfg(n: usize) -> CorpusConfig {
    CorpusConfig {
        num_datasets: n,
        num_signal: 4,
        num_union: 2,
        num_novelty_traps: 4,
        train_rows: 400,
        test_rows: 400,
        provider_rows: 200,
        key_domain: 100,
        signal_rows_per_key: 1,
        noise: 0.15,
        nonlinear_strength: 0.0,
        seed: 9,
    }
}

fn durable_config(dir: &Path) -> PlatformConfig {
    let mut policy = StoragePolicy::at(dir);
    policy.checkpoint_every = 0;
    PlatformConfig { storage: Some(policy), ..Default::default() }
}

/// Register the whole corpus into a durable platform rooted at `dir`.
fn populate(dir: &Path, corpus: &NycCorpus, checkpoint: bool) {
    let platform = CentralPlatform::open_with(durable_config(dir)).unwrap();
    for p in &corpus.providers {
        platform.register(LocalDataStore::new(p.clone()).prepare_upload(None, 7).unwrap()).unwrap();
    }
    if checkpoint {
        platform.checkpoint().unwrap();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mileena-coldstart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Registry-scale corpus (mirrors `discovery_scale`): n tiny keyed datasets
// spread over disjoint key domains, schemas cycling through 67 variants.

fn registry_provider(i: usize, domains: usize) -> Relation {
    let base = ((i % domains) as i64) * 1_000;
    let off = (i / domains) as i64 % 20;
    let keys: Vec<i64> = (0..40i64).map(|j| base + (j + off) % 60).collect();
    let vals: Vec<f64> = (0..40i64).map(|j| ((j * 13 + i as i64) % 101) as f64 / 101.0).collect();
    RelationBuilder::new(format!("reg{i}"))
        .int_col("key", &keys)
        .float_col(&format!("f{}", i % 67), &vals)
        .build()
        .unwrap()
}

/// The requester's task: keys in domain 0, so only the ~40 datasets that
/// overlap domain 0 are ever candidates — first-search cost must not
/// scale with the corpus.
fn registry_request() -> SearchRequest {
    let relation = |name: &str, seed: i64| {
        let keys: Vec<i64> = (0..40).collect();
        let x: Vec<f64> = (0..40i64).map(|j| ((j * 17 + seed) % 101) as f64 / 101.0).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 0.1).collect();
        RelationBuilder::new(name)
            .int_col("key", &keys)
            .float_col("x", &x)
            .float_col("y", &y)
            .build()
            .unwrap()
    };
    SearchRequest {
        train: relation("reg-train", 0),
        test: relation("reg-test", 3),
        task: TaskSpec::new("y", &["x"]),
        budget: None,
        key_columns: Some(vec!["key".into()]),
    }
}

/// Stand up a durable registry corpus of `n` datasets and checkpoint it
/// into one v2 binary snapshot. Returns the snapshot footprint in bytes.
fn populate_registry(dir: &Path, n: usize) -> u64 {
    let domains = (n / 40).max(1);
    let platform = CentralPlatform::open_with(durable_config(dir)).unwrap();
    for i in 0..n {
        let upload =
            LocalDataStore::new(registry_provider(i, domains)).prepare_upload(None, 7).unwrap();
        platform.register(upload).unwrap();
    }
    platform.checkpoint().unwrap();
    drop(platform);
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .map(|e| e.metadata().unwrap().len())
        .sum()
}

fn bench_cold_start(c: &mut Criterion) {
    // Deterministic restarts: hydrate on touch only, never from the
    // background drain thread (it would race the timed iterations).
    std::env::set_var("MILEENA_NO_BG_HYDRATION", "1");
    let corpus = generate_corpus(&corpus_cfg(DATASETS));
    let snap_dir = tmp_dir("snap");
    let wal_dir = tmp_dir("wal");
    populate(&snap_dir, &corpus, true);
    populate(&wal_dir, &corpus, false);

    let mut group = c.benchmark_group("cold_start");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("open_snapshot", DATASETS), &DATASETS, |b, _| {
        b.iter(|| {
            let platform = CentralPlatform::open_with(durable_config(&snap_dir)).unwrap();
            assert_eq!(platform.num_datasets(), DATASETS);
            platform
        })
    });
    group.bench_with_input(BenchmarkId::new("open_wal_replay", DATASETS), &DATASETS, |b, _| {
        b.iter(|| {
            let platform = CentralPlatform::open_with(durable_config(&wal_dir)).unwrap();
            assert_eq!(platform.num_datasets(), DATASETS);
            platform
        })
    });
    // Baseline: rebuild from the raw relations (includes the per-provider
    // relation clone LocalDataStore takes by value — negligible next to
    // profiling + sketching).
    group.bench_with_input(BenchmarkId::new("resketch_raw", DATASETS), &DATASETS, |b, _| {
        b.iter(|| {
            let platform = CentralPlatform::new(PlatformConfig::default());
            for p in &corpus.providers {
                platform
                    .register(LocalDataStore::new(p.clone()).prepare_upload(None, 7).unwrap())
                    .unwrap();
            }
            assert_eq!(platform.num_datasets(), DATASETS);
            platform
        })
    });
    // Registry-scale sweep: time-to-first-search over a v2 binary
    // snapshot. Sublinear in n — the eager phase skips sketch blobs and
    // the search hydrates only the candidates it touches.
    let request = registry_request();
    let mut registry_dirs = Vec::new();
    for n in [500usize, 5_000, 20_000] {
        let dir = tmp_dir(&format!("reg{n}"));
        let bytes = populate_registry(&dir, n);
        eprintln!("cold_start: registry/{n} snapshot_bytes = {bytes}");
        group.bench_with_input(BenchmarkId::new("first_search", n), &n, |b, &n| {
            b.iter(|| {
                let platform = CentralPlatform::open_with(durable_config(&dir)).unwrap();
                assert_eq!(platform.num_datasets(), n);
                black_box(platform.search(&request, &SearchConfig::default()).unwrap())
            })
        });
        registry_dirs.push(dir);
    }
    group.finish();

    let _ = std::fs::remove_dir_all(&snap_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
    for dir in registry_dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

criterion_group!(benches, bench_cold_start);
criterion_main!(benches);
