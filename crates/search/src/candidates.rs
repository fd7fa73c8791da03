//! Candidate augmentations: the bridge from discovery output to the search
//! loop, validated against the sketch store.
//!
//! Two forms exist, one per trust/perf domain:
//!
//! - [`Candidate`] is the **internal, hot-path** form: it carries an
//!   interned [`DatasetId`] plus `Arc<str>` key-column names, so cloning
//!   one (candidate cache, greedy bookkeeping) never allocates a string.
//!   Ids are process-local and the type is deliberately not serializable.
//! - [`Augmentation`] is the **boundary** form: dataset names as `String`s,
//!   serde-serializable — what search events, selection steps, wire replies
//!   and the raw-relation baselines (ARDA / novelty / APM) consume. A
//!   candidate resolves into it once, at the service boundary
//!   ([`Candidate::resolve`]), never inside the evaluation loop.

use mileena_discovery::{DatasetProfile, DiscoveryIndex};
use mileena_relation::{DatasetId, DatasetInterner};
use mileena_sketch::SketchStore;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One candidate augmentation of the requester's training data, in its
/// boundary (name-carrying, wire-safe) form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Augmentation {
    /// Vertical augmentation: join the provider dataset.
    Join {
        /// Provider dataset name.
        dataset: String,
        /// Requester column to join on.
        query_key: String,
        /// Provider column to join on.
        candidate_key: String,
        /// Discovery similarity (Jaccard).
        similarity: f64,
    },
    /// Horizontal augmentation: union the provider dataset.
    Union {
        /// Provider dataset name.
        dataset: String,
        /// Discovery similarity (mean cosine).
        similarity: f64,
    },
}

impl Augmentation {
    /// The provider dataset this augmentation uses.
    pub fn dataset(&self) -> &str {
        match self {
            Augmentation::Join { dataset, .. } | Augmentation::Union { dataset, .. } => dataset,
        }
    }

    /// Short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Augmentation::Join { dataset, query_key, candidate_key, .. } => {
                format!("⋈ {dataset} on {query_key}={candidate_key}")
            }
            Augmentation::Union { dataset, .. } => format!("∪ {dataset}"),
        }
    }
}

/// One candidate augmentation in its internal, id-based form. Cheap to
/// clone (a `Copy` id plus `Arc` refcount bumps); the search hot path never
/// touches a dataset name.
#[derive(Debug, Clone, PartialEq)]
pub enum Candidate {
    /// Vertical augmentation: join the provider dataset.
    Join {
        /// Provider dataset.
        dataset: DatasetId,
        /// Requester column to join on.
        query_key: Arc<str>,
        /// Provider column to join on.
        candidate_key: Arc<str>,
        /// Discovery similarity (Jaccard).
        similarity: f64,
    },
    /// Horizontal augmentation: union the provider dataset.
    Union {
        /// Provider dataset.
        dataset: DatasetId,
        /// Discovery similarity (mean cosine).
        similarity: f64,
    },
}

impl Candidate {
    /// The provider dataset this candidate uses.
    pub fn dataset(&self) -> DatasetId {
        match self {
            Candidate::Join { dataset, .. } | Candidate::Union { dataset, .. } => *dataset,
        }
    }

    /// Resolve into the boundary form, materializing the dataset name. One
    /// interner lookup + string clones — called once per committed round /
    /// reference-path setup, never per evaluation.
    pub fn resolve(&self, names: &DatasetInterner) -> Augmentation {
        let name = |id: DatasetId| {
            names.name(id).map(|n| n.as_ref().to_string()).unwrap_or_else(|| id.to_string())
        };
        match self {
            Candidate::Join { dataset, query_key, candidate_key, similarity } => {
                Augmentation::Join {
                    dataset: name(*dataset),
                    query_key: query_key.as_ref().to_string(),
                    candidate_key: candidate_key.as_ref().to_string(),
                    similarity: *similarity,
                }
            }
            Candidate::Union { dataset, similarity } => {
                Augmentation::Union { dataset: name(*dataset), similarity: *similarity }
            }
        }
    }
}

/// Caps on how many discovered candidates a search will evaluate, applied
/// after ranking — a truncated search keeps the *top* candidates by
/// discovery score. Defaults are generous (they exist to bound adversarial
/// or degenerate corpora, not to tune recall); truncation is always
/// reported through [`CandidateSet`] → `SearchOutcome` / events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateLimits {
    /// Maximum join candidates enumerated per search.
    pub max_join: usize,
    /// Maximum union candidates enumerated per search.
    pub max_union: usize,
}

impl Default for CandidateLimits {
    fn default() -> Self {
        CandidateLimits { max_join: 65_536, max_union: 65_536 }
    }
}

/// The enumerated (store-validated, rank-ordered, limit-applied) candidate
/// set for one search, with its truncation accounting.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    /// Evaluable candidates: joins first (by descending Jaccard), then
    /// unions (by descending cosine) — the order the greedy loop indexes.
    pub candidates: Vec<Candidate>,
    /// Store-backed join candidates dropped by `limits.max_join`.
    pub truncated_joins: usize,
    /// Store-backed union candidates dropped by `limits.max_union`.
    pub truncated_unions: usize,
}

impl CandidateSet {
    /// Total candidates dropped by limits.
    pub fn truncated(&self) -> usize {
        self.truncated_joins + self.truncated_unions
    }

    /// Number of evaluable candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True iff nothing survived validation.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Resolve every candidate into its boundary form (for the raw-relation
    /// baselines, which address providers by name).
    pub fn resolve(&self, names: &DatasetInterner) -> Vec<Augmentation> {
        self.candidates.iter().map(|c| c.resolve(names)).collect()
    }
}

impl From<Vec<Candidate>> for CandidateSet {
    fn from(candidates: Vec<Candidate>) -> Self {
        CandidateSet { candidates, ..Default::default() }
    }
}

/// Enumerate candidates for a request: run (indexed) discovery, keep only
/// candidates the sketch store can actually evaluate (join candidates need
/// a keyed sketch on the join column; union candidates need a full
/// sketch), and cap each class at its limit — keeping the top-ranked
/// candidates and counting the rest as truncated.
///
/// The pipeline is allocation-lean by construction: discovery hands over
/// ids + shared `Arc<str>` column names, store validation probes by id,
/// and the resulting [`Candidate`]s flow into `CandidateCache::build`
/// without ever materializing a name.
pub fn enumerate_candidates(
    index: &DiscoveryIndex,
    store: &SketchStore,
    query_profile: &DatasetProfile,
    limits: &CandidateLimits,
) -> CandidateSet {
    let mut set = CandidateSet::default();
    let mut kept_joins = 0usize;
    for jc in index.find_join_candidates(query_profile) {
        let Ok(sketch) = store.get_by_id(jc.dataset) else { continue };
        if sketch.keyed_for(&jc.candidate_column).is_err() {
            continue;
        }
        if kept_joins >= limits.max_join {
            set.truncated_joins += 1;
            continue;
        }
        kept_joins += 1;
        set.candidates.push(Candidate::Join {
            dataset: jc.dataset,
            query_key: jc.query_column,
            candidate_key: jc.candidate_column,
            similarity: jc.jaccard,
        });
    }
    let mut kept_unions = 0usize;
    for uc in index.find_union_candidates(query_profile) {
        if !store.contains_id(uc.dataset) {
            continue;
        }
        if kept_unions >= limits.max_union {
            set.truncated_unions += 1;
            continue;
        }
        kept_unions += 1;
        set.candidates.push(Candidate::Union { dataset: uc.dataset, similarity: uc.score });
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use mileena_discovery::DiscoveryConfig;
    use mileena_relation::RelationBuilder;
    use mileena_sketch::{build_sketch, SketchConfig};

    fn fixture() -> (DiscoveryIndex, SketchStore, DatasetProfile) {
        let train = RelationBuilder::new("train")
            .int_col("zone", &(0..40).collect::<Vec<_>>())
            .float_col("y", &(0..40).map(|i| i as f64).collect::<Vec<_>>())
            .build()
            .unwrap();
        let prov = RelationBuilder::new("prov")
            .int_col("zone", &(0..40).collect::<Vec<_>>())
            .float_col("f", &(0..40).map(|i| (i as f64).sin()).collect::<Vec<_>>())
            .build()
            .unwrap();
        let ghost = RelationBuilder::new("ghost")
            .int_col("zone", &(0..40).collect::<Vec<_>>())
            .float_col("g", &[0.5; 40])
            .build()
            .unwrap();

        let mut index = DiscoveryIndex::new(DiscoveryConfig::default());
        index.register(mileena_discovery::DatasetProfile::of(&prov, 128));
        index.register(mileena_discovery::DatasetProfile::of(&ghost, 128));

        // Only `prov` is registered in the sketch store.
        let store = SketchStore::new();
        store.register(build_sketch(&prov, &SketchConfig::default()).unwrap()).unwrap();

        let q = mileena_discovery::DatasetProfile::of(&train, 128);
        (index, store, q)
    }

    #[test]
    fn candidates_require_store_backing() {
        let (index, store, q) = fixture();
        let set = enumerate_candidates(&index, &store, &q, &CandidateLimits::default());
        assert_eq!(set.len(), 1, "{set:?}");
        assert_eq!(set.truncated(), 0);
        let aug = set.candidates[0].resolve(store.dataset_interner());
        assert_eq!(aug.dataset(), "prov");
        assert!(aug.describe().contains("⋈"));
    }

    #[test]
    fn limits_truncate_and_report() {
        let (index, store, q) = fixture();
        let limits = CandidateLimits { max_join: 0, max_union: 0 };
        let set = enumerate_candidates(&index, &store, &q, &limits);
        assert!(set.is_empty());
        assert_eq!(set.truncated_joins, 1, "the store-backed join is counted, ghost is not");
        assert_eq!(set.truncated_unions, 0);
    }

    #[test]
    fn isolated_dataset_interner_pair_enumerates() {
        // Multi-tenant mode: index and store share one isolated dataset
        // interner (`DiscoveryIndex::with_interner` +
        // `SketchStore::with_dataset_interner`), so discovered ids resolve in the
        // store even though the global interner never saw these names.
        let ids = DatasetInterner::new();
        let train = RelationBuilder::new("iso-train")
            .int_col("zone", &(0..40).collect::<Vec<_>>())
            .float_col("y", &(0..40).map(|i| i as f64).collect::<Vec<_>>())
            .build()
            .unwrap();
        let prov = RelationBuilder::new("iso-prov")
            .int_col("zone", &(0..40).collect::<Vec<_>>())
            .float_col("f", &(0..40).map(|i| (i as f64).cos()).collect::<Vec<_>>())
            .build()
            .unwrap();
        let mut index = DiscoveryIndex::with_interner(DiscoveryConfig::default(), Arc::clone(&ids));
        index.register(mileena_discovery::DatasetProfile::of(&prov, 128));
        let store = SketchStore::with_dataset_interner(Arc::clone(&ids));
        store.register(build_sketch(&prov, &SketchConfig::default()).unwrap()).unwrap();

        let q = mileena_discovery::DatasetProfile::of(&train, 128);
        let set = enumerate_candidates(&index, &store, &q, &CandidateLimits::default());
        assert_eq!(set.len(), 1, "{set:?}");
        assert_eq!(set.candidates[0].resolve(&ids).dataset(), "iso-prov");
    }

    #[test]
    fn resolve_falls_back_for_unknown_ids() {
        // Resolution never panics: an id the interner has never seen (only
        // constructible via a foreign interner) formats as dataset#N.
        let foreign = DatasetInterner::new();
        let id = foreign.intern("elsewhere");
        let cand = Candidate::Union { dataset: id, similarity: 1.0 };
        let isolated = DatasetInterner::new();
        let aug = cand.resolve(&isolated);
        assert_eq!(aug.dataset(), format!("{id}"));
    }
}
