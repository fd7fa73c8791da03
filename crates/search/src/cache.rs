//! Per-search candidate projection cache.
//!
//! The greedy loop evaluates every remaining candidate every round. Before
//! this cache, each evaluation re-fetched the candidate's sketch from the
//! store (lock + `Arc` clone) and re-projected it onto the task feature
//! space — a fresh O(d·m²) allocation pass per evaluation, repeated across
//! rounds. [`CandidateCache::build`] does that work **once** per candidate
//! (in parallel), so a round's evaluation touches only pre-projected arena
//! slabs.
//!
//! Cache validity:
//! - join projections depend only on the candidate itself — valid forever;
//! - union projections target the requester's feature space, which joins
//!   grow — entries carry their target (`want`) and are re-projected on
//!   mismatch (after a join, a union candidate lacking the joined features
//!   fails that re-projection and is dropped, exactly like the uncached
//!   path).

use crate::candidates::Candidate;
use crate::error::Result;
use crate::proxy::{
    project_join_candidate, CandidateScore, JoinProjection, ProxyState, UnionProjection,
};
use mileena_sketch::{DatasetSketch, SketchStore};
use rayon::prelude::*;
use std::sync::Arc;

/// What a candidate pre-computes for the evaluation loop.
#[derive(Debug, Clone)]
enum CachedKind {
    /// Join: projection is state-independent.
    Join(JoinProjection),
    /// Union: projection targets a feature space; the sketch is kept for
    /// re-projection after joins change that space.
    Union(UnionProjection, Arc<DatasetSketch>),
}

/// One cached candidate, ready to evaluate against any [`ProxyState`]
/// descended from the state the cache was built for.
#[derive(Debug, Clone)]
pub struct CachedCandidate {
    /// The candidate this entry evaluates (id-based: cloning or reading it
    /// never touches a dataset name).
    pub aug: Candidate,
    /// Admissible upper bound on this candidate's score under the state
    /// epoch the cache (or the last [`CachedCandidate::refresh`]) saw:
    /// `score ≤ bound` whenever the candidate evaluates at all, and `-∞`
    /// when it cannot evaluate. Joins are bounded by the least-squares
    /// ceiling on their test-side join statistics; unions share the
    /// current feature set's ceiling (see `ProxyState::{join,union}_score_bound`).
    /// Valid until a commit changes the feature space — the greedy loop
    /// refreshes entries exactly then.
    pub bound: f64,
    /// This candidate's index in the candidate vector the cache was built
    /// from. The search loop maps it to the candidate's position in the
    /// global enumeration, its cross-partition tie-break key.
    pub position: usize,
    kind: CachedKind,
}

impl CachedCandidate {
    /// Score this candidate against the current state without committing.
    pub fn evaluate(&self, state: &ProxyState) -> Result<CandidateScore> {
        match &self.kind {
            CachedKind::Join(projection) => {
                state.evaluate_join_cached(self.aug.dataset(), self.query_key(), projection)
            }
            CachedKind::Union(projection, sketch) => {
                if state.union_projection_valid(projection) {
                    state.evaluate_union_cached(projection)
                } else {
                    // Feature space moved (a join committed): re-project.
                    let fresh = state.project_union_candidate(sketch)?;
                    state.evaluate_union_cached(&fresh)
                }
            }
        }
    }

    /// Commit this candidate into the state. `cand_name` is the resolved
    /// dataset name (commits are once-per-round, after the caller has
    /// materialized the boundary form), so errors stay operator-readable.
    pub fn apply(&self, state: &mut ProxyState, cand_name: &str) -> Result<()> {
        match &self.kind {
            CachedKind::Join(projection) => {
                state.apply_join_cached(cand_name, self.query_key(), projection)
            }
            CachedKind::Union(projection, sketch) => {
                if state.union_projection_valid(projection) {
                    state.apply_union_cached(projection)
                } else {
                    let fresh = state.project_union_candidate(sketch)?;
                    state.apply_union_cached(&fresh)
                }
            }
        }
    }

    /// Re-align a stale union projection after a committed join changed the
    /// feature space, and recompute the score bound against the new state
    /// epoch; returns `false` when the candidate can no longer evaluate
    /// (then it should be dropped). The greedy loop calls this once per
    /// join commit so evaluations never re-project.
    ///
    /// `shared_union_bound` is the new epoch's union ceiling, computed
    /// **once** by the caller (it is identical for every union entry);
    /// `None` means the search runs exhaustively and bounds are never
    /// read, so none are recomputed.
    pub fn refresh(&mut self, state: &ProxyState, shared_union_bound: Option<f64>) -> bool {
        match &mut self.kind {
            CachedKind::Join(projection) => {
                if shared_union_bound.is_some() {
                    let query_key = match &self.aug {
                        Candidate::Join { query_key, .. } => query_key.as_ref(),
                        Candidate::Union { .. } => unreachable!("join entry carries a join aug"),
                    };
                    self.bound = state.join_score_bound(query_key, projection);
                }
                true
            }
            CachedKind::Union(projection, sketch) => {
                if !state.union_projection_valid(projection) {
                    match state.project_union_candidate(sketch) {
                        Ok(fresh) => *projection = fresh,
                        Err(_) => return false,
                    }
                }
                if let Some(bound) = shared_union_bound {
                    self.bound = bound;
                }
                true
            }
        }
    }

    fn query_key(&self) -> &str {
        match &self.aug {
            Candidate::Join { query_key, .. } => query_key,
            Candidate::Union { .. } => unreachable!("unions have no query key"),
        }
    }
}

/// The projected candidate set for one search.
#[derive(Debug, Clone, Default)]
pub struct CandidateCache {
    entries: Vec<CachedCandidate>,
    /// Candidates whose projection failed outright (missing keyed sketch,
    /// no features to add, missing task columns) — they could never score
    /// under any state, so they are dropped before round 1.
    pub dropped: usize,
}

impl CandidateCache {
    /// Project every candidate once, in parallel, against the initial
    /// state's feature space. With `compute_bounds` (the pruned plan),
    /// each entry also gets its admissible score bound — the union ceiling
    /// is shared, one solve for all unions; the exhaustive plan skips the
    /// bound work entirely (it never reads them).
    pub fn build(
        state: &ProxyState,
        candidates: Vec<Candidate>,
        store: &SketchStore,
        compute_bounds: bool,
    ) -> CandidateCache {
        let union_bound = (compute_bounds
            && candidates.iter().any(|a| matches!(a, Candidate::Union { .. })))
        .then(|| state.union_score_bound());
        let projected: Vec<Option<CachedCandidate>> = candidates
            .par_iter()
            .enumerate()
            .map(|(position, aug)| {
                let sketch = store.get_by_id(aug.dataset()).ok()?;
                let (kind, bound) = match aug {
                    Candidate::Join { query_key, candidate_key, .. } => {
                        let projection = project_join_candidate(&sketch, candidate_key).ok()?;
                        let bound = if compute_bounds {
                            state.join_score_bound(query_key, &projection)
                        } else {
                            f64::INFINITY
                        };
                        (CachedKind::Join(projection), bound)
                    }
                    Candidate::Union { .. } => (
                        CachedKind::Union(state.project_union_candidate(&sketch).ok()?, sketch),
                        union_bound.unwrap_or(f64::INFINITY),
                    ),
                };
                Some(CachedCandidate { aug: aug.clone(), bound, position, kind })
            })
            .collect();
        let total = projected.len();
        let entries: Vec<CachedCandidate> = projected.into_iter().flatten().collect();
        CandidateCache { dropped: total - entries.len(), entries }
    }

    /// The cached candidates (ownership passes to the greedy loop).
    pub fn into_entries(self) -> Vec<CachedCandidate> {
        self.entries
    }

    /// Number of cached candidates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing survived projection.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::Augmentation;
    use crate::request::TaskSpec;
    use mileena_relation::{DatasetInterner, RelationBuilder};
    use mileena_sketch::{build_sketch, SketchConfig};

    fn fixture() -> (ProxyState, SketchStore, Vec<Candidate>) {
        let zones: Vec<i64> = (0..50).collect();
        let train = RelationBuilder::new("train")
            .int_col("zone", &zones)
            .float_col("base_x", &zones.iter().map(|z| (*z % 7) as f64).collect::<Vec<_>>())
            .float_col("y", &zones.iter().map(|z| (*z % 5) as f64).collect::<Vec<_>>())
            .build()
            .unwrap();
        let prov = RelationBuilder::new("prov")
            .int_col("zone", &zones)
            .float_col("f", &zones.iter().map(|z| (*z % 3) as f64).collect::<Vec<_>>())
            .build()
            .unwrap();
        let req_cfg = SketchConfig {
            feature_columns: Some(vec!["base_x".into(), "y".into()]),
            key_columns: Some(vec!["zone".into()]),
            ..SketchConfig::requester()
        };
        let ts = build_sketch(&train, &req_cfg).unwrap();
        let state = ProxyState::new(&ts, &ts, &TaskSpec::new("y", &["base_x"]), 1e-6).unwrap();
        let store = SketchStore::new();
        store.register(build_sketch(&prov, &SketchConfig::default()).unwrap()).unwrap();
        let ids = DatasetInterner::global();
        let augs = vec![
            Candidate::Join {
                dataset: ids.intern("prov"),
                query_key: "zone".into(),
                candidate_key: "zone".into(),
                similarity: 1.0,
            },
            Candidate::Join {
                // never registered in the store → dropped at build
                dataset: ids.intern("cache-test-ghost"),
                query_key: "zone".into(),
                candidate_key: "zone".into(),
                similarity: 1.0,
            },
        ];
        (state, store, augs)
    }

    #[test]
    fn build_projects_and_drops() {
        let (state, store, augs) = fixture();
        let cache = CandidateCache::build(&state, augs, &store, true);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.dropped, 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn cached_evaluate_matches_uncached() {
        let (state, store, augs) = fixture();
        let wire: Augmentation = augs[0].resolve(store.dataset_interner());
        let uncached = state.evaluate(&wire, &store.get("prov").unwrap()).unwrap();
        let cache = CandidateCache::build(&state, augs, &store, true);
        let entry = &cache.into_entries()[0];
        let cached = entry.evaluate(&state).unwrap();
        assert_eq!(uncached.test_r2, cached.test_r2);
        assert_eq!(uncached.matched_keys, cached.matched_keys);
    }

    #[test]
    fn cached_apply_commits() {
        let (mut state, store, augs) = fixture();
        let cache = CandidateCache::build(&state, augs, &store, true);
        let entries = cache.into_entries();
        entries[0].apply(&mut state, "prov").unwrap();
        assert_eq!(state.active_join_key(), Some("zone"));
        assert!(state.features().iter().any(|f| f == "prov.f"));
    }
}
