//! The proxy-model evaluation state: everything needed to score a candidate
//! augmentation in milliseconds, without touching raw data.
//!
//! [`ProxyState`] tracks the (virtual) augmented training/test relations as
//! covariance triples plus per-join-key grouped sketches (arena layout: one
//! shared schema + flat `c`/`s`/`q` slabs per sketch). Scoring a candidate
//! composes sketches (O(1) union / O(d) join) and solves the k×k ridge
//! system — independent of relation sizes, the §3.2 claim.
//!
//! The per-candidate projection onto the task feature space is split out
//! ([`project_join_candidate`], [`ProxyState::project_union_candidate`]) so
//! the search loop can compute it **once** per candidate and reuse it across
//! every greedy round ([`crate::cache::CandidateCache`]); the one-shot
//! [`ProxyState::evaluate`] / [`ProxyState::apply`] API projects on the fly.
//!
//! Multi-join policy: vertical augmentations compose exactly when they share
//! one requester join key (the grouped state threads through
//! `compose_keyed`). The first selected join fixes that key; candidates on
//! other keys are skipped afterwards. This is the one simplification vs the
//! paper's (unspecified) multi-key handling, documented in DESIGN.md.

use crate::error::{Result, SearchError};
use crate::request::TaskSpec;
use mileena_ml::{LinearModel, RidgeConfig};
use mileena_relation::{DatasetId, FxHashMap};
use mileena_semiring::{packed_idx, CovarTriple, GroupedArena, LrSystem};
use mileena_sketch::{eval_join, eval_union, DatasetSketch, KeyedSketch};
use std::cell::RefCell;

/// Absolute slack added to computed score bounds. The bound solve (an
/// unregularized least-squares fit on test statistics) is exact-arithmetic
/// admissible; this margin absorbs solver rounding so a candidate whose
/// true score sits within float noise of its ceiling is still evaluated
/// rather than wrongly pruned. Pruning stays bit-identical to exhaustive
/// evaluation as long as `score ≤ bound` holds, which the slack guarantees
/// in practice (pinned by `pruned_matches_exhaustive_reference`).
const BOUND_SLACK: f64 = 1e-7;

/// Outcome of evaluating one candidate (before committing it).
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// Test-utility (R²) of the proxy trained on the augmented statistics.
    pub test_r2: f64,
    /// Join keys matched (0 for unions).
    pub matched_keys: usize,
    /// Augmented-train row count (after join fan-in/out).
    pub train_rows: f64,
}

/// Pre-staged state for scoring and (optionally) committing a candidate.
///
/// Scoring needs only the combined triples; the composed per-key sketches
/// and union fold-in sketches are built **only on the commit path** — they
/// were the last per-evaluation allocations left after the projection cache
/// (composing re-groups d keys over (m_a+m_b)² slabs per evaluation, all of
/// it thrown away for the ~N−1 candidates that don't win the round).
#[derive(Debug, Clone)]
struct Staged {
    train_triple: CovarTriple,
    test_triple: CovarTriple,
    new_features: Vec<String>,
    /// Join keys matched (0 for unions); valid on score-only staging too.
    matched_keys: usize,
    /// For committed joins: the composed per-key sketches (train, test).
    composed: Option<(String, KeyedSketch, KeyedSketch)>,
    /// For committed unions: candidate keyed sketches to fold in, by key.
    union_keyed: Option<Vec<(String, KeyedSketch)>>,
}

/// A join candidate's sketch projected onto exactly the features it would
/// add — computed once per candidate, reused every round.
#[derive(Debug, Clone)]
pub struct JoinProjection {
    /// Projected keyed sketch over the added features.
    pub proj: KeyedSketch,
    /// Qualified feature names the join would add.
    pub added: Vec<String>,
}

/// A union candidate renamed and projected onto the requester's current
/// feature space, plus its keyed sketches for every tracked join key.
#[derive(Debug, Clone)]
pub struct UnionProjection {
    /// The feature-space epoch this projection targets — the cache validity
    /// tag. Joins bump the state's epoch (they grow the feature space), so
    /// validity is one integer compare per evaluation instead of a
    /// `Vec<String>` equality walk.
    pub epoch: u64,
    /// Debug-build cross-check: the feature list the epoch tag stands for,
    /// kept only to assert the tag never diverges from the comparison it
    /// replaced. Release builds carry (and clone) no feature-name list.
    #[cfg(debug_assertions)]
    pub want: Vec<String>,
    /// The candidate's full triple on that feature space.
    pub projected: CovarTriple,
    /// Per-tracked-key candidate sketches, projected the same way.
    pub union_keyed: Vec<(String, KeyedSketch)>,
}

/// Reusable join-evaluation accumulators: train and test `(s, packed q)`.
#[derive(Default)]
struct JoinEvalScratch {
    s_train: Vec<f64>,
    q_train: Vec<f64>,
    s_test: Vec<f64>,
    q_test: Vec<f64>,
}

thread_local! {
    /// Join-evaluation accumulators reused across a worker's whole round:
    /// zero per-evaluation allocation for the sums.
    static EVAL_SCRATCH: RefCell<JoinEvalScratch> = RefCell::new(JoinEvalScratch::default());
}

/// Build the ridge normal-equation system straight from packed join
/// scratch over the staged feature space of width `m`, with the model
/// features being every staged feature except the target at `t` (in staged
/// order) plus a leading intercept. Field-for-field identical to
/// `CovarTriple::lr_system` on the materialized staged triple — the packed
/// entry `(i ≤ j)` *is* the symmetric `q[i, j]` — so scoring through this
/// path is bit-identical to the staged path.
fn lr_system_from_packed(c: f64, s: &[f64], qp: &[f64], m: usize, t: usize) -> LrSystem {
    debug_assert!(t < m && s.len() == m);
    let k = m; // (m − 1) model features + intercept
    let mut xtx = vec![0.0; k * k];
    let mut xty = vec![0.0; k];
    xtx[0] = c;
    xty[0] = s[t];
    let q_at = |i: usize, j: usize| {
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        qp[packed_idx(lo, hi, m)]
    };
    for (a, i) in (0..m).filter(|&i| i != t).enumerate() {
        xtx[a + 1] = s[i];
        xtx[(a + 1) * k] = s[i];
        xty[a + 1] = q_at(i, t);
        for (b, j) in (0..m).filter(|&j| j != t).enumerate() {
            xtx[(a + 1) * k + (b + 1)] = q_at(i, j);
        }
    }
    LrSystem { xtx, xty, yty: q_at(t, t), y_sum: s[t], n: c, k }
}

/// Project a join candidate's keyed sketch onto the features it adds
/// (everything it sketches minus the join key column itself). This is the
/// state-independent, O(d·m²) half of join staging — the cacheable part.
pub fn project_join_candidate(cand: &DatasetSketch, candidate_key: &str) -> Result<JoinProjection> {
    let cand_k = cand.keyed_for(candidate_key)?;
    let key_feature = mileena_sketch::qualify(&cand.name, candidate_key);
    let added: Vec<String> = cand.features.iter().filter(|f| **f != key_feature).cloned().collect();
    if added.is_empty() {
        return Err(SearchError::Sketch(format!("join candidate {} adds no features", cand.name)));
    }
    let added_refs: Vec<&str> = added.iter().map(|s| s.as_str()).collect();
    let arena = cand_k.arena().project(&added_refs)?;
    Ok(JoinProjection { proj: KeyedSketch::from_arena(cand_k.key_column.clone(), arena), added })
}

/// The evolving augmented-task state.
#[derive(Debug, Clone)]
pub struct ProxyState {
    /// γ of the (virtually) augmented training relation.
    train_triple: CovarTriple,
    /// γ of the (virtually) augmented test relation (joins only).
    test_triple: CovarTriple,
    /// Exact per-key grouped sketches of the augmented train relation.
    train_keyed: FxHashMap<String, KeyedSketch>,
    /// Same for test.
    test_keyed: FxHashMap<String, KeyedSketch>,
    /// Key fixed by the first vertical augmentation.
    active_join_key: Option<String>,
    /// Current model features (target excluded).
    features: Vec<String>,
    /// Feature-space version: bumped on every commit that grows the
    /// feature space (i.e. every join). Union projections are tagged with
    /// the epoch they targeted, making staleness a single integer compare.
    feature_epoch: u64,
    /// Target column.
    target: String,
    /// Ridge λ for the proxy.
    lambda: f64,
}

impl ProxyState {
    /// Build the initial state from requester sketches (built with
    /// `SketchConfig::requester()` over the task columns).
    pub fn new(
        train: &DatasetSketch,
        test: &DatasetSketch,
        task: &TaskSpec,
        lambda: f64,
    ) -> Result<Self> {
        for c in task.all_columns() {
            if !train.features.iter().any(|f| f == c) {
                return Err(SearchError::InvalidTask(format!(
                    "task column {c} not sketched in train"
                )));
            }
            if !test.features.iter().any(|f| f == c) {
                return Err(SearchError::InvalidTask(format!(
                    "task column {c} not sketched in test"
                )));
            }
        }
        let cols = task.all_columns();
        let train_triple = train.full.project(&cols)?;
        let test_triple = test.full.project(&cols)?;
        // One arena projection per keyed sketch: single pass over the slabs,
        // no per-key triple clones.
        let project_keyed = |ks: &KeyedSketch| -> Result<KeyedSketch> {
            Ok(KeyedSketch::from_arena(ks.key_column.clone(), ks.arena().project(&cols)?))
        };
        let mut train_keyed = FxHashMap::default();
        for ks in &train.keyed {
            train_keyed.insert(ks.key_column.clone(), project_keyed(ks)?);
        }
        let mut test_keyed = FxHashMap::default();
        for ks in &test.keyed {
            test_keyed.insert(ks.key_column.clone(), project_keyed(ks)?);
        }
        Ok(ProxyState {
            train_triple,
            test_triple,
            train_keyed,
            test_keyed,
            active_join_key: None,
            features: task.features.clone(),
            feature_epoch: 0,
            target: task.target.clone(),
            lambda,
        })
    }

    /// Current model feature names (target excluded).
    pub fn features(&self) -> &[String] {
        &self.features
    }

    /// The current augmented-train covariance triple.
    pub fn train_triple(&self) -> &CovarTriple {
        &self.train_triple
    }

    /// The current augmented-test covariance triple.
    pub fn test_triple(&self) -> &CovarTriple {
        &self.test_triple
    }

    /// Current augmented-train row count.
    pub fn train_rows(&self) -> f64 {
        self.train_triple.c
    }

    /// The join key locked in by the first vertical augmentation, if any.
    pub fn active_join_key(&self) -> Option<&str> {
        self.active_join_key.as_deref()
    }

    /// Join-key columns currently tracked exactly.
    pub fn tracked_keys(&self) -> Vec<&str> {
        self.train_keyed.keys().map(|k| k.as_str()).collect()
    }

    /// Train the ridge proxy on `train` stats and score R² on `test` stats,
    /// over the given feature set.
    fn score_triples(
        &self,
        train: &CovarTriple,
        test: &CovarTriple,
        features: &[String],
    ) -> Result<f64> {
        let frefs: Vec<&str> = features.iter().map(|s| s.as_str()).collect();
        let train_sys = train.lr_system(&frefs, &self.target, true)?;
        let test_sys = test.lr_system(&frefs, &self.target, true)?;
        let mut model = LinearModel::new(RidgeConfig { lambda: self.lambda, intercept: true });
        model.fit_from_system(&train_sys)?;
        Ok(model.r2_from_system(&test_sys)?)
    }

    /// Utility of the *current* state (test R² of the proxy).
    pub fn current_score(&self) -> Result<f64> {
        self.score_triples(&self.train_triple, &self.test_triple, &self.features)
    }

    /// Admissible ceiling on any candidate's score over the given test-side
    /// regression system: the R² of the least-squares fit on the *test*
    /// system itself (λ = 0, intercept). Every candidate is scored as
    /// `R²_test(model trained on train)`, and no model — however trained —
    /// can beat the best linear fit on the test statistics, so
    /// `score ≤ ceiling` in exact arithmetic. [`BOUND_SLACK`] covers solver
    /// rounding; an unsolvable system yields `+∞` (never pruned).
    ///
    /// Two hardening layers keep the bound admissible in floating point:
    /// the solve is **strict** — a degenerate system never falls back to
    /// the solver's jitter approximation (whose R² carries no maximality
    /// guarantee) but yields `+∞` instead — and the ceiling also folds in
    /// the R² of the λ = `self.lambda` fit on the same system, which
    /// reproduces a candidate's own solve verbatim in the regime where the
    /// bound is tightest (train statistics ≈ test statistics), making that
    /// case independent of conditioning.
    fn r2_ceiling(&self, sys: &LrSystem) -> f64 {
        let fit_r2 = |lambda: f64| -> f64 {
            let mut model = LinearModel::new(RidgeConfig { lambda, intercept: true });
            if model.fit_from_system_strict(sys).is_err() {
                return f64::INFINITY;
            }
            match model.r2_from_system(sys) {
                Ok(r2) if r2.is_finite() => r2,
                _ => f64::INFINITY,
            }
        };
        fit_r2(0.0).max(fit_r2(self.lambda)) + BOUND_SLACK
    }

    /// Score bound shared by every union candidate under this state: unions
    /// add no features and never touch the test triple, so their scores are
    /// capped by the current feature set's ceiling on the current test
    /// statistics. Valid until a join commit changes the feature space.
    pub fn union_score_bound(&self) -> f64 {
        let frefs: Vec<&str> = self.features.iter().map(|s| s.as_str()).collect();
        match self.test_triple.lr_system(&frefs, &self.target, true) {
            Ok(sys) => self.r2_ceiling(&sys),
            Err(_) => f64::INFINITY,
        }
    }

    /// Score bound for a join candidate from its cached projection: the
    /// ceiling over the augmented feature set on the *test-side* join
    /// statistics (one O(d) join + one small solve, done once per feature-
    /// space epoch — not per round). `-∞` marks candidates that cannot
    /// evaluate under this state at all (conflicting key, untracked key,
    /// empty test overlap); the exhaustive path scores those as `None`, so
    /// skipping them is parity-safe.
    ///
    /// Runs on the same thread-local packed scratch and the same
    /// [`lr_system_from_packed`] as [`ProxyState::evaluate_join_cached`]
    /// (see there for why the staged feature order needs no names): no
    /// triple is materialized, no feature-name list is cloned, and the
    /// system is filled by position, not by looking each feature up.
    pub fn join_score_bound(&self, query_key: &str, projection: &JoinProjection) -> f64 {
        let Ok((_, test_k)) = self.join_keyed_pair(query_key) else {
            return f64::NEG_INFINITY;
        };
        let (ta, ca) = (test_k.arena(), projection.proj.arena());
        let Ok((m, t_idx)) = self.staged_frame(ta, ca) else {
            return f64::NEG_INFINITY;
        };
        EVAL_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let (c, matched) = ta.join_stats_into(ca, &mut scratch.s_test, &mut scratch.q_test);
            if matched == 0 {
                return f64::NEG_INFINITY;
            }
            let sys = lr_system_from_packed(c, &scratch.s_test, &scratch.q_test, m, t_idx);
            self.r2_ceiling(&sys)
        })
    }

    /// Rename and project a union candidate onto the requester's current
    /// feature space — the cacheable half of union staging (valid while the
    /// train feature space is unchanged, i.e. until a join commits).
    pub fn project_union_candidate(&self, cand: &DatasetSketch) -> Result<UnionProjection> {
        // Map provider-qualified names back to raw; require every task
        // column present.
        let prefix = format!("{}.", cand.name);
        let rename = |qualified: &str| -> String {
            qualified.strip_prefix(&prefix).unwrap_or(qualified).to_string()
        };
        let renamed = cand.full.rename_features(|n| rename(n));
        let want = &self.train_triple.features;
        let want_refs: Vec<&str> = want.iter().map(|s| s.as_str()).collect();
        let projected = renamed.project(&want_refs).map_err(|_| {
            SearchError::Sketch(format!(
                "union candidate {} lacks task columns {want:?}",
                cand.name
            ))
        })?;

        // Collect candidate keyed sketches for keys we still track exactly,
        // projected and renamed the same way (one arena pass per key).
        let mut union_keyed = Vec::new();
        for key in self.train_keyed.keys() {
            if let Ok(ks) = cand.keyed_for(key) {
                let renamed_arena = ks.arena().renamed(|n| rename(n));
                if let Ok(projected_arena) = renamed_arena.project(&want_refs) {
                    union_keyed
                        .push((key.clone(), KeyedSketch::from_arena(key.clone(), projected_arena)));
                }
            }
        }
        Ok(UnionProjection {
            epoch: self.feature_epoch,
            #[cfg(debug_assertions)]
            want: want.clone(),
            projected,
            union_keyed,
        })
    }

    /// Stage a union candidate from its (possibly cached) projection.
    /// `for_commit` controls whether the fold-in keyed sketches are cloned
    /// (score-only staging skips them).
    fn stage_union_with(&self, proj: &UnionProjection, for_commit: bool) -> Result<Staged> {
        let stats = eval_union(&self.train_triple, &proj.projected, |n| n.to_string())?;
        Ok(Staged {
            train_triple: stats.triple,
            test_triple: self.test_triple.clone(),
            new_features: Vec::new(),
            matched_keys: 0,
            composed: None,
            union_keyed: for_commit.then(|| proj.union_keyed.clone()),
        })
    }

    /// The join preconditions shared by staging, cached evaluation, and the
    /// score bound: enforce the single-key composition policy and resolve
    /// the grouped train/test sketches for `query_key`. One home for these
    /// checks keeps the fast path, the reference path, and the pruning
    /// bound in lockstep.
    fn join_keyed_pair(&self, query_key: &str) -> Result<(&KeyedSketch, &KeyedSketch)> {
        if let Some(active) = &self.active_join_key {
            if active != query_key {
                return Err(SearchError::Sketch(format!(
                    "join key {query_key} conflicts with active key {active} \
                     (single-key composition policy)"
                )));
            }
        }
        let train_k = self.train_keyed.get(query_key).ok_or_else(|| {
            SearchError::Sketch(format!("no grouped train sketch for key {query_key}"))
        })?;
        let test_k = self.test_keyed.get(query_key).ok_or_else(|| {
            SearchError::Sketch(format!("no grouped test sketch for key {query_key}"))
        })?;
        Ok((train_k, test_k))
    }

    /// The staged feature space `[state schema ++ candidate schema]` of a
    /// join scored on packed scratch: its width and the target's index in
    /// it. Errors when the two schemas overlap (the join is undefined).
    fn staged_frame(
        &self,
        state_arena: &GroupedArena,
        candidate_arena: &GroupedArena,
    ) -> Result<(usize, usize)> {
        let shared = state_arena.shared_features(candidate_arena);
        if !shared.is_empty() {
            return Err(mileena_semiring::SemiringError::FeatureOverlap(shared).into());
        }
        let t_idx =
            state_arena.schema().iter().position(|f| *f == self.target).ok_or_else(|| {
                SearchError::InvalidTask(format!("target {} not tracked", self.target))
            })?;
        Ok((state_arena.num_features() + candidate_arena.num_features(), t_idx))
    }

    /// Stage a join candidate from its (possibly cached) projection.
    /// `for_commit` controls whether the composed per-key sketches are
    /// built (only a committed join needs them).
    fn stage_join_with(
        &self,
        cand_name: &str,
        query_key: &str,
        projection: &JoinProjection,
        for_commit: bool,
    ) -> Result<Staged> {
        let (train_k, test_k) = self.join_keyed_pair(query_key)?;
        let train_stats = eval_join(train_k, &projection.proj)?;
        let test_stats = eval_join(test_k, &projection.proj)?;
        if train_stats.matched_keys == 0 || test_stats.matched_keys == 0 {
            return Err(SearchError::Sketch(format!("join with {cand_name} matches no keys")));
        }
        let composed = if for_commit {
            let composed_train = mileena_sketch::augment::compose_keyed(train_k, &projection.proj)?;
            let composed_test = mileena_sketch::augment::compose_keyed(test_k, &projection.proj)?;
            Some((query_key.to_string(), composed_train, composed_test))
        } else {
            None
        };
        Ok(Staged {
            train_triple: train_stats.triple,
            test_triple: test_stats.triple,
            new_features: projection.added.clone(),
            matched_keys: train_stats.matched_keys,
            composed,
            union_keyed: None,
        })
    }

    fn stage(
        &self,
        aug: &crate::candidates::Augmentation,
        cand: &DatasetSketch,
        for_commit: bool,
    ) -> Result<Staged> {
        match aug {
            crate::candidates::Augmentation::Union { .. } => {
                self.stage_union_with(&self.project_union_candidate(cand)?, for_commit)
            }
            crate::candidates::Augmentation::Join { query_key, candidate_key, .. } => {
                let projection = project_join_candidate(cand, candidate_key)?;
                self.stage_join_with(&cand.name, query_key, &projection, for_commit)
            }
        }
    }

    fn score_staged(&self, staged: &Staged) -> Result<CandidateScore> {
        let mut features = self.features.clone();
        features.extend(staged.new_features.iter().cloned());
        let r2 = self.score_triples(&staged.train_triple, &staged.test_triple, &features)?;
        Ok(CandidateScore {
            test_r2: r2,
            matched_keys: staged.matched_keys,
            train_rows: staged.train_triple.c,
        })
    }

    fn commit(&mut self, staged: Staged) -> Result<()> {
        self.train_triple = staged.train_triple;
        self.test_triple = staged.test_triple;
        if !staged.new_features.is_empty() {
            // The feature space moved (a join): invalidate every cached
            // union projection tagged with the old epoch.
            self.feature_epoch += 1;
        }
        self.features.extend(staged.new_features);
        match (staged.composed, staged.union_keyed) {
            (Some((key, ctrain, ctest)), _) => {
                // Join: grouped state on the active key threads exactly;
                // other keys go stale and are dropped.
                self.train_keyed.clear();
                self.test_keyed.clear();
                self.train_keyed.insert(key.clone(), ctrain);
                self.test_keyed.insert(key.clone(), ctest);
                self.active_join_key = Some(key);
            }
            (None, Some(union_keyed)) => {
                // Union: fold candidate groups into keys we could map; keys
                // the candidate couldn't support go stale.
                let supported: Vec<String> = union_keyed.iter().map(|(k, _)| k.clone()).collect();
                self.train_keyed.retain(|k, _| supported.contains(k));
                self.test_keyed.retain(|k, _| supported.contains(k));
                for (key, ks) in union_keyed {
                    if let Some(existing) = self.train_keyed.get_mut(&key) {
                        existing.arena_mut().merge_add(ks.arena())?;
                    }
                }
                // Test keyed sketches are untouched by unions.
            }
            (None, None) => unreachable!("staged state always carries one branch"),
        }
        Ok(())
    }

    /// Score a candidate without committing it (projects on the fly; the
    /// greedy loop uses the cached variants below instead).
    pub fn evaluate(
        &self,
        aug: &crate::candidates::Augmentation,
        cand: &DatasetSketch,
    ) -> Result<CandidateScore> {
        let staged = self.stage(aug, cand, false)?;
        self.score_staged(&staged)
    }

    /// Score a candidate the way the pre-cache code did: re-project *and*
    /// pre-compose on every evaluation. Kept as the reference baseline for
    /// the `search_latency` cached-vs-uncached benchmark and the parity
    /// tests; produces identical scores to [`ProxyState::evaluate`].
    pub fn evaluate_reference(
        &self,
        aug: &crate::candidates::Augmentation,
        cand: &DatasetSketch,
    ) -> Result<CandidateScore> {
        let staged = self.stage(aug, cand, true)?;
        self.score_staged(&staged)
    }

    /// Score a join candidate from a cached projection — the hot-loop path:
    /// no store fetch, no projection, no composition, no per-key clones,
    /// and no staged-triple materialization at all. Both join accumulations
    /// land in thread-local packed scratch and the two ridge systems are
    /// built straight from it: the staged feature space is
    /// `[train_schema ++ added]`, the model features are exactly that space
    /// minus the target (in order — the invariant `train_schema =
    /// [task features, target, added...]` holds because `ProxyState::new`
    /// projects onto `task.all_columns()` and every join commit appends its
    /// added features), so no feature-name vector is ever constructed.
    /// Values are read from the same slabs the staged path would copy, so
    /// scores are bit-identical (pinned by
    /// `cached_join_evaluation_matches_one_shot` and the cached-vs-uncached
    /// parity tests).
    pub fn evaluate_join_cached(
        &self,
        dataset: DatasetId,
        query_key: &str,
        projection: &JoinProjection,
    ) -> Result<CandidateScore> {
        let (train_k, test_k) = self.join_keyed_pair(query_key)?;
        let (ta, ca) = (train_k.arena(), projection.proj.arena());
        let (m, t_idx) = self.staged_frame(ta, ca)?;

        EVAL_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let (c_train, matched_train) =
                ta.join_stats_into(ca, &mut scratch.s_train, &mut scratch.q_train);
            let (c_test, matched_test) =
                test_k.arena().join_stats_into(ca, &mut scratch.s_test, &mut scratch.q_test);
            if matched_train == 0 || matched_test == 0 {
                return Err(SearchError::Sketch(format!("join with {dataset} matches no keys")));
            }
            let train_sys =
                lr_system_from_packed(c_train, &scratch.s_train, &scratch.q_train, m, t_idx);
            let test_sys =
                lr_system_from_packed(c_test, &scratch.s_test, &scratch.q_test, m, t_idx);
            let mut model = LinearModel::new(RidgeConfig { lambda: self.lambda, intercept: true });
            model.fit_from_system(&train_sys)?;
            let r2 = model.r2_from_system(&test_sys)?;
            Ok(CandidateScore { test_r2: r2, matched_keys: matched_train, train_rows: c_train })
        })
    }

    /// Score a union candidate from a cached projection. The projection
    /// must target the current feature-space epoch; the cache re-projects
    /// when a join has grown it.
    pub fn evaluate_union_cached(&self, proj: &UnionProjection) -> Result<CandidateScore> {
        #[cfg(debug_assertions)]
        debug_assert_eq!(proj.want, self.train_triple.features);
        let staged = self.stage_union_with(proj, false)?;
        self.score_staged(&staged)
    }

    /// Whether a cached union projection still targets this state's feature
    /// space (joins invalidate it; unions don't). One integer compare — the
    /// per-evaluation staleness check on the union hot path.
    pub fn union_projection_valid(&self, proj: &UnionProjection) -> bool {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            proj.epoch == self.feature_epoch,
            proj.want == self.train_triple.features,
            "epoch tag must agree with the feature-space comparison it replaces"
        );
        proj.epoch == self.feature_epoch
    }

    /// Commit a candidate: update triples, grouped sketches, features, and
    /// the active join key.
    pub fn apply(
        &mut self,
        aug: &crate::candidates::Augmentation,
        cand: &DatasetSketch,
    ) -> Result<()> {
        let staged = self.stage(aug, cand, true)?;
        self.commit(staged)
    }

    /// Commit a join candidate from a cached projection. `cand_name` is the
    /// resolved dataset name — commits happen once per round, after the
    /// caller has already materialized the boundary form, so errors here
    /// name the dataset like the reference path does.
    pub fn apply_join_cached(
        &mut self,
        cand_name: &str,
        query_key: &str,
        projection: &JoinProjection,
    ) -> Result<()> {
        let staged = self.stage_join_with(cand_name, query_key, projection, true)?;
        self.commit(staged)
    }

    /// Commit a union candidate from a cached projection.
    pub fn apply_union_cached(&mut self, proj: &UnionProjection) -> Result<()> {
        let staged = self.stage_union_with(proj, true)?;
        self.commit(staged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::Augmentation;
    use mileena_relation::{Relation, RelationBuilder};
    use mileena_sketch::{build_sketch, SketchConfig};

    /// Train/test where y = 0.8·latent(zone) + small noise; provider carries
    /// the latent. Joining should push test R² from ~0 to near 1.
    fn fixtures() -> (Relation, Relation, Relation) {
        let latent = |z: i64| ((z * 37 % 100) as f64 / 50.0) - 1.0;
        let mk = |name: &str, n: usize, off: i64| {
            let zones: Vec<i64> = (0..n as i64).map(|i| (i + off) % 60).collect();
            let base: Vec<f64> = zones.iter().map(|&z| ((z * 13 % 7) as f64) / 7.0).collect();
            let y: Vec<f64> =
                zones.iter().map(|&z| 0.8 * latent(z) + 0.05 * ((z % 3) as f64)).collect();
            RelationBuilder::new(name)
                .int_col("zone", &zones)
                .float_col("base_x", &base)
                .float_col("y", &y)
                .build()
                .unwrap()
        };
        let prov_zones: Vec<i64> = (0..60).collect();
        let prov_feat: Vec<f64> = prov_zones.iter().map(|&z| latent(z)).collect();
        let prov = RelationBuilder::new("prov")
            .int_col("zone", &prov_zones)
            .float_col("lat", &prov_feat)
            .build()
            .unwrap();
        (mk("train", 200, 0), mk("test", 200, 7), prov)
    }

    fn requester_sketch(r: &Relation, cols: &[&str]) -> DatasetSketch {
        let cfg = SketchConfig {
            feature_columns: Some(cols.iter().map(|s| s.to_string()).collect()),
            key_columns: Some(vec!["zone".into()]),
            ..SketchConfig::requester()
        };
        build_sketch(r, &cfg).unwrap()
    }

    fn state() -> (ProxyState, DatasetSketch) {
        let (train, test, prov) = fixtures();
        let task = TaskSpec::new("y", &["base_x"]);
        let ts = requester_sketch(&train, &["base_x", "y"]);
        let es = requester_sketch(&test, &["base_x", "y"]);
        let ps = build_sketch(
            &prov,
            &SketchConfig {
                key_columns: Some(vec!["zone".into()]),
                feature_columns: Some(vec!["lat".into()]),
                ..Default::default()
            },
        )
        .unwrap();
        (ProxyState::new(&ts, &es, &task, 1e-6).unwrap(), ps)
    }

    fn join_aug(dataset: &str) -> Augmentation {
        Augmentation::Join {
            dataset: dataset.into(),
            query_key: "zone".into(),
            candidate_key: "zone".into(),
            similarity: 1.0,
        }
    }

    /// A provider sketch over `zones`, `rows_per_zone` rows each, with one
    /// feature column `feat`.
    fn provider(name: &str, feat: &str, zones: &[i64], rows_per_zone: usize) -> DatasetSketch {
        let keys: Vec<i64> =
            zones.iter().flat_map(|&z| std::iter::repeat_n(z, rows_per_zone)).collect();
        let vals: Vec<f64> =
            keys.iter().enumerate().map(|(i, &z)| ((z * 11 + i as i64) % 9) as f64 / 9.0).collect();
        let rel = RelationBuilder::new(name)
            .int_col("zone", &keys)
            .float_col(feat, &vals)
            .build()
            .unwrap();
        build_sketch(
            &rel,
            &SketchConfig {
                key_columns: Some(vec!["zone".into()]),
                feature_columns: Some(vec![feat.into()]),
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// The same state over freshly built grouped arenas (an identity
    /// projection copies the rows into a new arena), so nothing an arena
    /// remembered from earlier joins can reach a score computed on it.
    fn rebuilt(state: &ProxyState) -> ProxyState {
        let mut fresh = state.clone();
        for keyed in [&mut fresh.train_keyed, &mut fresh.test_keyed] {
            for ks in keyed.values_mut() {
                let names = ks.features().to_vec();
                let names: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
                let arena = ks.arena().project(&names).unwrap();
                *ks = KeyedSketch::from_arena(ks.key_column.clone(), arena);
            }
        }
        fresh
    }

    /// `join_score_bound` as it was before it moved onto packed scratch:
    /// materialize the test-side join triple, look the model features up by
    /// name, and take the ceiling of that system.
    fn join_score_bound_by_name(state: &ProxyState, projection: &JoinProjection) -> f64 {
        let fresh = rebuilt(state);
        let Ok((_, test_k)) = fresh.join_keyed_pair("zone") else {
            return f64::NEG_INFINITY;
        };
        let Ok(stats) = eval_join(test_k, &projection.proj) else {
            return f64::NEG_INFINITY;
        };
        if stats.matched_keys == 0 {
            return f64::NEG_INFINITY;
        }
        let mut features = state.features.clone();
        features.extend(projection.added.iter().cloned());
        let frefs: Vec<&str> = features.iter().map(|s| s.as_str()).collect();
        match stats.triple.lr_system(&frefs, &state.target, true) {
            Ok(sys) => state.r2_ceiling(&sys),
            Err(_) => f64::INFINITY,
        }
    }

    #[test]
    fn join_score_bound_matches_name_based_reference_bitwise() {
        let (mut state, prov_sketch) = state();
        let all: Vec<i64> = (0..60).collect();
        let candidates = [
            prov_sketch.clone(),                    // every key once: the shared block
            provider("twice", "t", &all, 2),        // every key, count 2: general path
            provider("some", "s", &all[10..40], 1), // partial coverage
            provider("wide", "w", &(0..90).collect::<Vec<_>>(), 1), // superset of keys
            provider("none", "n", &[500, 501], 1),  // no overlap: cannot evaluate
        ];
        // Epoch 0, then after a join commit grew the feature space (where
        // `prov` itself overlaps the state's features and cannot evaluate).
        for epoch in 0..2 {
            for cand in &candidates {
                let projection = project_join_candidate(cand, "zone").unwrap();
                let got = state.join_score_bound("zone", &projection);
                let want = join_score_bound_by_name(&state, &projection);
                assert_eq!(got.to_bits(), want.to_bits(), "{} at epoch {epoch}", cand.name);
                let evaluable = cand.name != "none" && !(epoch == 1 && cand.name == "prov");
                assert_eq!(got.is_finite(), evaluable, "{} at epoch {epoch}: {got}", cand.name);
                assert!(evaluable || got == f64::NEG_INFINITY);
                // A key the state does not track, or one that lost to the
                // active key.
                assert_eq!(state.join_score_bound("week", &projection), f64::NEG_INFINITY);
            }
            if epoch == 0 {
                state.apply(&join_aug("prov"), &prov_sketch).unwrap();
            }
        }
    }

    #[test]
    fn shared_state_block_follows_union_and_join_commits() {
        // `prov` and `g` hold every requester key exactly once, so their
        // joins read the state arenas' per-epoch row sums in place of
        // re-summing the rows. A commit that changes those rows must drop
        // the sums: compare against the same state over rebuilt arenas.
        let (mut state, prov_sketch) = state();
        let all: Vec<i64> = (0..60).collect();
        let g_sketch = provider("g", "g", &all, 1);
        let prov = project_join_candidate(&prov_sketch, "zone").unwrap();
        let g = project_join_candidate(&g_sketch, "zone").unwrap();
        // Only names the candidate in error messages.
        let id = mileena_relation::DatasetInterner::global().intern("candidate");
        let check = |state: &ProxyState, projection: &JoinProjection, what: &str| -> f64 {
            let fresh = rebuilt(state);
            let got = state.evaluate_join_cached(id, "zone", projection).unwrap();
            let want = fresh.evaluate_join_cached(id, "zone", projection).unwrap();
            assert_eq!(got.test_r2.to_bits(), want.test_r2.to_bits(), "score {what}");
            assert_eq!(got.train_rows.to_bits(), want.train_rows.to_bits(), "rows {what}");
            assert_eq!(
                state.join_score_bound("zone", projection).to_bits(),
                fresh.join_score_bound("zone", projection).to_bits(),
                "bound {what}"
            );
            got.test_r2
        };
        let before = check(&state, &prov, "before any commit");
        check(&state, &g, "second candidate, sums already filled");

        // A union commit folds rows into the tracked train arena in place.
        let (train, _, _) = fixtures();
        let more = build_sketch(
            &train.clone().with_name("more"),
            &SketchConfig {
                key_columns: Some(vec!["zone".into()]),
                feature_columns: Some(vec!["base_x".into(), "y".into()]),
                ..Default::default()
            },
        )
        .unwrap();
        let train_rows = state.train_rows();
        state
            .apply(&Augmentation::Union { dataset: "more".into(), similarity: 1.0 }, &more)
            .unwrap();
        assert_eq!(state.train_rows(), 2.0 * train_rows);
        check(&state, &prov, "after a union commit");
        check(&state, &g, "after a union commit");

        // A join commit replaces both tracked arenas.
        state.apply(&join_aug("prov"), &prov_sketch).unwrap();
        let after = check(&state, &g, "after a join commit");
        assert_ne!(before.to_bits(), after.to_bits(), "the commits moved the statistics");
    }

    #[test]
    fn interleaved_searches_never_share_a_state_block() {
        // Two requests with different statistics over the same keys and
        // the same schema, scored alternately on one thread — and with the
        // first state dropped and rebuilt in between, so an allocator may
        // hand its arenas' addresses to the second: each must still see
        // only its own rows.
        let (state_a, prov_sketch) = state();
        let prov = project_join_candidate(&prov_sketch, "zone").unwrap();
        let id = mileena_relation::DatasetInterner::global().intern("prov");
        let other_request = || {
            let (train, test, _) = fixtures();
            let task = TaskSpec::new("y", &["base_x"]);
            // Swapped roles: same keys and schema, different rows.
            let ts = requester_sketch(&test, &["base_x", "y"]);
            let es = requester_sketch(&train, &["base_x", "y"]);
            ProxyState::new(&ts, &es, &task, 1e-6).unwrap()
        };
        let score = |s: &ProxyState| {
            let r2 = s.evaluate_join_cached(id, "zone", &prov).unwrap().test_r2;
            (r2.to_bits(), s.join_score_bound("zone", &prov).to_bits())
        };
        let want_a = score(&rebuilt(&state_a));
        let want_b = score(&rebuilt(&other_request()));
        assert_ne!(want_a, want_b, "the two requests really differ");
        for _ in 0..4 {
            let state_b = other_request();
            assert_eq!(score(&state_a), want_a);
            assert_eq!(score(&state_b), want_b);
            drop(state_b);
            let state_a2 = state().0;
            assert_eq!(score(&state_a2), want_a);
        }
    }

    #[test]
    fn join_candidate_scores_high() {
        let (state, prov_sketch) = state();
        let base = state.current_score().unwrap();
        assert!(base < 0.3, "base R² should be weak, got {base}");
        let aug = Augmentation::Join {
            dataset: "prov".into(),
            query_key: "zone".into(),
            candidate_key: "zone".into(),
            similarity: 1.0,
        };
        let score = state.evaluate(&aug, &prov_sketch).unwrap();
        assert!(score.test_r2 > 0.9, "augmented R² {}", score.test_r2);
        assert!(score.matched_keys > 0);
    }

    #[test]
    fn cached_join_evaluation_matches_one_shot() {
        let (state, prov_sketch) = state();
        let aug = Augmentation::Join {
            dataset: "prov".into(),
            query_key: "zone".into(),
            candidate_key: "zone".into(),
            similarity: 1.0,
        };
        let one_shot = state.evaluate(&aug, &prov_sketch).unwrap();
        let projection = project_join_candidate(&prov_sketch, "zone").unwrap();
        let prov_id = mileena_relation::DatasetInterner::global().intern("prov");
        let cached = state.evaluate_join_cached(prov_id, "zone", &projection).unwrap();
        assert_eq!(one_shot.test_r2, cached.test_r2, "cached path must be bit-identical");
        assert_eq!(one_shot.matched_keys, cached.matched_keys);
        assert_eq!(one_shot.train_rows, cached.train_rows);
    }

    #[test]
    fn cached_union_evaluation_matches_one_shot() {
        let (state, _) = state();
        let (train, _, _) = fixtures();
        let more = train.clone().with_name("more");
        let us = build_sketch(
            &more,
            &SketchConfig {
                key_columns: Some(vec!["zone".into()]),
                feature_columns: Some(vec!["base_x".into(), "y".into()]),
                ..Default::default()
            },
        )
        .unwrap();
        let aug = Augmentation::Union { dataset: "more".into(), similarity: 1.0 };
        let one_shot = state.evaluate(&aug, &us).unwrap();
        let proj = state.project_union_candidate(&us).unwrap();
        assert!(state.union_projection_valid(&proj));
        let cached = state.evaluate_union_cached(&proj).unwrap();
        assert_eq!(one_shot.test_r2, cached.test_r2);
        assert_eq!(one_shot.train_rows, cached.train_rows);
    }

    #[test]
    fn apply_join_commits_state() {
        let (mut state, prov_sketch) = state();
        let aug = Augmentation::Join {
            dataset: "prov".into(),
            query_key: "zone".into(),
            candidate_key: "zone".into(),
            similarity: 1.0,
        };
        state.apply(&aug, &prov_sketch).unwrap();
        assert_eq!(state.active_join_key(), Some("zone"));
        assert!(state.features().iter().any(|f| f == "prov.lat"));
        let after = state.current_score().unwrap();
        assert!(after > 0.9, "{after}");
    }

    #[test]
    fn union_candidate_changes_train_only() {
        let (state, _) = state();
        let (train, _, _) = fixtures();
        // A union provider with the same schema (qualified names).
        let more = train.clone().with_name("more");
        let us = build_sketch(
            &more,
            &SketchConfig {
                key_columns: Some(vec!["zone".into()]),
                feature_columns: Some(vec!["base_x".into(), "y".into()]),
                ..Default::default()
            },
        )
        .unwrap();
        let aug = Augmentation::Union { dataset: "more".into(), similarity: 1.0 };
        let before_rows = state.train_rows();
        let score = state.evaluate(&aug, &us).unwrap();
        assert!((score.train_rows - 2.0 * before_rows).abs() < 1e-9);
        let mut state2 = state.clone();
        state2.apply(&aug, &us).unwrap();
        assert!((state2.train_rows() - 2.0 * before_rows).abs() < 1e-9);
        // Union keeps the zone grouping exact, so a join can still follow.
        assert!(state2.train_keyed.contains_key("zone"));
    }

    #[test]
    fn single_key_policy_enforced() {
        let (mut state, prov_sketch) = state();
        let aug = Augmentation::Join {
            dataset: "prov".into(),
            query_key: "zone".into(),
            candidate_key: "zone".into(),
            similarity: 1.0,
        };
        state.apply(&aug, &prov_sketch).unwrap();
        let other = Augmentation::Join {
            dataset: "prov".into(),
            query_key: "week".into(),
            candidate_key: "week".into(),
            similarity: 1.0,
        };
        assert!(state.evaluate(&other, &prov_sketch).is_err());
    }

    #[test]
    fn missing_task_columns_rejected() {
        let (train, test, _) = fixtures();
        let task = TaskSpec::new("nope", &["base_x"]);
        let ts = requester_sketch(&train, &["base_x", "y"]);
        let es = requester_sketch(&test, &["base_x", "y"]);
        assert!(ProxyState::new(&ts, &es, &task, 1e-6).is_err());
    }

    #[test]
    fn chained_joins_compose_exactly() {
        // Two providers on the same key; applying both must equal the
        // materialized two-way join statistics.
        let (train, test, prov) = fixtures();
        let prov2_zones: Vec<i64> = (0..60).collect();
        let prov2_feat: Vec<f64> = prov2_zones.iter().map(|&z| ((z % 5) as f64) / 5.0).collect();
        let prov2 = RelationBuilder::new("prov2")
            .int_col("zone", &prov2_zones)
            .float_col("g", &prov2_feat)
            .build()
            .unwrap();

        let task = TaskSpec::new("y", &["base_x"]);
        let ts = requester_sketch(&train, &["base_x", "y"]);
        let es = requester_sketch(&test, &["base_x", "y"]);
        let mut state = ProxyState::new(&ts, &es, &task, 0.0).unwrap();
        let mk_sketch = |r: &Relation, feat: &str| {
            build_sketch(
                r,
                &SketchConfig {
                    key_columns: Some(vec!["zone".into()]),
                    feature_columns: Some(vec![feat.into()]),
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let s1 = mk_sketch(&prov, "lat");
        let s2 = mk_sketch(&prov2, "g");
        let j = |ds: &str| Augmentation::Join {
            dataset: ds.into(),
            query_key: "zone".into(),
            candidate_key: "zone".into(),
            similarity: 1.0,
        };
        state.apply(&j("prov"), &s1).unwrap();
        state.apply(&j("prov2"), &s2).unwrap();

        // Materialized oracle.
        let m = train
            .hash_join(&prov, &["zone"], &["zone"])
            .unwrap()
            .hash_join(&prov2, &["zone"], &["zone"])
            .unwrap();
        let naive = mileena_semiring::triple_of(&m, &["base_x", "y", "lat", "g"]).unwrap();
        assert!((state.train_rows() - naive.c).abs() < 1e-9);
        let naive = naive.rename_features(|n| match n {
            "lat" => "prov.lat".to_string(),
            "g" => "prov2.g".to_string(),
            other => other.to_string(),
        });
        let aligned = state.train_triple.align(&naive.feature_names()).unwrap();
        assert!(aligned.approx_eq(&naive, 1e-6), "\n{aligned:?}\n{naive:?}");
    }
}
