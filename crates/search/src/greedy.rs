//! The greedy search of §2.2.2: its vocabulary (stop reasons, run control,
//! events, outcome), the per-round evaluation plans, and the reference
//! implementations tests compare against. The loop itself — evaluate every
//! remaining candidate via the sketch proxy, commit the best improvement,
//! repeat — lives in [`crate::scatter`]; [`GreedySearch::run_observed`] is
//! its one-partition case.
//!
//! Candidates are projected onto the task feature space **once**, before
//! round 1 ([`crate::cache::CandidateCache`]); every round then scores
//! pre-projected arena slabs.

use crate::cache::CachedCandidate;
use crate::candidates::{Augmentation, Candidate, CandidateSet};
use crate::error::Result;
use crate::proxy::ProxyState;
use crate::request::{SearchConfig, SketchedRequest};
use crate::scatter::{ScatterSearch, ShardPartition};
use mileena_sketch::SketchStore;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a search loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// No remaining candidate improved the proxy by at least `min_gain`
    /// (or none could be evaluated at all).
    Converged,
    /// The configured `max_augmentations` rounds all committed.
    MaxAugmentations,
    /// The wall-clock budget (or a service-imposed deadline) expired.
    TimeBudget,
    /// The session was cooperatively cancelled.
    Cancelled,
    /// The service shed the session before any round ran: its deadline had
    /// already expired (or provably would before a worker could reach it).
    /// Never produced by the search loop itself — only by the scheduler's
    /// admission control.
    Shed,
}

/// Cooperative run control for a search: a shared cancellation flag plus an
/// optional hard deadline, checked between greedy rounds. Clones share the
/// same flag, so a service can hand one end to the requester and thread the
/// other into the loop. Raising the flag also runs the hooks registered with
/// [`SearchControl::on_cancel`] and wakes [`SearchControl::pause`], so
/// nothing has to poll it.
#[derive(Debug, Clone, Default)]
pub struct SearchControl {
    cancel: Arc<CancelFlag>,
    deadline: Option<Instant>,
}

/// A cancellation hook (see [`SearchControl::on_cancel`]).
type CancelHook = Box<dyn FnOnce() + Send>;

/// The shared half of a [`SearchControl`].
#[derive(Default)]
struct CancelFlag {
    raised: AtomicBool,
    /// Hooks not run yet; whichever thread sees the flag up drains them.
    hooks: Mutex<Vec<CancelHook>>,
    /// Signalled when the flag goes up.
    woken: Condvar,
}

impl std::fmt::Debug for CancelFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelFlag").field("raised", &self.raised).finish_non_exhaustive()
    }
}

impl CancelFlag {
    fn hooks(&self) -> MutexGuard<'_, Vec<CancelHook>> {
        self.hooks.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// If the flag is up, run every pending hook and wake every pause.
    /// Taking the hooks under the lock runs each exactly once.
    fn fire(&self) {
        if !self.raised.load(Ordering::SeqCst) {
            return;
        }
        let hooks = std::mem::take(&mut *self.hooks());
        self.woken.notify_all();
        for hook in hooks {
            hook();
        }
    }
}

impl SearchControl {
    /// Fresh control: not cancelled, no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Impose a hard deadline (in addition to the config's `time_budget`).
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Request cancellation; the loop stops at the next round boundary.
    pub fn cancel(&self) {
        self.cancel.raised.store(true, Ordering::SeqCst);
        self.cancel.fire();
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.raised.load(Ordering::SeqCst)
    }

    /// Run `hook` once, on the thread that cancels this control, or right
    /// away if it already is cancelled. A transport uses it to carry a
    /// cancel across a process boundary without watching the flag.
    pub fn on_cancel(&self, hook: impl FnOnce() + Send + 'static) {
        self.cancel.hooks().push(Box::new(hook));
        self.cancel.fire();
    }

    /// Block for `delay`, or until the control is cancelled if that comes
    /// first.
    pub fn pause(&self, delay: Duration) {
        let hooks = self.cancel.hooks();
        let _ = self.cancel.woken.wait_timeout_while(hooks, delay, |_| !self.is_cancelled());
    }

    /// Whether the deadline (if any) has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The hard deadline, if one was imposed (admission control uses it to
    /// shed sessions that cannot be served in time).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// Streaming progress events emitted by an observed search run. Durations
/// are milliseconds so events are wire-safe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SearchEvent {
    /// The loop is starting over this many evaluable candidates.
    Started {
        /// Cached candidates after projection (unevaluable ones dropped).
        candidates: usize,
        /// Store-backed candidates dropped by the request's
        /// `CandidateLimits` before the loop ever saw them.
        truncated: usize,
    },
    /// One greedy round committed its best augmentation.
    RoundCommitted {
        /// Round index (0-based).
        round: usize,
        /// The augmentation taken.
        augmentation: Augmentation,
        /// Proxy test-R² after committing it.
        score_after: f64,
        /// Candidates fully scored this round.
        evaluated: usize,
        /// Candidates skipped this round because their admissible bound
        /// could not beat the incumbent (0 in exhaustive mode).
        bound_skipped: usize,
        /// Candidates still in play for the next round.
        remaining: usize,
        /// Wall-clock since search start, in milliseconds.
        elapsed_ms: u64,
    },
    /// The loop ended.
    Finished {
        /// Why it stopped.
        stop_reason: StopReason,
        /// Final proxy test-R².
        final_score: f64,
        /// Committed rounds.
        rounds: usize,
        /// Total candidate evaluations (fully scored).
        evaluations: usize,
        /// Total candidates pruned by bound across all rounds.
        bound_skips: usize,
        /// Total wall-clock, in milliseconds.
        elapsed_ms: u64,
    },
}

/// One committed augmentation with its measured effect.
#[derive(Debug, Clone)]
pub struct SelectionStep {
    /// The augmentation taken.
    pub augmentation: Augmentation,
    /// Proxy test-R² after committing it.
    pub score_after: f64,
    /// Wall-clock since search start when committed.
    pub elapsed: std::time::Duration,
}

/// Result of a greedy search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Proxy test-R² before any augmentation.
    pub base_score: f64,
    /// Proxy test-R² after all augmentations.
    pub final_score: f64,
    /// Committed steps, in order.
    pub steps: Vec<SelectionStep>,
    /// Number of candidates fully scored (across all rounds; candidates
    /// that can never evaluate are dropped at cache build and not counted).
    pub evaluations: usize,
    /// Number of candidates pruned by their admissible score bound without
    /// being scored (across all rounds; always 0 with `pruning: false`).
    pub bound_skips: usize,
    /// Store-backed candidates dropped by the request's `CandidateLimits`
    /// at enumeration (0 unless the corpus outgrew the configured caps).
    pub candidates_truncated: usize,
    /// Wall-clock nanoseconds spent scoring each evaluation round, in round
    /// order — including rounds that converged or found no winner, so the
    /// vector can be longer than `steps`. Telemetry feeds these into the
    /// platform's `search_eval_round` histogram.
    pub round_eval_ns: Vec<u64>,
    /// Wall-clock nanoseconds spent projecting the candidates and computing
    /// their first score bounds, before round 1 ([`crate::cache::CandidateCache::build`]
    /// over every partition).
    pub cache_build_ns: u64,
    /// Wall-clock nanoseconds spent after join commits recomputing every
    /// remaining entry's score bound and re-projecting union entries onto
    /// the grown feature space (0 when no join committed).
    pub refresh_ns: u64,
    /// Total wall-clock.
    pub elapsed: std::time::Duration,
    /// Why the loop ended.
    pub stop_reason: StopReason,
    /// The final proxy state (for training the returned model / AutoML
    /// handoff).
    pub state: ProxyState,
}

impl SearchOutcome {
    /// The selected union set `R*_∪` (dataset names).
    pub fn selected_unions(&self) -> Vec<&str> {
        self.steps
            .iter()
            .filter_map(|s| match &s.augmentation {
                Augmentation::Union { dataset, .. } => Some(dataset.as_str()),
                _ => None,
            })
            .collect()
    }

    /// The selected join set `R*_⋈` (dataset names).
    pub fn selected_joins(&self) -> Vec<&str> {
        self.steps
            .iter()
            .filter_map(|s| match &s.augmentation {
                Augmentation::Join { dataset, .. } => Some(dataset.as_str()),
                _ => None,
            })
            .collect()
    }
}

/// Round winner under the exhaustive plan's tie semantics: maximum score,
/// ties resolved toward the highest original index (`max_by` over
/// index-ordered candidates). The pruned plan scores a subset that provably
/// contains every potential winner or tie, so applying the same rule to its
/// index-sorted subset selects the identical entry.
fn pick_best(mut scored: Vec<(usize, f64)>) -> Option<(usize, f64)> {
    scored.sort_by_key(|&(i, _)| i);
    scored.into_iter().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
}

/// The greedy searcher.
#[derive(Debug, Clone, Default)]
pub struct GreedySearch {
    config: SearchConfig,
}

impl GreedySearch {
    /// New searcher.
    pub fn new(config: SearchConfig) -> Self {
        GreedySearch { config }
    }

    /// Run the loop from an initial proxy state over the given candidates
    /// (a [`CandidateSet`] from `enumerate_candidates`, or a plain
    /// `Vec<Candidate>` for callers that assemble their own).
    ///
    /// Candidates that error (no key overlap, stale key, missing columns,
    /// excessive fan-out) are dropped silently — they are expected in a
    /// heterogeneous corpus.
    pub fn run(
        &self,
        state: ProxyState,
        candidates: impl Into<CandidateSet>,
        store: &SketchStore,
    ) -> Result<SearchOutcome> {
        self.run_observed(state, candidates, store, &SearchControl::new(), &mut |_| {})
    }

    /// [`GreedySearch::run`] with cooperative control and streaming
    /// progress: `control` is checked at every round boundary (cancellation
    /// and deadline), and `observer` receives one [`SearchEvent`] per round
    /// plus start/finish markers. The selected augmentations and scores are
    /// identical to `run` — observation never changes the search.
    ///
    /// The loop itself is [`ScatterSearch::run_observed`]; this wraps the
    /// candidates as its single partition.
    pub fn run_observed(
        &self,
        state: ProxyState,
        candidates: impl Into<CandidateSet>,
        store: &SketchStore,
        control: &SearchControl,
        observer: &mut dyn FnMut(SearchEvent),
    ) -> Result<SearchOutcome> {
        let set: CandidateSet = candidates.into();
        let truncated = set.truncated();
        let part = ShardPartition {
            shard: 0,
            positions: (0..set.candidates.len()).collect(),
            candidates: set.candidates,
            store,
        };
        ScatterSearch::new(self.config.clone())
            .run_observed(state, vec![part], truncated, store.dataset_interner(), control, observer)
            .map(|(outcome, _)| outcome)
    }

    /// Score one greedy round over cached entries with the configured plan
    /// (pruned or exhaustive), returning the round winner under the
    /// exhaustive tie semantics plus `(evaluated, bound_skipped)` counts.
    /// `current` is the incumbent score pruning must beat (the state's
    /// current proxy score). Public so benches can track per-round cost in
    /// isolation; the search loop scores every partition through here.
    pub fn score_round(
        &self,
        state: &ProxyState,
        entries: &[CachedCandidate],
        current: f64,
    ) -> (Option<(usize, f64)>, usize, usize) {
        let (scored, evaluated, skipped) = if self.config.pruning {
            self.evaluate_round_pruned(state, entries, current)
        } else {
            (self.evaluate_round_exhaustive(state, entries), entries.len(), 0)
        };
        (pick_best(scored), evaluated, skipped)
    }

    /// Exhaustive round plan: score every remaining candidate. The
    /// reference the pruned plan must match bit for bit.
    fn evaluate_round_exhaustive(
        &self,
        state: &ProxyState,
        entries: &[CachedCandidate],
    ) -> Vec<(usize, f64)> {
        let scored = entries.iter().enumerate();
        scored.filter_map(|(i, entry)| Some((i, self.evaluate_entry(state, entry)?))).collect()
    }

    /// Bound-pruned round plan: walk candidates in descending bound order
    /// and stop once no remaining bound can beat the incumbent *or* clear
    /// `min_gain` over the current score. Because bounds are admissible
    /// (`score ≤ bound` whenever a candidate evaluates), every candidate
    /// that could be the round's winner — or tie it — is still scored, so
    /// the committed selection and score are identical to the exhaustive
    /// plan:
    ///
    /// - a candidate skipped for `bound < best_so_far` has
    ///   `score ≤ bound < best_so_far ≤ final best`, so it can neither win
    ///   nor tie;
    /// - a candidate skipped for `bound − current < min_gain` has
    ///   `score − current ≤ bound − current < min_gain` (subtracting the
    ///   same `current` is monotone in floating point), so it could only be
    ///   a round maximum that converges the loop — which the exhaustive
    ///   plan does too.
    ///
    /// Returns `(scored, evaluated, skipped)`.
    fn evaluate_round_pruned(
        &self,
        state: &ProxyState,
        entries: &[CachedCandidate],
        current: f64,
    ) -> (Vec<(usize, f64)>, usize, usize) {
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            entries[b]
                .bound
                .partial_cmp(&entries[a].bound)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut scored = Vec::new();
        let mut best_so_far = f64::NEG_INFINITY;
        let mut evaluated = 0usize;
        let mut skipped = 0usize;
        for (pos, &i) in order.iter().enumerate() {
            let bound = entries[i].bound;
            // Bounds are sorted descending and both thresholds only grow,
            // so the first unbeatable bound ends the round for everyone
            // behind it too.
            if bound < best_so_far || bound - current < self.config.min_gain {
                skipped = order.len() - pos;
                break;
            }
            evaluated += 1;
            if let Some(score) = self.evaluate_entry(state, &entries[i]) {
                if score > best_so_far {
                    best_so_far = score;
                }
                scored.push((i, score));
            }
        }
        (scored, evaluated, skipped)
    }

    /// Reference implementation without the projection cache: re-fetches
    /// and re-projects every candidate on every evaluation, addressing the
    /// store by name exactly like the pre-cache code. Kept for parity
    /// tests and the cached-vs-uncached latency benchmark; `run` must select
    /// identical augmentations with identical scores.
    pub fn run_uncached(
        &self,
        mut state: ProxyState,
        candidates: impl Into<CandidateSet>,
        store: &SketchStore,
    ) -> Result<SearchOutcome> {
        let set: CandidateSet = candidates.into();
        let candidates_truncated = set.truncated();
        let mut candidates: Vec<Augmentation> = set.resolve(store.dataset_interner());
        let start = Instant::now();
        let base_score = state.current_score()?;
        let mut current = base_score;
        let mut steps = Vec::new();
        let mut evaluations = 0usize;

        let mut round_eval_ns = Vec::new();
        let mut stop_reason = StopReason::MaxAugmentations;
        for _round in 0..self.config.max_augmentations {
            if start.elapsed() >= self.config.time_budget {
                stop_reason = StopReason::TimeBudget;
                break;
            }
            let round_start = Instant::now();
            let mut scored = Vec::new();
            for (i, aug) in candidates.iter().enumerate() {
                evaluations += 1;
                if let Some(score) = self.evaluate_one(&state, aug, store) {
                    scored.push((i, score));
                }
            }
            round_eval_ns.push(u64::try_from(round_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let best = scored
                .into_iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            let Some((best_idx, best_score)) = best else {
                stop_reason = StopReason::Converged;
                break;
            };
            if best_score - current < self.config.min_gain {
                stop_reason = StopReason::Converged;
                break;
            }
            let aug = candidates.remove(best_idx);
            let sketch = store.get(aug.dataset())?;
            state.apply(&aug, &sketch)?;
            current = best_score;
            steps.push(SelectionStep {
                augmentation: aug,
                score_after: best_score,
                elapsed: start.elapsed(),
            });
        }

        Ok(SearchOutcome {
            base_score,
            final_score: current,
            steps,
            evaluations,
            bound_skips: 0,
            candidates_truncated,
            round_eval_ns,
            cache_build_ns: 0,
            refresh_ns: 0,
            elapsed: start.elapsed(),
            stop_reason,
            state,
        })
    }

    /// Score one cached candidate against the current state, applying the
    /// join-survival guard.
    fn evaluate_entry(&self, state: &ProxyState, entry: &CachedCandidate) -> Option<f64> {
        let score = entry.evaluate(state).ok()?;
        self.admit(state, matches!(entry.aug, Candidate::Join { .. }), score)
    }

    /// Uncached scoring (reference path): store fetch + re-projection +
    /// pre-composition per evaluation, exactly like the pre-cache code.
    fn evaluate_one(
        &self,
        state: &ProxyState,
        aug: &Augmentation,
        store: &SketchStore,
    ) -> Option<f64> {
        let sketch = store.get(aug.dataset()).ok()?;
        let score = state.evaluate_reference(aug, &sketch).ok()?;
        self.admit(state, matches!(aug, Augmentation::Join { .. }), score)
    }

    /// Join-survival guard: don't let a low-overlap or exploding join eat
    /// the training set.
    fn admit(
        &self,
        state: &ProxyState,
        is_join: bool,
        score: crate::proxy::CandidateScore,
    ) -> Option<f64> {
        if is_join {
            let rows = state.train_rows();
            if score.train_rows < self.config.min_join_survival * rows
                || score.train_rows > self.config.max_join_fanout * rows
            {
                return None;
            }
        }
        score.test_r2.is_finite().then_some(score.test_r2)
    }
}

/// Convenience: build requester sketches, enumerate candidates via
/// discovery, and run the greedy search end to end (non-private path; the
/// privacy modes in [`crate::modes`] feed privatized stores instead).
pub fn search_with_discovery(
    request: &crate::request::SearchRequest,
    store: &SketchStore,
    index: &mileena_discovery::DiscoveryIndex,
    config: &SearchConfig,
) -> Result<SearchOutcome> {
    let (state, profile) = build_requester_state(request, config)?;
    let candidates =
        crate::candidates::enumerate_candidates(index, store, &profile, &config.limits);
    GreedySearch::new(config.clone()).run(state, candidates, store)
}

/// Build the server-side proxy state from a wire-form request. This is all
/// the platform ever does with requester data: no raw relation is in scope.
pub fn build_sketched_state(
    request: &SketchedRequest,
    config: &SearchConfig,
) -> Result<ProxyState> {
    ProxyState::new(&request.train_sketch, &request.test_sketch, &request.task, config.lambda)
}

/// Build the requester-side proxy state and discovery profile for a raw
/// request: sketch locally ([`SketchedRequest::sketch`]), then build the
/// state from the sketched form — the same path a remote platform takes.
pub fn build_requester_state(
    request: &crate::request::SearchRequest,
    config: &SearchConfig,
) -> Result<(ProxyState, mileena_discovery::DatasetProfile)> {
    let sketched = SketchedRequest::sketch(
        &request.train,
        &request.test,
        &request.task,
        request.key_columns.as_deref(),
    )?;
    let state = build_sketched_state(&sketched, config)?;
    Ok((state, sketched.profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{SearchRequest, TaskSpec};
    use mileena_datagen::{generate_corpus, CorpusConfig};
    use mileena_discovery::{DiscoveryConfig, DiscoveryIndex};
    use mileena_sketch::{build_sketch, SketchConfig};

    fn small_corpus() -> CorpusConfig {
        CorpusConfig {
            num_datasets: 30,
            num_signal: 3,
            num_union: 2,
            num_novelty_traps: 3,
            train_rows: 300,
            test_rows: 300,
            provider_rows: 200,
            key_domain: 80,
            signal_rows_per_key: 1,
            noise: 0.08,
            nonlinear_strength: 0.0,
            seed: 13,
        }
    }

    fn setup(cfg: &CorpusConfig) -> (SearchRequest, SketchStore, DiscoveryIndex) {
        let corpus = generate_corpus(cfg);
        let store = SketchStore::new();
        let mut index = DiscoveryIndex::new(DiscoveryConfig::default());
        for p in &corpus.providers {
            store.register(build_sketch(p, &SketchConfig::default()).unwrap()).unwrap();
            index.register(mileena_discovery::DatasetProfile::of(p, 128));
        }
        let request = SearchRequest {
            train: corpus.train.clone(),
            test: corpus.test.clone(),
            task: TaskSpec::new("y", &["base_x"]),
            budget: None,
            key_columns: None,
        };
        (request, store, index)
    }

    #[test]
    fn greedy_finds_planted_signal() {
        let cfg = small_corpus();
        let corpus = generate_corpus(&cfg);
        let (request, store, index) = setup(&cfg);
        let out =
            search_with_discovery(&request, &store, &index, &SearchConfig::default()).unwrap();
        assert!(
            out.final_score > out.base_score + 0.3,
            "search should lift R² substantially: {} → {} ({} evals, steps: {:?})",
            out.base_score,
            out.final_score,
            out.evaluations,
            out.steps.iter().map(|s| s.augmentation.describe()).collect::<Vec<_>>()
        );
        // The strongest planted signal should be among the selections.
        let joined = out.selected_joins();
        assert!(
            joined.contains(&corpus.ground_truth.signal_datasets[0].as_str()),
            "strongest signal {} not selected; got {joined:?}",
            corpus.ground_truth.signal_datasets[0]
        );
    }

    #[test]
    fn traps_not_selected() {
        let cfg = small_corpus();
        let corpus = generate_corpus(&cfg);
        let (request, store, index) = setup(&cfg);
        let out =
            search_with_discovery(&request, &store, &index, &SearchConfig::default()).unwrap();
        for step in &out.steps {
            assert!(
                !corpus.ground_truth.trap_datasets.iter().any(|t| t == step.augmentation.dataset()),
                "trap selected: {:?}",
                step.augmentation
            );
        }
    }

    #[test]
    fn cached_matches_uncached_reference() {
        // The projection cache is a pure evaluation-plan optimization: the
        // selected augmentations and scores must be identical to the
        // re-project-every-time reference path.
        let cfg = small_corpus();
        let (request, store, index) = setup(&cfg);
        let (state, profile) = build_requester_state(&request, &SearchConfig::default()).unwrap();
        let candidates = crate::candidates::enumerate_candidates(
            &index,
            &store,
            &profile,
            &crate::candidates::CandidateLimits::default(),
        );
        let searcher = GreedySearch::new(SearchConfig::default());
        let cached = searcher.run(state.clone(), candidates.clone(), &store).unwrap();
        let reference = searcher.run_uncached(state, candidates, &store).unwrap();
        assert_eq!(
            cached.steps.iter().map(|s| s.augmentation.describe()).collect::<Vec<_>>(),
            reference.steps.iter().map(|s| s.augmentation.describe()).collect::<Vec<_>>(),
        );
        assert_eq!(cached.final_score, reference.final_score, "bit-for-bit score parity");
        assert_eq!(cached.base_score, reference.base_score);
    }

    #[test]
    fn pruned_matches_exhaustive_reference() {
        // Bound pruning is a pure evaluation-plan optimization: across
        // corpus seeds, the committed selections, every per-step score, the
        // base and final scores must be bit-identical to the exhaustive
        // plan — bounds are admissible, so no potential winner is skipped.
        // (No budget is charged by any search, so ledger parity is
        // trivially preserved; privatized-corpus parity is covered by the
        // privacy integration suite running on the same loop.)
        let mut total_skips = 0usize;
        for seed in [13u64, 29, 57] {
            let cfg = CorpusConfig { seed, ..small_corpus() };
            let (request, store, index) = setup(&cfg);
            let (state, profile) =
                build_requester_state(&request, &SearchConfig::default()).unwrap();
            let candidates = crate::candidates::enumerate_candidates(
                &index,
                &store,
                &profile,
                &crate::candidates::CandidateLimits::default(),
            );

            let pruned = GreedySearch::new(SearchConfig { pruning: true, ..Default::default() })
                .run(state.clone(), candidates.clone(), &store)
                .unwrap();
            let exhaustive =
                GreedySearch::new(SearchConfig { pruning: false, ..Default::default() })
                    .run(state, candidates, &store)
                    .unwrap();

            assert_eq!(
                pruned.steps.iter().map(|s| s.augmentation.describe()).collect::<Vec<_>>(),
                exhaustive.steps.iter().map(|s| s.augmentation.describe()).collect::<Vec<_>>(),
                "selections must be bit-identical (seed {seed})"
            );
            for (p, e) in pruned.steps.iter().zip(&exhaustive.steps) {
                assert_eq!(p.score_after, e.score_after, "per-step score parity (seed {seed})");
            }
            assert_eq!(pruned.base_score, exhaustive.base_score);
            assert_eq!(pruned.final_score, exhaustive.final_score, "seed {seed}");
            assert_eq!(pruned.stop_reason, exhaustive.stop_reason);
            assert_eq!(exhaustive.bound_skips, 0, "exhaustive mode must report zero skips");
            assert!(
                pruned.evaluations + pruned.bound_skips <= exhaustive.evaluations,
                "pruned plan never touches more candidates than exhaustive (seed {seed})"
            );
            total_skips += pruned.bound_skips;
        }
        assert!(total_skips > 0, "pruning should actually skip work on these corpora");
    }

    /// Degenerate corpus: providers whose features are exact copies of
    /// each other (`sig`/`copy`/`copy2`) and of the requester's base
    /// feature (`echo`), so staged test systems go singular, the λ = 0
    /// ceiling solve is as ill-conditioned as it gets, and the duplicates
    /// score exactly equal.
    fn collinear_corpus() -> (ProxyState, CandidateSet, SketchStore) {
        use mileena_relation::RelationBuilder;

        let zones: Vec<i64> = (0..60).collect();
        let latent: Vec<f64> =
            zones.iter().map(|&z| ((z * 37 % 100) as f64) / 50.0 - 1.0).collect();
        let base: Vec<f64> = zones.iter().map(|&z| ((z * 13 % 7) as f64) / 7.0).collect();
        let y: Vec<f64> = latent.iter().zip(&base).map(|(l, b)| 0.7 * l + 0.2 * b).collect();
        let train = RelationBuilder::new("train")
            .int_col("zone", &zones)
            .float_col("base_x", &base)
            .float_col("y", &y)
            .build()
            .unwrap();
        let store = SketchStore::new();
        let mut index = DiscoveryIndex::new(DiscoveryConfig::default());
        for (name, col) in
            [("sig", &latent), ("copy", &latent), ("copy2", &latent), ("echo", &base)]
        {
            let p = RelationBuilder::new(name)
                .int_col("zone", &zones)
                .float_col("f", col)
                .build()
                .unwrap();
            store.register(build_sketch(&p, &SketchConfig::default()).unwrap()).unwrap();
            index.register(mileena_discovery::DatasetProfile::of(&p, 128));
        }
        let request = SearchRequest {
            train: train.clone(),
            test: train.clone(), // train == test: the tightest bound regime
            task: TaskSpec::new("y", &["base_x"]),
            budget: None,
            key_columns: None,
        };
        let (state, profile) = build_requester_state(&request, &SearchConfig::default()).unwrap();
        let candidates = crate::candidates::enumerate_candidates(
            &index,
            &store,
            &profile,
            &crate::candidates::CandidateLimits::default(),
        );
        assert!(candidates.len() >= 4, "all degenerate providers must be candidates");
        (state, candidates, store)
    }

    #[test]
    fn pruned_parity_survives_collinear_candidates() {
        // The λ-matched term of the ceiling must keep the bound admissible
        // on the degenerate corpus: selections and scores stay
        // bit-identical to the exhaustive plan.
        let (state, candidates, store) = collinear_corpus();
        let pruned = GreedySearch::new(SearchConfig::default())
            .run(state.clone(), candidates.clone(), &store)
            .unwrap();
        let exhaustive = GreedySearch::new(SearchConfig { pruning: false, ..Default::default() })
            .run(state, candidates, &store)
            .unwrap();
        assert_eq!(
            pruned.steps.iter().map(|s| s.augmentation.describe()).collect::<Vec<_>>(),
            exhaustive.steps.iter().map(|s| s.augmentation.describe()).collect::<Vec<_>>(),
        );
        assert_eq!(pruned.final_score, exhaustive.final_score);
        assert_eq!(pruned.stop_reason, exhaustive.stop_reason);
    }

    #[test]
    fn cross_partition_exact_ties_break_on_enumeration_position() {
        // The duplicates tie exactly, so the round winner is decided by the
        // gather tie-break alone. Spread the tied candidates over different
        // partitions, in every rotation (so the highest-positioned one is
        // visited first, in the middle and last): selections and scores
        // must equal the one-partition run.
        let (state, set, store) = collinear_corpus();
        for pruning in [true, false] {
            let cfg = SearchConfig { pruning, ..Default::default() };
            let reference =
                GreedySearch::new(cfg.clone()).run(state.clone(), set.clone(), &store).unwrap();
            assert!(!reference.steps.is_empty(), "the tied signal must be selected");
            for s in [2usize, 3] {
                for rotation in 0..s {
                    let parts = crate::scatter::partition_by(&set, &store, s, |pos, _| {
                        (pos + rotation) % s
                    });
                    let (scattered, _) = ScatterSearch::new(cfg.clone())
                        .run_observed(
                            state.clone(),
                            parts,
                            set.truncated(),
                            store.dataset_interner(),
                            &SearchControl::new(),
                            &mut |_| {},
                        )
                        .unwrap();
                    let tag = format!("S={s}, rotation={rotation}, pruning={pruning}");
                    assert_eq!(
                        scattered
                            .steps
                            .iter()
                            .map(|st| st.augmentation.describe())
                            .collect::<Vec<_>>(),
                        reference
                            .steps
                            .iter()
                            .map(|st| st.augmentation.describe())
                            .collect::<Vec<_>>(),
                        "selections ({tag})"
                    );
                    for (a, b) in scattered.steps.iter().zip(&reference.steps) {
                        assert_eq!(a.score_after, b.score_after, "per-step score ({tag})");
                    }
                    assert_eq!(scattered.final_score, reference.final_score, "{tag}");
                    assert_eq!(scattered.stop_reason, reference.stop_reason, "{tag}");
                }
            }
        }
    }

    #[test]
    fn exhaustive_mode_reports_zero_skips_in_events() {
        let cfg = small_corpus();
        let (request, store, index) = setup(&cfg);
        let (state, profile) = build_requester_state(&request, &SearchConfig::default()).unwrap();
        let candidates = crate::candidates::enumerate_candidates(
            &index,
            &store,
            &profile,
            &crate::candidates::CandidateLimits::default(),
        );
        let mut events = Vec::new();
        let out = GreedySearch::new(SearchConfig { pruning: false, ..Default::default() })
            .run_observed(state, candidates, &store, &SearchControl::new(), &mut |ev| {
                events.push(ev)
            })
            .unwrap();
        assert_eq!(out.bound_skips, 0);
        for ev in &events {
            match ev {
                SearchEvent::RoundCommitted { bound_skipped, .. } => assert_eq!(*bound_skipped, 0),
                SearchEvent::Finished { bound_skips, .. } => assert_eq!(*bound_skips, 0),
                SearchEvent::Started { .. } => {}
            }
        }
    }

    #[test]
    fn pruned_rounds_report_skips_in_events() {
        // The observability split: evaluated + bound_skipped covers every
        // in-play candidate each committed round, and the outcome totals
        // agree with the event stream.
        let cfg = small_corpus();
        let (request, store, index) = setup(&cfg);
        let (state, profile) = build_requester_state(&request, &SearchConfig::default()).unwrap();
        let candidates = crate::candidates::enumerate_candidates(
            &index,
            &store,
            &profile,
            &crate::candidates::CandidateLimits::default(),
        );
        let mut events = Vec::new();
        let out = GreedySearch::new(SearchConfig::default())
            .run_observed(state, candidates, &store, &SearchControl::new(), &mut |ev| {
                events.push(ev)
            })
            .unwrap();
        let mut in_play = match events.first() {
            Some(SearchEvent::Started { candidates, .. }) => *candidates,
            other => panic!("missing Started event: {other:?}"),
        };
        for ev in &events {
            if let SearchEvent::RoundCommitted { evaluated, bound_skipped, remaining, .. } = ev {
                assert_eq!(
                    evaluated + bound_skipped,
                    in_play,
                    "every in-play candidate is either scored or skipped"
                );
                in_play = *remaining;
            }
        }
        if let Some(SearchEvent::Finished { evaluations, bound_skips, .. }) = events.last() {
            assert_eq!(*evaluations, out.evaluations);
            assert_eq!(*bound_skips, out.bound_skips);
        } else {
            panic!("missing Finished event");
        }
        assert!(out.bound_skips > 0, "default (pruned) mode should skip on this corpus");
    }

    #[test]
    fn candidate_limits_truncate_and_report() {
        // Tight limits keep only the top-ranked candidates; the dropped
        // count flows into the outcome and the Started event, and the loop
        // still runs over what survived.
        let cfg = small_corpus();
        let (request, store, index) = setup(&cfg);
        let search_cfg = SearchConfig {
            limits: crate::candidates::CandidateLimits { max_join: 2, max_union: 0 },
            ..Default::default()
        };
        let (state, profile) = build_requester_state(&request, &search_cfg).unwrap();
        let full = crate::candidates::enumerate_candidates(
            &index,
            &store,
            &profile,
            &crate::candidates::CandidateLimits::default(),
        );
        assert!(full.len() > 2, "corpus must discover more than the cap");
        assert_eq!(full.truncated(), 0, "default limits are generous");

        let capped =
            crate::candidates::enumerate_candidates(&index, &store, &profile, &search_cfg.limits);
        assert_eq!(capped.len(), 2);
        assert_eq!(capped.truncated(), full.len() - 2);
        // The kept candidates are the top-ranked prefix of the full set.
        assert_eq!(capped.candidates[..], full.candidates[..2]);

        let truncated = capped.truncated();
        let mut events = Vec::new();
        let out = GreedySearch::new(search_cfg)
            .run_observed(state, capped, &store, &SearchControl::new(), &mut |ev| events.push(ev))
            .unwrap();
        assert_eq!(out.candidates_truncated, truncated);
        assert!(matches!(
            events.first(),
            Some(SearchEvent::Started { truncated: t, .. }) if *t == truncated
        ));
    }

    #[test]
    fn max_augmentations_respected() {
        let cfg = small_corpus();
        let (request, store, index) = setup(&cfg);
        let out = search_with_discovery(
            &request,
            &store,
            &index,
            &SearchConfig { max_augmentations: 1, ..Default::default() },
        )
        .unwrap();
        assert!(out.steps.len() <= 1);
    }

    #[test]
    fn zero_time_budget_stops_immediately() {
        let cfg = small_corpus();
        let (request, store, index) = setup(&cfg);
        let out = search_with_discovery(
            &request,
            &store,
            &index,
            &SearchConfig { time_budget: std::time::Duration::ZERO, ..Default::default() },
        )
        .unwrap();
        assert!(out.steps.is_empty());
        assert_eq!(out.evaluations, 0);
        assert_eq!(out.stop_reason, StopReason::TimeBudget);
    }

    #[test]
    fn stop_reasons_reported() {
        let cfg = small_corpus();
        let (request, store, index) = setup(&cfg);
        let full =
            search_with_discovery(&request, &store, &index, &SearchConfig::default()).unwrap();
        assert_eq!(full.stop_reason, StopReason::Converged, "default run exhausts its gains");
        let capped = search_with_discovery(
            &request,
            &store,
            &index,
            &SearchConfig { max_augmentations: 1, ..Default::default() },
        )
        .unwrap();
        assert_eq!(capped.stop_reason, StopReason::MaxAugmentations);
    }

    #[test]
    fn observed_run_streams_events_and_matches_plain_run() {
        let cfg = small_corpus();
        let (request, store, index) = setup(&cfg);
        let (state, profile) = build_requester_state(&request, &SearchConfig::default()).unwrap();
        let candidates = crate::candidates::enumerate_candidates(
            &index,
            &store,
            &profile,
            &crate::candidates::CandidateLimits::default(),
        );
        let searcher = GreedySearch::new(SearchConfig::default());
        let plain = searcher.run(state.clone(), candidates.clone(), &store).unwrap();

        let mut events = Vec::new();
        let out = searcher
            .run_observed(state, candidates, &store, &SearchControl::new(), &mut |ev| {
                events.push(ev)
            })
            .unwrap();
        assert_eq!(out.final_score, plain.final_score, "observation must not perturb the search");
        assert!(matches!(events.first(), Some(SearchEvent::Started { .. })));
        assert!(matches!(events.last(), Some(SearchEvent::Finished { stop_reason, .. } )
                if *stop_reason == out.stop_reason));
        let committed: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                SearchEvent::RoundCommitted { round, augmentation, .. } => {
                    Some((*round, augmentation.clone()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(committed.len(), out.steps.len());
        for (i, (round, aug)) in committed.iter().enumerate() {
            assert_eq!(*round, i);
            assert_eq!(*aug, out.steps[i].augmentation);
        }
    }

    #[test]
    fn precancelled_control_stops_before_any_round() {
        let cfg = small_corpus();
        let (request, store, index) = setup(&cfg);
        let (state, profile) = build_requester_state(&request, &SearchConfig::default()).unwrap();
        let candidates = crate::candidates::enumerate_candidates(
            &index,
            &store,
            &profile,
            &crate::candidates::CandidateLimits::default(),
        );
        let control = SearchControl::new();
        control.cancel();
        let out = GreedySearch::new(SearchConfig::default())
            .run_observed(state, candidates, &store, &control, &mut |_| {})
            .unwrap();
        assert_eq!(out.stop_reason, StopReason::Cancelled);
        assert!(out.steps.is_empty());
        assert_eq!(out.evaluations, 0);
    }

    #[test]
    fn mid_search_cancel_stops_at_round_boundary() {
        // Cancel from the observer as soon as round 0 commits: the loop
        // must stop before round 1 and report Cancelled.
        let cfg = small_corpus();
        let (request, store, index) = setup(&cfg);
        let full =
            search_with_discovery(&request, &store, &index, &SearchConfig::default()).unwrap();
        assert!(full.steps.len() >= 2, "corpus must support multiple rounds for this test");

        let (state, profile) = build_requester_state(&request, &SearchConfig::default()).unwrap();
        let candidates = crate::candidates::enumerate_candidates(
            &index,
            &store,
            &profile,
            &crate::candidates::CandidateLimits::default(),
        );
        let control = SearchControl::new();
        let cancel_handle = control.clone();
        let out = GreedySearch::new(SearchConfig::default())
            .run_observed(state, candidates, &store, &control, &mut |ev| {
                if matches!(ev, SearchEvent::RoundCommitted { .. }) {
                    cancel_handle.cancel();
                }
            })
            .unwrap();
        assert_eq!(out.stop_reason, StopReason::Cancelled);
        assert_eq!(out.steps.len(), 1);
        assert_eq!(out.steps[0].augmentation, full.steps[0].augmentation);
    }

    #[test]
    fn expired_deadline_reports_time_budget() {
        let cfg = small_corpus();
        let (request, store, index) = setup(&cfg);
        let (state, profile) = build_requester_state(&request, &SearchConfig::default()).unwrap();
        let candidates = crate::candidates::enumerate_candidates(
            &index,
            &store,
            &profile,
            &crate::candidates::CandidateLimits::default(),
        );
        let mut control = SearchControl::new();
        control.set_deadline(Instant::now() - std::time::Duration::from_millis(1));
        let out = GreedySearch::new(SearchConfig::default())
            .run_observed(state, candidates, &store, &control, &mut |_| {})
            .unwrap();
        assert_eq!(out.stop_reason, StopReason::TimeBudget);
        assert!(out.steps.is_empty());
    }
}
