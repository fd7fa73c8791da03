//! The greedy search loop of §2.2.2 — evaluate every remaining candidate
//! via the sketch proxy, commit the best improvement, repeat — over
//! partitioned candidates.
//!
//! Every search runs this one loop. A platform partitions the corpus across
//! S shards, and a search holds one slice per shard: that shard's candidates
//! in global enumeration order, each carrying its *position* in that
//! enumeration. Every round scatters [`GreedySearch::score_round`] to the
//! slices and gathers the per-slice winners into one global incumbent.
//! [`GreedySearch::run_observed`] is the one-partition call into it.
//!
//! **Why selections do not depend on the partitioning:**
//!
//! - The reference rule is `score_round`'s over the whole candidate list:
//!   max score, ties to the highest index among the remaining entries.
//!   Removing a committed entry or dropping one at refresh preserves order,
//!   so an entry's index among the remaining entries is a strictly monotone
//!   function of its immutable enumeration position: comparing positions
//!   compares indexes. Per slice, `score_round` therefore yields the
//!   highest-positioned member of that slice's tied set, and the gather rule
//!   (max score, ties to the largest position) recovers exactly the
//!   one-partition winner.
//! - Candidate scores are pure functions of the proxy state and the
//!   candidate's projection, independent of which slice holds them.
//! - Cross-slice pruning only ever skips a slice whose score ceiling is
//!   *strictly* below the running incumbent (scores never exceed their
//!   admissible bound, so nothing skipped could have won **or tied**), or
//!   whose ceiling cannot clear `min_gain` (then its candidates could only
//!   be round maxima that converge the loop — which the gathered winner
//!   then does too, at the same committed state). At one partition the gate
//!   fires exactly when the pruned round plan's first bound fails the same
//!   two tests, so the counters match too.

use crate::cache::{CachedCandidate, CandidateCache};
use crate::candidates::Candidate;
use crate::error::{Result, SearchError};
use crate::greedy::{
    GreedySearch, SearchControl, SearchEvent, SearchOutcome, SelectionStep, StopReason,
};
use crate::proxy::ProxyState;
use crate::request::SearchConfig;
use mileena_relation::DatasetInterner;
use mileena_sketch::SketchStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shard's share of a search's candidates, pre-projection.
pub struct ShardPartition<'a> {
    /// Shard index (reported in [`ScatterStats`] and shard-call faults).
    pub shard: usize,
    /// The shard's candidates, in global enumeration order restricted to
    /// this shard.
    pub candidates: Vec<Candidate>,
    /// For each candidate, its position in the *global* enumeration.
    pub positions: Vec<usize>,
    /// The shard's sketch store (a frozen corpus snapshot).
    pub store: &'a SketchStore,
}

/// One partition's projected candidates, in global enumeration order
/// restricted to the partition; `position` on each entry is global.
struct Slice {
    shard: usize,
    entries: Vec<CachedCandidate>,
}

impl Slice {
    /// The slice's current score ceiling: the max admissible bound over
    /// its remaining entries (`-∞` when empty; `+∞` in exhaustive mode,
    /// whose entries carry no bounds, so the ceiling gate never fires).
    fn ceiling(&self) -> f64 {
        self.entries.iter().map(|e| e.bound).fold(f64::NEG_INFINITY, f64::max)
    }
}

/// What an injected per-shard call fault does (the scatter-level shape of
/// the platform's `FaultSite::ShardCall` rules; the coordinator's
/// interceptor closure does the breaker/availability bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardCallFault {
    /// The shard call fails outright: a fail-fast search errors with
    /// [`SearchError::ShardFailed`]; a `degraded_ok` search drops the
    /// shard for the rest of the session.
    Fail,
    /// The shard call stalls for this long before serving (lets per-shard
    /// gather deadlines trip).
    Latency(Duration),
}

/// Interceptor invoked before every per-shard scatter call, keyed by shard
/// index. `None` = serve normally.
pub type ShardCallInterceptor = Arc<dyn Fn(usize) -> Option<ShardCallFault> + Send + Sync>;

/// Timeout strikes within one search before a `degraded_ok` session stops
/// hedging on a slow shard and drops it for the remaining rounds.
const HEDGE_STRIKES: u32 = 2;

/// Scatter-gather execution counters (surfaced through platform stats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScatterStats {
    /// Greedy rounds driven by the coordinator (committed or converged).
    pub rounds: u64,
    /// Shard-rounds actually scattered (a shard evaluated its slice).
    pub shard_rounds: u64,
    /// Shard-rounds skipped because the shard's score ceiling could not
    /// beat the running incumbent or clear `min_gain`.
    pub cross_shard_skips: u64,
    /// Wall-clock nanoseconds of every scattered shard-round (one entry
    /// per `shard_rounds` increment, in scatter order): the per-shard
    /// gather time the platform feeds into its `shard_gather` histogram.
    pub gather_ns: Vec<u64>,
    /// One entry (the shard index) per gather-deadline timeout strike:
    /// that shard's round scoring blew `SearchConfig::shard_deadline_ms`.
    /// The coordinator feeds these to its circuit breaker.
    pub timeouts: Vec<usize>,
    /// Shards dropped mid-search (injected failure, or struck out after
    /// repeated deadline blows under `degraded_ok`), ascending. The
    /// coordinator merges these into the reply's `shards_missing`.
    pub dead_shards: Vec<usize>,
}

impl ScatterStats {
    /// Quantile summary of the per-shard gather times.
    pub fn gather_summary(&self) -> mileena_obs::HistogramSummary {
        let hist = mileena_obs::Histogram::new();
        for &ns in &self.gather_ns {
            hist.record(ns);
        }
        hist.summary()
    }
}

/// Nanoseconds since `since`, saturating at `u64::MAX`.
fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The searcher behind every deployment shape: drives the greedy loop with
/// each round's candidate evaluation scattered across partitions.
#[derive(Clone, Default)]
pub struct ScatterSearch {
    config: SearchConfig,
    interceptor: Option<ShardCallInterceptor>,
}

impl std::fmt::Debug for ScatterSearch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScatterSearch")
            .field("config", &self.config)
            .field("interceptor", &self.interceptor.is_some())
            .finish()
    }
}

impl ScatterSearch {
    /// New searcher.
    pub fn new(config: SearchConfig) -> Self {
        ScatterSearch { config, interceptor: None }
    }

    /// Install a per-shard call interceptor (fault injection hook; see
    /// [`ShardCallInterceptor`]).
    pub fn with_interceptor(mut self, interceptor: ShardCallInterceptor) -> Self {
        self.interceptor = Some(interceptor);
        self
    }

    /// Run the loop over candidate partitions (given in ascending shard
    /// order). `control` is checked at every round boundary (cancellation
    /// and deadline) and `observer` receives one [`SearchEvent`] per
    /// committed round plus start/finish markers. `candidates_truncated`
    /// is the enumeration-time truncation count, reported through the
    /// `Started` event and the outcome; `names` resolves committed ids at
    /// the event boundary.
    ///
    /// Candidates that error (no key overlap, stale key, missing columns,
    /// excessive fan-out) are dropped silently — they are expected in a
    /// heterogeneous corpus.
    pub fn run_observed(
        &self,
        mut state: ProxyState,
        parts: Vec<ShardPartition<'_>>,
        candidates_truncated: usize,
        names: &DatasetInterner,
        control: &SearchControl,
        observer: &mut dyn FnMut(SearchEvent),
    ) -> Result<(SearchOutcome, ScatterStats)> {
        let start = Instant::now();
        let base_score = state.current_score()?;
        let mut current = base_score;
        let mut steps = Vec::new();
        let mut evaluations = 0usize;
        let mut bound_skips = 0usize;
        let mut round_eval_ns = Vec::new();
        let mut refresh_ns = 0u64;
        let mut stats = ScatterStats::default();
        let round_plan = GreedySearch::new(self.config.clone());

        // Project every candidate once, inside the clock; rounds reuse the
        // projections (and, with pruning, the admissible score bounds
        // computed alongside). Drop decisions are per-candidate (state +
        // sketch), so the surviving set does not depend on the partitioning.
        let cache_start = Instant::now();
        let mut slices: Vec<Slice> = parts
            .into_iter()
            .map(|part| {
                let mut entries =
                    CandidateCache::build(&state, part.candidates, part.store, self.config.pruning)
                        .into_entries();
                for entry in &mut entries {
                    entry.position = part.positions[entry.position];
                }
                Slice { shard: part.shard, entries }
            })
            .collect();
        let cache_build_ns = elapsed_ns(cache_start);
        observer(SearchEvent::Started {
            candidates: slices.iter().map(|s| s.entries.len()).sum(),
            truncated: candidates_truncated,
        });

        let mut stop_reason = StopReason::MaxAugmentations;
        let deadline = Duration::from_millis(self.config.shard_deadline_ms);
        // Per-slice gather-deadline strikes within this search (hedging
        // state: a repeatedly slow shard gets dropped under `degraded_ok`).
        let mut strikes: Vec<u32> = vec![0; slices.len()];
        for round in 0..self.config.max_augmentations {
            if control.is_cancelled() {
                stop_reason = StopReason::Cancelled;
                break;
            }
            if start.elapsed() >= self.config.time_budget || control.deadline_exceeded() {
                stop_reason = StopReason::TimeBudget;
                break;
            }
            stats.rounds += 1;
            let round_start = Instant::now();

            // Scatter: visit slices in descending-ceiling order (shard id
            // ascending on ties) so the pruning gate sees the strongest
            // incumbent as early as possible; a slice whose ceiling cannot
            // beat it returns nothing for this round.
            let ceilings: Vec<f64> = slices.iter().map(Slice::ceiling).collect();
            let mut order: Vec<usize> = (0..slices.len()).collect();
            order.sort_by(|&a, &b| {
                ceilings[b]
                    .partial_cmp(&ceilings[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            // Gathered winner: (score, position, slice index, local index).
            let mut winner: Option<(f64, usize, usize, usize)> = None;
            let mut round_evaluated = 0usize;
            let mut round_skipped = 0usize;
            // Slice indices to drop after this round's commit (injected
            // failure, or struck out by repeated deadline blows).
            let mut struck_out: Vec<usize> = Vec::new();
            for si in order {
                let slice = &slices[si];
                if slice.entries.is_empty() {
                    continue;
                }
                let beaten = winner.is_some_and(|(score, ..)| ceilings[si] < score);
                if beaten || ceilings[si] - current < self.config.min_gain {
                    stats.cross_shard_skips += 1;
                    round_skipped += slice.entries.len();
                    continue;
                }
                stats.shard_rounds += 1;
                let shard_start = Instant::now();
                if let Some(fault) = self.interceptor.as_ref().and_then(|hook| hook(slice.shard)) {
                    match fault {
                        ShardCallFault::Latency(d) => std::thread::sleep(d),
                        ShardCallFault::Fail => {
                            stats.gather_ns.push(elapsed_ns(shard_start));
                            if !self.config.degraded_ok {
                                return Err(SearchError::ShardFailed { shard: slice.shard });
                            }
                            struck_out.push(si);
                            continue;
                        }
                    }
                }
                let (best, evaluated, skipped) =
                    round_plan.score_round(&state, &slice.entries, current);
                stats.gather_ns.push(elapsed_ns(shard_start));
                if !deadline.is_zero() && shard_start.elapsed() >= deadline {
                    stats.timeouts.push(slice.shard);
                    strikes[si] += 1;
                    // Hedge: the slow shard's answer this round still
                    // counts (it did respond), but after HEDGE_STRIKES a
                    // degraded-tolerant session stops waiting on it.
                    if self.config.degraded_ok && strikes[si] >= HEDGE_STRIKES {
                        struck_out.push(si);
                    }
                }
                round_evaluated += evaluated;
                round_skipped += skipped;
                if let Some((local_idx, score)) = best {
                    let position = slice.entries[local_idx].position;
                    let better = match winner {
                        None => true,
                        Some((w_score, w_position, ..)) => {
                            score > w_score || (score == w_score && position > w_position)
                        }
                    };
                    if better {
                        winner = Some((score, position, si, local_idx));
                    }
                }
            }
            round_eval_ns.push(elapsed_ns(round_start));
            evaluations += round_evaluated;
            bound_skips += round_skipped;
            for &si in &struck_out {
                if !stats.dead_shards.contains(&slices[si].shard) {
                    stats.dead_shards.push(slices[si].shard);
                }
            }

            let Some((best_score, _, si, local_idx)) = winner else {
                stop_reason = StopReason::Converged;
                break;
            };
            if best_score - current < self.config.min_gain {
                stop_reason = StopReason::Converged;
                break;
            }

            // Order-preserving removal: the surviving entries keep their
            // enumeration order, so tie-breaks stay reproducible.
            let entry = slices[si].entries.remove(local_idx);
            // Resolve the boundary form first: the commit and its events
            // share one name materialization per round.
            let augmentation = entry.aug.resolve(names);
            entry.apply(&mut state, augmentation.dataset())?;
            if matches!(entry.aug, Candidate::Join { .. }) {
                // A join grew the feature space: re-project stale union
                // entries once now (dropping the ones that can't follow)
                // and recompute every bound against the new epoch, so
                // per-evaluation work stays projection-free. The union
                // ceiling is identical across union entries — solve once.
                let refresh_start = Instant::now();
                let union_bound = self.config.pruning.then(|| state.union_score_bound());
                for slice in &mut slices {
                    slice.entries.retain_mut(|e| e.refresh(&state, union_bound));
                }
                refresh_ns += elapsed_ns(refresh_start);
            }
            // Drop struck-out shards' remaining candidates: the rest of
            // this session runs over the live subset only (the platform
            // labels the reply `degraded` with these shards missing).
            for &si in &struck_out {
                slices[si].entries.clear();
            }
            current = best_score;
            observer(SearchEvent::RoundCommitted {
                round,
                augmentation: augmentation.clone(),
                score_after: best_score,
                evaluated: round_evaluated,
                bound_skipped: round_skipped,
                remaining: slices.iter().map(|s| s.entries.len()).sum(),
                elapsed_ms: start.elapsed().as_millis() as u64,
            });
            steps.push(SelectionStep {
                augmentation,
                score_after: best_score,
                elapsed: start.elapsed(),
            });
        }

        stats.dead_shards.sort_unstable();
        observer(SearchEvent::Finished {
            stop_reason,
            final_score: current,
            rounds: steps.len(),
            evaluations,
            bound_skips,
            elapsed_ms: start.elapsed().as_millis() as u64,
        });
        Ok((
            SearchOutcome {
                base_score,
                final_score: current,
                steps,
                evaluations,
                bound_skips,
                candidates_truncated,
                round_eval_ns,
                cache_build_ns,
                refresh_ns,
                elapsed: start.elapsed(),
                stop_reason,
                state,
            },
            stats,
        ))
    }
}

/// Test harness: split an enumerated set into `s` fake shards (every shard
/// sees the same store), sending the candidate at enumeration position
/// `pos` to shard `assign(pos, candidate)`.
#[cfg(test)]
pub(crate) fn partition_by<'a>(
    set: &crate::candidates::CandidateSet,
    store: &'a SketchStore,
    s: usize,
    assign: impl Fn(usize, &Candidate) -> usize,
) -> Vec<ShardPartition<'a>> {
    let mut parts: Vec<ShardPartition<'_>> = (0..s)
        .map(|shard| ShardPartition { shard, candidates: Vec::new(), positions: Vec::new(), store })
        .collect();
    for (pos, cand) in set.candidates.iter().enumerate() {
        let part = &mut parts[assign(pos, cand)];
        part.candidates.push(cand.clone());
        part.positions.push(pos);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{enumerate_candidates, CandidateLimits};
    use crate::greedy::build_requester_state;
    use crate::request::{SearchRequest, TaskSpec};
    use mileena_datagen::{generate_corpus, CorpusConfig};
    use mileena_discovery::{DatasetProfile, DiscoveryConfig, DiscoveryIndex};
    use mileena_sketch::{build_sketch, SketchConfig};

    /// Partition an enumerated set round-robin-by-id into `s` fake shards.
    fn partition<'a>(
        set: &crate::candidates::CandidateSet,
        store: &'a SketchStore,
        s: usize,
    ) -> Vec<ShardPartition<'a>> {
        partition_by(set, store, s, |_, cand| cand.dataset().index() % s)
    }

    /// Single-process harness: one store/index, candidates partitioned
    /// into `s` fake shards. Pins the scatter loop's parity independent of
    /// the platform layer's real partitioning.
    fn scatter_matches_reference(s: usize, seed: u64) {
        let cfg = CorpusConfig {
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
            seed,
        };
        let corpus = generate_corpus(&cfg);
        let store = SketchStore::new();
        let mut index = DiscoveryIndex::new(DiscoveryConfig::default());
        for p in &corpus.providers {
            store.register(build_sketch(p, &SketchConfig::default()).unwrap()).unwrap();
            index.register(DatasetProfile::of(p, 128));
        }
        let request = SearchRequest {
            train: corpus.train.clone(),
            test: corpus.test.clone(),
            task: TaskSpec::new("y", &["base_x"]),
            budget: None,
            key_columns: None,
        };
        let search_cfg = SearchConfig::default();
        let (state, profile) = build_requester_state(&request, &search_cfg).unwrap();
        let set = enumerate_candidates(&index, &store, &profile, &CandidateLimits::default());
        let truncated = set.truncated();

        let reference =
            GreedySearch::new(search_cfg.clone()).run(state.clone(), set.clone(), &store).unwrap();

        let (sharded, stats) = ScatterSearch::new(search_cfg)
            .run_observed(
                state,
                partition(&set, &store, s),
                truncated,
                store.dataset_interner(),
                &SearchControl::new(),
                &mut |_| {},
            )
            .unwrap();

        assert_eq!(
            sharded.steps.iter().map(|st| st.augmentation.describe()).collect::<Vec<_>>(),
            reference.steps.iter().map(|st| st.augmentation.describe()).collect::<Vec<_>>(),
            "selections must be bit-identical (s={s}, seed={seed})"
        );
        for (a, b) in sharded.steps.iter().zip(&reference.steps) {
            assert_eq!(a.score_after, b.score_after, "per-step score parity");
        }
        assert_eq!(sharded.base_score, reference.base_score);
        assert_eq!(sharded.final_score, reference.final_score);
        assert_eq!(sharded.stop_reason, reference.stop_reason);
        assert_eq!(stats.rounds as usize, sharded.steps.len() + 1, "rounds = commits + stop");
    }

    #[test]
    fn scatter_gather_matches_single_shard_reference() {
        for s in [1, 2, 4, 7] {
            for seed in [13u64, 29] {
                scatter_matches_reference(s, seed);
            }
        }
    }

    /// Build a 3-shard slice set over a small corpus, for the fault tests.
    fn fault_harness(
        search_cfg: &SearchConfig,
    ) -> (SketchStore, ProxyState, crate::candidates::CandidateSet) {
        let cfg = CorpusConfig {
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
        };
        let corpus = generate_corpus(&cfg);
        let store = SketchStore::new();
        let mut index = DiscoveryIndex::new(DiscoveryConfig::default());
        for p in &corpus.providers {
            store.register(build_sketch(p, &SketchConfig::default()).unwrap()).unwrap();
            index.register(DatasetProfile::of(p, 128));
        }
        let request = SearchRequest {
            train: corpus.train.clone(),
            test: corpus.test.clone(),
            task: TaskSpec::new("y", &["base_x"]),
            budget: None,
            key_columns: None,
        };
        let (state, profile) = build_requester_state(&request, search_cfg).unwrap();
        let set = enumerate_candidates(&index, &store, &profile, &CandidateLimits::default());
        (store, state, set)
    }

    #[test]
    fn injected_shard_failure_fails_fast_by_default() {
        let search_cfg = SearchConfig::default();
        let (store, state, set) = fault_harness(&search_cfg);
        let interceptor: ShardCallInterceptor =
            Arc::new(|shard| (shard == 1).then_some(ShardCallFault::Fail));
        let err = ScatterSearch::new(search_cfg)
            .with_interceptor(interceptor)
            .run_observed(
                state,
                partition(&set, &store, 3),
                0,
                store.dataset_interner(),
                &SearchControl::new(),
                &mut |_| {},
            )
            .unwrap_err();
        assert_eq!(err, SearchError::ShardFailed { shard: 1 });
    }

    #[test]
    fn degraded_search_drops_failed_shard_and_terminates() {
        let search_cfg = SearchConfig { degraded_ok: true, ..Default::default() };
        let (store, state, set) = fault_harness(&search_cfg);
        let interceptor: ShardCallInterceptor =
            Arc::new(|shard| (shard == 1).then_some(ShardCallFault::Fail));
        let state2 = state.clone();
        let (outcome, stats) = ScatterSearch::new(search_cfg.clone())
            .with_interceptor(interceptor)
            .run_observed(
                state,
                partition(&set, &store, 3),
                0,
                store.dataset_interner(),
                &SearchControl::new(),
                &mut |_| {},
            )
            .unwrap();
        assert_eq!(stats.dead_shards, vec![1], "the failed shard is reported dead");
        assert!(outcome.final_score.is_finite());
        // The degraded run equals the reference over the live subset: a
        // search whose slices never contained shard 1's candidates.
        let mut live = partition(&set, &store, 3);
        live[1].candidates.clear();
        live[1].positions.clear();
        let (subset, _) = ScatterSearch::new(search_cfg)
            .run_observed(
                state2,
                live,
                0,
                store.dataset_interner(),
                &SearchControl::new(),
                &mut |_| {},
            )
            .unwrap();
        assert_eq!(outcome.final_score, subset.final_score);
        assert_eq!(
            outcome.steps.iter().map(|s| s.augmentation.describe()).collect::<Vec<_>>(),
            subset.steps.iter().map(|s| s.augmentation.describe()).collect::<Vec<_>>(),
            "degraded selections equal the live-subset reference"
        );
    }

    #[test]
    fn deadline_blow_records_timeout_strikes() {
        let search_cfg = SearchConfig { shard_deadline_ms: 1, ..Default::default() };
        let (store, state, set) = fault_harness(&search_cfg);
        let interceptor: ShardCallInterceptor = Arc::new(|shard| {
            (shard == 2).then_some(ShardCallFault::Latency(Duration::from_millis(5)))
        });
        let (outcome, stats) = ScatterSearch::new(search_cfg)
            .with_interceptor(interceptor)
            .run_observed(
                state,
                partition(&set, &store, 3),
                0,
                store.dataset_interner(),
                &SearchControl::new(),
                &mut |_| {},
            )
            .unwrap();
        assert!(outcome.final_score.is_finite());
        assert!(
            stats.timeouts.iter().all(|&s| s == 2) && !stats.timeouts.is_empty(),
            "only the latency-bombed shard strikes: {:?}",
            stats.timeouts
        );
        // Without degraded_ok the slow shard is never dropped: parity wins
        // over hedging by default.
        assert!(stats.dead_shards.is_empty());
    }

    #[test]
    fn exhaustive_scatter_matches_reference_too() {
        // pruning off: the cross-shard gate must never fire and parity must
        // still hold (bounds are +∞, gate disabled).
        let cfg = CorpusConfig {
            num_datasets: 24,
            num_signal: 2,
            num_union: 2,
            num_novelty_traps: 2,
            train_rows: 200,
            test_rows: 200,
            provider_rows: 150,
            key_domain: 60,
            signal_rows_per_key: 1,
            noise: 0.1,
            nonlinear_strength: 0.0,
            seed: 57,
        };
        let corpus = generate_corpus(&cfg);
        let store = SketchStore::new();
        let mut index = DiscoveryIndex::new(DiscoveryConfig::default());
        for p in &corpus.providers {
            store.register(build_sketch(p, &SketchConfig::default()).unwrap()).unwrap();
            index.register(DatasetProfile::of(p, 128));
        }
        let request = SearchRequest {
            train: corpus.train.clone(),
            test: corpus.test.clone(),
            task: TaskSpec::new("y", &["base_x"]),
            budget: None,
            key_columns: None,
        };
        let search_cfg = SearchConfig { pruning: false, ..Default::default() };
        let (state, profile) = build_requester_state(&request, &search_cfg).unwrap();
        let set = enumerate_candidates(&index, &store, &profile, &CandidateLimits::default());
        let reference =
            GreedySearch::new(search_cfg.clone()).run(state.clone(), set.clone(), &store).unwrap();
        let (sharded, stats) = ScatterSearch::new(search_cfg)
            .run_observed(
                state,
                partition(&set, &store, 3),
                0,
                store.dataset_interner(),
                &SearchControl::new(),
                &mut |_| {},
            )
            .unwrap();
        assert_eq!(sharded.final_score, reference.final_score);
        assert_eq!(sharded.bound_skips, 0, "exhaustive mode never skips");
        assert_eq!(stats.cross_shard_skips, 0, "exhaustive mode never gates a shard");
        assert_eq!(
            sharded.steps.iter().map(|st| st.augmentation.describe()).collect::<Vec<_>>(),
            reference.steps.iter().map(|st| st.augmentation.describe()).collect::<Vec<_>>(),
        );
    }
}
