//! The task-based dataset search service (Figure 1, green workflow) as one
//! coordinator over S shards, behind one sketches-only API.
//!
//! A [`crate::shard::Shard`] is a corpus partition: store, discovery index,
//! budget ledger and storage engine behind the journaled mutation path.
//! The coordinator here is everything else: placement, admission, the
//! enumeration merge, the search session, telemetry and circuit breakers.
//! [`CentralPlatform`] is the coordinator over exactly one shard rooted at
//! `storage.dir`; [`ShardedPlatform`] is the coordinator over
//! `config.shards` shards rooted at `dir/shard-<i>`. Which constructor was
//! called is the only thing that tells them apart: every mutation and every
//! search takes the same path at every S.
//!
//! The platform never sees raw requester data: searches arrive as
//! [`SketchedRequest`]s (see `mileena-search::request`), and every session
//! runs against one frozen store snapshot per shard plus an index read-lock
//! enumeration — N requesters search in parallel against consistent corpus
//! views while providers keep registering.
//!
//! **Placement.** A dataset's owning shard is decided once, at first
//! sight, by hashing its interned `DatasetId`; the decision is then
//! remembered in a membership map. On reopen the map is rebuilt from what
//! each shard's store recovered *and* from each shard's budget ledger —
//! ledger entries survive dataset removal, so a remove/re-register cycle
//! still routes to the shard holding the spend and cannot launder budget
//! through the partitioning.
//!
//! **Parity.** Join-key ids are a fixed function of the key, so every
//! shard orders arena rows as a single store would; all shards share one
//! dataset interner and one corpus-global TF-IDF [`TermSpace`]; and the
//! search loop's gather tie-break is the candidate's global enumeration
//! position, so selections, scores and models are bit-identical at every
//! shard count (pinned by the `sharded_parity` suite); only execution counters
//! (evaluations/bound skips) may differ at S > 1, because the distributed
//! pruning walk is a different — equally admissible — walk.
//!
//! **Unavailability.** A shard marked unavailable fails its mutations
//! with the typed [`CoreError::ShardUnavailable`]; searches fail fast when
//! *any* shard is down, because a partial scatter would silently change
//! selections — worse than an honest error. A caller that prefers a
//! partial answer over no answer opts in with `SearchConfig::degraded_ok`:
//! the search then runs over the live shard subset and the reply says so
//! explicitly (`degraded`, `shards_missing`).
//!
//! **Supervision.** Each shard sits behind a circuit breaker
//! (Healthy → Suspect → Quarantined → Recovering, see [`ShardHealth`]):
//! consecutive failed shard calls — injected faults, crashes, or gather
//! deadline strikes — open the breaker and quarantine the shard. A
//! quarantined durable shard is auto-recovered on the next touch by
//! re-opening it from its own WAL directory, the exact recovery path a
//! restart would take, so the rebuilt shard is bit-identical; a volatile
//! shard half-opens (its in-memory state never went away). Operator downs
//! (`set_shard_available`) are *not* auto-recovered — only the operator
//! flips them back. All of this holds at S = 1 too, where it is inert at
//! the defaults (no fault plan, `degraded_ok` off, `shard_deadline_ms` 0).

use crate::durable::{RecoveryReport, StoragePolicy};
use crate::error::{CoreError, Result};
use crate::local::ProviderUpload;
use crate::sched::{ExecMode, SchedulerConfig, SessionJob, SessionScheduler};
use crate::service::SearchSession;
use crate::shard::Shard;
use crate::wire::{
    CheckpointReceipt, DiscoveryReport, PlatformStats, SearchReply, ShardHealth, ShardHealthState,
    ShardReport,
};
use mileena_discovery::{DiscoveryConfig, TermSpace};
use mileena_ml::{LinearModel, RidgeConfig};
use mileena_obs::{Metrics, MetricsReport};
use mileena_privacy::PrivacyBudget;
use mileena_relation::{DatasetInterner, FxHashMap};
use mileena_search::{
    build_sketched_state, enumerate_candidates, Candidate, CandidateLimits, CandidateSet,
    ScatterSearch, ScatterStats, SearchConfig, SearchControl, SearchError, SearchEvent,
    SearchOutcome, SearchRequest, ShardCallFault, ShardCallInterceptor, ShardPartition,
    SketchedRequest,
};
use mileena_sketch::SketchStore;
use mileena_storage::{FaultKind, FaultSite};
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Platform-wide configuration, honored by the service layer.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Discovery tuning.
    pub discovery: DiscoveryConfig,
    /// Search configuration applied when a request doesn't carry its own.
    pub default_search: SearchConfig,
    /// Upper bound on concurrently *executing* search sessions: the
    /// scheduler's worker pool never exceeds it. `0` disables submission
    /// entirely (rejected with a capacity error). Bursts beyond the pool
    /// wait in the admission queue instead of being rejected — see
    /// [`SchedulerConfig`].
    pub max_concurrent_sessions: usize,
    /// Server-side wall-clock cap per session, enforced as a deadline on
    /// top of each request's own `time_budget` (`None` = no extra cap).
    /// Sessions that provably cannot meet the deadline are shed by
    /// admission control with `StopReason::Shed`.
    pub max_session_wall: Option<Duration>,
    /// Session-scheduler tuning: worker-pool size, admission-queue depth,
    /// chaos fault plan.
    pub scheduler: SchedulerConfig,
    /// Shard count for [`ShardedPlatform`] deployments: the corpus is
    /// partitioned across this many shards and searches scatter-gather
    /// across them. `CentralPlatform` ignores it (it is always the
    /// coordinator over exactly one shard).
    pub shards: usize,
    /// Durable-storage policy. Honored by [`Platform::open_with`] /
    /// [`CentralPlatform::open`]; [`Platform::new`] always builds a
    /// volatile platform.
    pub storage: Option<StoragePolicy>,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            discovery: DiscoveryConfig::default(),
            default_search: SearchConfig::default(),
            max_concurrent_sessions: 64,
            max_session_wall: None,
            scheduler: SchedulerConfig::default(),
            shards: 1,
            storage: None,
        }
    }
}

/// What a search request returns to the requester.
#[derive(Debug)]
pub struct PlatformSearchResult {
    /// The greedy search trace and final state.
    pub outcome: SearchOutcome,
    /// The proxy model trained on the final augmented statistics, ready
    /// for the requester to use (or to hand the materialized augmented
    /// data to AutoML, as the Figure 4 pipeline does).
    pub model: LinearModel,
}

/// Decrements the active-session counter when a session ends, however it
/// ends (normal finish, error, panic, shed, shutdown).
pub(crate) struct SessionGuard(pub(crate) Arc<AtomicUsize>);

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Cumulative evaluation-plan and scatter-gather counters across every
/// search the platform served, surfaced through `stats()` so operators can
/// watch the bound-pruning win at fleet level (skips / (skips +
/// evaluations) is the fraction of candidate scorings the pruner saved).
#[derive(Debug, Default)]
struct SearchTotals {
    evaluations: AtomicU64,
    bound_skips: AtomicU64,
    candidates_truncated: AtomicU64,
    scatter_rounds: AtomicU64,
    gather_rounds: AtomicU64,
    cross_shard_skips: AtomicU64,
}

impl SearchTotals {
    fn record(&self, outcome: &SearchOutcome, stats: &ScatterStats) {
        self.evaluations.fetch_add(outcome.evaluations as u64, Ordering::Relaxed);
        self.bound_skips.fetch_add(outcome.bound_skips as u64, Ordering::Relaxed);
        self.candidates_truncated.fetch_add(outcome.candidates_truncated as u64, Ordering::Relaxed);
        self.scatter_rounds.fetch_add(stats.rounds, Ordering::Relaxed);
        self.gather_rounds.fetch_add(stats.shard_rounds, Ordering::Relaxed);
        self.cross_shard_skips.fetch_add(stats.cross_shard_skips, Ordering::Relaxed);
    }
}

/// Consecutive failed shard calls (injected faults or gather deadline
/// strikes) that open a shard's circuit breaker. A crash opens it
/// immediately regardless of the count.
const BREAKER_THRESHOLD: u64 = 3;

/// One shard's breaker bookkeeping (guarded by the supervisor's per-shard
/// mutex; snapshotted into [`ShardHealth`] for reports).
#[derive(Debug, Default)]
struct BreakerCore {
    state: ShardHealthState,
    consecutive_failures: u64,
    breaker_opened: u64,
    timeout_strikes: u64,
    recoveries: u64,
}

/// The per-shard health supervisors: the breaker state machine
/// Healthy → Suspect → Quarantined → Recovering → Healthy. Failures and
/// timeout strikes are recorded from search workers (via the shard-call
/// interceptor and gather stats); recovery transitions are driven by the
/// coordinator on its own threads ([`Platform::recover_shard`]).
#[derive(Debug)]
struct ShardSupervisors {
    shards: Vec<Mutex<BreakerCore>>,
    metrics: Arc<Metrics>,
}

impl ShardSupervisors {
    fn new(n: usize, metrics: Arc<Metrics>) -> Self {
        ShardSupervisors {
            shards: (0..n).map(|_| Mutex::new(BreakerCore::default())).collect(),
            metrics,
        }
    }

    fn state(&self, shard: usize) -> ShardHealthState {
        self.shards[shard].lock().state
    }

    /// Snapshot every shard's breaker into the wire form for `stats()`.
    fn health(&self) -> Vec<ShardHealth> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, core)| {
                let b = core.lock();
                ShardHealth {
                    shard,
                    state: b.state,
                    consecutive_failures: b.consecutive_failures,
                    breaker_opened: b.breaker_opened,
                    timeout_strikes: b.timeout_strikes,
                    recoveries: b.recoveries,
                }
            })
            .collect()
    }

    /// A shard call completed cleanly: close the failure run. Only a
    /// successful *recovery* closes an open breaker.
    fn record_success(&self, shard: usize) {
        let mut b = self.shards[shard].lock();
        if matches!(b.state, ShardHealthState::Healthy | ShardHealthState::Suspect) {
            b.consecutive_failures = 0;
            b.state = ShardHealthState::Healthy;
        }
    }

    /// A shard call failed: extend the failure run; at
    /// [`BREAKER_THRESHOLD`] the breaker opens and the shard quarantines.
    fn record_failure(&self, shard: usize) {
        let mut b = self.shards[shard].lock();
        if matches!(b.state, ShardHealthState::Quarantined | ShardHealthState::Recovering) {
            return;
        }
        self.metrics.shard_call_failures.inc();
        b.consecutive_failures += 1;
        if b.consecutive_failures >= BREAKER_THRESHOLD {
            self.open(&mut b);
        } else {
            b.state = ShardHealthState::Suspect;
        }
    }

    /// A shard blew its per-round gather deadline: a timeout strike, which
    /// feeds the breaker exactly like a failed call.
    fn record_timeout(&self, shard: usize) {
        {
            let mut b = self.shards[shard].lock();
            b.timeout_strikes += 1;
        }
        self.metrics.shard_timeout_strikes.inc();
        self.record_failure(shard);
    }

    /// A shard crashed mid-call: straight to Quarantined, no grace.
    fn quarantine(&self, shard: usize) {
        let mut b = self.shards[shard].lock();
        if !matches!(b.state, ShardHealthState::Quarantined | ShardHealthState::Recovering) {
            b.consecutive_failures += 1;
            self.metrics.shard_call_failures.inc();
            self.open(&mut b);
        }
    }

    fn open(&self, b: &mut BreakerCore) {
        b.state = ShardHealthState::Quarantined;
        b.breaker_opened += 1;
        self.metrics.shard_breaker_opened.inc();
        self.metrics.shards_quarantined.add(1);
    }

    /// Claim the recovery of a quarantined shard (half-open). Returns
    /// false when the shard is not quarantined or another thread already
    /// holds the recovery.
    fn begin_recovery(&self, shard: usize) -> bool {
        let mut b = self.shards[shard].lock();
        if b.state == ShardHealthState::Quarantined {
            b.state = ShardHealthState::Recovering;
            true
        } else {
            false
        }
    }

    /// Settle a claimed recovery: success closes the breaker, failure
    /// re-quarantines for the next probe.
    fn finish_recovery(&self, shard: usize, ok: bool) {
        let mut b = self.shards[shard].lock();
        if ok {
            b.state = ShardHealthState::Healthy;
            b.consecutive_failures = 0;
            b.recoveries += 1;
            self.metrics.shard_recoveries.inc();
            self.metrics.shards_quarantined.add(-1);
        } else {
            b.state = ShardHealthState::Quarantined;
        }
    }
}

/// How a deployment lays out its shards — the one thing that tells a
/// [`CentralPlatform`] from a [`ShardedPlatform`].
pub trait Layout {
    /// `true`: `config.shards` shards rooted at `dir/shard-<i>`, and
    /// `stats()` fills `shards`. `false`: exactly one shard rooted at
    /// `dir`, and `stats()` fills `storage`.
    const PARTITIONED: bool;
}

/// [`Layout`] of a [`CentralPlatform`].
#[derive(Debug)]
pub struct SingleShard;

impl Layout for SingleShard {
    const PARTITIONED: bool = false;
}

/// [`Layout`] of a [`ShardedPlatform`].
#[derive(Debug)]
pub struct Partitioned;

impl Layout for Partitioned {
    const PARTITIONED: bool = true;
}

/// The central platform: the coordinator over exactly one shard.
pub type CentralPlatform = Platform<SingleShard>;

/// The sharded platform: the coordinator over `config.shards` shards.
pub type ShardedPlatform = Platform<Partitioned>;

/// The session body [`Platform::prepare_search`] builds: run it on a
/// scheduler worker (or inline) to get the search result and its wire
/// reply.
type SearchExec = Box<dyn FnOnce(ExecMode) -> Result<(PlatformSearchResult, SearchReply)> + Send>;

/// The platform: S shards behind one coordinator. Thread-safe: uploads and
/// searches interleave, and any number of search sessions run
/// concurrently.
#[derive(Debug)]
pub struct Platform<L: Layout> {
    /// Shards behind per-slot locks: supervised recovery swaps a rebuilt
    /// shard in while the coordinator keeps serving.
    shards: Vec<Mutex<Arc<Shard>>>,
    available: Vec<AtomicBool>,
    /// Dataset name → owning shard. Grows on first placement, survives
    /// removal (the shard's ledger may still hold the spend), rebuilt from
    /// shard stores + ledgers at open.
    membership: Mutex<FxHashMap<String, usize>>,
    config: PlatformConfig,
    active_sessions: Arc<AtomicUsize>,
    session_counter: AtomicU64,
    totals: Arc<SearchTotals>,
    sched: SessionScheduler,
    /// The deployment's one telemetry registry: search stages and breakers
    /// record here, and so do the shards (WAL, snapshots, hydration).
    metrics: Arc<Metrics>,
    /// Per-shard circuit breakers (shared with search workers, which
    /// record call failures through the shard-call interceptor).
    supervisors: Arc<ShardSupervisors>,
    /// The corpus-global TF-IDF term space every shard index shares —
    /// kept on the coordinator so a recovered shard's rebuilt index joins
    /// the same space (the parity guarantee for recovery).
    terms: TermSpace,
    layout: PhantomData<L>,
}

impl CentralPlatform {
    /// Open a **durable** platform at `dir` with the default config and
    /// storage policy, creating the directory on first use and recovering
    /// existing state otherwise. See [`Platform::open_with`].
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<Self> {
        let config = PlatformConfig { storage: Some(StoragePolicy::at(dir)), ..Default::default() };
        Self::open_with(config)
    }

    /// The sketch store (read access for benches/inspection; a cheap-clone
    /// handle onto the live store).
    pub fn store(&self) -> SketchStore {
        self.shard(0).store().clone()
    }

    /// Serve a raw-relation search request (Problem 1). **Deprecated
    /// boundary**: this sketches the relations platform-side, which only a
    /// co-located deployment should ever do — new code should sketch
    /// locally (`SearchRequestBuilder` / `LocalDataStore::sketch_request`)
    /// and go through [`Platform::submit`] or a `PlatformService`
    /// transport. Kept as a thin wrapper over the sketched path so the two
    /// produce bit-identical results.
    pub fn search(
        &self,
        request: &SearchRequest,
        config: &SearchConfig,
    ) -> Result<PlatformSearchResult> {
        let sketched = SketchedRequest::sketch(
            &request.train,
            &request.test,
            &request.task,
            request.key_columns.as_deref(),
        )?;
        self.search_sketched(&sketched, config)
    }
}

impl<L: Layout> Platform<L> {
    /// New empty **volatile** platform: state lives in memory only and is
    /// gone on drop. Production deployments with privacy budgets should
    /// use [`Platform::open_with`] — an in-memory ledger silently forgets
    /// spent budget across restarts, which voids the DP guarantee.
    pub fn new(config: PlatformConfig) -> Self {
        Self::build(PlatformConfig { storage: None, ..config })
            .expect("a volatile platform has nothing to recover")
    }

    /// Open a durable platform per `config.storage` (required): each shard
    /// journals and snapshots under its own root and recovers independently
    /// (see [`Shard`]). A sharded layout pins its shard count in the
    /// directory — reopening with a different `config.shards` is an error
    /// (partitions on disk cannot be re-hashed).
    pub fn open_with(config: PlatformConfig) -> Result<Self> {
        let Some(policy) = &config.storage else {
            return Err(CoreError::Storage("open_with requires PlatformConfig.storage".into()));
        };
        if L::PARTITIONED {
            let (existing, want) = (count_shard_dirs(&policy.dir), config.shards.max(1));
            if existing != 0 && existing != want {
                return Err(CoreError::Storage(format!(
                    "shard count mismatch: {} holds {existing} shard directories, config wants {want}",
                    policy.dir.display()
                )));
            }
        }
        Self::build(config)
    }

    fn build(config: PlatformConfig) -> Result<Self> {
        let s = if L::PARTITIONED { config.shards.max(1) } else { 1 };
        let terms = TermSpace::new();
        let metrics = Arc::new(Metrics::new());
        // Shards recover from disjoint directories with no cross-shard
        // ordering dependency (key ids do not depend on who saw a key
        // first, and the shared dataset interner and term space are
        // concurrency-safe), so the S opens run concurrently — restart
        // time is the slowest shard, not the sum. The caller opens shard 0
        // itself, so a one-shard open never leaves its thread (or its
        // allocator arena).
        let open = |i| Self::open_shard(&config, &terms, &metrics, i);
        let opened: Vec<Result<Shard>> = std::thread::scope(|scope| {
            let rest: Vec<_> = (1..s).map(|i| scope.spawn(move || open(i))).collect();
            let first = open(0);
            let rest = rest.into_iter().map(|h| h.join().expect("shard open panicked"));
            std::iter::once(first).chain(rest).collect()
        });
        let mut shards = Vec::with_capacity(s);
        for shard in opened {
            shards.push(Mutex::new(Arc::new(shard?)));
        }
        let sched = SessionScheduler::new(
            config.scheduler.effective_workers(config.max_concurrent_sessions),
            config.scheduler.queue_depth,
            config.scheduler.faults.clone(),
        );
        let platform = Platform {
            available: (0..s).map(|_| AtomicBool::new(true)).collect(),
            shards,
            membership: Mutex::new(FxHashMap::default()),
            config,
            active_sessions: Arc::new(AtomicUsize::new(0)),
            session_counter: AtomicU64::new(0),
            totals: Arc::new(SearchTotals::default()),
            sched,
            supervisors: Arc::new(ShardSupervisors::new(s, Arc::clone(&metrics))),
            metrics,
            terms,
            layout: PhantomData,
        };
        for i in 0..s {
            platform.adopt_membership(i);
        }
        Ok(platform)
    }

    /// Open shard `i` at its root: `storage.dir` itself for the
    /// single-shard layout, `storage.dir/shard-<i>` for the partitioned one.
    fn open_shard(
        config: &PlatformConfig,
        terms: &TermSpace,
        metrics: &Arc<Metrics>,
        i: usize,
    ) -> Result<Shard> {
        let policy = config.storage.clone().map(|mut policy| {
            if L::PARTITIONED {
                policy.dir = policy.dir.join(format!("shard-{i}"));
            }
            policy
        });
        Shard::open(config.discovery.clone(), terms.clone(), policy, Arc::clone(metrics))
    }

    /// Route everything shard `i` holds to it: whatever its store
    /// recovered lives there, and whatever its ledger remembers —
    /// including removed datasets — stays routed there so the
    /// anti-laundering rejection comes from the shard holding the spend.
    fn adopt_membership(&self, i: usize) {
        let shard = self.shard(i);
        let mut membership = self.membership.lock();
        // names() never hydrates — the rebuild must not defeat lazy sketch
        // hydration by touching every blob.
        for name in shard.store().names().into_iter().chain(shard.ledger_datasets()) {
            membership.insert(name, i);
        }
    }

    /// The current shard behind slot `i` (recovery may swap it).
    fn shard(&self, i: usize) -> Arc<Shard> {
        Arc::clone(&self.shards[i].lock())
    }

    /// The shards (read access for tests/inspection).
    pub fn shard_platforms(&self) -> Vec<Arc<Shard>> {
        (0..self.shards.len()).map(|i| self.shard(i)).collect()
    }

    /// The platform's live metrics registry (the TCP server records
    /// connection/frame telemetry into it via
    /// `PlatformService::metrics_handle`).
    pub fn metrics_registry(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Snapshot the full metrics state: the registry, plus the private
    /// histograms subsystems keep for their own reports — scheduler
    /// queue-wait/run-time and every shard's storage I/O — joined by name.
    pub fn metrics(&self) -> MetricsReport {
        let shards = self.shard_platforms();
        // A level, read from its source of truth at snapshot time.
        let unhydrated: usize = shards.iter().map(|s| s.store().unhydrated()).sum();
        self.metrics.datasets_unhydrated.set(unhydrated as i64);
        let mut report = self.metrics.report();
        let (queue_wait, run_time) = self.sched.histograms();
        report.push_histogram("search_queue_wait_ns", queue_wait.report());
        report.push_histogram("scheduler_run_ns", run_time.report());
        for shard in &shards {
            shard.push_io_histograms(&mut report);
        }
        report
    }

    /// The shard owning `name`: the membership map when the name is known,
    /// otherwise a first-seen placement by hashing the interned dataset id
    /// (recorded by the mutation that follows, never by the lookup itself).
    fn place(&self, name: &str) -> usize {
        if let Some(&shard) = self.membership.lock().get(name) {
            return shard;
        }
        let id = self.shard(0).store().dataset_interner().intern(name);
        let mixed = (id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 32) as usize) % self.shards.len()
    }

    /// Operator-down shards fail outright; breaker-quarantined shards get
    /// one supervised recovery attempt before the typed rejection.
    fn ensure_available(&self, shard: usize) -> Result<()> {
        if !self.available[shard].load(Ordering::SeqCst) {
            return Err(CoreError::ShardUnavailable { shard });
        }
        if self.supervisors.state(shard) == ShardHealthState::Quarantined {
            self.recover_shard(shard).map_err(|_| CoreError::ShardUnavailable { shard })?;
        }
        match self.supervisors.state(shard) {
            ShardHealthState::Quarantined | ShardHealthState::Recovering => {
                Err(CoreError::ShardUnavailable { shard })
            }
            _ => Ok(()),
        }
    }

    /// The available shard that owns `name`, for a mutation to run on.
    fn owner(&self, name: &str) -> Result<(usize, Arc<Shard>)> {
        let shard = self.place(name);
        self.ensure_available(shard)?;
        Ok((shard, self.shard(shard)))
    }

    /// Mark a shard available/unavailable (operator control; the chaos and
    /// failure tests drive it). Mutations owned by an unavailable shard and
    /// all searches fail with [`CoreError::ShardUnavailable`]. Unlike a
    /// breaker quarantine, an operator down is never auto-recovered.
    pub fn set_shard_available(&self, shard: usize, up: bool) {
        self.available[shard].store(up, Ordering::SeqCst);
    }

    /// Per-shard breaker health (state, failure runs, strike and recovery
    /// counters) — the same snapshot `stats()` ships in [`ShardReport`].
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.supervisors.health()
    }

    /// Attempt supervised recovery of a breaker-quarantined shard; no-op
    /// when the shard is healthy or another thread holds the recovery.
    ///
    /// Durable deployments rebuild the shard from its own WAL directory
    /// through the standard recovery path — snapshot hydrate, journal
    /// replay, index rebuild — and swap it into the slot, so the recovered
    /// shard is bit-identical to the one that crashed. Volatile deployments
    /// half-open the breaker over the still-resident shard (the breaker
    /// opened on call faults; the in-memory state never went away).
    pub fn recover_shard(&self, shard: usize) -> Result<()> {
        if !self.supervisors.begin_recovery(shard) {
            return Ok(());
        }
        let result = self.reopen_shard(shard);
        self.supervisors.finish_recovery(shard, result.is_ok());
        result
    }

    fn reopen_shard(&self, shard: usize) -> Result<()> {
        if self.config.storage.is_some() {
            let reopened = Self::open_shard(&self.config, &self.terms, &self.metrics, shard)?;
            *self.shards[shard].lock() = Arc::new(reopened);
            self.adopt_membership(shard);
        }
        Ok(())
    }

    /// Register a provider upload on the owning shard (the shard's own
    /// journaled validate → journal → apply path; see [`Shard`]).
    pub fn register(&self, upload: ProviderUpload) -> Result<()> {
        let name = upload.sketch.name.clone();
        let (i, shard) = self.owner(&name)?;
        shard.register(upload)?;
        self.membership.lock().insert(name, i);
        Ok(())
    }

    /// Replace a dataset's sketches and profile on its owning shard
    /// (provider re-upload after local re-transformation), or insert them
    /// when the name is new. A budget on the upload *adds* to the
    /// dataset's cumulative privacy loss — replacement never refunds.
    pub fn replace(&self, upload: ProviderUpload) -> Result<()> {
        let name = upload.sketch.name.clone();
        let (i, shard) = self.owner(&name)?;
        shard.replace(upload)?;
        self.membership.lock().insert(name, i);
        Ok(())
    }

    /// Remove a dataset from its owning shard. The budget ledger entry —
    /// and with it the membership entry — **survives removal**: spent
    /// budget is spent forever, and re-registration must route back to the
    /// shard holding the spend.
    pub fn remove(&self, name: &str) -> Result<()> {
        self.owner(name)?.1.remove(name)
    }

    /// Grant budget headroom to a dataset without charging it — the
    /// APM-style flow, where per-query releases then draw it down via
    /// [`Platform::charge_budget`]. Journaled on the owning shard's ledger.
    pub fn grant_budget(&self, dataset: &str, budget: PrivacyBudget) -> Result<()> {
        let (i, shard) = self.owner(dataset)?;
        shard.grant_budget(dataset, budget)?;
        self.membership.lock().insert(dataset.to_string(), i);
        Ok(())
    }

    /// Charge an additional release against a dataset's budget on the
    /// owning shard's ledger (APM-style per-query accounting; journaled
    /// before it is applied, so the DP guarantee holds across restarts).
    pub fn charge_budget(&self, dataset: &str, cost: PrivacyBudget) -> Result<()> {
        self.owner(dataset)?.1.charge_budget(dataset, cost)
    }

    /// Budget spent by a registered private dataset (`None` = unknown
    /// dataset or non-private upload), answered by its owning shard.
    pub fn budget_spent(&self, dataset: &str) -> Option<PrivacyBudget> {
        self.shard(self.place(dataset)).budget_spent(dataset)
    }

    /// Budget remaining for a registered private dataset.
    pub fn budget_remaining(&self, dataset: &str) -> Result<PrivacyBudget> {
        self.shard(self.place(dataset)).budget_remaining(dataset)
    }

    /// Total registered datasets across all shards.
    pub fn num_datasets(&self) -> usize {
        self.shard_platforms().iter().map(|s| s.num_datasets()).sum()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// What the last `open` recovered, merged across shards: counters sum;
    /// the phase timings take the slowest shard, since the S opens ran
    /// concurrently. `None` on volatile platforms.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        let mut merged: Option<RecoveryReport> = None;
        for r in self.shard_platforms().iter().filter_map(|s| s.recovery_report()) {
            let m = merged.get_or_insert(RecoveryReport {
                snapshot_seq: None,
                replayed_records: 0,
                torn_tail: false,
                invalid_snapshots: 0,
                snapshot_bytes: 0,
                delta_links: 0,
                eager_ms: 0,
                replay_ms: 0,
                lazy_datasets: 0,
            });
            m.snapshot_seq = m.snapshot_seq.max(r.snapshot_seq);
            m.replayed_records += r.replayed_records;
            m.torn_tail |= r.torn_tail;
            m.invalid_snapshots += r.invalid_snapshots;
            m.snapshot_bytes += r.snapshot_bytes;
            m.delta_links += r.delta_links;
            m.eager_ms = m.eager_ms.max(r.eager_ms);
            m.replay_ms = m.replay_ms.max(r.replay_ms);
            m.lazy_datasets += r.lazy_datasets;
        }
        merged
    }

    /// The shard currently owning a dataset (`None` = never placed).
    pub fn shard_of(&self, name: &str) -> Option<usize> {
        self.membership.lock().get(name).copied()
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Sessions admitted and not yet finished (queued + executing).
    pub fn active_sessions(&self) -> usize {
        self.active_sessions.load(Ordering::SeqCst)
    }

    /// Sessions currently waiting in the admission queue.
    pub fn queued_sessions(&self) -> usize {
        self.sched.queued()
    }

    /// Checkpoint now: every shard writes a full-state snapshot, rotates
    /// its log, and purges segments/snapshots past the retention horizon.
    /// Returns the aggregate receipt (max sequence, summed datasets and
    /// snapshot bytes). Errors on volatile platforms.
    pub fn checkpoint(&self) -> Result<CheckpointReceipt> {
        let mut receipt = CheckpointReceipt { seq: 0, datasets: 0, snapshot_bytes: 0 };
        for shard in self.shard_platforms() {
            let r = shard.checkpoint()?;
            receipt.seq = receipt.seq.max(r.seq);
            receipt.datasets += r.datasets;
            receipt.snapshot_bytes += r.snapshot_bytes;
        }
        Ok(receipt)
    }

    /// Platform statistics: corpus size, live sessions, search totals, and
    /// — per layout — the single shard's storage-engine state
    /// (`storage`) or the scatter-gather and supervision counters
    /// (`shards`).
    pub fn stats(&self) -> Result<PlatformStats> {
        let shards = self.shard_platforms();
        let mut discovery = DiscoveryReport {
            datasets: 0,
            key_columns: 0,
            lsh_buckets: 0,
            schema_buckets: 0,
            posting_terms: 0,
        };
        for shard in &shards {
            let d = shard.discovery_report();
            discovery.datasets += d.datasets;
            discovery.key_columns += d.key_columns;
            discovery.lsh_buckets += d.lsh_buckets;
            discovery.schema_buckets += d.schema_buckets;
            // Postings live in the shared corpus-global term space: every
            // shard reports the same census, so take it, don't sum it.
            discovery.posting_terms = discovery.posting_terms.max(d.posting_terms);
        }
        let datasets_per_shard: Vec<usize> = shards.iter().map(|s| s.num_datasets()).collect();
        let datasets = datasets_per_shard.iter().sum();
        let total = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let (storage, shard_report) = if L::PARTITIONED {
            let unavailable =
                (0..shards.len()).filter(|&i| !self.available[i].load(Ordering::SeqCst)).collect();
            let report = ShardReport {
                shards: shards.len(),
                datasets_per_shard,
                scatter_rounds: total(&self.totals.scatter_rounds),
                gather_rounds: total(&self.totals.gather_rounds),
                cross_shard_bound_skips: total(&self.totals.cross_shard_skips),
                gather: self.metrics.shard_gather.summary(),
                unavailable,
                health: self.supervisors.health(),
            };
            (None, Some(report))
        } else {
            (shards[0].storage_report()?, None)
        };
        Ok(PlatformStats {
            datasets,
            active_sessions: self.active_sessions(),
            search_evaluations: total(&self.totals.evaluations),
            search_bound_skips: total(&self.totals.bound_skips),
            search_candidates_truncated: total(&self.totals.candidates_truncated),
            discovery,
            scheduler: self.sched.report(),
            storage,
            shards: shard_report,
        })
    }

    /// The shard-call interceptor: rolls the chaos plan's
    /// [`FaultSite::ShardCall`] site once per shard call and records the
    /// outcome against the shard's breaker — an `Error` is a failed call,
    /// a `Panic` is a crash (straight to quarantine), a clean roll closes
    /// the shard's failure run. `None` when no fault plan is armed.
    fn shard_call_interceptor(&self) -> Option<ShardCallInterceptor> {
        let plan = self.config.scheduler.faults.clone()?;
        let supervisors = Arc::clone(&self.supervisors);
        Some(Arc::new(move |shard: usize| match plan.decide(FaultSite::ShardCall) {
            None => {
                supervisors.record_success(shard);
                None
            }
            Some(FaultKind::Latency(d)) => Some(ShardCallFault::Latency(d)),
            Some(FaultKind::Error) => {
                supervisors.record_failure(shard);
                Some(ShardCallFault::Fail)
            }
            Some(FaultKind::Panic) => {
                supervisors.quarantine(shard);
                Some(ShardCallFault::Fail)
            }
        }))
    }

    /// Submit a sketched search request: returns a [`SearchSession`] whose
    /// events stream per-round progress while the search runs on a worker
    /// thread. `config: None` uses the platform's configured default.
    pub fn submit(
        &self,
        request: SketchedRequest,
        config: Option<SearchConfig>,
    ) -> Result<SearchSession> {
        self.submit_with_control(request, config, SearchControl::new())
    }

    /// [`Platform::submit`] with caller-supplied run control, for
    /// requesters that want to share a cancellation flag across sessions
    /// or impose their own deadline.
    ///
    /// Admission control (see [`crate::sched`]): the session joins a
    /// bounded queue drained round-robin across requester keys by a fixed
    /// worker pool. A full queue sheds the submission with
    /// [`CoreError::Overloaded`]; a deadline the scheduler cannot meet
    /// yields an immediate zero-round reply with `StopReason::Shed`.
    pub fn submit_with_control(
        &self,
        request: SketchedRequest,
        config: Option<SearchConfig>,
        mut control: SearchControl,
    ) -> Result<SearchSession> {
        if self.config.max_concurrent_sessions == 0 {
            return Err(CoreError::Capacity(0));
        }
        self.active_sessions.fetch_add(1, Ordering::SeqCst);
        let guard = SessionGuard(Arc::clone(&self.active_sessions));
        if let Some(wall) = self.config.max_session_wall {
            control.set_deadline(Instant::now() + wall);
        }
        let cfg = config.unwrap_or_else(|| self.config.default_search.clone());
        let (event_tx, event_rx) = mpsc::channel();
        let (result_tx, result_rx) = mpsc::sync_channel(1);
        let observer = Box::new(move |ev: SearchEvent| {
            let _ = event_tx.send(ev);
        });
        let exec = self.prepare_search(&request, cfg, control.clone(), observer)?;
        let id = self.session_counter.fetch_add(1, Ordering::SeqCst) + 1;
        self.sched.admit(SessionJob {
            requester: Arc::from(request.requester.as_deref().unwrap_or("")),
            control: control.clone(),
            guard,
            result_tx,
            enqueued: Instant::now(),
            exec: Box::new(move |mode| exec(mode).map(|(_, reply)| reply)),
        })?;
        Ok(SearchSession::new(id, control, event_rx, result_rx))
    }

    /// Serve a sketched request synchronously on the caller's thread,
    /// returning the full outcome + model: the same prepared search a
    /// session runs, executed inline. Pure post-processing of the uploaded
    /// sketches — no budget is consumed here, regardless of how many
    /// requests arrive (the FPM guarantee).
    pub fn search_sketched(
        &self,
        request: &SketchedRequest,
        config: &SearchConfig,
    ) -> Result<PlatformSearchResult> {
        let exec =
            self.prepare_search(request, config.clone(), SearchControl::new(), Box::new(|_| {}))?;
        exec(ExecMode::Run { queue_wait: Duration::ZERO }).map(|(result, _)| result)
    }

    /// Build everything a search needs up front — so submission errors
    /// surface synchronously and the session owns a consistent corpus
    /// snapshot — and return the session body.
    fn prepare_search(
        &self,
        request: &SketchedRequest,
        cfg: SearchConfig,
        control: SearchControl,
        mut observer: Box<dyn FnMut(SearchEvent) + Send>,
    ) -> Result<SearchExec> {
        let submit_start = Instant::now();
        // A search wants every shard: a partial scatter silently changes
        // selections, so by default any down shard fails the submit
        // outright (after one supervised recovery attempt for
        // breaker-quarantined shards). With `degraded_ok` the search
        // instead proceeds over the live subset and the reply is labeled.
        let mut missing: Vec<u32> = Vec::new();
        for i in 0..self.shards.len() {
            if let Err(down) = self.ensure_available(i) {
                if !cfg.degraded_ok {
                    return Err(down);
                }
                missing.push(i as u32);
            }
        }
        if missing.len() == self.shards.len() {
            // Nothing left to search over; degraded cannot mean "empty".
            return Err(CoreError::ShardUnavailable { shard: missing[0] as usize });
        }
        self.metrics.searches_started.inc();
        let state = build_sketched_state(request, &cfg)?;
        let prepare = submit_start.elapsed();
        self.metrics.search_prepare.record_duration(prepare);
        // Scatter enumeration: one frozen corpus snapshot per shard, each
        // enumerated under its index read lock, merged into one global
        // candidate order that does not depend on the partitioning.
        let enumerate_start = Instant::now();
        let mut stores = Vec::with_capacity(self.shards.len());
        let mut sets = Vec::with_capacity(self.shards.len());
        for i in 0..self.shards.len() {
            let shard = self.shard(i);
            let corpus = shard.store().frozen();
            // A missing shard contributes no candidates but keeps its slot
            // (partition alignment): its empty slice is never visited.
            let set = if missing.contains(&(i as u32)) {
                CandidateSet::default()
            } else {
                let index = shard.index().read();
                enumerate_candidates(&index, &corpus, &request.profile, &cfg.limits)
            };
            stores.push(corpus);
            sets.push(set);
        }
        let names = Arc::clone(self.shard(0).store().dataset_interner());
        let (assignments, truncated) = merge_shard_candidates(sets, &cfg.limits, &names);
        let enumerate = enumerate_start.elapsed();
        self.metrics.search_enumerate.record_duration(enumerate);

        let target = request.task.target.clone();
        let totals = Arc::clone(&self.totals);
        let metrics = Arc::clone(&self.metrics);
        let supervisors = Arc::clone(&self.supervisors);
        let shard_count = self.shards.len();
        let interceptor = self.shard_call_interceptor();
        Ok(Box::new(move |mode: ExecMode| {
            let (outcome, stats, queue_wait) = match mode {
                ExecMode::Run { queue_wait } => {
                    let parts = assignments
                        .into_iter()
                        .zip(&stores)
                        .enumerate()
                        .map(|(shard, ((candidates, positions), store))| ShardPartition {
                            shard,
                            candidates,
                            positions,
                            store,
                        })
                        .collect();
                    let mut search = ScatterSearch::new(cfg.clone());
                    if let Some(hook) = interceptor {
                        search = search.with_interceptor(hook);
                    }
                    let (outcome, stats) = search
                        .run_observed(state, parts, truncated, &names, &control, &mut observer)
                        .map_err(|e| match e {
                            // A shard failure without degraded_ok is the
                            // same typed rejection a down shard gets at
                            // submit time.
                            SearchError::ShardFailed { shard } => {
                                CoreError::ShardUnavailable { shard }
                            }
                            other => CoreError::from(other),
                        })?;
                    for &ns in &stats.gather_ns {
                        metrics.shard_gather.record(ns);
                    }
                    // Feed the breakers: deadline strikes count against a
                    // shard, clean participation closes its failure run.
                    for &s in &stats.timeouts {
                        supervisors.record_timeout(s);
                    }
                    for i in 0..shard_count {
                        if !missing.contains(&(i as u32))
                            && !stats.dead_shards.contains(&i)
                            && !stats.timeouts.contains(&i)
                        {
                            supervisors.record_success(i);
                        }
                    }
                    (outcome, stats, queue_wait)
                }
                ExecMode::Immediate(reason) => {
                    // The session never runs a round (cancelled or shed
                    // while queued): synthesize the zero-step reply the
                    // search loop would have produced had it stopped at
                    // its first boundary, events included.
                    let base_score = state.current_score().map_err(CoreError::from)?;
                    observer(SearchEvent::Finished {
                        stop_reason: reason,
                        final_score: base_score,
                        rounds: 0,
                        evaluations: 0,
                        bound_skips: 0,
                        elapsed_ms: 0,
                    });
                    let outcome = SearchOutcome {
                        base_score,
                        final_score: base_score,
                        steps: Vec::new(),
                        evaluations: 0,
                        bound_skips: 0,
                        candidates_truncated: truncated,
                        round_eval_ns: Vec::new(),
                        cache_build_ns: 0,
                        refresh_ns: 0,
                        elapsed: Duration::ZERO,
                        stop_reason: reason,
                        state,
                    };
                    (outcome, ScatterStats::default(), Duration::ZERO)
                }
            };
            totals.record(&outcome, &stats);
            let fit_start = Instant::now();
            let model = fit_final_model(&outcome, &target, cfg.lambda)?;
            let fit = fit_start.elapsed();
            let mut reply = SearchReply::from_outcome(&outcome, &model);
            // Even a shed/cancelled zero-round reply is honest about the
            // shards it never could have consulted.
            reply.shards_missing = missing;
            reply.shards_missing.extend(stats.dead_shards.iter().map(|&s| s as u32));
            reply.shards_missing.sort_unstable();
            reply.shards_missing.dedup();
            reply.degraded = !reply.shards_missing.is_empty();
            if reply.degraded {
                metrics.searches_degraded.inc();
            }
            reply.spans.prepare_ns = duration_ns(prepare);
            reply.spans.enumerate_ns = duration_ns(enumerate);
            reply.spans.queue_wait_ns = duration_ns(queue_wait);
            reply.spans.fit_ns = duration_ns(fit);
            reply.spans.total_ns = duration_ns(submit_start.elapsed());
            record_search_metrics(&metrics, &outcome, &reply);
            Ok((PlatformSearchResult { outcome, model }, reply))
        }))
    }
}

/// Number of `shard-<i>` subdirectories under `dir` (0 when the directory
/// does not exist yet).
fn count_shard_dirs(dir: &std::path::Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.path().is_dir()
                && e.file_name()
                    .to_str()
                    .and_then(|n| n.strip_prefix("shard-"))
                    .is_some_and(|i| i.parse::<usize>().is_ok())
        })
        .count()
}

/// Per-shard slice of the merged candidate list: the shard's candidates in
/// global-order restriction, paired with their global positions.
type ShardCandidates = Vec<(Vec<Candidate>, Vec<usize>)>;

/// Merge per-shard candidate sets into the one global enumeration order:
/// joins ranked (descending Jaccard, ascending name), then unions ranked
/// (descending cosine, ascending name) — the same total orders the
/// discovery tier sorts with, over globally unique names — with the
/// per-class limits re-applied across the merged set. Returns, per shard,
/// its candidates (in global-order restriction) with their global
/// positions, plus the total truncation count (per-shard enumeration
/// truncation + merge-time drops).
///
/// Each shard's list arrives already in that order, so this is a merge of
/// S ranked runs: every name resolves once, and the stable run-adaptive
/// sort does one pass over a single run (S = 1) and O(n log S) work over S.
fn merge_shard_candidates(
    sets: Vec<CandidateSet>,
    limits: &CandidateLimits,
    names: &DatasetInterner,
) -> (ShardCandidates, usize) {
    let mut out: ShardCandidates = sets.iter().map(|_| Default::default()).collect();
    let mut truncated: usize = sets.iter().map(|s| s.truncated()).sum();
    let mut joins = Vec::new();
    let mut unions = Vec::new();
    for (shard, set) in sets.into_iter().enumerate() {
        for cand in set.candidates {
            let name = names.name(cand.dataset()).unwrap_or_else(|| Arc::from(""));
            match cand {
                Candidate::Join { similarity, .. } => joins.push((similarity, name, shard, cand)),
                Candidate::Union { similarity, .. } => unions.push((similarity, name, shard, cand)),
            }
        }
    }
    let mut position = 0;
    for (mut ranked, limit) in [(joins, limits.max_join), (unions, limits.max_union)] {
        ranked.sort_by(|a, b| {
            b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.1.cmp(&b.1))
        });
        truncated += ranked.len().saturating_sub(limit);
        for (_, _, shard, cand) in ranked.into_iter().take(limit) {
            out[shard].0.push(cand);
            out[shard].1.push(position);
            position += 1;
        }
    }
    (out, truncated)
}

/// Nanoseconds of a duration, saturating at `u64::MAX` (584 years).
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Record a finished search: the run histogram and per-round histograms
/// from the outcome, the shared counters, and the fit/total stages the
/// reply's `SpanBreakdown` carries.
fn record_search_metrics(metrics: &Metrics, outcome: &SearchOutcome, reply: &SearchReply) {
    metrics.search_run.record_duration(outcome.elapsed);
    for &ns in &outcome.round_eval_ns {
        metrics.search_eval_round.record(ns);
    }
    metrics.search_bound_refresh.record(outcome.refresh_ns);
    metrics.search_evaluations.add(outcome.evaluations as u64);
    metrics.search_bound_skips.add(outcome.bound_skips as u64);
    metrics.search_candidates_truncated.add(outcome.candidates_truncated as u64);
    metrics.searches_completed.inc();
    metrics.search_fit.record(reply.spans.fit_ns);
    metrics.search_total.record(reply.spans.total_ns);
}

/// Train the final proxy model on the augmented statistics of a finished
/// search.
fn fit_final_model(outcome: &SearchOutcome, target: &str, lambda: f64) -> Result<LinearModel> {
    let mut model = LinearModel::new(RidgeConfig { lambda, intercept: true });
    let features: Vec<&str> = outcome.state.features().iter().map(|s| s.as_str()).collect();
    let triple = outcome.state.train_triple();
    let sys =
        triple.lr_system(&features, target, true).map_err(|e| CoreError::Search(e.to_string()))?;
    model.fit_from_system(&sys).map_err(|e| CoreError::Search(e.to_string()))?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalDataStore;
    use mileena_datagen::{generate_corpus, CorpusConfig};
    use mileena_privacy::PrivacyBudget;
    use mileena_search::TaskSpec;

    fn corpus() -> mileena_datagen::NycCorpus {
        generate_corpus(&CorpusConfig {
            num_datasets: 15,
            num_signal: 2,
            num_union: 1,
            num_novelty_traps: 2,
            train_rows: 300,
            test_rows: 300,
            provider_rows: 150,
            key_domain: 60,
            signal_rows_per_key: 1,
            noise: 0.1,
            nonlinear_strength: 0.0,
            seed: 55,
        })
    }

    fn request(c: &mileena_datagen::NycCorpus) -> SearchRequest {
        SearchRequest {
            train: c.train.clone(),
            test: c.test.clone(),
            task: TaskSpec::new("y", &["base_x"]),
            budget: None,
            key_columns: Some(vec!["zone".into()]),
        }
    }

    fn sketched(c: &mileena_datagen::NycCorpus) -> SketchedRequest {
        let keys = vec!["zone".to_string()];
        SketchedRequest::sketch(&c.train, &c.test, &TaskSpec::new("y", &["base_x"]), Some(&keys))
            .unwrap()
    }

    #[test]
    fn end_to_end_non_private() {
        let c = corpus();
        let platform = CentralPlatform::new(PlatformConfig::default());
        for p in &c.providers {
            let upload = LocalDataStore::new(p.clone()).prepare_upload(None, 3).unwrap();
            platform.register(upload).unwrap();
        }
        assert_eq!(platform.num_datasets(), 15);
        let result = platform.search(&request(&c), &SearchConfig::default()).unwrap();
        assert!(
            result.outcome.final_score > result.outcome.base_score + 0.3,
            "{} → {}",
            result.outcome.base_score,
            result.outcome.final_score
        );
        // The returned model is fitted over base + augmented features.
        assert!(result.model.coefficients().is_some());
    }

    #[test]
    fn double_registration_of_private_upload_rejected() {
        let c = corpus();
        let platform = CentralPlatform::new(PlatformConfig::default());
        let b = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let upload =
            LocalDataStore::new(c.providers[0].clone()).prepare_upload(Some(b), 1).unwrap();
        platform.register(upload.clone()).unwrap();
        assert!(platform.register(upload).is_err());
    }

    #[test]
    fn rejected_upload_spends_no_budget() {
        // Regression for the register-ordering leak: a non-private dataset
        // occupies the name; a private upload under the same name must be
        // rejected *without* charging the provider's budget.
        let c = corpus();
        let platform = CentralPlatform::new(PlatformConfig::default());
        let non_private =
            LocalDataStore::new(c.providers[0].clone()).prepare_upload(None, 1).unwrap();
        let name = non_private.sketch.name.clone();
        platform.register(non_private).unwrap();

        let b = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let private =
            LocalDataStore::new(c.providers[0].clone()).prepare_upload(Some(b), 2).unwrap();
        assert!(platform.register(private).is_err());
        assert_eq!(
            platform.budget_spent(&name),
            None,
            "failed registration must not leave budget spent"
        );
        assert_eq!(platform.num_datasets(), 1);
    }

    #[test]
    fn searches_are_free_and_repeatable() {
        let c = corpus();
        let platform = CentralPlatform::new(PlatformConfig::default());
        let b = PrivacyBudget::new(2.0, 1e-6).unwrap();
        for p in &c.providers {
            let upload = LocalDataStore::new(p.clone()).prepare_upload(Some(b), 11).unwrap();
            platform.register(upload).unwrap();
        }
        let r1 = platform.search(&request(&c), &SearchConfig::default()).unwrap();
        // Many more searches: none can fail on budget; results identical
        // (post-processing of the same release is deterministic).
        for _ in 0..5 {
            let rn = platform.search(&request(&c), &SearchConfig::default()).unwrap();
            assert_eq!(rn.outcome.final_score, r1.outcome.final_score);
        }
    }

    #[test]
    fn legacy_wrapper_matches_sketched_path() {
        let c = corpus();
        let platform = CentralPlatform::new(PlatformConfig::default());
        for p in &c.providers {
            platform
                .register(LocalDataStore::new(p.clone()).prepare_upload(None, 3).unwrap())
                .unwrap();
        }
        let legacy = platform.search(&request(&c), &SearchConfig::default()).unwrap();
        let new = platform.search_sketched(&sketched(&c), &SearchConfig::default()).unwrap();
        assert_eq!(legacy.outcome.final_score, new.outcome.final_score);
        assert_eq!(legacy.outcome.selected_joins(), new.outcome.selected_joins());
        assert_eq!(legacy.outcome.selected_unions(), new.outcome.selected_unions());
    }

    #[test]
    fn default_search_config_is_honored() {
        let c = corpus();
        let config = PlatformConfig {
            default_search: SearchConfig { max_augmentations: 1, ..Default::default() },
            ..Default::default()
        };
        let platform = CentralPlatform::new(config);
        for p in &c.providers {
            platform
                .register(LocalDataStore::new(p.clone()).prepare_upload(None, 3).unwrap())
                .unwrap();
        }
        let reply = platform.submit(sketched(&c), None).unwrap().wait().unwrap();
        assert!(reply.steps.len() <= 1, "platform default (1 round) must apply");
        let full =
            platform.submit(sketched(&c), Some(SearchConfig::default())).unwrap().wait().unwrap();
        assert!(full.steps.len() > reply.steps.len(), "explicit config overrides the default");
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mileena-platform-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(dir: &std::path::Path) -> PlatformConfig {
        PlatformConfig { storage: Some(StoragePolicy::at(dir)), ..Default::default() }
    }

    #[test]
    fn durable_reopen_is_bit_identical_with_and_without_checkpoint() {
        let c = corpus();
        let dir = tmp_dir("reopen");
        let reference = CentralPlatform::new(PlatformConfig::default());
        let durable = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        for p in &c.providers {
            let upload = LocalDataStore::new(p.clone()).prepare_upload(None, 3).unwrap();
            reference.register(upload.clone()).unwrap();
            durable.register(upload).unwrap();
        }
        let want = reference.search(&request(&c), &SearchConfig::default()).unwrap();

        // Reopen from pure WAL replay (no checkpoint ever taken).
        drop(durable);
        let replayed = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        assert_eq!(replayed.num_datasets(), 15);
        let report = replayed.recovery_report().unwrap();
        assert_eq!(report.snapshot_seq, None);
        assert_eq!(report.replayed_records, 15);
        let got = replayed.search(&request(&c), &SearchConfig::default()).unwrap();
        assert_eq!(got.outcome.final_score, want.outcome.final_score);
        assert_eq!(got.outcome.selected_joins(), want.outcome.selected_joins());
        assert_eq!(got.outcome.selected_unions(), want.outcome.selected_unions());

        // Checkpoint, reopen from the snapshot: still bit-identical.
        let receipt = replayed.checkpoint().unwrap();
        assert_eq!(receipt.datasets, 15);
        assert_eq!(receipt.seq, 15);
        drop(replayed);
        let snapshotted = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        let report = snapshotted.recovery_report().unwrap();
        assert_eq!(report.snapshot_seq, Some(15));
        assert_eq!(report.replayed_records, 0);
        let got = snapshotted.search(&request(&c), &SearchConfig::default()).unwrap();
        assert_eq!(got.outcome.final_score, want.outcome.final_score);
        assert_eq!(got.outcome.selected_joins(), want.outcome.selected_joins());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replace_and_remove_are_journaled_and_recovered() {
        let c = corpus();
        let dir = tmp_dir("mutations");
        let platform = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        for p in &c.providers {
            platform
                .register(LocalDataStore::new(p.clone()).prepare_upload(None, 3).unwrap())
                .unwrap();
        }
        // Replace provider 0 with a re-transformed copy, remove provider 1.
        let replacement =
            LocalDataStore::new(c.providers[0].clone()).prepare_upload(None, 9).unwrap();
        let removed_name = c.providers[1].name().to_string();
        platform.replace(replacement).unwrap();
        platform.remove(&removed_name).unwrap();
        assert!(platform.remove(&removed_name).is_err(), "double remove is an error");
        assert_eq!(platform.num_datasets(), 14);
        let want = platform.search(&request(&c), &SearchConfig::default()).unwrap();

        drop(platform);
        let reopened = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        assert_eq!(reopened.num_datasets(), 14);
        assert!(reopened.store().get(&removed_name).is_err());
        let got = reopened.search(&request(&c), &SearchConfig::default()).unwrap();
        assert_eq!(got.outcome.final_score, want.outcome.final_score);
        assert_eq!(got.outcome.selected_joins(), want.outcome.selected_joins());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn removal_never_launders_budget() {
        // Remove a private dataset, then try to re-register it with a
        // fresh budget: the durable ledger remembers the spend, across a
        // restart too.
        let c = corpus();
        let dir = tmp_dir("launder");
        let b = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let platform = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        let upload =
            LocalDataStore::new(c.providers[0].clone()).prepare_upload(Some(b), 1).unwrap();
        let name = upload.sketch.name.clone();
        platform.register(upload.clone()).unwrap();
        platform.remove(&name).unwrap();
        assert!(platform.register(upload.clone()).is_err(), "spent budget is spent forever");

        drop(platform);
        let reopened = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        assert_eq!(reopened.num_datasets(), 0);
        assert_eq!(reopened.budget_spent(&name), Some(b), "ledger survives removal and restart");
        assert!(reopened.register(upload).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn grants_and_charges_survive_restart() {
        let dir = tmp_dir("charges");
        let b = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let platform = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        platform.grant_budget("apm_dataset", b).unwrap();
        platform.charge_budget("apm_dataset", b.fraction(0.4).unwrap()).unwrap();
        assert!(platform.charge_budget("apm_dataset", b).is_err(), "over-charge rejected");
        drop(platform);

        let reopened = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        assert_eq!(reopened.budget_spent("apm_dataset").unwrap().epsilon, 0.4);
        assert!((reopened.budget_remaining("apm_dataset").unwrap().epsilon - 0.6).abs() < 1e-12);
        // The rejected over-charge was never journaled: remaining still 0.6.
        reopened.charge_budget("apm_dataset", b.fraction(0.6).unwrap()).unwrap();
        assert!(reopened.budget_remaining("apm_dataset").unwrap().epsilon.abs() < 1e-12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_policy_triggers() {
        let c = corpus();
        let dir = tmp_dir("autockpt");
        let mut config = durable_config(&dir);
        config.storage.as_mut().unwrap().checkpoint_every = 4;
        let platform = CentralPlatform::open_with(config.clone()).unwrap();
        for p in c.providers.iter().take(6) {
            platform
                .register(LocalDataStore::new(p.clone()).prepare_upload(None, 3).unwrap())
                .unwrap();
        }
        let stats = platform.stats().unwrap();
        let storage = stats.storage.unwrap();
        assert_eq!(storage.snapshot_seq, Some(4), "auto-checkpoint at the 4th record");
        assert_eq!(storage.records_since_checkpoint, 2);
        assert!(storage.last_checkpoint_error.is_none());
        drop(platform);
        let reopened = CentralPlatform::open_with(config).unwrap();
        assert_eq!(reopened.recovery_report().unwrap().replayed_records, 2);
        assert_eq!(reopened.num_datasets(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_surface_discovery_counters_and_truncation() {
        let c = corpus();
        let platform = CentralPlatform::new(PlatformConfig::default());
        for p in &c.providers {
            platform
                .register(LocalDataStore::new(p.clone()).prepare_upload(None, 3).unwrap())
                .unwrap();
        }
        let stats = platform.stats().unwrap();
        assert_eq!(stats.discovery.datasets, 15);
        assert!(stats.discovery.key_columns >= 15, "every provider carries a key column");
        assert!(stats.discovery.schema_buckets >= 1);
        assert!(stats.discovery.posting_terms > 0);
        assert_eq!(stats.discovery.lsh_buckets, 0, "small corpus never builds the LSH table");
        assert_eq!(stats.search_candidates_truncated, 0);

        // A capped search accumulates its truncation into the fleet totals.
        let cfg = SearchConfig {
            limits: mileena_search::CandidateLimits { max_join: 1, max_union: 0 },
            ..Default::default()
        };
        let result = platform.search(&request(&c), &cfg).unwrap();
        assert!(result.outcome.candidates_truncated > 0);
        let stats = platform.stats().unwrap();
        assert_eq!(stats.search_candidates_truncated, result.outcome.candidates_truncated as u64);
    }

    #[test]
    fn volatile_platform_has_no_storage() {
        let platform = CentralPlatform::new(PlatformConfig::default());
        assert!(matches!(platform.checkpoint(), Err(CoreError::Storage(_))));
        let stats = platform.stats().unwrap();
        assert!(stats.storage.is_none());
        assert!(platform.recovery_report().is_none());
    }

    #[test]
    fn capacity_limit_enforced_and_released() {
        let c = corpus();
        let config = PlatformConfig { max_concurrent_sessions: 0, ..Default::default() };
        let platform = CentralPlatform::new(config);
        for p in c.providers.iter().take(3) {
            platform
                .register(LocalDataStore::new(p.clone()).prepare_upload(None, 3).unwrap())
                .unwrap();
        }
        let err = platform.submit(sketched(&c), None).unwrap_err();
        assert_eq!(err, CoreError::Capacity(0), "{err}");

        // With capacity 1, sequential sessions reuse the released slot.
        let config = PlatformConfig { max_concurrent_sessions: 1, ..Default::default() };
        let platform = CentralPlatform::new(config);
        for p in &c.providers {
            platform
                .register(LocalDataStore::new(p.clone()).prepare_upload(None, 3).unwrap())
                .unwrap();
        }
        for _ in 0..2 {
            platform.submit(sketched(&c), None).unwrap().wait().unwrap();
        }
        assert_eq!(platform.active_sessions(), 0);
    }
}
