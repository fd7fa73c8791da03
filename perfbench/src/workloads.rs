//! The four workloads: set-up, timed loops, and the checks that decide
//! whether an answer counts.

use crate::forwarder::Forwarder;
use crate::inputs::{self, Corpus, Scale, POOL};
use crate::stats::ms;
use crate::trace::{Recorder, SpanId};
use mileena::core::{
    CentralPlatform, InProcess, LocalDataStore, PlatformConfig, PlatformService, ProviderUpload,
    SearchReply, ShardedPlatform, StoragePolicy, TcpServer, TcpServerConfig, TcpWire,
};
use mileena::search::modes::materialized_utility;
use mileena::search::Augmentation;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards of the `sharded_mixed` deployment.
pub const SHARDS: usize = 4;
/// Pace of the `sharded_mixed` provider.
const REGISTERS_PER_S: f64 = 100.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InprocSearch,
    TcpSearch,
    ShardedMixed,
    Restart,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::InprocSearch, Workload::TcpSearch, Workload::ShardedMixed, Workload::Restart];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InprocSearch => "inproc_search",
            Workload::TcpSearch => "tcp_search",
            Workload::ShardedMixed => "sharded_mixed",
            Workload::Restart => "restart",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    /// Scratch directory of this run (storage directories live under it).
    pub work_dir: PathBuf,
}

/// The deployment a workload drives.
pub enum Shape {
    InProc {
        service: InProcess,
    },
    Tcp {
        platform: Arc<CentralPlatform>,
        server: TcpServer,
        client: TcpWire,
    },
    Sharded {
        platform: Arc<ShardedPlatform>,
        config: PlatformConfig,
    },
    /// Nothing is open between cycles: the directory is the deployment.
    Restart {
        config: PlatformConfig,
    },
}

/// A workload ready to run: inputs, the deployment holding them, and the
/// reference answers timed replies are checked against.
pub struct Env {
    pub corpus: Corpus,
    /// Every upload the deployment holds, in registration order.
    pub uploads: Vec<ProviderUpload>,
    /// A volatile `CentralPlatform` holding the same corpus, never touched
    /// by the workload: the source of the reference replies.
    pub reference: Arc<CentralPlatform>,
    pub expected: Vec<SearchReply>,
    /// Raw relation → ack, per dataset, while the corpus was loaded.
    pub load_register_ms: Vec<f64>,
    pub shape: Shape,
    pub dir: PathBuf,
    /// Churn uploads acknowledged so far (`sharded_mixed`).
    pub churn: Vec<ProviderUpload>,
}

/// A durable `CentralPlatform` at `dir` that checkpoints only when told to.
pub fn central_durable(dir: &Path) -> PlatformConfig {
    let mut policy = StoragePolicy::at(dir);
    // Re-opening must never rewrite the directory it measures.
    policy.checkpoint_every = 0;
    PlatformConfig { storage: Some(policy), ..Default::default() }
}

fn sharded_durable(dir: &Path) -> PlatformConfig {
    PlatformConfig { shards: SHARDS, storage: Some(StoragePolicy::at(dir)), ..Default::default() }
}

/// Selections of a reply.
pub fn selections(reply: &SearchReply) -> Vec<Augmentation> {
    reply.steps.iter().map(|s| s.augmentation.clone()).collect()
}

/// A reply is right when it took the reference's steps (same augmentation,
/// same score bits) and stopped for the same reason, from a full corpus.
pub fn matches(reply: &SearchReply, expected: &SearchReply) -> bool {
    !reply.degraded
        && reply.stop_reason == expected.stop_reason
        && reply.steps.len() == expected.steps.len()
        && reply.steps.iter().zip(&expected.steps).all(|(a, b)| {
            a.augmentation == b.augmentation && a.score_after.to_bits() == b.score_after.to_bits()
        })
}

/// Build the workload's deployment, load its corpus through it (timing each
/// raw relation → ack), and compute the reference replies.
pub fn setup(cfg: &RunConfig, dir: &Path) -> Result<Env, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let corpus = match cfg.workload {
        Workload::ShardedMixed => inputs::n2000(cfg.scale),
        _ => inputs::r517(cfg.scale),
    };
    std::fs::create_dir_all(dir).map_err(|e| err(&e))?;
    let reference = Arc::new(CentralPlatform::new(PlatformConfig::default()));

    let shape = match cfg.workload {
        Workload::InprocSearch => Shape::InProc {
            service: InProcess::new(Arc::new(CentralPlatform::new(PlatformConfig::default()))),
        },
        Workload::TcpSearch => {
            let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
            let server = TcpServer::bind(
                "127.0.0.1:0",
                Arc::clone(&platform) as Arc<dyn PlatformService + Send + Sync>,
                TcpServerConfig::default(),
            )
            .map_err(|e| err(&e))?;
            let client = TcpWire::connect(server.local_addr()).map_err(|e| err(&e))?;
            Shape::Tcp { platform, server, client }
        }
        Workload::ShardedMixed => {
            let config = sharded_durable(dir);
            let platform =
                Arc::new(ShardedPlatform::open_with(config.clone()).map_err(|e| err(&e))?);
            Shape::Sharded { platform, config }
        }
        Workload::Restart => Shape::Restart { config: central_durable(dir) },
    };
    // The `restart` directory is written by a platform that is gone again
    // before the first cycle opens it.
    let restart_writer = match &shape {
        Shape::Restart { config } => {
            Some(CentralPlatform::open_with(config.clone()).map_err(|e| err(&e))?)
        }
        _ => None,
    };
    let loader: &dyn PlatformService = match &shape {
        Shape::InProc { service } => service,
        Shape::Tcp { client, .. } => client,
        Shape::Sharded { platform, .. } => &**platform,
        Shape::Restart { .. } => restart_writer.as_ref().expect("opened above"),
    };

    let snapshot_at = corpus.providers.len().saturating_sub(cfg.scale.wal_tail);
    let mut uploads = Vec::with_capacity(corpus.providers.len());
    let mut load_register_ms = Vec::with_capacity(corpus.providers.len());
    for (i, provider) in corpus.providers.iter().enumerate() {
        if restart_writer.is_some() && i == snapshot_at {
            loader.checkpoint().map_err(|e| err(&e))?;
        }
        let store = LocalDataStore::new(provider.clone());
        let begin = Instant::now();
        let upload = store.prepare_upload(None, cfg.seed).map_err(|e| err(&e))?;
        let prepared = Instant::now();
        uploads.push(upload.clone());
        let send = Instant::now();
        loader.register(upload).map_err(|e| err(&e))?;
        load_register_ms.push(ms(prepared - begin) + ms(send.elapsed()));
    }
    drop(restart_writer);

    for upload in &uploads {
        reference.register(upload.clone()).map_err(|e| err(&e))?;
    }
    let expected = corpus
        .pool
        .iter()
        .map(|task| {
            PlatformService::search(&*reference, task.sketched.clone(), corpus.search.clone())
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| err(&e))?;

    Ok(Env {
        corpus,
        uploads,
        reference,
        expected,
        load_register_ms,
        shape,
        dir: dir.to_path_buf(),
        churn: Vec::new(),
    })
}

impl Env {
    /// Drop the deployment and delete its directory.
    pub fn teardown(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Mean over the pool of materialized utility of the reference
    /// selections minus the base model's R² — what the search is *for*.
    /// Deterministic for a seed; every timed reply is checked equal to the
    /// reference it is computed from.
    pub fn utility_gain(&self) -> Result<f64, String> {
        let lambda = self.corpus.search_config().lambda;
        let mut total = 0.0;
        for (task, reply) in self.corpus.pool.iter().zip(&self.expected) {
            let with =
                materialized_utility(&task.raw, &selections(reply), &self.corpus.providers, lambda)
                    .map_err(|e| e.to_string())?;
            let base = materialized_utility(&task.raw, &[], &self.corpus.providers, lambda)
                .map_err(|e| e.to_string())?;
            total += with - base;
        }
        Ok(total / self.corpus.pool.len() as f64)
    }
}

/// Samples and counts of one timed phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub search_ms: Vec<f64>,
    pub register_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Transport errors the client saw.
    pub net_errors: u64,
    /// Sketches hydrated on first touch, per `restart` cycle (traced pass).
    pub hydrations_lazy: Vec<f64>,
    /// Why operations failed, for the report.
    pub notes: Vec<String>,
}

impl Phase {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    fn absorb(&mut self, other: Phase) {
        self.absorb_counts(&other);
        self.search_ms.extend(other.search_ms);
        self.register_ms.extend(other.register_ms);
        self.lateness_ms.extend(other.lateness_ms);
    }

    /// Take over another phase's verdicts, not its samples.
    pub fn absorb_counts(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.net_errors += other.net_errors;
        self.notes.extend(other.notes.iter().cloned());
    }
}

/// Lay the server-side stages a reply reports into the client span that
/// waited for it. The reply is the last thing the server does, so the
/// server's total ends where the client span does.
fn lay_server_spans(
    rec: &Recorder,
    parent: Option<SpanId>,
    op: u64,
    start_ns: u64,
    end_ns: u64,
    reply: &SearchReply,
) {
    let s = &reply.spans;
    let server_start = end_ns.saturating_sub(s.total_ns).max(start_ns);
    let server = rec.add("core.platform.total", parent, op, server_start, end_ns);
    let mut cursor = server_start;
    for (name, ns) in [
        ("core.platform.prepare", s.prepare_ns),
        ("search.enumerate", s.enumerate_ns),
        ("core.sched.queue_wait", s.queue_wait_ns),
        ("search.run", s.run_ns),
        ("search.fit", s.fit_ns),
    ] {
        let id = rec.add(name, server, op, cursor, cursor + ns);
        if name == "search.run" {
            rec.add("search.eval", id, op, cursor, cursor + s.eval_ns);
        }
        cursor += ns;
    }
}

/// The pool task of a loop's `i`-th operation: the seed picks where the
/// loop enters the pool, the cycle order is fixed.
fn pool_slot(seed: u64, i: usize) -> usize {
    ((seed % POOL as u64) as usize + i) % POOL
}

/// One closed-loop requester cycling the pool until `deadline`.
fn search_loop(
    service: &(dyn PlatformService + Sync),
    env: &Env,
    seed: u64,
    deadline: Instant,
    rec: &Recorder,
) -> Phase {
    let mut phase = Phase::default();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let slot = pool_slot(seed, i);
        let request = env.corpus.pool[slot].sketched.clone();
        let config = env.corpus.search.clone();
        let begin = Instant::now();
        let result = service.search(request, config);
        let end = Instant::now();
        phase.attempted += 1;
        match result {
            Ok(reply) if matches(&reply, &env.expected[slot]) => {
                phase.search_ms.push(ms(end - begin));
                if rec.is_on() {
                    let op = i as u64;
                    let root = rec.add_between("client.search", None, op, begin, end);
                    lay_server_spans(rec, root, op, rec.ns(begin), rec.ns(end), &reply);
                }
            }
            Ok(reply) => phase.fail(format!(
                "search {i}: reply differs from the reference (stop {:?}, {} steps, degraded {})",
                reply.stop_reason,
                reply.steps.len(),
                reply.degraded
            )),
            Err(e) => {
                phase.net_errors += 1;
                phase.fail(format!("search {i}: {e}"));
            }
        }
        i += 1;
    }
    phase
}

/// When the `k`-th operation of a schedule paced at `per_second` is due.
fn due_at(started: Instant, k: u32, per_second: f64) -> Instant {
    started + Duration::from_secs_f64(1.0 / per_second) * k
}

/// Lateness and latency, in milliseconds, of a paced operation that was due
/// at `due`, began at `begin` and then worked for `work`: the latency runs
/// from the due time, so a stall is charged to every operation it delays.
fn paced_ms(due: Instant, begin: Instant, work: Duration) -> (f64, f64) {
    let late = begin.saturating_duration_since(due);
    (ms(late), ms(late + work))
}

/// One provider registering FPM-privatized churn uploads on a fixed
/// schedule. Each register is timed from when it was due, so a stall is
/// charged to every upload it delays; how late the provider itself started
/// each one is kept apart as lateness.
fn provider_loop(
    platform: &ShardedPlatform,
    seed: u64,
    first_index: usize,
    deadline: Instant,
    rec: &Recorder,
) -> (Phase, Vec<ProviderUpload>) {
    let mut phase = Phase::default();
    let mut acked = Vec::new();
    let started = Instant::now();
    for k in 0u32.. {
        let due = due_at(started, k, REGISTERS_PER_S);
        if due >= deadline {
            break;
        }
        let index = first_index + k as usize;
        // The load generator's own work happens before the upload is due.
        let store = LocalDataStore::new(inputs::churn_relation(seed, index));
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let begin = Instant::now();
        let upload =
            store.prepare_upload(Some(inputs::upload_budget()), inputs::upload_seed(seed, index));
        let prepared = Instant::now();
        phase.attempted += 1;
        let upload = match upload {
            Ok(upload) => upload,
            Err(e) => {
                phase.fail(format!("prepare {index}: {e}"));
                continue;
            }
        };
        // Kept for the end-state checks; the copy is not the provider's work.
        let kept = upload.clone();
        let send = Instant::now();
        let result = platform.register(upload);
        let ack = Instant::now();
        match result {
            Ok(()) => {
                let (late, latency) = paced_ms(due, begin, (prepared - begin) + (ack - send));
                phase.lateness_ms.push(late);
                phase.register_ms.push(latency);
                acked.push(kept);
                if rec.is_on() {
                    let op = 1_000_000 + u64::from(k);
                    // The copy's interval is cut out so that the root's self
                    // time is the provider's lateness alone.
                    let cut = rec.ns(send) - rec.ns(prepared);
                    let root = rec.add("client.register", None, op, rec.ns(due), rec.ns(ack) - cut);
                    rec.add("core.local.prepare_upload", root, op, rec.ns(begin), rec.ns(prepared));
                    rec.add("core.shard.register", root, op, rec.ns(prepared), rec.ns(ack) - cut);
                }
            }
            Err(e) => phase.fail(format!("register {index}: {e}")),
        }
    }
    (phase, acked)
}

/// Wait (at most 2 s) until every lazily loaded sketch of `platform` is
/// hydrated. The background hydrator is detached and outlives the platform
/// it serves; left running, it steals a core from whatever is timed next.
pub fn drain_hydration(platform: &CentralPlatform) {
    let give_up = Instant::now() + Duration::from_secs(2);
    while platform.store().unhydrated() > 0 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One operator repeating open → first pool search, verified → drop.
fn restart_loop(
    env: &Env,
    config: &PlatformConfig,
    seed: u64,
    deadline: Instant,
    rec: &Recorder,
) -> Phase {
    let mut phase = Phase::default();
    let datasets = env.uploads.len();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let slot = pool_slot(seed, i);
        let request = env.corpus.pool[slot].sketched.clone();
        let begin = Instant::now();
        let opened = CentralPlatform::open_with(config.clone());
        let open_end = Instant::now();
        phase.attempted += 1;
        let platform = match opened {
            Ok(platform) => platform,
            Err(e) => {
                phase.fail(format!("open {i}: {e}"));
                i += 1;
                continue;
            }
        };
        let result = PlatformService::search(&platform, request, env.corpus.search.clone());
        let end = Instant::now();
        match result {
            Ok(reply)
                if matches(&reply, &env.expected[slot]) && platform.num_datasets() == datasets =>
            {
                // Runs to the first correct reply, so work moved from open
                // into first-touch hydration is not counted as a gain.
                phase.search_ms.push(ms(end - begin));
                if rec.is_on() {
                    let op = i as u64;
                    let root =
                        rec.add_between("client.restart_to_first_search", None, op, begin, end);
                    rec.add_between("core.durable.open", root, op, begin, open_end);
                    let first =
                        rec.add_between("core.durable.first_search", root, op, open_end, end);
                    lay_server_spans(rec, first, op, rec.ns(open_end), rec.ns(end), &reply);
                    let hydrated = platform.metrics().counter("hydrations_lazy").unwrap_or(0);
                    phase.hydrations_lazy.push(hydrated as f64);
                }
            }
            Ok(reply) => phase.fail(format!(
                "restart {i}: {} datasets (want {datasets}), stop {:?}, {} steps",
                platform.num_datasets(),
                reply.stop_reason,
                reply.steps.len()
            )),
            Err(e) => phase.fail(format!("restart {i}: first search: {e}")),
        }
        drain_hydration(&platform);
        drop(platform);
        i += 1;
    }
    phase
}

/// Run the workload's traffic for `seconds`. In the traced pass of
/// `tcp_search` the client dials `via`, a counting forwarder, instead of
/// the server.
pub fn run_phase(
    cfg: &RunConfig,
    env: &mut Env,
    seconds: f64,
    rec: &Recorder,
    via: Option<&Forwarder>,
) -> Phase {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut phase = match &env.shape {
        Shape::InProc { service } => search_loop(service, env, cfg.seed, deadline, rec),
        Shape::Tcp { client, .. } => match via {
            None => search_loop(client, env, cfg.seed, deadline, rec),
            Some(forwarder) => match TcpWire::connect(forwarder.addr()) {
                Ok(client) => search_loop(&client, env, cfg.seed, deadline, rec),
                Err(e) => {
                    let mut phase = Phase { attempted: 1, net_errors: 1, ..Phase::default() };
                    phase.fail(format!("dial forwarder: {e}"));
                    phase
                }
            },
        },
        Shape::Sharded { platform, .. } => {
            let first_index = env.churn.len();
            let (mut searches, (registers, acked)) = std::thread::scope(|scope| {
                let provider =
                    scope.spawn(|| provider_loop(platform, cfg.seed, first_index, deadline, rec));
                let searches = search_loop(&**platform, env, cfg.seed, deadline, rec);
                (searches, provider.join().expect("provider loop does not panic"))
            });
            searches.absorb(registers);
            env.churn.extend(acked);
            searches
        }
        Shape::Restart { config } => restart_loop(env, config, cfg.seed, deadline, rec),
    };
    phase.wall_s = started.elapsed().as_secs_f64();
    phase
}

/// End-state checks of `sharded_mixed`, after the traffic has quiesced.
/// Each check is one more operation, failed when it does not hold.
pub fn final_checks(env: &mut Env, phase: &mut Phase) {
    let (platform, config) = match &env.shape {
        Shape::Sharded { platform, config } => (Arc::clone(platform), config.clone()),
        _ => return,
    };
    let budget = inputs::upload_budget();
    let mut check = |holds: bool, note: String| {
        phase.attempted += 1;
        if !holds {
            phase.fail(note);
        }
    };

    // Every acknowledged register is present, on the shard that owns it,
    // and its budget is spent exactly once.
    let shards = platform.shard_platforms();
    let missing = env
        .churn
        .iter()
        .filter(|u| {
            let name = &u.sketch.name;
            !platform.shard_of(name).is_some_and(|s| shards[s].store().contains(name))
        })
        .count();
    drop(shards);
    let datasets = platform.num_datasets();
    check(
        missing == 0 && datasets == env.uploads.len() + env.churn.len(),
        format!(
            "{missing} acknowledged registers missing; {datasets} datasets, want {}",
            env.uploads.len() + env.churn.len()
        ),
    );
    let misspent =
        env.churn.iter().filter(|u| platform.budget_spent(&u.sketch.name) != Some(budget)).count();
    check(misspent == 0, format!("{misspent} uploads whose spent budget is not their own"));
    // A second release under a spent name must be refused.
    if let Some(again) = env.churn.first() {
        check(
            platform.register(again.clone()).is_err(),
            format!("{} registered twice", again.sketch.name),
        );
    }

    // A final search equals one on a platform that holds the end-state
    // corpus and never saw the traffic.
    let loaded = env.churn.iter().all(|u| env.reference.register(u.clone()).is_ok());
    check(loaded, "the reference platform refused a churn upload".to_string());
    let search = |service: &dyn PlatformService| {
        service.search(env.corpus.pool[0].sketched.clone(), env.corpus.search.clone())
    };
    let agree = |got: mileena::core::Result<SearchReply>| match (search(&*env.reference), got) {
        (Ok(want), Ok(got)) => matches(&got, &want),
        _ => false,
    };
    check(agree(search(&*platform)), "final search differs from the fresh platform".to_string());

    // Durability: the same must hold for a process that starts from the
    // directory alone. (Dropping a platform keeps the OS cache, so this
    // shows the bytes were handed to the OS, not that they reached a disk.)
    env.shape = Shape::Restart { config: config.clone() };
    drop(platform);
    match ShardedPlatform::open_with(config.clone()) {
        Ok(reopened) => {
            check(
                reopened.num_datasets() == datasets,
                format!("reopened: {} datasets, acknowledged {datasets}", reopened.num_datasets()),
            );
            check(agree(search(&reopened)), "search after reopen differs".to_string());
            env.shape = Shape::Sharded { platform: Arc::new(reopened), config };
        }
        Err(e) => check(false, format!("reopen: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_operations_are_timed_from_when_they_were_due() {
        let started = Instant::now();
        let due = due_at(started, 250, 100.0);
        assert_eq!(due - started, Duration::from_millis(2500));
        // Began 3 ms late and worked 2 ms: 3 ms of lateness, 5 ms of latency.
        let (late, latency) =
            paced_ms(due, due + Duration::from_millis(3), Duration::from_millis(2));
        assert!((late - 3.0).abs() < 1e-9 && (latency - 5.0).abs() < 1e-9);
        // An operation cannot begin early; a clock that says so reads as on time.
        let (late, latency) = paced_ms(due, started, Duration::from_millis(2));
        assert!(late == 0.0 && (latency - 2.0).abs() < 1e-9);
    }
}
