//! One run of one workload: the untraced pass that yields the end-to-end
//! metrics, or the traced pass that yields the per-layer ones. The two never
//! mix: end-to-end rows come only from a run with the recorder off.

use crate::forwarder::Forwarder;
use crate::host;
use crate::inputs::Scale;
use crate::layers::{self, Rows};
use crate::outfile::{MetricValue, ResultLine};
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported, median, percentile, percentile_of, sorted};
use crate::trace::{self, ByName, Recorder};
use crate::workloads::{self, Env, Phase, RunConfig, Shape, Workload};
use mileena::core::{PlatformService, PlatformStats, SearchReply};
use mileena_obs::MetricsReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Cap of the traced pass, seconds.
const TRACED_CAP_S: f64 = 10.0;
/// Root span of one `restart` cycle.
const CYCLE: &str = "client.restart_to_first_search";

/// How long each part of a run lasts.
#[derive(Debug, Clone, Copy)]
pub struct Durations {
    pub measured_s: f64,
    pub warmup_s: f64,
    pub setup_reps: usize,
}

impl Durations {
    pub fn of(seconds: f64, smoke: bool) -> Durations {
        if smoke {
            Durations { measured_s: 1.0, warmup_s: 0.2, setup_reps: 1 }
        } else {
            Durations {
                measured_s: seconds,
                warmup_s: (seconds / 5.0).min(3.0),
                setup_reps: SETUP_REPS,
            }
        }
    }
}

/// A finished run: the driver's line and the report a person reads.
pub struct Outcome {
    pub line: ResultLine,
    pub report: String,
}

fn result_line(specs: &[MetricSpec], rows: &Rows, phase: &Phase) -> Result<ResultLine, String> {
    let mut metrics = BTreeMap::new();
    for spec in specs {
        let value =
            *rows.get(spec.name).ok_or_else(|| format!("{} was not measured", spec.name))?;
        if !value.is_finite() {
            return Err(format!("{} is not a finite number", spec.name));
        }
        metrics.insert(spec.name.to_string(), MetricValue { value, unit: spec.unit.to_string() });
    }
    Ok(ResultLine {
        correct: phase.failed == 0,
        attempted: phase.attempted.max(1),
        failed: phase.failed,
        metrics,
    })
}

fn report_text(
    cfg: &RunConfig,
    header: &BTreeMap<String, String>,
    title: &str,
    specs: &[MetricSpec],
    rows: &Rows,
    counts: &BTreeMap<&'static str, usize>,
    phase: &Phase,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} · {title} · {} ==", cfg.workload.name(), host::HOST_CLASS);
    let _ = writeln!(out, "  why: {}", crate::spec::why(cfg.workload.name()));
    for (key, value) in header {
        let _ = writeln!(out, "  {key}: {value}");
    }
    for spec in specs {
        let samples = counts.get(spec.name).map_or_else(String::new, |n| format!("  (n={n})"));
        let _ = writeln!(
            out,
            "  {:<42} {:>16.6} {}{samples}",
            spec.name,
            rows.get(spec.name).copied().unwrap_or(f64::NAN),
            spec.unit
        );
    }
    let share = phase.failed as f64 / phase.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "  failed_share {share} ({} failed, refused, shed, degraded or wrong of {} attempted)",
        phase.failed, phase.attempted
    );
    for note in &phase.notes {
        let _ = writeln!(out, "  FAILED: {note}");
    }
    out
}

/// The untraced pass: set up (several times, for a steady `setup_s`), warm
/// up, measure with the recorder off and `mileena-obs` at its default, check.
pub fn untraced(cfg: &RunConfig, durations: Durations, smoke: bool) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(durations.setup_reps);
    let mut load_p50 = Vec::with_capacity(durations.setup_reps);
    let mut load_p90 = Vec::with_capacity(durations.setup_reps);
    let mut env: Option<Env> = None;
    for rep in 0..durations.setup_reps {
        if let Some(previous) = env.take() {
            previous.teardown();
        }
        let begin = Instant::now();
        let built = workloads::setup(cfg, &cfg.work_dir.join(format!("rep{rep}")))?;
        setups.push(begin.elapsed().as_secs_f64());
        let load = sorted(built.load_register_ms.clone());
        load_p50.push(percentile(&load, 50.0));
        load_p90.push(percentile(&load, 90.0));
        env = Some(built);
    }
    let mut env = env.ok_or("no set-up ran")?;
    let header = host::header(cfg.seed, durations.measured_s, smoke, &env.dir);

    let rec = Recorder::new(false);
    let warmup = workloads::run_phase(cfg, &mut env, durations.warmup_s, &rec, None);
    let before = scrape(&env);
    let mut phase = workloads::run_phase(cfg, &mut env, durations.measured_s, &rec, None);
    let checkpoints = grew(&before, &scrape(&env), "snapshots_written");
    // A wrong answer is wrong whenever it was given.
    phase.absorb_counts(&warmup);
    workloads::final_checks(&mut env, &mut phase);

    let searches = sorted(phase.search_ms.clone());
    let registers = sorted(phase.register_ms.clone());
    let mut rows = Rows::new();
    rows.insert("setup_s", median(&setups));
    rows.insert("search_p50_ms", percentile(&searches, 50.0));
    rows.insert("search_p90_ms", percentile(&searches, 90.0));
    rows.insert("searches_per_s", searches.len() as f64 / phase.wall_s);
    // `sharded_mixed` registers during the measured phase. The other three
    // register only while their corpus is loaded: a window of under a second
    // per set-up, so each set-up's percentile is taken and the median kept.
    let (register_p50, register_p90, register_n) = if registers.is_empty() {
        (median(&load_p50), median(&load_p90), env.load_register_ms.len())
    } else {
        (percentile(&registers, 50.0), percentile(&registers, 90.0), registers.len())
    };
    rows.insert("register_p50_ms", register_p50);
    rows.insert("register_p90_ms", register_p90);
    rows.insert("utility_gain", env.utility_gain()?);
    rows.insert("peak_rss_mb", host::peak_rss_mb());
    let counts = BTreeMap::from([
        ("setup_s", setups.len()),
        ("search_p50_ms", searches.len()),
        ("search_p90_ms", searches.len()),
        ("searches_per_s", searches.len()),
        ("register_p50_ms", register_n),
        ("register_p90_ms", register_n),
        ("utility_gain", env.expected.len()),
    ]);

    let mut report =
        report_text(cfg, &header, "end to end (recorder off)", END_TO_END, &rows, &counts, &phase);
    for (what, n) in [("search", searches.len()), ("register", register_n)] {
        if highest_supported(n) < 90.0 {
            let _ = writeln!(
                report,
                "  note: {n} {what} samples leave fewer than ten beyond p90; p{} is the highest they support",
                highest_supported(n)
            );
        }
    }
    if !phase.lateness_ms.is_empty() {
        let late = sorted(phase.lateness_ms.clone());
        let _ = writeln!(
            report,
            "  provider lateness p50 {:.3} ms, p90 {:.3} ms over {} registers; {checkpoints} checkpoints in the measured phase",
            percentile(&late, 50.0),
            percentile(&late, 90.0),
            late.len()
        );
    }
    let line = result_line(END_TO_END, &rows, &phase)?;
    env.teardown();
    Ok(Outcome { line, report })
}

/// What the deployment's own telemetry says, for deltas around a pass.
struct Scrape {
    report: MetricsReport,
    stats: PlatformStats,
}

fn scrape(env: &Env) -> Option<Scrape> {
    let service: &dyn PlatformService = match &env.shape {
        Shape::InProc { service } => service,
        Shape::Tcp { platform, .. } => &**platform,
        Shape::Sharded { platform, .. } => &**platform,
        Shape::Restart { .. } => return None,
    };
    Some(Scrape { report: service.metrics().ok()?, stats: service.stats().ok()? })
}

/// Counter growth between two scrapes (0 when the shape has none).
fn grew(before: &Option<Scrape>, after: &Option<Scrape>, counter: &str) -> f64 {
    let read = |s: &Option<Scrape>| s.as_ref().and_then(|s| s.report.counter(counter)).unwrap_or(0);
    read(after).saturating_sub(read(before)) as f64
}

/// Client and reply rows, read off the spans of the traced pass. Returns the
/// p50 of the span that waited for the server and of its self time (the
/// transport gap).
fn span_rows(by: &ByName, env: &Env, rows: &mut Rows) -> (f64, f64) {
    // Client rows of the traced pass itself, so the stage rows below have the
    // total they must add up to next to them.
    let p99 = |name: &str| {
        if highest_supported(by.count(name)) >= 99.0 {
            by.duration(name, 99.0)
        } else {
            0.0
        }
    };
    rows.insert("client.search_p50_ms", by.duration("client.search", 50.0));
    rows.insert("client.search_p99_ms", p99("client.search"));
    rows.insert("client.register_p50_ms", by.duration("client.register", 50.0));
    rows.insert("client.register_p99_ms", p99("client.register"));
    rows.insert("client.restart_to_first_search_p50_ms", by.duration(CYCLE, 50.0));
    rows.insert("client.restart_to_first_search_p90_ms", by.duration(CYCLE, 90.0));

    // Reply rows: the server's own stages, and what each leaves unexplained.
    // The span that waited for the server is the client's search, or on
    // `restart` the first search after the open.
    let waited =
        if by.count("client.search") > 0 { "client.search" } else { "core.durable.first_search" };
    let gap_ms = by.self_time(waited, 50.0);
    rows.insert("core.net.transport_gap_ms", gap_ms);
    rows.insert("core.platform.prepare_ms", by.duration("core.platform.prepare", 50.0));
    rows.insert("core.platform.unaccounted_ms", by.self_time("core.platform.total", 50.0));
    rows.insert("search.enumerate_ms", by.duration("search.enumerate", 50.0));
    rows.insert("core.sched.queue_wait_p50_ms", by.duration("core.sched.queue_wait", 50.0));
    rows.insert("core.sched.queue_wait_p90_ms", by.duration("core.sched.queue_wait", 90.0));
    rows.insert("search.eval_ms", by.duration("search.eval", 50.0));
    rows.insert("search.run_other_ms", by.self_time("search.run", 50.0));
    rows.insert("search.fit_ms", by.duration("search.fit", 50.0));
    // Counts repeat exactly, so they come from the reference replies.
    let mean = |f: &dyn Fn(&SearchReply) -> f64| {
        env.expected.iter().map(f).sum::<f64>() / env.expected.len() as f64
    };
    rows.insert("search.rounds", mean(&|r| r.steps.len() as f64));
    rows.insert("search.evaluations", mean(&|r| r.evaluations as f64));
    rows.insert(
        "search.bound_skip_share",
        mean(&|r| r.bound_skips as f64 / (r.bound_skips + r.evaluations).max(1) as f64),
    );
    (by.duration(waited, 50.0), gap_ms)
}

/// Scrape rows: growth of the deployment's public counters over the pass.
fn scrape_rows(
    cfg: &RunConfig,
    env: &Env,
    before: &Option<Scrape>,
    after: &Option<Scrape>,
    pass: &Phase,
    rows: &mut Rows,
) {
    let searches = pass.search_ms.len().max(1) as f64;
    let sched = after.as_ref().map(|s| &s.stats.scheduler);
    rows.insert(
        "core.sched.shed",
        sched.map_or(0.0, |s| (s.shed_overload + s.shed_deadline + s.shed_shutdown) as f64),
    );
    let histogram = |name: &str| after.as_ref().and_then(|s| s.report.histogram(name));
    let gather_ms =
        |q: f64| histogram("shard_gather_ns").map_or(0.0, |h| h.bucket_quantile(q) as f64 / 1e6);
    rows.insert("core.shard.gather_p50_ms", gather_ms(0.50));
    rows.insert("core.shard.gather_p90_ms", gather_ms(0.90));
    let visits = |s: &Option<Scrape>| {
        let gathers = s.as_ref().and_then(|s| s.report.histogram("shard_gather_ns"));
        gathers.map_or(0, |h| h.summary.count)
    };
    rows.insert(
        "core.shard.visits_per_search",
        visits(after).saturating_sub(visits(before)) as f64 / searches,
    );
    rows.insert("core.shard.failures", grew(before, after, "shard_call_failures"));
    rows.insert(
        "core.net.connections_per_search",
        grew(before, after, "net_connections") / searches,
    );
    rows.insert(
        "core.net.frames_per_search",
        (grew(before, after, "net_frames_in") + grew(before, after, "net_frames_out")) / searches,
    );
    rows.insert("core.net.errors", pass.net_errors as f64);
    rows.insert("storage.checkpoints", grew(before, after, "snapshots_written"));
    let hydrations = match &env.shape {
        // No platform outlives a cycle to be scraped: the loop read each one.
        Shape::Restart { .. } => median(&pass.hydrations_lazy),
        _ => grew(before, after, "hydrations_lazy"),
    };
    rows.insert("sketch.hydrations_lazy", hydrations);

    // Where the deployment itself is durable, its own WAL and checkpoint
    // figures (taken under the workload's contention) replace the direct ones.
    if cfg.workload == Workload::ShardedMixed {
        if let Some(appends) = histogram("wal_append_ns") {
            rows.insert("storage.wal_append_p50_us", appends.bucket_quantile(0.50) as f64 / 1e3);
            rows.insert("storage.wal_append_p90_us", appends.bucket_quantile(0.90) as f64 / 1e3);
        }
        if let Some(writes) = histogram("snapshot_write_ns").filter(|h| h.summary.count > 0) {
            rows.insert("storage.checkpoint_ms", writes.summary.mean_ns() as f64 / 1e6);
        }
    }
    if matches!(cfg.workload, Workload::ShardedMixed | Workload::Restart) {
        let live = env.uploads.len() + env.churn.len();
        rows.insert(
            "storage.disk_bytes_per_dataset",
            host::dir_bytes(&env.dir) as f64 / live as f64,
        );
    }
}

/// The traced pass: same inputs, recorder on; then the direct rows.
pub fn traced(cfg: &RunConfig, durations: Durations, smoke: bool) -> Result<Outcome, String> {
    let mut env = workloads::setup(cfg, &cfg.work_dir.join("traced"))?;
    let header = host::header(cfg.seed, durations.measured_s.min(TRACED_CAP_S), smoke, &env.dir);
    let off = Recorder::new(false);
    let mut phase = workloads::run_phase(cfg, &mut env, durations.warmup_s, &off, None);
    let plain = workloads::run_phase(cfg, &mut env, durations.measured_s / 2.0, &off, None);

    let forwarder = match &env.shape {
        Shape::Tcp { server, .. } => {
            Some(Forwarder::start(server.local_addr()).map_err(|e| e.to_string())?)
        }
        _ => None,
    };
    let before = scrape(&env);
    let rec = Recorder::new(true);
    let pass = workloads::run_phase(
        cfg,
        &mut env,
        durations.measured_s.min(TRACED_CAP_S),
        &rec,
        forwarder.as_ref(),
    );
    let after = scrape(&env);
    let mut rows = Rows::new();
    let (mut bytes_in, mut bytes_out) = (0, 0);
    if let Some(forwarder) = forwarder {
        bytes_in = forwarder.traffic().to_server.load(Ordering::Relaxed);
        bytes_out = forwarder.traffic().to_client.load(Ordering::Relaxed);
        forwarder.stop();
    }
    let searches = pass.search_ms.len().max(1) as f64;
    rows.insert("core.net.bytes_in_per_search", bytes_in as f64 / searches);
    rows.insert("core.net.bytes_out_per_search", bytes_out as f64 / searches);
    phase.absorb_counts(&plain);
    phase.absorb_counts(&pass);
    workloads::final_checks(&mut env, &mut phase);

    let scratch = cfg.work_dir.join("direct");
    let probe = layers::Probe { rec: &rec, calls: cfg.scale.direct_calls };
    let (direct, direct_failed) = layers::measure(probe, &env, cfg.seed, cfg.scale, &scratch)?;
    let _ = std::fs::remove_dir_all(&scratch);
    phase.attempted += direct_failed;
    phase.failed += direct_failed;
    if direct_failed > 0 {
        phase.notes.push(format!("{direct_failed} checked calls of the direct rows failed"));
    }
    phase.attempted += 1;
    if direct["search.proxy_vs_materialized_abs"] > 1e-9 {
        phase.failed += 1;
        phase.notes.push("proxy final_score differs from the materialized utility".to_string());
    }
    rows.extend(direct);

    let spans = rec.into_spans();
    let trace_path = host::out_root().join(format!("trace-{}.jsonl", cfg.workload.name()));
    trace::write_jsonl(&trace_path, &spans).map_err(|e| e.to_string())?;
    let by = ByName::of(&spans);

    let (client_ms, gap_ms) = span_rows(&by, &env, &mut rows);
    scrape_rows(cfg, &env, &before, &after, &pass, &mut rows);

    // Only a TCP client pays a dial and a codec; what remains of the gap
    // after them is what no row explains yet.
    let paid = match cfg.workload {
        Workload::TcpSearch => rows["core.net.dial_ms"] + rows["core.wire.codec_ms"],
        _ => 0.0,
    };
    rows.insert("core.net.unaccounted_share", (gap_ms - paid) / client_ms.max(f64::EPSILON));

    let main_op = |p: &Phase| percentile_of(&p.search_ms, 50.0);
    rows.insert(
        "bench.trace_overhead_pct",
        100.0 * (main_op(&pass) - main_op(&plain)) / main_op(&plain).max(f64::EPSILON),
    );
    rows.insert("bench.provider_lateness_p90_ms", percentile_of(&pass.lateness_ms, 90.0));
    rows.insert("bench.trace_spans", spans.len() as f64);

    let counts = BTreeMap::from([
        ("client.search_p50_ms", by.count("client.search")),
        ("client.register_p50_ms", by.count("client.register")),
        ("client.restart_to_first_search_p50_ms", by.count(CYCLE)),
        ("bench.trace_overhead_pct", plain.search_ms.len()),
    ]);
    let mut report =
        report_text(cfg, &header, "per layer (traced pass)", PER_LAYER, &rows, &counts, &phase);
    let _ = writeln!(report, "  trace: {}", trace_path.display());
    let line = result_line(PER_LAYER, &rows, &phase)?;
    env.teardown();
    Ok(Outcome { line, report })
}

/// The configuration of a run, with its scratch directory made.
pub fn config(workload: Workload, seed: u64, smoke: bool) -> Result<RunConfig, String> {
    let work_dir =
        host::out_root().join(format!("work-{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    Ok(RunConfig {
        workload,
        seed,
        scale: if smoke { Scale::SMOKE } else { Scale::FULL },
        work_dir,
    })
}
