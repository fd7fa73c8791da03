//! "Direct" per-layer rows: the harness times calls into each layer's public
//! functions on the workload's own corpus and request pool, each call a span.
//! These rows say what a layer costs alone; the reply and scrape rows (see
//! `run`) say what it cost inside the traced pass.

use crate::inputs::{self, Corpus};
use crate::stats::{median, ms, percentile_of};
use crate::trace::Recorder;
use crate::workloads::{central_durable, drain_hydration, matches, selections, Env, SHARDS};
use mileena::core::{
    CentralPlatform, InProcess, JsonWire, LocalDataStore, PlatformConfig, PlatformService,
    ProviderUpload, ShardedPlatform, TcpServer, TcpServerConfig, TcpWire, WalOp,
};
use mileena::discovery::{DatasetProfile, DiscoveryConfig, DiscoveryIndex};
use mileena::ml::{LinearModel, RidgeConfig};
use mileena::privacy::{FactorizedMechanism, FpmConfig};
use mileena::search::modes::materialized_utility;
use mileena::search::{
    build_sketched_state, enumerate_candidates, Candidate, CandidateCache, SketchedRequest,
};
use mileena::sketch::{build_sketch, SketchConfig, SketchStore};
use mileena::storage::{StorageEngine, StorageOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the direct rows are taken: where their spans go, and how many calls
/// make a row unless its time budget runs out first.
#[derive(Clone, Copy)]
pub struct Probe<'a> {
    pub rec: &'a Recorder,
    pub calls: usize,
}
/// Time budget of one direct row.
const ROW_BUDGET: Duration = Duration::from_millis(1500);
/// Calls batched into one sample of a nanosecond-scale kernel.
const KERNEL_BATCH: usize = 200;

pub type Rows = BTreeMap<&'static str, f64>;

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Time up to `probe.calls` calls of `f` (its argument is the call's index),
/// each a span named `name`; returns milliseconds per call.
fn sample(probe: Probe, name: &'static str, mut f: impl FnMut(usize)) -> Vec<f64> {
    let started = Instant::now();
    let mut out = Vec::with_capacity(probe.calls);
    for i in 0..probe.calls {
        let begin = Instant::now();
        f(i);
        let end = Instant::now();
        probe.rec.add_between(name, None, i as u64, begin, end);
        out.push(ms(end - begin));
        if started.elapsed() > ROW_BUDGET {
            break;
        }
    }
    out
}

fn p50(samples: &[f64]) -> f64 {
    percentile_of(samples, 50.0)
}

/// One pool request through each of `shapes` in turn, round after round,
/// every reply checked. A round sends the same task to every shape, so the
/// difference between two shapes' samples of one round is paired: drift
/// common to the round cancels. Returns one sample vector per shape.
fn search_rounds(
    probe: Probe,
    env: &Env,
    shapes: &[(&'static str, &dyn PlatformService)],
    failed: &mut u64,
) -> Vec<Vec<f64>> {
    let started = Instant::now();
    let mut out = vec![Vec::with_capacity(probe.calls); shapes.len()];
    for round in 0..probe.calls {
        let slot = round % env.corpus.pool.len();
        for (samples, (name, service)) in out.iter_mut().zip(shapes) {
            let request = env.corpus.pool[slot].sketched.clone();
            let begin = Instant::now();
            let reply = service.search(request, env.corpus.search.clone());
            let end = Instant::now();
            probe.rec.add_between(name, None, round as u64, begin, end);
            samples.push(ms(end - begin));
            if !reply.is_ok_and(|r| matches(&r, &env.expected[slot])) {
                *failed += 1;
            }
        }
        if started.elapsed() > ROW_BUDGET * shapes.len() as u32 {
            break;
        }
    }
    out
}

/// p50 of the per-round differences of two shapes sampled by
/// [`search_rounds`].
fn paired_gap(with: &[f64], without: &[f64]) -> f64 {
    p50(&with.iter().zip(without).map(|(a, b)| a - b).collect::<Vec<_>>())
}

/// `search`, `discovery`, `semiring`, `ml`: the stages of one search, called
/// one by one on a store and index the harness builds from the same uploads.
fn search_layers(probe: Probe, env: &Env, rows: &mut Rows) -> Result<(), String> {
    let config = env.corpus.search_config();
    let request = &env.corpus.pool[0].sketched;
    let store = SketchStore::new();
    let mut index = DiscoveryIndex::new(DiscoveryConfig::default());
    let mut register_ms = Vec::with_capacity(env.uploads.len());
    for upload in &env.uploads {
        store.register(upload.sketch.clone()).map_err(text)?;
        let profile = upload.profile.clone();
        let begin = Instant::now();
        index.register(profile);
        register_ms.push(ms(begin.elapsed()));
    }
    rows.insert("discovery.register_ms", p50(&register_ms));

    rows.insert(
        "search.request_state_ms",
        p50(&sample(probe, "search.build_sketched_state", |_| {
            black_box(build_sketched_state(request, &config).is_ok());
        })),
    );
    rows.insert(
        "discovery.join_query_ms",
        p50(&sample(probe, "discovery.find_join_candidates", |_| {
            black_box(index.find_join_candidates(&request.profile).len());
        })),
    );
    rows.insert(
        "discovery.union_query_ms",
        p50(&sample(probe, "discovery.find_union_candidates", |_| {
            black_box(index.find_union_candidates(&request.profile).len());
        })),
    );
    let candidates = enumerate_candidates(&index, &store, &request.profile, &config.limits);
    rows.insert("search.candidates", candidates.len() as f64);
    rows.insert("discovery.selectivity", candidates.len() as f64 / env.uploads.len() as f64);

    let state = build_sketched_state(request, &config).map_err(text)?;
    rows.insert(
        "search.cache_build_ms",
        p50(&sample(probe, "search.CandidateCache.build", |_| {
            let input = candidates.candidates.clone();
            black_box(CandidateCache::build(&state, input, &store, config.pruning).len());
        })),
    );

    // One requester × candidate join of per-key statistics: the kernel under
    // both the cache build and every evaluation round.
    let first_join = candidates.candidates.iter().find_map(|c| match c {
        Candidate::Join { dataset, query_key, candidate_key, .. } => {
            let ours = request.train_sketch.keyed_for(query_key).ok()?;
            Some((*dataset, ours.arena(), candidate_key.clone()))
        }
        Candidate::Union { .. } => None,
    });
    let join_ns = match first_join {
        None => 0.0,
        Some((dataset, ours, candidate_key)) => {
            let candidate = store.get_by_id(dataset).map_err(text)?;
            let theirs = candidate.keyed_for(&candidate_key).map_err(text)?.arena();
            let per_batch = sample(probe, "semiring.join_stats", |_| {
                for _ in 0..KERNEL_BATCH {
                    black_box(black_box(ours).join_stats(black_box(theirs)));
                }
            });
            p50(&per_batch) * 1e6 / KERNEL_BATCH as f64
        }
    };
    rows.insert("semiring.join_stats_ns", join_ns);
    let full = &request.train_sketch.full;
    let per_batch = sample(probe, "semiring.triple_add", |_| {
        for _ in 0..KERNEL_BATCH {
            black_box(black_box(full).add(black_box(full)).is_ok());
        }
    });
    rows.insert("semiring.triple_add_ns", p50(&per_batch) * 1e6 / KERNEL_BATCH as f64);

    // The ridge proxy at the feature count the search ends with.
    let done = env.reference.search_sketched(request, &config).map_err(text)?;
    let features: Vec<&str> = done.outcome.state.features().iter().map(String::as_str).collect();
    let target = &request.task.target;
    let train =
        done.outcome.state.train_triple().lr_system(&features, target, true).map_err(text)?;
    let test = done.outcome.state.test_triple().lr_system(&features, target, true).map_err(text)?;
    let fit = sample(probe, "ml.fit_evaluate_systems", |_| {
        let mut model = LinearModel::new(RidgeConfig { lambda: config.lambda, intercept: true });
        black_box(model.fit_evaluate_systems(&train, &test).is_ok());
    });
    rows.insert("ml.ridge_fit_eval_us", p50(&fit) * 1e3);

    // The paper's first promise: the proxy score is the materialized one.
    let reply = &env.expected[0];
    let lambda = config.lambda;
    let materialized = materialized_utility(
        &env.corpus.pool[0].raw,
        &selections(reply),
        &env.corpus.providers,
        lambda,
    )
    .map_err(text)?;
    rows.insert("search.proxy_vs_materialized_abs", (reply.final_score - materialized).abs());
    Ok(())
}

/// `sketch`, `discovery.profile`, `core.local`, `privacy`, `core.platform`:
/// what a provider and a requester do before anything crosses the service.
fn upload_layers(probe: Probe, env: &Env, seed: u64, rows: &mut Rows) -> Result<(), String> {
    let providers = &env.corpus.providers;
    let pick = |i: usize| &providers[i % providers.len()];
    rows.insert(
        "discovery.profile_ms",
        p50(&sample(probe, "discovery.DatasetProfile.of", |i| {
            black_box(DatasetProfile::of(pick(i), 128).columns.len());
        })),
    );
    rows.insert(
        "sketch.build_ms",
        p50(&sample(probe, "sketch.build_sketch", |i| {
            black_box(build_sketch(pick(i), &SketchConfig::default()).is_ok());
        })),
    );
    let stores: Vec<LocalDataStore> =
        (0..probe.calls).map(|i| LocalDataStore::new(pick(i).clone())).collect();
    rows.insert(
        "core.local.prepare_upload_ms",
        p50(&sample(probe, "core.local.prepare_upload", |i| {
            black_box(stores[i].prepare_upload(None, seed).is_ok());
        })),
    );
    let task = &env.corpus.pool[0].raw;
    rows.insert(
        "sketch.request_sketch_ms",
        p50(&sample(probe, "sketch.SketchedRequest.sketch", |_| {
            let sketched = SketchedRequest::sketch(
                &task.train,
                &task.test,
                &task.task,
                task.key_columns.as_deref(),
            );
            black_box(sketched.is_ok());
        })),
    );
    let json_bytes: Vec<f64> = env
        .uploads
        .iter()
        .map(|u| u.sketch.to_json().map(|j| j.len() as f64).map_err(text))
        .collect::<Result<_, _>>()?;
    rows.insert("sketch.json_bytes", median(&json_bytes));

    let fpm = FactorizedMechanism::new(FpmConfig::default());
    let budget = inputs::upload_budget();
    let churn =
        build_sketch(&inputs::churn_relation(seed, 0), &SketchConfig::default()).map_err(text)?;
    rows.insert(
        "privacy.privatize_ms",
        p50(&sample(probe, "privacy.privatize", |i| {
            black_box(fpm.privatize(&churn, budget, inputs::upload_seed(seed, i)).is_ok());
        })),
    );

    // Volatile register (no WAL), then the same names again under a budget:
    // every second release must be refused.
    let fresh = CentralPlatform::new(PlatformConfig::default());
    let uploads: Vec<ProviderUpload> = (0..probe.calls)
        .map(|i| {
            let store = LocalDataStore::new(inputs::churn_relation(seed, i));
            store.prepare_upload(Some(budget), inputs::upload_seed(seed, i)).map_err(text)
        })
        .collect::<Result<_, _>>()?;
    let mut pending = uploads.iter().cloned();
    rows.insert(
        "core.platform.register_ms",
        p50(&sample(probe, "core.platform.register", |_| {
            let upload = pending.next().expect("one upload per call");
            black_box(fresh.register(upload).is_ok());
        })),
    );
    let registered = fresh.num_datasets();
    let refused = uploads.iter().take(registered).filter(|u| fresh.register((*u).clone()).is_err());
    rows.insert("privacy.ledger_rejects", refused.count() as f64 / registered.max(1) as f64);
    Ok(())
}

/// The ledger: one pool request through each deployment shape, and the
/// paired differences that price the codec and the scatter.
fn transport_layers(probe: Probe, env: &Env, rows: &mut Rows) -> Result<u64, String> {
    let mut failed = 0u64;
    let central = &env.reference;
    let inproc = InProcess::new(Arc::clone(central));
    let jsonwire = JsonWire::new(Arc::clone(central));
    let sharded =
        Arc::new(ShardedPlatform::new(PlatformConfig { shards: SHARDS, ..Default::default() }));
    for upload in &env.uploads {
        sharded.register(upload.clone()).map_err(text)?;
    }
    let serve = |service: Arc<dyn PlatformService + Send + Sync>| {
        TcpServer::bind("127.0.0.1:0", service, TcpServerConfig::default()).map_err(text)
    };
    let central_server = serve(Arc::clone(central) as _)?;
    let sharded_server = serve(Arc::clone(&sharded) as _)?;
    let tcp_central = TcpWire::connect(central_server.local_addr()).map_err(text)?;
    let tcp_sharded = TcpWire::connect(sharded_server.local_addr()).map_err(text)?;

    let shapes: [(&'static str, &dyn PlatformService); 5] = [
        ("ledger.inproc", &inproc),
        ("ledger.jsonwire", &jsonwire),
        ("ledger.tcp_central", &tcp_central),
        ("ledger.tcp_sharded", &tcp_sharded),
        ("core.shard.search", &*sharded),
    ];
    let via = search_rounds(probe, env, &shapes, &mut failed);
    rows.insert("ledger.inproc_ms", p50(&via[0]));
    rows.insert("ledger.jsonwire_ms", p50(&via[1]));
    rows.insert("ledger.tcp_central_ms", p50(&via[2]));
    rows.insert("ledger.tcp_sharded_ms", p50(&via[3]));
    rows.insert("core.wire.codec_ms", paired_gap(&via[1], &via[0]));
    rows.insert("core.shard.overhead_ms", paired_gap(&via[4], &via[0]));
    drop((tcp_central, tcp_sharded));
    sharded_server.shutdown();

    let addr = central_server.local_addr();
    let mut clients = Vec::with_capacity(probe.calls);
    rows.insert(
        "core.net.dial_ms",
        p50(&sample(probe, "core.net.TcpWire.connect", |_| {
            if let Ok(client) = TcpWire::connect(addr) {
                clients.push(client);
            }
        })),
    );
    drop(clients);
    central_server.shutdown();

    // Register round trip: prepared uploads into an empty platform over TCP.
    let empty = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let server = serve(Arc::clone(&empty) as _)?;
    let client = TcpWire::connect(server.local_addr()).map_err(text)?;
    let mut pending = env.uploads.iter().cloned();
    let rtt = sample(probe, "core.net.register", |_| {
        if let Some(upload) = pending.next() {
            if client.register(upload).is_err() {
                failed += 1;
            }
        }
    });
    rows.insert("core.net.register_rtt_ms", p50(&rtt));
    drop(client);
    server.shutdown();

    // Telemetry off against on: each round sends one task both ways, the
    // first way alternating, so neither side always runs on a warmer cache.
    let mut gap_pct = Vec::with_capacity(probe.calls);
    let started = Instant::now();
    for round in 0..probe.calls {
        let slot = round % env.corpus.pool.len();
        let mut timed = [0.0f64; 2];
        for turn in 0..2 {
            let enabled = (round + turn) % 2 == 0;
            mileena_obs::set_enabled(enabled);
            let request = env.corpus.pool[slot].sketched.clone();
            let begin = Instant::now();
            let reply = inproc.search(request, env.corpus.search.clone());
            timed[usize::from(enabled)] = ms(begin.elapsed());
            if reply.is_err() {
                failed += 1;
            }
        }
        gap_pct.push(100.0 * (timed[1] - timed[0]) / timed[0].max(f64::EPSILON));
        if started.elapsed() > 2 * ROW_BUDGET {
            break;
        }
    }
    mileena_obs::set_enabled(true);
    rows.insert("obs.overhead_pct", p50(&gap_pct));
    Ok(failed)
}

/// What building a durable directory showed about the WAL.
struct WalFigures {
    bytes_per_register: f64,
    append_p50_us: f64,
    append_p90_us: f64,
}

/// A durable `CentralPlatform` directory holding `uploads`: a snapshot of
/// all but the last `tail`, which stay in the WAL.
fn build_directory(
    dir: &Path,
    uploads: &[ProviderUpload],
    tail: usize,
) -> Result<WalFigures, String> {
    let platform = CentralPlatform::open_with(central_durable(dir)).map_err(text)?;
    let cut = uploads.len().saturating_sub(tail);
    for upload in &uploads[..cut] {
        platform.register(upload.clone()).map_err(text)?;
    }
    platform.checkpoint().map_err(text)?;
    let wal_bytes = |p: &CentralPlatform| -> Result<u64, String> {
        Ok(p.stats().map_err(text)?.storage.ok_or("durable platforms report storage")?.wal_bytes)
    };
    let before = wal_bytes(&platform)?;
    for upload in &uploads[cut..] {
        platform.register(upload.clone()).map_err(text)?;
    }
    let report = platform.metrics();
    let appends = report.histogram("wal_append_ns").ok_or("durable platforms time appends")?;
    Ok(WalFigures {
        bytes_per_register: (wal_bytes(&platform)? - before) as f64
            / (uploads.len() - cut).max(1) as f64,
        append_p50_us: appends.bucket_quantile(0.50) as f64 / 1e3,
        append_p90_us: appends.bucket_quantile(0.90) as f64 / 1e3,
    })
}

/// Open → first verified search cycles on one directory.
struct OpenCycles {
    open_ms: Vec<f64>,
    first_search_ms: Vec<f64>,
    /// WAL records the last open replayed.
    replayed: u64,
}

fn open_cycles(probe: Probe, env: &Env, dir: &Path, failed: &mut u64) -> OpenCycles {
    let mut out = OpenCycles { open_ms: Vec::new(), first_search_ms: Vec::new(), replayed: 0 };
    let started = Instant::now();
    for i in 0..probe.calls {
        let slot = i % env.corpus.pool.len();
        let begin = Instant::now();
        let Ok(platform) = CentralPlatform::open_with(central_durable(dir)) else {
            *failed += 1;
            continue;
        };
        let opened = Instant::now();
        let reply = PlatformService::search(
            &platform,
            env.corpus.pool[slot].sketched.clone(),
            env.corpus.search.clone(),
        );
        let done = Instant::now();
        probe.rec.add_between("core.durable.open_with", None, i as u64, begin, opened);
        probe.rec.add_between("core.durable.first_search", None, i as u64, opened, done);
        out.open_ms.push(ms(opened - begin));
        out.first_search_ms.push(ms(done - opened));
        if !reply.is_ok_and(|r| matches(&r, &env.expected[slot])) {
            *failed += 1;
        }
        out.replayed = platform.recovery_report().map_or(0, |r| r.replayed_records);
        drain_hydration(&platform);
        if started.elapsed() > 2 * ROW_BUDGET {
            break;
        }
    }
    out
}

/// `storage` and `core.durable`: open, replay, checkpoint and the WAL codec,
/// on a directory holding the workload's corpus.
fn durable_layers(
    probe: Probe,
    env: &Env,
    tail: usize,
    scratch: &Path,
    rows: &mut Rows,
) -> Result<u64, String> {
    let mut failed = 0u64;
    let with_tail = scratch.join("with-tail");
    let checkpointed = scratch.join("checkpointed");
    let wal = build_directory(&with_tail, &env.uploads, tail)?;
    rows.insert("storage.wal_bytes_per_register", wal.bytes_per_register);
    rows.insert("storage.wal_append_p50_us", wal.append_p50_us);
    rows.insert("storage.wal_append_p90_us", wal.append_p90_us);
    build_directory(&checkpointed, &env.uploads, tail)?;
    {
        let platform = CentralPlatform::open_with(central_durable(&checkpointed)).map_err(text)?;
        let begin = Instant::now();
        let receipt = platform.checkpoint().map_err(text)?;
        let end = Instant::now();
        probe.rec.add_between("storage.checkpoint", None, 0, begin, end);
        rows.insert("storage.checkpoint_ms", ms(end - begin));
        rows.insert("storage.snapshot_bytes", receipt.snapshot_bytes as f64);
    }
    rows.insert(
        "storage.disk_bytes_per_dataset",
        crate::host::dir_bytes(&checkpointed) as f64 / env.uploads.len() as f64,
    );

    rows.insert(
        "storage.open_ms",
        p50(&sample(probe, "storage.StorageEngine.open", |_| {
            black_box(StorageEngine::open(&with_tail, StorageOptions::default()).is_ok());
        })),
    );
    let with_tail_cycles = open_cycles(probe, env, &with_tail, &mut failed);
    let checkpointed_cycles = open_cycles(probe, env, &checkpointed, &mut failed);
    rows.insert("core.durable.open_ms", p50(&with_tail_cycles.open_ms));
    rows.insert("core.durable.first_search_ms", p50(&with_tail_cycles.first_search_ms));
    rows.insert("core.durable.recovered_records", with_tail_cycles.replayed as f64);
    rows.insert(
        "core.durable.wal_replay_us_per_record",
        (p50(&with_tail_cycles.open_ms) - p50(&checkpointed_cycles.open_ms)) * 1e3
            / tail.max(1) as f64,
    );

    let encoded: Vec<Vec<u8>> = env
        .uploads
        .iter()
        .take(probe.calls)
        .map(|upload| mileena::core::durable::WalOpRef::Register { upload }.encode().map_err(text))
        .collect::<Result<_, _>>()?;
    rows.insert(
        "core.durable.walop_encode_us",
        p50(&sample(probe, "core.durable.WalOpRef.encode", |i| {
            let upload = &env.uploads[i % env.uploads.len()];
            black_box(mileena::core::durable::WalOpRef::Register { upload }.encode().is_ok());
        })) * 1e3,
    );
    rows.insert(
        "core.durable.walop_decode_us",
        p50(&sample(probe, "core.durable.WalOp.decode", |i| {
            black_box(WalOp::decode(&encoded[i % encoded.len()]).is_ok());
        })) * 1e3,
    );
    Ok(failed)
}

/// Materialized gain of the search over an FPM-privatized corpus as a share
/// of the gain over the same corpus raw. One noise draw: the value is a
/// sample of a wide distribution, reported as found.
fn utility_ratio(corpus: &Corpus, seed: u64) -> Result<f64, String> {
    let load = |private: bool| -> Result<CentralPlatform, String> {
        let platform = CentralPlatform::new(PlatformConfig::default());
        for (i, provider) in corpus.providers.iter().enumerate() {
            let budget = private.then(inputs::upload_budget);
            let upload = LocalDataStore::new(provider.clone())
                .prepare_upload(budget, inputs::upload_seed(seed, i))
                .map_err(text)?;
            platform.register(upload).map_err(text)?;
        }
        Ok(platform)
    };
    let task = &corpus.pool[0];
    let lambda = corpus.search_config().lambda;
    let utility = |platform: &CentralPlatform| -> Result<f64, String> {
        let reply = PlatformService::search(platform, task.sketched.clone(), corpus.search.clone())
            .map_err(text)?;
        materialized_utility(&task.raw, &selections(&reply), &corpus.providers, lambda)
            .map_err(text)
    };
    let base = materialized_utility(&task.raw, &[], &corpus.providers, lambda).map_err(text)?;
    let raw_gain = utility(&load(false)?)? - base;
    let private_gain = utility(&load(true)?)? - base;
    Ok(if raw_gain.abs() > f64::EPSILON { private_gain / raw_gain } else { 0.0 })
}

/// Every direct row. Returns the rows and how many checked calls failed.
pub fn measure(
    probe: Probe,
    env: &Env,
    seed: u64,
    scale: inputs::Scale,
    scratch: &Path,
) -> Result<(Rows, u64), String> {
    let mut rows = Rows::new();
    search_layers(probe, env, &mut rows)?;
    upload_layers(probe, env, seed, &mut rows)?;
    let mut failed = transport_layers(probe, env, &mut rows)?;
    failed += durable_layers(probe, env, scale.wal_tail, scratch, &mut rows)?;
    for (name, n) in [
        ("privacy.utility_ratio.n20", scale.privacy[0]),
        ("privacy.utility_ratio.n100", scale.privacy[1]),
        ("privacy.utility_ratio.n500", scale.privacy[2]),
    ] {
        rows.insert(name, utility_ratio(&inputs::privacy_corpus(n, seed), seed)?);
    }
    Ok((rows, failed))
}
