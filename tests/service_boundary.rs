//! The service-boundary acceptance suite: requester data is sketched
//! locally, crosses to the platform only as a versioned JSON
//! `SketchedRequest`, the server searches from sketches alone, and the
//! results are bit-identical to the in-process path — under concurrency
//! and cancellation.

use mileena::core::{
    CentralPlatform, CoreError, InProcess, JsonWire, LocalDataStore, PlatformConfig,
    PlatformService, SchedulerConfig, SearchRequestBuilder,
};
use mileena::datagen::{generate_corpus, CorpusConfig, NycCorpus};
use mileena::search::{
    CandidateLimits, SearchConfig, SearchControl, SearchEvent, SketchedRequest, StopReason,
    TaskSpec,
};
use mileena::storage::{FaultKind, FaultPlan, FaultSite};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn corpus_cfg(seed: u64) -> CorpusConfig {
    CorpusConfig {
        num_datasets: 20,
        num_signal: 3,
        num_union: 2,
        num_novelty_traps: 2,
        train_rows: 300,
        test_rows: 300,
        provider_rows: 150,
        key_domain: 60,
        signal_rows_per_key: 1,
        noise: 0.1,
        nonlinear_strength: 0.0,
        seed,
    }
}

fn sketched(c: &NycCorpus) -> SketchedRequest {
    SearchRequestBuilder::new(c.train.clone(), c.test.clone())
        .task(TaskSpec::new("y", &["base_x"]))
        .key_columns(&["zone"])
        .sketch()
        .unwrap()
}

fn serve(c: &NycCorpus, service: &dyn PlatformService) {
    for p in &c.providers {
        service.register(LocalDataStore::new(p.clone()).prepare_upload(None, 5).unwrap()).unwrap();
    }
}

#[test]
fn wire_end_to_end_bit_identical_to_in_process() {
    let c = generate_corpus(&corpus_cfg(301));
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let wire = JsonWire::new(Arc::clone(&platform));
    let in_process = InProcess::new(Arc::clone(&platform));

    // Providers register over the wire (serde round-trip per upload).
    serve(&c, &wire);
    assert_eq!(platform.num_datasets(), 20);

    // The requester sketches locally; the raw relations never reach the
    // service. Both transports must produce bit-identical results.
    let wire_reply = wire.search(sketched(&c), None).unwrap();
    let direct_reply = in_process.search(sketched(&c), None).unwrap();
    assert!(wire_reply.final_score > wire_reply.base_score + 0.3);
    assert_eq!(wire_reply.base_score, direct_reply.base_score);
    assert_eq!(wire_reply.final_score, direct_reply.final_score);
    assert_eq!(wire_reply.selected_joins(), direct_reply.selected_joins());
    assert_eq!(wire_reply.selected_unions(), direct_reply.selected_unions());
    assert_eq!(wire_reply.evaluations, direct_reply.evaluations);
    assert_eq!(wire_reply.features, direct_reply.features);
    assert_eq!(wire_reply.model, direct_reply.model);

    // ...and to the legacy raw-request wrapper.
    let legacy = platform
        .search(
            &mileena::search::SearchRequest {
                train: c.train.clone(),
                test: c.test.clone(),
                task: TaskSpec::new("y", &["base_x"]),
                budget: None,
                key_columns: Some(vec!["zone".into()]),
            },
            &SearchConfig::default(),
        )
        .unwrap();
    assert_eq!(legacy.outcome.final_score, wire_reply.final_score);
}

#[test]
fn wire_sessions_stream_progress_events() {
    let c = generate_corpus(&corpus_cfg(302));
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let wire = JsonWire::new(Arc::clone(&platform));
    serve(&c, &wire);

    let session = wire.submit(sketched(&c), None).unwrap();
    let mut events = Vec::new();
    let reply = session.wait_with(|ev| events.push(ev)).unwrap();

    assert!(
        matches!(events.first(), Some(SearchEvent::Started { candidates, .. }) if *candidates > 0)
    );
    let committed: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            SearchEvent::RoundCommitted { augmentation, .. } => Some(augmentation.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(committed.len(), reply.steps.len());
    for (ev_aug, step) in committed.iter().zip(&reply.steps) {
        assert_eq!(*ev_aug, step.augmentation);
    }
    assert!(matches!(
        events.last(),
        Some(SearchEvent::Finished { stop_reason, .. }) if *stop_reason == reply.stop_reason
    ));
}

#[test]
fn sketched_request_wire_form_carries_no_raw_rows() {
    // Plant a sentinel column with distinctive values in the requester's
    // relations: it is not a task column, so nothing derived from it may
    // appear in the wire form — and the wire form must not even have a
    // place to put raw relations.
    let c = generate_corpus(&corpus_cfg(303));
    let train = {
        let marks: Vec<String> =
            (0..c.train.num_rows()).map(|i| format!("RAW_SENTINEL_{i}")).collect();
        let refs: Vec<&str> = marks.iter().map(|s| s.as_str()).collect();
        let mut b = mileena::relation::RelationBuilder::new("train");
        for field in c.train.schema().fields() {
            b = b.col(&field.name, c.train.column(&field.name).unwrap().clone());
        }
        b.str_col("secret_note", &refs).build().unwrap()
    };
    let request = SearchRequestBuilder::new(train, c.test.clone())
        .task(TaskSpec::new("y", &["base_x"]))
        .key_columns(&["zone"])
        .sketch()
        .unwrap();
    let json = serde_json::to_string(&request).unwrap();

    // No raw cell value may appear in any form — the discovery tokenizer
    // lowercases, so check both casings.
    assert!(!json.contains("RAW_SENTINEL"), "raw cell values leaked into the wire form");
    assert!(!json.contains("raw_sentinel"), "raw string tokens leaked via the profile");
    // The sentinel column's values never leave as features either: it is
    // not a task column, so the sketches exclude it entirely, and its
    // profile carries only hashed signatures (empty term vector).
    let note = request.profile.column("secret_note").unwrap();
    assert_eq!(note.terms.num_terms(), 0);
    assert!(!request.train_sketch.features.iter().any(|f| f.contains("secret")));
    // Structural check: the wire form has no field that could hold a
    // relation — only sketches, profile, task, keys, budget.
    for key in ["\"train\":", "\"test\":", "\"data\":", "\"validity\":"] {
        assert!(!json.contains(key), "unexpected raw-data field {key} in wire form");
    }
    for key in ["\"train_sketch\":", "\"test_sketch\":", "\"profile\":", "\"task\":"] {
        assert!(json.contains(key), "wire form missing {key}");
    }
}

#[test]
fn concurrent_sessions_are_bit_identical_to_serial() {
    let c = generate_corpus(&corpus_cfg(304));
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let in_process = InProcess::new(Arc::clone(&platform));
    serve(&c, &in_process);

    let serial = in_process.search(sketched(&c), None).unwrap();
    assert!(!serial.steps.is_empty());

    // 8 requesters in parallel against the same corpus, twice over, with a
    // provider registering mid-flight: every session sees a consistent
    // snapshot and reproduces the serial result exactly.
    for round in 0..2 {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let svc = in_process.clone();
                    let req = sketched(&c);
                    s.spawn(move || svc.search(req, None).unwrap())
                })
                .collect();
            if round == 0 {
                // Register a fresh provider while searches run; started
                // sessions keep their frozen view.
                let extra = mileena::relation::RelationBuilder::new("late_arrival")
                    .int_col("zone", &(0..60).collect::<Vec<_>>())
                    .float_col("noise_f", &(0..60).map(|z| (z as f64).cos()).collect::<Vec<_>>())
                    .build()
                    .unwrap();
                in_process
                    .register(LocalDataStore::new(extra).prepare_upload(None, 9).unwrap())
                    .unwrap();
            }
            for h in handles {
                let reply = h.join().unwrap();
                assert_eq!(reply.base_score, serial.base_score);
                assert_eq!(reply.final_score, serial.final_score, "concurrent ≠ serial");
                assert_eq!(reply.selected_joins(), serial.selected_joins());
                assert_eq!(reply.selected_unions(), serial.selected_unions());
                assert_eq!(reply.model, serial.model);
            }
        });
    }
    assert_eq!(platform.active_sessions(), 0);
}

#[test]
fn cancelled_session_reports_cancelled() {
    let c = generate_corpus(&corpus_cfg(305));
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let in_process = InProcess::new(Arc::clone(&platform));
    serve(&c, &in_process);

    // Pre-cancelled control: the session must stop before any round.
    let control = SearchControl::new();
    control.cancel();
    let session = platform.submit_with_control(sketched(&c), None, control).unwrap();
    let reply = session.wait().unwrap();
    assert_eq!(reply.stop_reason, StopReason::Cancelled);
    assert!(reply.steps.is_empty());
    assert!(reply.steps.len() < SearchConfig::default().max_augmentations);

    // Cancelling through the session handle (racy by nature, but must
    // always yield a valid reply with a coherent stop reason).
    let session = platform.submit(sketched(&c), None).unwrap();
    session.cancel();
    let reply = session.wait().unwrap();
    assert!(matches!(
        reply.stop_reason,
        StopReason::Cancelled | StopReason::Converged | StopReason::MaxAugmentations
    ));
}

/// Scheduler config that stalls the single worker for `stall` on every
/// dispatched session — a deterministic way to hold sessions in the
/// admission queue.
fn stalled_scheduler(stall: Duration, queue_depth: usize) -> (SchedulerConfig, Arc<FaultPlan>) {
    let plan =
        Arc::new(FaultPlan::new(77).with(FaultSite::Worker, FaultKind::Latency(stall), 1000));
    plan.arm();
    let cfg = SchedulerConfig { workers: Some(1), queue_depth, faults: Some(Arc::clone(&plan)) };
    (cfg, plan)
}

#[test]
fn panicking_search_worker_replies_with_typed_error_on_both_transports() {
    // Regression: the session worker used to run outside catch_unwind, so
    // a panicking search dropped result_tx without sending — a client in
    // wait() got a bare "worker vanished" channel error and the session
    // slot behavior was untested. Now the scheduler isolates the panic
    // and replies with a typed Internal error on every transport.
    let c = generate_corpus(&corpus_cfg(306));
    let plan = Arc::new(FaultPlan::new(9).with(FaultSite::Worker, FaultKind::Panic, 1000));
    plan.arm();
    let config = PlatformConfig {
        scheduler: SchedulerConfig {
            workers: Some(1),
            queue_depth: 8,
            faults: Some(Arc::clone(&plan)),
        },
        ..Default::default()
    };
    let platform = Arc::new(CentralPlatform::new(config));
    let in_process = InProcess::new(Arc::clone(&platform));
    let wire = JsonWire::new(Arc::clone(&platform));
    serve(&c, &in_process);

    // In-process: the typed error names the panic.
    let err = in_process.search(sketched(&c), None).unwrap_err();
    match &err {
        CoreError::Service(msg) => assert!(msg.contains("panicked"), "{msg}"),
        other => panic!("want typed Service error, got {other:?}"),
    }
    // Wire: same failure arrives as a typed Internal envelope, never a
    // hung or vanished session.
    let err = wire.search(sketched(&c), None).unwrap_err();
    match &err {
        CoreError::Wire { code, message } => {
            assert_eq!(*code, mileena::core::ErrorCode::Internal);
            assert!(message.contains("panicked"), "{message}");
        }
        other => panic!("want typed wire error, got {other:?}"),
    }

    // The worker pool survived both panics: disarm and search normally.
    plan.disarm();
    let reply = in_process.search(sketched(&c), None).unwrap();
    assert!(reply.final_score > reply.base_score);
    assert_eq!(platform.active_sessions(), 0, "panicked sessions must free their slots");
    let stats = platform.stats().unwrap();
    assert_eq!(stats.scheduler.panicked, 2);
    assert_eq!(stats.scheduler.admitted, 3);
    assert_eq!(stats.scheduler.queued, 0);
}

#[test]
fn cancellation_and_deadline_expiry_while_queued_never_run_a_round() {
    let c = generate_corpus(&corpus_cfg(307));
    let (sched_cfg, _plan) = stalled_scheduler(Duration::from_millis(250), 8);
    let config = PlatformConfig { scheduler: sched_cfg, ..Default::default() };
    let platform = Arc::new(CentralPlatform::new(config));
    let in_process = InProcess::new(Arc::clone(&platform));
    serve(&c, &in_process);

    // Session 1 occupies the single worker (stalled 250ms, then runs).
    let s1 = platform.submit(sketched(&c), None).unwrap();

    // Session 2 queues behind it; cancel while queued. The dequeue
    // preflight must answer without running a round: no Started event,
    // no steps, stop reason Cancelled.
    let s2 = platform.submit(sketched(&c), None).unwrap();
    s2.cancel();

    // Session 3 also queues behind the stall, with a deadline that
    // expires while it waits: the preflight must shed it at dequeue. Its
    // tight candidate limits truncate the enumeration, which already ran
    // at submit time.
    let tight = SearchConfig {
        limits: CandidateLimits { max_join: 1, max_union: 0 },
        ..Default::default()
    };
    let mut control = SearchControl::new();
    control.set_deadline(Instant::now() + Duration::from_millis(50));
    let s3 = platform.submit_with_control(sketched(&c), Some(tight.clone()), control).unwrap();

    let mut s2_events = Vec::new();
    let r2 = s2.wait_with(|ev| s2_events.push(ev)).unwrap();
    assert_eq!(r2.stop_reason, StopReason::Cancelled);
    assert!(r2.steps.is_empty());
    assert_eq!(r2.evaluations, 0, "a queued-cancelled session must not evaluate candidates");
    assert!(
        matches!(s2_events.as_slice(), [SearchEvent::Finished { stop_reason, rounds: 0, .. }]
            if *stop_reason == StopReason::Cancelled),
        "want a lone zero-round Finished event, got {s2_events:?}"
    );

    let r3 = s3.wait().unwrap();
    assert_eq!(r3.stop_reason, StopReason::Shed);
    assert!(r3.steps.is_empty());
    assert_eq!(r3.evaluations, 0);

    // Session 1 ran normally behind the stall.
    let r1 = s1.wait().unwrap();
    assert!(r1.final_score > r1.base_score);
    assert_eq!(platform.active_sessions(), 0);
    let stats = platform.stats().unwrap();
    assert_eq!(stats.scheduler.queued, 0, "queue slots must be freed");
    assert!(stats.scheduler.shed_deadline >= 1);
    assert_eq!(stats.scheduler.stops.cancelled, 1);
    assert_eq!(stats.scheduler.stops.shed, 1);

    // The shed reply is honest about truncation: it reports what an unshed
    // search of the same request reports.
    let unshed = in_process.search(sketched(&c), Some(tight)).unwrap();
    assert!(unshed.candidates_truncated > 0, "the tight limits must truncate this corpus");
    assert_eq!(r3.candidates_truncated, unshed.candidates_truncated);
}

#[test]
fn queued_shed_and_cancel_are_consistent_over_the_wire() {
    // Same scenarios as above, but through the JSON wire transport: the
    // deadline comes from the server's max_session_wall, and the replies
    // (zero rounds, typed stop reasons) must round-trip the protocol.
    let c = generate_corpus(&corpus_cfg(308));
    let (sched_cfg, _plan) = stalled_scheduler(Duration::from_millis(300), 8);
    let config = PlatformConfig {
        scheduler: sched_cfg,
        max_session_wall: Some(Duration::from_millis(100)),
        ..Default::default()
    };
    let platform = Arc::new(CentralPlatform::new(config));
    let wire = JsonWire::new(Arc::clone(&platform));
    serve(&c, &wire);

    // s1 is dispatched immediately (deadline still fresh) and stalls; its
    // own wall deadline then expires mid-stall, so it stops at the first
    // round boundary.
    let s1 = wire.submit(sketched(&c), None).unwrap();
    // s2 waits behind the stall until past its wall deadline: shed at
    // dequeue, zero rounds.
    let s2 = wire.submit(sketched(&c), None).unwrap();
    // s3 is cancelled while queued.
    let s3 = wire.submit(sketched(&c), None).unwrap();
    s3.cancel();

    let r3 = s3.wait().unwrap();
    assert_eq!(r3.stop_reason, StopReason::Cancelled);
    assert!(r3.steps.is_empty());
    let r2 = s2.wait().unwrap();
    assert_eq!(r2.stop_reason, StopReason::Shed);
    assert!(r2.steps.is_empty());
    let r1 = s1.wait().unwrap();
    assert!(matches!(r1.stop_reason, StopReason::TimeBudget | StopReason::Shed), "{r1:?}");

    assert_eq!(platform.active_sessions(), 0);
    let stats = wire.stats().unwrap();
    assert_eq!(stats.scheduler.queued, 0);
    assert!(stats.scheduler.stops.shed >= 1);
    assert_eq!(stats.scheduler.stops.cancelled, 1);
}

#[test]
fn overload_shed_is_typed_over_the_wire_and_retry_recovers() {
    let c = generate_corpus(&corpus_cfg(309));
    let (sched_cfg, plan) = stalled_scheduler(Duration::from_millis(200), 1);
    let config = PlatformConfig { scheduler: sched_cfg, ..Default::default() };
    let platform = Arc::new(CentralPlatform::new(config));
    let wire = JsonWire::new(Arc::clone(&platform));
    serve(&c, &wire);

    // Fill the worker and the 1-deep queue, then overflow: the shed must
    // arrive as a structured Overloaded error through the JSON envelope,
    // hint and depth intact.
    let s1 = wire.submit(sketched(&c), None).unwrap();
    // Wait for the worker to pick s1 up so the 1-deep queue is empty.
    while platform.queued_sessions() > 0 {
        std::thread::yield_now();
    }
    let s2 = wire.submit(sketched(&c), None).unwrap();
    let err = wire.submit(sketched(&c), None).unwrap_err();
    match err {
        CoreError::Overloaded { queue_depth, retry_after_ms } => {
            assert_eq!(queue_depth, 1);
            assert!(retry_after_ms > 0);
        }
        other => panic!("want structured Overloaded over the wire, got {other:?}"),
    }

    // The client-side retry helper rides out the burst once the stall is
    // lifted mid-backoff.
    plan.disarm();
    let policy = mileena::core::RetryPolicy {
        max_attempts: 20,
        base: Duration::from_millis(20),
        cap: Duration::from_millis(200),
        seed: 11,
        retry_shard_unavailable: false,
    };
    let reply = mileena::core::search_with_retry(&wire, &sketched(&c), None, &policy).unwrap();
    assert!(reply.final_score > reply.base_score);

    assert!(s1.wait().is_ok());
    assert!(s2.wait().is_ok());
    assert_eq!(platform.active_sessions(), 0);
    let stats = wire.stats().unwrap();
    assert!(stats.scheduler.shed_overload >= 1);
    assert!(stats.scheduler.queue_high_water >= 1);
}

#[test]
fn requester_fairness_round_robin_under_backlog() {
    // One hog floods the queue before two small requesters submit one
    // session each; with a stalled single worker, round-robin dequeue
    // must serve the small requesters before the hog's backlog drains.
    let c = generate_corpus(&corpus_cfg(310));
    let (sched_cfg, plan) = stalled_scheduler(Duration::from_millis(150), 16);
    let config = PlatformConfig { scheduler: sched_cfg, ..Default::default() };
    let platform = Arc::new(CentralPlatform::new(config));
    let in_process = InProcess::new(Arc::clone(&platform));
    serve(&c, &in_process);

    let tagged = |who: &str| {
        SearchRequestBuilder::new(c.train.clone(), c.test.clone())
            .task(TaskSpec::new("y", &["base_x"]))
            .key_columns(&["zone"])
            .requester(who)
            .sketch()
            .unwrap()
    };

    // While the first hog session stalls in the worker, the rest queue up.
    let hog: Vec<_> = (0..4).map(|_| platform.submit(tagged("hog"), None).unwrap()).collect();
    let alice = platform.submit(tagged("alice"), None).unwrap();
    let bob = platform.submit(tagged("bob"), None).unwrap();

    // Completion order == dispatch order (single worker): wait on each
    // session in a thread and record when its reply lands.
    let t0 = Instant::now();
    let mut done: Vec<(String, Duration)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (name, session) in hog
            .into_iter()
            .map(|h| ("hog".to_string(), h))
            .chain([("alice".to_string(), alice), ("bob".to_string(), bob)])
        {
            handles.push(s.spawn(move || {
                session.wait().unwrap();
                (name, t0.elapsed())
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    plan.disarm();
    done.sort_by_key(|(_, at)| *at);
    let order: Vec<&str> = done.iter().map(|(name, _)| name.as_str()).collect();
    // Round-robin: the hog's turn yields at most one session per cycle,
    // so alice and bob drain within the first cycle after the in-flight
    // hog session — strict FIFO would instead finish the entire hog
    // backlog first. Pinned shape: the first finisher is a hog session,
    // alice and bob both land in the next three, and the final two
    // finishers are the hog backlog.
    assert_eq!(order[0], "hog", "order: {order:?}");
    assert!(
        order[1..4].contains(&"alice") && order[1..4].contains(&"bob"),
        "fair dequeue must interleave small requesters ahead of the hog backlog: {order:?}"
    );
    assert_eq!(&order[4..], ["hog", "hog"], "order: {order:?}");
    assert_eq!(platform.active_sessions(), 0);
}
