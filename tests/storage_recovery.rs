//! Crash-recovery suite for the durable platform.
//!
//! The property under test: for **any prefix** of journaled operations —
//! including a torn final record and a corrupted snapshot checksum —
//! `CentralPlatform::open` recovers to a state that is *consistent*: the
//! corpus, ledger, and search results are bit-identical to a platform that
//! executed exactly the surviving operation prefix and never crashed, and
//! no acknowledged budget charge is ever lost (recovered spent amounts are
//! monotonically ≥ the spent amounts at the surviving prefix — equality,
//! in fact, which is stronger).

use mileena::core::{
    CentralPlatform, CoreError, JsonWire, LocalDataStore, PlatformConfig, PlatformService,
    ProviderUpload, StoragePolicy, WalOp,
};
use mileena::datagen::{generate_corpus, CorpusConfig, NycCorpus};
use mileena::privacy::PrivacyBudget;
use mileena::relation::RelationBuilder;
use mileena::search::{SearchConfig, SearchRequest, TaskSpec};
use mileena::storage::{StorageEngine, StorageOptions};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Fixture: one scripted operation sequence over a small corpus.

/// One platform mutation, replayable against any platform instance.
#[derive(Clone)]
enum Op {
    Register(ProviderUpload),
    Replace(ProviderUpload),
    Remove(String),
    Grant(String, PrivacyBudget),
    Charge(String, PrivacyBudget),
}

impl Op {
    fn apply(&self, platform: &CentralPlatform) {
        match self {
            Op::Register(upload) => platform.register(upload.clone()).unwrap(),
            Op::Replace(upload) => platform.replace(upload.clone()).unwrap(),
            Op::Remove(name) => platform.remove(name).unwrap(),
            Op::Grant(name, budget) => platform.grant_budget(name, *budget).unwrap(),
            Op::Charge(name, cost) => platform.charge_budget(name, *cost).unwrap(),
        }
    }

    /// The journaled form of this op.
    fn wal_op(&self) -> WalOp {
        match self.clone() {
            Op::Register(upload) => WalOp::Register { upload },
            Op::Replace(upload) => WalOp::Replace { upload },
            Op::Remove(dataset) => WalOp::Remove { dataset },
            Op::Grant(dataset, budget) => WalOp::Grant { dataset, budget },
            Op::Charge(dataset, cost) => WalOp::Charge { dataset, cost },
        }
    }

    /// Dataset names whose ledger rows this suite compares.
    fn ledger_name(&self) -> Option<&str> {
        match self {
            Op::Register(u) | Op::Replace(u) => {
                u.budget.is_some().then_some(u.sketch.name.as_str())
            }
            Op::Grant(name, _) | Op::Charge(name, _) => Some(name),
            Op::Remove(_) => None,
        }
    }
}

struct Fixture {
    corpus: NycCorpus,
    ops: Vec<Op>,
    /// The single WAL segment's file name and pristine bytes, captured
    /// after executing every op with no checkpoint.
    seg_name: String,
    seg_bytes: Vec<u8>,
}

fn base_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mileena-recovery-{tag}-{}", std::process::id()))
}

fn durable_config(dir: &Path) -> PlatformConfig {
    // Manual checkpoints only: the tests control snapshot placement.
    let mut policy = StoragePolicy::at(dir);
    policy.checkpoint_every = 0;
    PlatformConfig { storage: Some(policy), ..Default::default() }
}

fn small_corpus() -> NycCorpus {
    generate_corpus(&CorpusConfig {
        num_datasets: 10,
        num_signal: 2,
        num_union: 1,
        num_novelty_traps: 1,
        train_rows: 200,
        test_rows: 200,
        provider_rows: 100,
        key_domain: 40,
        signal_rows_per_key: 1,
        noise: 0.1,
        nonlinear_strength: 0.0,
        seed: 91,
    })
}

fn request(c: &NycCorpus) -> SearchRequest {
    SearchRequest {
        train: c.train.clone(),
        test: c.test.clone(),
        task: TaskSpec::new("y", &["base_x"]),
        budget: None,
        key_columns: Some(vec!["zone".into()]),
    }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = small_corpus();
        let b = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let mut ops = Vec::new();
        for (i, p) in corpus.providers.iter().enumerate() {
            let budget = (i % 3 == 0).then_some(b);
            ops.push(Op::Register(
                LocalDataStore::new(p.clone()).prepare_upload(budget, i as u64 + 1).unwrap(),
            ));
        }
        ops.push(Op::Grant("apm_data".into(), b));
        ops.push(Op::Charge("apm_data".into(), b.fraction(0.25).unwrap()));
        ops.push(Op::Replace(
            LocalDataStore::new(corpus.providers[2].clone()).prepare_upload(None, 77).unwrap(),
        ));
        ops.push(Op::Remove(corpus.providers[4].name().to_string()));
        ops.push(Op::Charge("apm_data".into(), b.fraction(0.5).unwrap()));

        let wal_dir = base_dir("fixture");
        let _ = std::fs::remove_dir_all(&wal_dir);
        let platform = CentralPlatform::open_with(durable_config(&wal_dir)).unwrap();
        for op in &ops {
            op.apply(&platform);
        }
        drop(platform);

        let mut segments: Vec<PathBuf> = std::fs::read_dir(&wal_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal-"))
            .collect();
        assert_eq!(segments.len(), 1, "no checkpoints → exactly one segment");
        let seg = segments.pop().unwrap();
        let seg_bytes = std::fs::read(&seg).unwrap();
        let seg_name = seg.file_name().unwrap().to_string_lossy().into_owned();
        let _ = std::fs::remove_dir_all(&wal_dir);
        Fixture { corpus, ops, seg_name, seg_bytes }
    })
}

impl Fixture {
    /// A never-crashed volatile platform that executed `ops[..k]`.
    fn reference_prefix(&self, k: usize) -> CentralPlatform {
        let platform = CentralPlatform::new(PlatformConfig::default());
        for op in &self.ops[..k] {
            op.apply(&platform);
        }
        platform
    }

    fn ledger_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.ops.iter().filter_map(|op| op.ledger_name()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

/// Assert `recovered` is bit-identical to `reference`: corpus, ledger, and
/// search results.
fn assert_state_parity(
    fx: &Fixture,
    recovered: &CentralPlatform,
    reference: &CentralPlatform,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(recovered.num_datasets(), reference.num_datasets());
    for name in fx.ledger_names() {
        let got = recovered.budget_spent(name);
        let want = reference.budget_spent(name);
        prop_assert_eq!(got, want, "ledger parity for {}", name);
        if let (Some(got), Some(want)) = (got, want) {
            prop_assert!(got.epsilon >= want.epsilon - 1e-15, "spent must never shrink");
        }
    }
    if recovered.num_datasets() > 0 {
        let a = recovered.search(&request(&fx.corpus), &SearchConfig::default()).unwrap();
        let b = reference.search(&request(&fx.corpus), &SearchConfig::default()).unwrap();
        prop_assert_eq!(a.outcome.base_score, b.outcome.base_score);
        prop_assert_eq!(a.outcome.final_score, b.outcome.final_score);
        prop_assert_eq!(a.outcome.selected_joins(), b.outcome.selected_joins());
        prop_assert_eq!(a.outcome.selected_unions(), b.outcome.selected_unions());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fixture: a durable directory holding a base snapshot + delta chain.

/// The on-disk files (name → bytes) of a durable dir whose checkpoints ran
/// through the differential path: auto-checkpoint every 3 records lands
/// one full base snapshot and then a chain of delta links, with the full
/// WAL tail alongside (deltas never rotate segments).
#[allow(clippy::type_complexity)]
fn delta_fixture() -> &'static (Vec<(String, Vec<u8>)>, usize) {
    static FILES: OnceLock<(Vec<(String, Vec<u8>)>, usize)> = OnceLock::new();
    FILES.get_or_init(|| {
        let fx = fixture();
        let dir = base_dir("delta-src");
        let _ = std::fs::remove_dir_all(&dir);
        let mut policy = StoragePolicy::at(&dir);
        policy.checkpoint_every = 3;
        policy.max_delta_chain = 8;
        let config = PlatformConfig { storage: Some(policy), ..Default::default() };
        let platform = CentralPlatform::open_with(config).unwrap();
        for op in &fx.ops {
            op.apply(&platform);
        }
        drop(platform);
        let mut files = Vec::new();
        let mut deltas = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            deltas += usize::from(name.starts_with("delta-"));
            files.push((name, std::fs::read(&path).unwrap()));
        }
        files.sort();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(deltas >= 2, "fixture must exercise a real chain, got {deltas} deltas");
        (files, deltas)
    })
}

/// Materialize the delta fixture into a fresh dir, keeping only the delta
/// files selected by `keep` (indexed in seq order).
fn materialize_delta_dir(tag: &str, keep: impl Fn(usize) -> bool) -> PathBuf {
    let (files, _) = delta_fixture();
    let dir = base_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut delta_idx = 0;
    for (name, bytes) in files {
        let is_delta = name.starts_with("delta-");
        if !is_delta || keep(delta_idx) {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        delta_idx += usize::from(is_delta);
    }
    dir
}

/// Every fixture op as a WAL record payload, twice: the binary record the
/// fixture segment holds and the JSON record the same op was journaled as
/// before the binary layout.
fn wal_records() -> &'static Vec<Vec<u8>> {
    static RECORDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let fx = fixture();
        let dir = base_dir("records");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(&fx.seg_name), &fx.seg_bytes).unwrap();
        let (_, recovered) = StorageEngine::open(&dir, StorageOptions::default()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let mut records: Vec<Vec<u8>> = recovered.records.into_iter().map(|r| r.payload).collect();
        assert_eq!(records.len(), fx.ops.len());
        for op in &fx.ops {
            records.push(serde_json::to_string(&op.wal_op()).unwrap().into_bytes());
        }
        records
    })
}

// ---------------------------------------------------------------------------
// Property: any byte-prefix of the WAL recovers to a consistent op prefix.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    #[test]
    fn any_wal_byte_prefix_recovers_a_consistent_op_prefix(cut_permille in 0usize..=1000) {
        let fx = fixture();
        let cut = fx.seg_bytes.len() * cut_permille / 1000;
        let dir = base_dir(&format!("cut-{cut}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(&fx.seg_name), &fx.seg_bytes[..cut]).unwrap();

        let recovered = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        let report = recovered.recovery_report().unwrap();
        let k = report.replayed_records as usize;
        prop_assert!(k <= fx.ops.len());
        // Truncation can only drop a *suffix* of acknowledged operations;
        // anything before the cut must replay exactly.
        if cut >= fx.seg_bytes.len() {
            prop_assert_eq!(k, fx.ops.len());
        }
        let reference = fx.reference_prefix(k);
        assert_state_parity(fx, &recovered, &reference)?;
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_newest_snapshot_falls_back_one_checkpoint(flip_permille in 0usize..1000) {
        // Layout: ops[..5] → checkpoint → ops[5..9] → checkpoint → rest.
        // Retention keeps both snapshots and every segment the older one
        // still needs, so corrupting the newest snapshot must recover the
        // FULL final state (older snapshot + longer replay).
        let fx = fixture();
        let dir = base_dir(&format!("snapfall-{flip_permille}"));
        let _ = std::fs::remove_dir_all(&dir);
        let platform = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        for op in &fx.ops[..5] {
            op.apply(&platform);
        }
        platform.checkpoint().unwrap();
        for op in &fx.ops[5..9] {
            op.apply(&platform);
        }
        platform.checkpoint().unwrap();
        for op in &fx.ops[9..] {
            op.apply(&platform);
        }
        drop(platform);

        let mut snapshots: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("snap-"))
            .collect();
        snapshots.sort();
        prop_assert_eq!(snapshots.len(), 2);
        let newest = snapshots.pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let pos = (bytes.len() - 1) * flip_permille / 1000;
        bytes[pos] ^= 0x2A;
        std::fs::write(&newest, &bytes).unwrap();

        match CentralPlatform::open_with(durable_config(&dir)) {
            Ok(recovered) => {
                // Usual case: the flip invalidated the checksum (or left the
                // payload undecodable was an error path — see Err arm), so
                // recovery fell back to the older snapshot and replayed the
                // full tail. State parity with the never-crashed reference.
                let reference = fx.reference_prefix(fx.ops.len());
                assert_state_parity(fx, &recovered, &reference)?;
                let report = recovered.recovery_report().unwrap();
                if report.invalid_snapshots > 0 {
                    prop_assert_eq!(report.snapshot_seq, Some(5), "fell back to checkpoint #1");
                }
            }
            Err(e) => {
                // A flip inside the payload that keeps the CRC cannot
                // happen (the CRC covers the payload); but a flip that keeps
                // the file *valid* yet undecodable surfaces as a loud
                // storage error — never silent divergence.
                prop_assert!(e.to_string().contains("storage"), "{}", e);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn any_delta_chain_subset_recovers_bit_identically(mask in 0usize..256) {
        // Deltas are an optimization, never load-bearing: the WAL tail
        // they summarize stays on disk (delta checkpoints don't rotate
        // segments). So recovery must reach the same final state whatever
        // subset of the chain survives — a prefix replays less, a gap
        // breaks the chain at the hole and replays from there, and the
        // broken links are deleted on sight.
        let fx = fixture();
        let n = delta_fixture().1;
        let mask = mask % (1 << n);
        let dir = materialize_delta_dir(&format!("mask-{mask}"), |i| mask & (1 << i) != 0);

        let recovered = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        let report = recovered.recovery_report().unwrap();
        // The surviving chain is the longest all-kept prefix of the mask.
        let prefix = (0..n).take_while(|i| mask & (1 << i) != 0).count() as u64;
        prop_assert_eq!(report.delta_links, prefix);
        let reference = fx.reference_prefix(fx.ops.len());
        assert_state_parity(fx, &recovered, &reference)?;
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_or_corrupt_delta_falls_back_to_base(flip_permille in 0usize..=1000) {
        // Damage the first delta link anywhere in its bytes (a flip past
        // the end truncates instead — the torn-write case). The whole
        // chain must be rejected and recovery must fall back to the base
        // snapshot + full WAL replay, bit-identically.
        let fx = fixture();
        let dir = materialize_delta_dir(&format!("dmg-{flip_permille}"), |_| true);
        let first_delta = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("delta-"))
            .min()
            .unwrap();
        let mut bytes = std::fs::read(&first_delta).unwrap();
        let pos = bytes.len() * flip_permille / 1000;
        if pos < bytes.len() {
            bytes[pos] ^= 0x2A;
        } else {
            bytes.truncate(bytes.len() - 3);
        }
        std::fs::write(&first_delta, &bytes).unwrap();

        let recovered = CentralPlatform::open_with(durable_config(&dir)).unwrap();
        let report = recovered.recovery_report().unwrap();
        prop_assert_eq!(report.delta_links, 0, "a damaged first link voids the chain");
        prop_assert!(!first_delta.exists(), "rejected links are deleted on sight");
        let reference = fx.reference_prefix(fx.ops.len());
        assert_state_parity(fx, &recovered, &reference)?;
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_flip_or_truncation_of_a_wal_record_decodes_or_fails_typed(
        pick in 0usize..1024,
        scale in 0u32..18,
        at in any::<u64>(),
        mask in 1u8..=255,
        truncate in any::<bool>(),
    ) {
        // Positions are drawn within the first `len >> scale` bytes, so the
        // small header fields near the front are hit as often as the slabs.
        let records = wal_records();
        let record = &records[pick % records.len()];
        let span = (record.len() >> scale).max(1);
        let pos = (at % span as u64) as usize;
        let mut bytes = record.clone();
        if truncate {
            bytes.truncate(pos);
        } else {
            bytes[pos] ^= mask;
        }
        match WalOp::decode(&bytes) {
            Ok(_) | Err(CoreError::Storage(_)) => {}
            Err(other) => prop_assert!(false, "untyped decode error: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic acceptance pins.

#[test]
fn kill_reopen_parity_over_the_service_boundary() {
    let fx = fixture();
    let dir = base_dir("service-parity");
    let _ = std::fs::remove_dir_all(&dir);
    let platform = std::sync::Arc::new(CentralPlatform::open_with(durable_config(&dir)).unwrap());
    let service = JsonWire::new(std::sync::Arc::clone(&platform));
    for op in &fx.ops {
        op.apply(&platform);
    }
    let keys = vec!["zone".to_string()];
    let sketched = mileena::search::SketchedRequest::sketch(
        &fx.corpus.train,
        &fx.corpus.test,
        &TaskSpec::new("y", &["base_x"]),
        Some(&keys),
    )
    .unwrap();
    let before = service.search(sketched.clone(), None).unwrap();
    let receipt = service.checkpoint().unwrap();
    assert!(receipt.datasets > 0);
    drop(service);
    drop(platform);

    let reopened = std::sync::Arc::new(CentralPlatform::open_with(durable_config(&dir)).unwrap());
    let service = JsonWire::new(std::sync::Arc::clone(&reopened));
    let stats = service.stats().unwrap();
    let storage = stats.storage.unwrap();
    assert_eq!(storage.recovery.unwrap().replayed_records, 0, "snapshot covers everything");
    let after = service.search(sketched, None).unwrap();
    // Bit-identical reply modulo wall-clock fields.
    assert_eq!(before.base_score, after.base_score);
    assert_eq!(before.final_score, after.final_score);
    assert_eq!(before.selected_joins(), after.selected_joins());
    assert_eq!(before.selected_unions(), after.selected_unions());
    assert_eq!(before.features, after.features);
    assert_eq!(before.model, after.model);
    assert_eq!(before.evaluations, after.evaluations);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn acknowledged_charge_survives_a_crash_without_checkpoint() {
    let dir = base_dir("charge-crash");
    let _ = std::fs::remove_dir_all(&dir);
    let b = PrivacyBudget::new(1.0, 1e-6).unwrap();
    let platform = CentralPlatform::open_with(durable_config(&dir)).unwrap();
    platform.grant_budget("sensor_feed", b).unwrap();
    platform.charge_budget("sensor_feed", b.fraction(0.7).unwrap()).unwrap();
    // Crash: no checkpoint, no clean shutdown — just drop.
    drop(platform);

    let recovered = CentralPlatform::open_with(durable_config(&dir)).unwrap();
    assert_eq!(recovered.budget_spent("sensor_feed").unwrap().epsilon, 0.7);
    let remaining = recovered.budget_remaining("sensor_feed").unwrap();
    assert!((remaining.epsilon - 0.3).abs() < 1e-12, "remaining ε = {}", remaining.epsilon);
    // The recovered ledger still enforces exhaustion.
    assert!(recovered.charge_budget("sensor_feed", b.fraction(0.5).unwrap()).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Format pin: a JSON (v1) snapshot payload — what releases before the
/// binary snapshot format wrote at checkpoint — is refused at open with a
/// typed storage error, never misread as an empty or partial corpus.
#[test]
fn v1_json_snapshot_is_refused_with_a_typed_error() {
    let dir = base_dir("v1-refused");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let payload = br#"{"datasets":[],"ledger":[]}"#;
    mileena::storage::snapshot::write_snapshot(&dir, 1, payload).unwrap();

    match CentralPlatform::open_with(durable_config(&dir)) {
        Err(CoreError::Storage(message)) => {
            assert!(message.contains("unsupported snapshot format"), "{message}")
        }
        Err(other) => panic!("want a typed storage error, got {other:?}"),
        Ok(_) => panic!("a v1 JSON snapshot opened"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: an upload holding a non-finite value is refused before it
/// is journaled, charged or indexed. The full triple is journaled as JSON,
/// where `inf` becomes `null`, so an acknowledged `inf` used to come back
/// from recovery as `NaN` — a recovered sketch unequal to the acknowledged
/// one.
#[test]
fn non_finite_upload_is_refused_before_it_is_journaled() {
    let dir = base_dir("non-finite");
    let _ = std::fs::remove_dir_all(&dir);
    let relation = RelationBuilder::new("overflow")
        .int_col("zone", &[1, 2, 3])
        .float_col("v", &[1.0, 1e200, 2.0])
        .build()
        .unwrap();
    let mut upload = LocalDataStore::new(relation).prepare_upload(None, 5).unwrap();
    assert!(upload.sketch.full.q.iter().any(|q| q.is_infinite()), "1e200² overflows q");
    // A budget on the upload: accepting it would also leave a ledger row.
    upload.budget = Some(PrivacyBudget::new(1.0, 1e-6).unwrap());

    let platform = CentralPlatform::open_with(durable_config(&dir)).unwrap();
    for refused in [platform.register(upload.clone()), platform.replace(upload.clone())] {
        match refused {
            Err(CoreError::Sketch(message)) => assert!(message.contains("non-finite"), "{message}"),
            other => panic!("want a typed sketch error, got {other:?}"),
        }
    }
    assert_eq!(platform.num_datasets(), 0);
    assert_eq!(platform.budget_spent("overflow"), None);
    drop(platform);

    let reopened = CentralPlatform::open_with(durable_config(&dir)).unwrap();
    assert_eq!(reopened.recovery_report().unwrap().replayed_records, 0, "nothing journaled");
    assert_eq!(reopened.num_datasets(), 0);
    assert_eq!(reopened.budget_spent("overflow"), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Upgrade pin: the first open after an upgrade sees a segment whose JSON
/// records (the layout journaled before binary records) are followed by
/// the binary records this build journals. The mixed tail recovers
/// bit-identically.
#[test]
fn mixed_json_and_binary_wal_tail_recovers_bit_identically() {
    let fx = fixture();
    let dir = base_dir("mixed-tail");
    let _ = std::fs::remove_dir_all(&dir);
    let split = fx.ops.len() / 2;
    let (mut engine, _) = StorageEngine::open(&dir, StorageOptions::default()).unwrap();
    for op in &fx.ops[..split] {
        engine.append(serde_json::to_string(&op.wal_op()).unwrap().as_bytes()).unwrap();
    }
    drop(engine);

    let platform = CentralPlatform::open_with(durable_config(&dir)).unwrap();
    assert_eq!(platform.recovery_report().unwrap().replayed_records as usize, split);
    for op in &fx.ops[split..] {
        op.apply(&platform);
    }
    drop(platform);
    let segments = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("wal-"))
        .count();
    assert_eq!(segments, 1, "both record layouts share one segment");

    let recovered = CentralPlatform::open_with(durable_config(&dir)).unwrap();
    assert_eq!(recovered.recovery_report().unwrap().replayed_records as usize, fx.ops.len());
    let reference = fx.reference_prefix(fx.ops.len());
    assert_state_parity(fx, &recovered, &reference).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_final_record_drops_exactly_one_op() {
    let fx = fixture();
    let dir = base_dir("torn-one");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Chop one byte: the final record is torn, everything else survives.
    std::fs::write(dir.join(&fx.seg_name), &fx.seg_bytes[..fx.seg_bytes.len() - 1]).unwrap();
    let recovered = CentralPlatform::open_with(durable_config(&dir)).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert!(report.torn_tail);
    assert_eq!(report.replayed_records as usize, fx.ops.len() - 1);
    // The dropped op was the last apm charge of ε=0.5: only 0.25 spent.
    assert_eq!(recovered.budget_spent("apm_data").unwrap().epsilon, 0.25);
    std::fs::remove_dir_all(&dir).unwrap();
}
