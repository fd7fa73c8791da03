//! What a shard is: one partition of the corpus and everything that must
//! stay consistent with it — sketch store + discovery index + budget
//! ledger + storage engine — behind the single journaled mutation path
//! (validate → journal → apply). A shard runs no sessions and keeps no
//! search counters: placement, admission, the enumeration merge, the
//! search session, telemetry and breakers belong to the coordinator in
//! [`crate::platform`], which owns S of these (S = 1 for a
//! `CentralPlatform`).
//!
//! Join-key ids are a fixed function of the key value, and all shards of
//! one platform share the process-global dataset interner, one
//! corpus-global TF-IDF [`TermSpace`] and the coordinator's metrics
//! registry, so discovery scores, candidate ranks and evaluation results do
//! not depend on how the corpus is partitioned.

use crate::durable::{
    DeltaPayload, DeltaPayloadRef, PlatformSnapshotRef, RecoveryReport, SnapshotIndex,
    StoragePolicy, WalOp, WalOpRef,
};
use crate::error::{CoreError, Result};
use crate::local::ProviderUpload;
use crate::wire::{CheckpointReceipt, DiscoveryReport, StorageReport};
use mileena_discovery::{DatasetProfile, DiscoveryConfig, DiscoveryIndex, TermSpace};
use mileena_obs::{Metrics, MetricsReport};
use mileena_privacy::{BudgetAccountant, PrivacyBudget};
use mileena_sketch::{DatasetSketch, SketchError, SketchStore};
use mileena_storage::{StorageEngine, StorageOptions};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;
use std::time::Instant;

/// Durable-storage state behind the shard's mutation lock: holding it
/// serializes every state mutation with its journal append, so the WAL's
/// record order always matches the in-memory apply order.
#[derive(Debug, Default)]
struct DurableState {
    engine: Option<StorageEngine>,
    recovery: Option<RecoveryReport>,
    last_checkpoint_error: Option<String>,
    /// Datasets registered or replaced since the last checkpoint (full or
    /// delta) — the next delta checkpoint serializes exactly these.
    dirty_datasets: std::collections::BTreeSet<String>,
    /// Datasets removed since the last checkpoint.
    removed_datasets: std::collections::BTreeSet<String>,
    /// Ledger rows changed since the last checkpoint (grants and charges).
    dirty_ledger: std::collections::BTreeSet<String>,
}

impl DurableState {
    /// Track which state a journaled mutation dirties, so a delta
    /// checkpoint can serialize only the changed subset.
    fn note_mutation(&mut self, op: &WalOpRef<'_>) {
        match op {
            WalOpRef::Register { upload } | WalOpRef::Replace { upload } => {
                let name = &upload.sketch.name;
                self.dirty_datasets.insert(name.clone());
                self.removed_datasets.remove(name);
                if upload.budget.is_some() {
                    self.dirty_ledger.insert(name.clone());
                }
            }
            WalOpRef::Remove { dataset } => {
                self.dirty_datasets.remove(*dataset);
                self.removed_datasets.insert((*dataset).to_string());
            }
            WalOpRef::Grant { dataset, .. } | WalOpRef::Charge { dataset, .. } => {
                self.dirty_ledger.insert((*dataset).to_string());
            }
        }
    }

    /// A checkpoint (full or delta) captured everything dirty so far.
    fn clear_dirty(&mut self) {
        self.dirty_datasets.clear();
        self.removed_datasets.clear();
        self.dirty_ledger.clear();
    }
}

/// One corpus partition. Thread-safe: uploads and searches interleave
/// (a search reads a frozen store snapshot and enumerates under the index
/// read lock).
#[derive(Debug)]
pub struct Shard {
    store: SketchStore,
    index: RwLock<DiscoveryIndex>,
    accountant: Mutex<BudgetAccountant>,
    /// Durable-storage policy rooted at this shard's own directory
    /// (`None` = volatile).
    policy: Option<StoragePolicy>,
    /// The owning coordinator's registry (WAL, snapshot and hydration
    /// series record here).
    metrics: Arc<Metrics>,
    durable: Mutex<DurableState>,
}

impl Shard {
    /// Open a shard: empty and volatile without a `policy`, otherwise
    /// recovered from (or created at) `policy.dir`.
    ///
    /// Recovery: loads the newest valid snapshot (falling back past
    /// corrupted ones), replays the WAL tail — each surviving record
    /// applied exactly once, in sequence order, so budget accounting is
    /// never double-spent — truncates any torn final record, and rebuilds
    /// the discovery index from the recovered profiles. The recovered
    /// shard answers searches bit-identically to one that never restarted.
    pub(crate) fn open(
        discovery: DiscoveryConfig,
        terms: TermSpace,
        policy: Option<StoragePolicy>,
        metrics: Arc<Metrics>,
    ) -> Result<Self> {
        let store = SketchStore::new();
        let mut index =
            DiscoveryIndex::with_term_space(discovery, Arc::clone(store.dataset_interner()), terms);
        let mut accountant = BudgetAccountant::new();
        let durable = match &policy {
            None => DurableState::default(),
            Some(policy) => Self::recover(policy, &store, &mut index, &mut accountant, &metrics)?,
        };
        Ok(Shard {
            store,
            index: RwLock::new(index),
            accountant: Mutex::new(accountant),
            policy,
            metrics,
            durable: Mutex::new(durable),
        })
    }

    /// Hydrate the empty `store`, `index` and `accountant` from the
    /// directory at `policy.dir`.
    fn recover(
        policy: &StoragePolicy,
        store: &SketchStore,
        index: &mut DiscoveryIndex,
        accountant: &mut BudgetAccountant,
        metrics: &Arc<Metrics>,
    ) -> Result<DurableState> {
        let opts = StorageOptions {
            fsync_appends: policy.fsync_appends,
            retain_snapshots: policy.retain_snapshots,
            faults: policy.faults.clone(),
        };
        let eager_started = Instant::now();
        let (engine, recovered) = StorageEngine::open(&policy.dir, opts)?;

        // Wire the hydration observer before any lazy slot registers so no
        // fill goes uncounted.
        {
            let m = Arc::clone(metrics);
            store.set_hydration_observer(Box::new(move |background| {
                if !background {
                    m.hydrations_lazy.inc();
                }
            }));
        }

        // 1. Hydrate the snapshot skeleton. Profiles and the ledger load
        //    eagerly — discovery and budget accounting need them before the
        //    first search — while sketch blobs stay as lazy spans that
        //    decode on first evaluation touch, so time-to-first-search is
        //    independent of sketch volume.
        let snapshot_seq = recovered.snapshot.as_ref().map(|(seq, _)| *seq);
        let mut profiles: std::collections::BTreeMap<String, DatasetProfile> =
            std::collections::BTreeMap::new();
        let mut snapshot_bytes = 0u64;
        if let Some((_, payload)) = recovered.snapshot {
            snapshot_bytes += payload.len() as u64;
            let snap_index = SnapshotIndex::decode(&payload)?;
            let payload: Arc<Vec<u8>> = Arc::new(payload);
            for slot in snap_index.datasets {
                profiles.insert(slot.name.clone(), slot.profile);
                let region = slot.sketch;
                if policy.lazy_hydration {
                    let payload = Arc::clone(&payload);
                    store
                        .register_lazy(
                            &slot.name,
                            Box::new(move |_background| {
                                region
                                    .materialize(&payload)
                                    .and_then(|sketch| sketch.into_sketch())
                                    .map_err(|e| e.to_string())
                            }),
                        )
                        .map_err(|e| CoreError::Storage(format!("snapshot hydration: {e}")))?;
                } else {
                    store
                        .register(region.materialize(&payload)?.into_sketch()?)
                        .map_err(|e| CoreError::Storage(format!("snapshot hydration: {e}")))?;
                }
            }
            for row in snap_index.ledger {
                accountant.restore(&row.dataset, row.limit, row.spent);
            }
        }

        // 2. Apply the delta chain in order: each link replaces its changed
        //    datasets, applies its removals, and restores its ledger rows.
        let mut delta_links = 0u64;
        let mut chain_head = snapshot_seq.unwrap_or(0);
        for (seq, payload) in &recovered.deltas {
            snapshot_bytes += payload.len() as u64;
            let delta = DeltaPayload::decode(payload)?;
            for entry in delta.datasets {
                profiles.insert(entry.profile.name.clone(), entry.profile);
                store.replace(entry.sketch.into_sketch()?);
            }
            for name in &delta.removed {
                profiles.remove(name);
                let _ = store.remove(name);
            }
            for row in delta.ledger {
                accountant.restore(&row.dataset, row.limit, row.spent);
            }
            chain_head = *seq;
            delta_links += 1;
        }

        // 3. Replay the WAL tail on top, skipping records the delta chain
        //    already covers: decode and apply one record at a time, in
        //    sequence order, so budget accounting is never double-spent.
        let replay_started = Instant::now();
        let mut replayed_records = 0u64;
        for record in recovered.records.iter().filter(|record| record.seq > chain_head) {
            let op = WalOp::decode(&record.payload)
                .map_err(|e| CoreError::Storage(format!("record {}: {e}", record.seq)))?;
            Self::replay(store, &mut profiles, accountant, op)
                .map_err(|e| CoreError::Storage(format!("replay record {}: {e}", record.seq)))?;
            replayed_records += 1;
        }
        let replay_ms = replay_started.elapsed().as_millis() as u64;

        // 4. Rebuild the discovery index once, over the final profile set —
        //    per-record register/replace/remove churn during replay is what
        //    made the replay path ~2× the snapshot path. Ranking tie-breaks
        //    are by name, so the name-sorted rebuild order is
        //    search-identical to incremental registration.
        for (_, profile) in profiles {
            index.register(profile);
        }

        // 5. Kick the background hydrator: the shard serves traffic while
        //    the pool drains.
        let pending = store.unhydrated();
        metrics.snapshot_bytes.add(snapshot_bytes);
        if pending > 0
            && policy.background_hydration
            && std::env::var_os("MILEENA_NO_BG_HYDRATION").is_none()
        {
            store.hydrate_in_background();
        }

        Ok(DurableState {
            engine: Some(engine),
            recovery: Some(RecoveryReport {
                snapshot_seq,
                replayed_records,
                torn_tail: recovered.torn_tail,
                invalid_snapshots: recovered.invalid_snapshots as u64,
                snapshot_bytes,
                delta_links,
                eager_ms: eager_started.elapsed().as_millis() as u64,
                replay_ms,
                lazy_datasets: pending as u64,
            }),
            ..DurableState::default()
        })
    }

    /// Apply one journaled mutation during recovery. Replay never journals
    /// (the record is already on disk) and is defensive about records
    /// whose effect is somehow already present — a re-registration is
    /// skipped rather than double-charged.
    fn replay(
        store: &SketchStore,
        profiles: &mut std::collections::BTreeMap<String, DatasetProfile>,
        accountant: &mut BudgetAccountant,
        op: WalOp,
    ) -> Result<()> {
        match op {
            WalOp::Register { upload } => {
                let name = upload.sketch.name.clone();
                if store.contains(&name) {
                    return Ok(()); // effect already present: refuse to double-apply
                }
                store.register(upload.sketch)?;
                profiles.insert(name.clone(), upload.profile);
                if let Some(budget) = upload.budget {
                    if !accountant.contains(&name) {
                        accountant.register_and_charge(&name, budget)?;
                    }
                }
            }
            WalOp::Replace { upload } => {
                let name = upload.sketch.name.clone();
                store.replace(upload.sketch);
                profiles.insert(name.clone(), upload.profile);
                if let Some(budget) = upload.budget {
                    accountant.top_up_and_charge(&name, budget)?;
                }
            }
            WalOp::Remove { dataset } => {
                let _ = store.remove(&dataset);
                profiles.remove(&dataset);
                // The ledger entry stays: spent budget is spent forever.
            }
            WalOp::Grant { dataset, budget } => {
                accountant.grant(&dataset, budget)?;
            }
            WalOp::Charge { dataset, cost } => {
                accountant.charge(&dataset, cost)?;
            }
        }
        Ok(())
    }

    /// Journal one mutation (no-op on volatile shards). Called with the
    /// durable lock held, *before* the in-memory apply: an acknowledged
    /// mutation is on disk first.
    fn journal(&self, state: &mut DurableState, op: WalOpRef<'_>) -> Result<()> {
        if state.engine.is_some() {
            let payload = op.encode()?;
            state.engine.as_mut().expect("checked above").append(&payload)?;
            state.note_mutation(&op);
            self.metrics.wal_appends.inc();
        }
        Ok(())
    }

    /// Run the auto-checkpoint policy after a successful mutation. A
    /// failing checkpoint never fails the mutation (the WAL already holds
    /// it); the error is surfaced through `stats()` instead.
    fn maybe_auto_checkpoint(&self, state: &mut DurableState) {
        let policy = match &self.policy {
            Some(policy) if policy.checkpoint_every > 0 => policy,
            _ => return,
        };
        let due = state
            .engine
            .as_ref()
            .is_some_and(|e| e.records_since_checkpoint() >= policy.checkpoint_every);
        if !due {
            return;
        }
        // Differential checkpoint when a base exists and the chain has
        // room; otherwise (first checkpoint, chain at cap, deltas off) a
        // full snapshot resets the chain. A failed delta — injected fault,
        // or state the dirty sets can't serialize — falls back to a full
        // snapshot rather than leaving the WAL unbounded.
        let use_delta = policy.delta_checkpoints
            && state.engine.as_ref().is_some_and(|e| {
                e.snapshot_seq().is_some() && e.delta_chain_len() < policy.max_delta_chain
            });
        let result = if use_delta {
            self.checkpoint_delta_locked(state).or_else(|_| self.checkpoint_locked(state))
        } else {
            self.checkpoint_locked(state)
        };
        state.last_checkpoint_error = result.err().map(|e| e.to_string());
    }

    /// Serialize the full shard state and checkpoint the engine at the
    /// current sequence. Called with the durable lock held.
    fn checkpoint_locked(&self, state: &mut DurableState) -> Result<CheckpointReceipt> {
        if state.engine.is_none() {
            return Err(CoreError::Storage("platform has no durable storage configured".into()));
        }
        let index = self.index.read();
        let sketches = self.store.all()?;
        let mut datasets = Vec::with_capacity(sketches.len());
        for sketch in &sketches {
            let profile = index.profile(&sketch.name).ok_or_else(|| {
                CoreError::Storage(format!("dataset {} has no indexed profile", sketch.name))
            })?;
            datasets.push((sketch.as_ref(), profile));
        }
        let ledger = self.accountant.lock().entries();
        let payload = PlatformSnapshotRef { datasets, ledger: &ledger }.encode()?;
        let seq = state.engine.as_mut().expect("checked above").checkpoint(&payload)?;
        state.clear_dirty();
        self.metrics.snapshots_written.inc();
        Ok(CheckpointReceipt { seq, datasets: sketches.len(), snapshot_bytes: payload.len() })
    }

    /// Serialize only what changed since the chain head and append a delta
    /// link. Called with the durable lock held; the caller falls back to a
    /// full snapshot on error.
    fn checkpoint_delta_locked(&self, state: &mut DurableState) -> Result<CheckpointReceipt> {
        if state.engine.is_none() {
            return Err(CoreError::Storage("platform has no durable storage configured".into()));
        }
        let index = self.index.read();
        let mut sketches = Vec::with_capacity(state.dirty_datasets.len());
        for name in &state.dirty_datasets {
            sketches.push(self.store.get(name)?); // hydrates on demand
        }
        let mut datasets = Vec::with_capacity(sketches.len());
        for (name, sketch) in state.dirty_datasets.iter().zip(&sketches) {
            let profile = index.profile(name).ok_or_else(|| {
                CoreError::Storage(format!("dataset {name} has no indexed profile"))
            })?;
            datasets.push((sketch.as_ref(), profile));
        }
        let removed: Vec<String> = state.removed_datasets.iter().cloned().collect();
        let ledger: Vec<_> = self
            .accountant
            .lock()
            .entries()
            .into_iter()
            .filter(|(name, _, _)| state.dirty_ledger.contains(name))
            .collect();
        let payload = DeltaPayloadRef { datasets, removed: &removed, ledger: &ledger }.encode()?;
        let seq = state.engine.as_mut().expect("checked above").checkpoint_delta(&payload)?;
        state.clear_dirty();
        self.metrics.snapshots_written.inc();
        Ok(CheckpointReceipt { seq, datasets: sketches.len(), snapshot_bytes: payload.len() })
    }

    /// Checkpoint now: write a full-state snapshot, rotate the log, and
    /// purge segments/snapshots past the retention horizon. Errors on
    /// volatile shards.
    pub(crate) fn checkpoint(&self) -> Result<CheckpointReceipt> {
        let mut state = self.durable.lock();
        let receipt = self.checkpoint_locked(&mut state)?;
        state.last_checkpoint_error = None;
        Ok(receipt)
    }

    /// Storage-engine state plus what the last recovery found (`None` on
    /// volatile shards).
    pub(crate) fn storage_report(&self) -> Result<Option<StorageReport>> {
        let state = self.durable.lock();
        let Some(engine) = &state.engine else { return Ok(None) };
        let s = engine.stats()?;
        Ok(Some(StorageReport {
            dir: engine.dir().display().to_string(),
            last_seq: s.last_seq,
            snapshot_seq: s.snapshot_seq,
            records_since_checkpoint: s.records_since_checkpoint,
            wal_bytes: s.wal_bytes,
            segments: s.segments,
            snapshots: s.snapshots,
            recovery: state.recovery.clone(),
            last_checkpoint_error: state.last_checkpoint_error.clone(),
            append_time: s.append_time,
            checkpoint_time: s.checkpoint_time,
        }))
    }

    /// The discovery index's structural counters.
    pub(crate) fn discovery_report(&self) -> DiscoveryReport {
        let d = self.index.read().stats();
        DiscoveryReport {
            datasets: d.datasets,
            key_columns: d.key_columns,
            lsh_buckets: d.lsh_buckets,
            schema_buckets: d.schema_buckets,
            posting_terms: d.posting_terms,
        }
    }

    /// What the last `open` recovered (`None` on volatile shards).
    pub(crate) fn recovery_report(&self) -> Option<RecoveryReport> {
        self.durable.lock().recovery.clone()
    }

    /// Join the storage engine's private I/O histograms into a metrics
    /// report, by name.
    pub(crate) fn push_io_histograms(&self, report: &mut MetricsReport) {
        let state = self.durable.lock();
        if let Some(engine) = &state.engine {
            let (append, checkpoint) = engine.io_histograms();
            report.push_histogram("wal_append_ns", append.report());
            report.push_histogram("snapshot_write_ns", checkpoint.report());
        }
    }

    /// Register a provider upload: sketches into the store, profile into
    /// the discovery index, and — for private uploads — the consumed
    /// budget into the accountant (rejecting double registration).
    ///
    /// This is one arm of the shard's single journaled mutation path
    /// (register / replace / remove / charge all follow it): validate
    /// under the mutation lock, journal the op, then apply — so a doomed
    /// upload is rejected before any mutation or journal entry, and an
    /// applied mutation is always on disk first. A failed upload therefore
    /// never leaks spent budget and never leaves a stray store entry or
    /// index profile behind.
    pub(crate) fn register(&self, upload: ProviderUpload) -> Result<()> {
        let mut state = self.durable.lock();
        let name = upload.sketch.name.clone();
        // Validate: name free, budget unregistered, every value finite.
        if self.store.contains(&name) {
            return Err(SketchError::DuplicateDataset(name).into());
        }
        if upload.budget.is_some() && self.accountant.lock().spent(&name).is_some() {
            return Err(CoreError::Privacy(format!("dataset {name} already has a budget")));
        }
        check_finite(&upload.sketch)?;
        // Journal, then apply.
        self.journal(&mut state, WalOpRef::Register { upload: &upload })?;
        let budget = upload.budget;
        self.store.register(upload.sketch)?;
        self.index.write().register(upload.profile);
        if let Some(budget) = budget {
            // Infallible after the pre-checks above: the name was free and
            // the ledger had no entry, so registration cannot conflict and
            // charging a fresh limit by its own amount cannot exhaust. A
            // rollback here would be worse than a panic — the op is
            // already journaled, so undoing the in-memory apply would make
            // crash recovery resurrect state the caller was told failed.
            self.accountant
                .lock()
                .register_and_charge(&name, budget)
                .expect("pre-validated: name free and budget unregistered");
        }
        self.maybe_auto_checkpoint(&mut state);
        Ok(())
    }

    /// Replace a dataset's sketches and profile (provider re-upload after
    /// local re-transformation), or insert them when the name is new.
    ///
    /// A budget on the upload *adds* to the dataset's cumulative privacy
    /// loss under sequential composition — each new privatized release
    /// spends fresh budget; replacement never refunds the old release.
    pub(crate) fn replace(&self, upload: ProviderUpload) -> Result<()> {
        let mut state = self.durable.lock();
        let name = upload.sketch.name.clone();
        check_finite(&upload.sketch)?;
        self.journal(&mut state, WalOpRef::Replace { upload: &upload })?;
        let budget = upload.budget;
        self.store.replace(upload.sketch);
        self.index.write().replace(upload.profile);
        if let Some(budget) = budget {
            self.accountant
                .lock()
                .top_up_and_charge(&name, budget)
                .expect("top_up_and_charge has no failure mode for fresh grants");
        }
        self.maybe_auto_checkpoint(&mut state);
        Ok(())
    }

    /// Remove a dataset's sketches and profile from the corpus.
    ///
    /// The budget ledger entry **survives removal**: the privatized release
    /// already happened, so its (ε, δ) stays spent — re-registering the
    /// same name with a fresh budget is still rejected, which is what
    /// keeps remove/re-upload cycles from laundering budget.
    pub(crate) fn remove(&self, name: &str) -> Result<()> {
        let mut state = self.durable.lock();
        if !self.store.contains(name) {
            return Err(SketchError::DatasetNotFound(name.to_string()).into());
        }
        self.journal(&mut state, WalOpRef::Remove { dataset: name })?;
        self.store.remove(name)?;
        self.index.write().remove(name);
        self.maybe_auto_checkpoint(&mut state);
        Ok(())
    }

    /// Grant budget headroom to a dataset without charging it — the
    /// APM-style flow, where per-query releases then draw it down via
    /// [`Shard::charge_budget`]. Registers the ledger entry when the
    /// dataset is unknown, extends the limit otherwise.
    pub(crate) fn grant_budget(&self, dataset: &str, budget: PrivacyBudget) -> Result<()> {
        let mut state = self.durable.lock();
        self.journal(&mut state, WalOpRef::Grant { dataset, budget })?;
        self.accountant.lock().grant(dataset, budget)?;
        self.maybe_auto_checkpoint(&mut state);
        Ok(())
    }

    /// Charge an additional release against a dataset's budget (APM-style
    /// per-query accounting). Journaled before it is applied, so a charge
    /// that was acknowledged is still reflected in `remaining()` after a
    /// crash — the property that makes the DP guarantee hold across
    /// restarts.
    pub(crate) fn charge_budget(&self, dataset: &str, cost: PrivacyBudget) -> Result<()> {
        let mut state = self.durable.lock();
        let mut accountant = self.accountant.lock();
        accountant.check_charge(dataset, cost)?;
        self.journal(&mut state, WalOpRef::Charge { dataset, cost })?;
        accountant.charge(dataset, cost).expect("validated by check_charge");
        drop(accountant);
        self.maybe_auto_checkpoint(&mut state);
        Ok(())
    }

    /// Number of registered datasets.
    pub fn num_datasets(&self) -> usize {
        self.store.len()
    }

    /// The sketch store (read access for benches/inspection).
    pub fn store(&self) -> &SketchStore {
        &self.store
    }

    /// The discovery index (the coordinator enumerates candidates against
    /// it under its own read lock).
    pub(crate) fn index(&self) -> &RwLock<DiscoveryIndex> {
        &self.index
    }

    /// Dataset names with a budget-ledger entry, including entries whose
    /// dataset has since been removed (spent budget is spent forever). The
    /// coordinator rebuilds placement from these so a remove/re-register
    /// cycle still routes to the shard holding the spend.
    pub(crate) fn ledger_datasets(&self) -> Vec<String> {
        self.accountant.lock().entries().into_iter().map(|(name, _, _)| name).collect()
    }

    /// Budget spent by a registered private dataset (`None` = unknown
    /// dataset or non-private upload).
    pub(crate) fn budget_spent(&self, dataset: &str) -> Option<PrivacyBudget> {
        self.accountant.lock().spent(dataset)
    }

    /// Budget remaining for a registered private dataset.
    pub(crate) fn budget_remaining(&self, dataset: &str) -> Result<PrivacyBudget> {
        Ok(self.accountant.lock().remaining(dataset)?)
    }
}

/// Refuse a sketch holding an `inf` or `NaN`: it would not survive the
/// journal (the full triple is stored as JSON, where both become `null`),
/// so recovery would hold a different sketch than the one acknowledged.
fn check_finite(sketch: &DatasetSketch) -> Result<()> {
    let finite = |values: &[f64]| values.iter().all(|v| v.is_finite());
    let full = &sketch.full;
    if !(full.c.is_finite() && finite(&full.s) && finite(&full.q)) {
        return Err(CoreError::Sketch(format!(
            "dataset {}: non-finite value in the full sketch",
            sketch.name
        )));
    }
    for keyed in &sketch.keyed {
        let arena = keyed.arena();
        let rows_finite = (0..arena.num_keys()).all(|r| {
            let (c, s, qu) = arena.row(r);
            c.is_finite() && finite(s) && finite(qu)
        });
        if !rows_finite {
            return Err(CoreError::Sketch(format!(
                "dataset {}: non-finite value in the sketch keyed by {}",
                sketch.name, keyed.key_column
            )));
        }
    }
    Ok(())
}
