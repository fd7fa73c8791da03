//! Durable platform state: the semantic encoding layered over
//! `mileena-storage`'s payload-agnostic WAL + snapshot engine.
//!
//! Two payload families exist, both length-prefixed little-endian binary
//! sharing one per-dataset entry layout (format below):
//!
//! - **WAL records** — one [`WalOp`] per platform mutation (sketch
//!   register/replace/remove, budget charge), journaled *before* the
//!   in-memory state mutates. Replay after a crash re-applies exactly the
//!   records past the last snapshot, in sequence order, so an acknowledged
//!   mutation is never lost and a budget charge is never double-counted.
//!   Records journaled as JSON before the binary layout still decode.
//! - **Snapshots** — the complete [`PlatformSnapshot`]: every sketch with
//!   its discovery profile, plus the full budget ledger (limits *and*
//!   spent amounts — the ledger, not the sketches, is what the DP
//!   guarantee makes mandatory to persist) — and delta links holding only
//!   what changed since the last one.
//!
//! The writers ([`WalOpRef`], [`PlatformSnapshotRef`], [`DeltaPayloadRef`])
//! borrow, so journaling and checkpointing never deep-copy sketch slabs.

use crate::error::{CoreError, Result};
use crate::local::ProviderUpload;
use mileena_discovery::DatasetProfile;
use mileena_privacy::PrivacyBudget;
use mileena_sketch::DatasetSketch;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Where and how the platform persists its state.
#[derive(Debug, Clone)]
pub struct StoragePolicy {
    /// Directory holding the WAL segments and snapshots.
    pub dir: PathBuf,
    /// Auto-checkpoint after this many journaled records (0 = checkpoint
    /// only on explicit `PlatformService::checkpoint` calls).
    pub checkpoint_every: u64,
    /// `fsync` every append (power-loss durable) vs flush-to-OS only
    /// (process-crash durable).
    pub fsync_appends: bool,
    /// Snapshots to retain; ≥ 2 lets recovery survive a corrupted newest
    /// snapshot by falling back one checkpoint.
    pub retain_snapshots: usize,
    /// Hydrate snapshot sketches lazily: profiles and the ledger load
    /// eagerly at open, sketch blobs decode on first evaluation touch.
    /// `false` materializes every sketch at open.
    pub lazy_hydration: bool,
    /// Spawn a background thread at open that drains the unhydrated pool
    /// while the platform already serves traffic. Only meaningful with
    /// `lazy_hydration`.
    pub background_hydration: bool,
    /// Emit differential checkpoints when a base snapshot exists: the
    /// auto-checkpoint writes only the datasets/ledger rows changed since
    /// the chain head. Explicit checkpoints are always full.
    pub delta_checkpoints: bool,
    /// Delta links to chain before the next auto-checkpoint is forced
    /// full (caps the recovery read amplification).
    pub max_delta_chain: usize,
    /// Chaos hook: deterministic fault plan rolled at the storage-engine
    /// sites (WAL append/fsync, snapshot/delta write). `None` in
    /// production.
    pub faults: Option<std::sync::Arc<mileena_storage::FaultPlan>>,
}

impl StoragePolicy {
    /// Default policy rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        StoragePolicy {
            dir: dir.into(),
            checkpoint_every: 256,
            fsync_appends: false,
            retain_snapshots: 2,
            lazy_hydration: true,
            background_hydration: true,
            delta_checkpoints: true,
            max_delta_chain: 4,
            faults: None,
        }
    }
}

/// One journaled platform mutation. The serde derives are the JSON record
/// layout journaled before the binary one; [`WalOp::decode`] still reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalOp {
    /// A provider upload entered the corpus (sketch + profile + optional
    /// budget registration-and-charge).
    Register {
        /// The full upload bundle.
        upload: ProviderUpload,
    },
    /// A provider re-upload replaced an existing dataset; a budget on the
    /// upload adds to the dataset's cumulative privacy loss.
    Replace {
        /// The replacement upload bundle.
        upload: ProviderUpload,
    },
    /// A dataset left the corpus. Its ledger entry survives — spent budget
    /// is spent forever.
    Remove {
        /// Dataset name.
        dataset: String,
    },
    /// Budget headroom was granted to a dataset without being charged
    /// (the APM-style flow: releases draw it down per query).
    Grant {
        /// Dataset name.
        dataset: String,
        /// The (ε, δ) granted.
        budget: PrivacyBudget,
    },
    /// A release was charged against a dataset's budget.
    Charge {
        /// Dataset name.
        dataset: String,
        /// The (ε, δ) cost.
        cost: PrivacyBudget,
    },
}

impl WalOp {
    /// Decode a journaled record payload: a binary record (leading
    /// [`WAL_RECORD_MARKER`]) or a JSON record (leading `{`, what was
    /// journaled before the binary layout) through the derived serde path.
    pub fn decode(payload: &[u8]) -> Result<WalOp> {
        match payload.first() {
            Some(&WAL_RECORD_MARKER) => Self::decode_binary(payload),
            Some(b'{') => {
                let text = std::str::from_utf8(payload)
                    .map_err(|e| CoreError::Storage(format!("wal record is not UTF-8: {e}")))?;
                serde_json::from_str(text)
                    .map_err(|e| CoreError::Storage(format!("undecodable wal record: {e}")))
            }
            first => Err(CoreError::Storage(format!(
                "unsupported wal record format (leading byte {first:x?})"
            ))),
        }
    }

    fn decode_binary(payload: &[u8]) -> Result<WalOp> {
        let mut r = ByteReader::new(payload, "wal record");
        r.u8("marker")?;
        let op = match r.u8("op tag")? {
            tag @ (OP_REGISTER | OP_REPLACE) => {
                let entry = read_dataset_entry(&mut r)?;
                let budget = match r.u8("budget tag")? {
                    0x00 => None,
                    0x01 => Some(r.budget("upload budget")?),
                    tag => return Err(r.error(format!("unknown budget tag {tag:#x}"))),
                };
                let upload = ProviderUpload {
                    sketch: entry.sketch.into_sketch()?,
                    profile: entry.profile,
                    budget,
                };
                if tag == OP_REGISTER {
                    WalOp::Register { upload }
                } else {
                    WalOp::Replace { upload }
                }
            }
            OP_REMOVE => WalOp::Remove { dataset: r.str_("dataset")? },
            OP_GRANT => WalOp::Grant { dataset: r.str_("dataset")?, budget: r.budget("budget")? },
            OP_CHARGE => WalOp::Charge { dataset: r.str_("dataset")?, cost: r.budget("cost")? },
            tag => return Err(r.error(format!("unknown op tag {tag:#x}"))),
        };
        r.finish("record")?;
        Ok(op)
    }
}

/// Borrowed form of [`WalOp`] — what the live mutation path journals, so a
/// provider upload is never cloned just to hit the log. Decodes equal to
/// the owned op it borrows from (pinned by a test).
#[derive(Debug, Clone, Copy)]
pub enum WalOpRef<'a> {
    /// See [`WalOp::Register`].
    Register {
        /// The upload being journaled.
        upload: &'a ProviderUpload,
    },
    /// See [`WalOp::Replace`].
    Replace {
        /// The replacement upload being journaled.
        upload: &'a ProviderUpload,
    },
    /// See [`WalOp::Remove`].
    Remove {
        /// Dataset name.
        dataset: &'a str,
    },
    /// See [`WalOp::Grant`].
    Grant {
        /// Dataset name.
        dataset: &'a str,
        /// The (ε, δ) granted.
        budget: PrivacyBudget,
    },
    /// See [`WalOp::Charge`].
    Charge {
        /// Dataset name.
        dataset: &'a str,
        /// The (ε, δ) cost.
        cost: PrivacyBudget,
    },
}

impl WalOpRef<'_> {
    /// Encode to the binary journal payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = vec![WAL_RECORD_MARKER];
        match *self {
            WalOpRef::Register { upload } => put_upload(&mut out, OP_REGISTER, upload)?,
            WalOpRef::Replace { upload } => put_upload(&mut out, OP_REPLACE, upload)?,
            WalOpRef::Remove { dataset } => {
                out.push(OP_REMOVE);
                put_str(&mut out, dataset)?;
            }
            WalOpRef::Grant { dataset, budget } => {
                out.push(OP_GRANT);
                put_str(&mut out, dataset)?;
                put_budget(&mut out, &budget);
            }
            WalOpRef::Charge { dataset, cost } => {
                out.push(OP_CHARGE);
                put_str(&mut out, dataset)?;
                put_budget(&mut out, &cost);
            }
        }
        Ok(out)
    }
}

fn put_upload(out: &mut Vec<u8>, tag: u8, upload: &ProviderUpload) -> Result<()> {
    out.push(tag);
    put_dataset_entry(out, &upload.sketch, &upload.profile)?;
    match &upload.budget {
        None => out.push(0x00),
        Some(budget) => {
            out.push(0x01);
            put_budget(out, budget);
        }
    }
    Ok(())
}

/// Decoded compact form of a keyed sketch: the feature schema written
/// **once** (the wire format repeats it per key — fine for per-upload
/// payloads, ruinous for a full-corpus snapshot), parallel row slabs
/// straight from the arena, and the symmetric `q` matrix packed as its
/// upper triangle (`m(m+1)/2` of `m²` entries). Since the arena itself
/// stores the packed triangle, this layout is a **by-reference identity**
/// over the slabs: encoding copies rows verbatim in row order (key-id
/// order, the same in every process) and rehydration hands `qu` straight
/// to `GroupedArena::from_parts` with no repacking pass in either
/// direction.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactKeyed {
    /// The join-key column.
    pub key_column: String,
    /// Shared feature schema (once, not per key).
    pub features: Vec<String>,
    /// Key values, one per row. Writers emit arena row order; readers
    /// accept any order (`from_parts` sorts rows by id).
    pub keys: Vec<Vec<mileena_relation::KeyValue>>,
    /// Row counts, length `d`.
    pub c: Vec<f64>,
    /// Feature sums, length `d·m`, row-major.
    pub s: Vec<f64>,
    /// Packed upper triangles of the symmetric `q`, length `d·m(m+1)/2` —
    /// the arena's own storage layout.
    pub qu: Vec<f64>,
}

impl CompactKeyed {
    /// Compact a keyed sketch (owned path, used by tests; the encoders
    /// write straight from the arena instead).
    pub fn of(keyed: &mileena_sketch::KeyedSketch) -> CompactKeyed {
        let arena = keyed.arena();
        let d = arena.num_keys();
        let mut c = Vec::with_capacity(d);
        let mut s = Vec::with_capacity(d * arena.num_features());
        let mut qu = Vec::with_capacity(d * mileena_semiring::packed_len(arena.num_features()));
        for r in 0..d {
            let (rc, rs, rq) = arena.row(r);
            c.push(rc);
            s.extend_from_slice(rs);
            qu.extend_from_slice(rq);
        }
        CompactKeyed {
            key_column: keyed.key_column.clone(),
            features: arena.schema().to_vec(),
            keys: arena.keys(),
            c,
            s,
            qu,
        }
    }

    /// Rehydrate into an arena-backed keyed sketch. Key ids are a function
    /// of the key values, so the rows sort into the order the acknowledging
    /// process held them in, whatever this process saw first. Slab lengths
    /// and keys are validated by `GroupedArena::from_parts` — sheared slabs
    /// and repeated keys surface as a typed storage error, never a panic.
    /// Rows keyed with a NULL component are dropped: NULL keys never join,
    /// and an upload holding one was acknowledged and journaled before
    /// uploads with NULL keys were refused, so its directory must still
    /// open.
    pub fn into_keyed(mut self) -> Result<mileena_sketch::KeyedSketch> {
        if self.keys.iter().any(|key| key.contains(&mileena_relation::KeyValue::Null)) {
            self.drop_null_key_rows();
        }
        let arena = mileena_semiring::GroupedArena::from_parts(
            self.features,
            self.keys,
            self.c,
            self.s,
            self.qu,
        )
        .map_err(|e| CoreError::Storage(format!("compact sketch: {e}")))?;
        Ok(mileena_sketch::KeyedSketch::from_arena(self.key_column, arena))
    }

    /// Remove every row whose key has a NULL component (slabs of the wrong
    /// length are left for `from_parts` to refuse).
    fn drop_null_key_rows(&mut self) {
        let (d, m) = (self.keys.len(), self.features.len());
        let p = mileena_semiring::packed_len(m);
        if self.c.len() != d || self.s.len() != d * m || self.qu.len() != d * p {
            return;
        }
        let (mut c, mut s, mut qu) = (Vec::new(), Vec::new(), Vec::new());
        let mut keys = std::mem::take(&mut self.keys);
        let mut r = 0;
        keys.retain(|key| {
            let keep = !key.contains(&mileena_relation::KeyValue::Null);
            if keep {
                c.push(self.c[r]);
                s.extend_from_slice(&self.s[r * m..(r + 1) * m]);
                qu.extend_from_slice(&self.qu[r * p..(r + 1) * p]);
            }
            r += 1;
            keep
        });
        (self.keys, self.c, self.s, self.qu) = (keys, c, s, qu);
    }
}

/// Decoded compact form of a full dataset sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactSketch {
    /// Dataset name.
    pub name: String,
    /// Original (unqualified) feature names.
    pub raw_features: Vec<String>,
    /// Qualified feature names.
    pub features: Vec<String>,
    /// The full (non-keyed) triple.
    pub full: mileena_semiring::CovarTriple,
    /// Compact keyed sketches.
    pub keyed: Vec<CompactKeyed>,
    /// Source row count.
    pub row_count: usize,
}

impl CompactSketch {
    /// Compact a dataset sketch (owned path; see [`CompactKeyed::of`]).
    pub fn of(sketch: &DatasetSketch) -> CompactSketch {
        CompactSketch {
            name: sketch.name.clone(),
            raw_features: sketch.raw_features.clone(),
            features: sketch.features.clone(),
            full: sketch.full.clone(),
            keyed: sketch.keyed.iter().map(CompactKeyed::of).collect(),
            row_count: sketch.row_count,
        }
    }

    /// Rehydrate the full dataset sketch.
    pub fn into_sketch(self) -> Result<DatasetSketch> {
        let keyed: Result<Vec<_>> = self.keyed.into_iter().map(CompactKeyed::into_keyed).collect();
        Ok(DatasetSketch {
            name: self.name,
            raw_features: self.raw_features,
            features: self.features,
            full: self.full,
            keyed: keyed?,
            row_count: self.row_count,
        })
    }
}

/// One dataset as snapshots, deltas and WAL records carry it: its sketches
/// (compact form) plus the discovery profile the index is rebuilt from.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetEntry {
    /// The dataset's compact sketch bundle.
    pub sketch: CompactSketch,
    /// Its discovery profile.
    pub profile: DatasetProfile,
}

/// One budget-ledger row: cumulative limit and spend for a dataset name —
/// retained even after the dataset is removed (spent budget is permanent).
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Dataset name.
    pub dataset: String,
    /// Total budget granted across all releases.
    pub limit: PrivacyBudget,
    /// Budget consumed so far.
    pub spent: PrivacyBudget,
}

/// The platform's complete durable state as of one WAL sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSnapshot {
    /// Every registered dataset, name-sorted (store iteration order).
    pub datasets: Vec<DatasetEntry>,
    /// The full budget ledger, name-sorted.
    pub ledger: Vec<LedgerEntry>,
}

impl PlatformSnapshot {
    /// Decode a snapshot payload, materializing every sketch blob.
    pub fn decode(payload: &[u8]) -> Result<PlatformSnapshot> {
        let index = SnapshotIndex::decode(payload)?;
        let mut datasets = Vec::with_capacity(index.datasets.len());
        for slot in index.datasets {
            let sketch = slot.sketch.materialize(payload)?;
            datasets.push(DatasetEntry { sketch, profile: slot.profile });
        }
        Ok(PlatformSnapshot { datasets, ledger: index.ledger })
    }
}

/// Borrowed snapshot writer: checkpointing serializes straight from the
/// live store/index/ledger without cloning any sketch.
pub struct PlatformSnapshotRef<'a> {
    /// `(sketch, profile)` per dataset, name-sorted.
    pub datasets: Vec<(&'a DatasetSketch, &'a DatasetProfile)>,
    /// `(dataset, limit, spent)` ledger rows, name-sorted.
    pub ledger: &'a [(String, PrivacyBudget, PrivacyBudget)],
}

// ---------------------------------------------------------------------------
// Binary formats: zero-parse slabs, per-dataset skippable blobs.
//
// Payload layouts (all integers/floats little-endian):
//
// ```text
// snapshot:
//   [0x02][u32 n_datasets][dataset entry ...][u32 n_ledger][ledger row ...]
// delta:
//   [0x03][u32 n_datasets][dataset entry ...][strs removed]
//   [u32 n_ledger][ledger row ...]
// wal record:
//   [0x04][u8 op]
//     0x00 Register | 0x01 Replace: [dataset entry][u8 budget tag]
//                                   0x00 = none | 0x01 [budget]
//     0x02 Remove: [str dataset]
//     0x03 Grant | 0x04 Charge:     [str dataset][budget]
//
// dataset entry:
//   [u32 profile_len][profile bytes]       eager: discovery needs it at open
//   [u64 sketch_len][sketch blob]          skippable: hydrates on touch
// ledger row: [str dataset][budget limit][budget spent]
// budget:     [f64 ε][f64 δ]
//
// profile bytes:
//   [str name][u64 rows][u32 n_columns]
//   per column:
//     [str name][u8 type]                  0x00 = Int | 0x01 = Float | 0x02 = Str
//     [u64 distinct][u64 non_null]
//     [u32 k][raw u64 LE ...]              minhash slab, k×8 bytes
//     [f64 total][u32 n_terms] per term (term-sorted): [str term][f64 count]
//
// sketch blob:
//   [str name][strs raw_features][strs features]
//   [u32 full_len][full CovarTriple JSON]
//   [u64 row_count][u32 n_keyed]
//   per keyed:
//     [str key_column][strs features]
//     [u32 d] per key: [u32 n_values] per value:
//         0x00 = Null | 0x01 [i64] = Int | 0x02 [str] = Str
//     [u64 bytes][raw f64 LE ...]          c slab, length d
//     [u64 bytes][raw f64 LE ...]          s slab, length d·m
//     [u64 bytes][raw f64 LE ...]          qu slab, length d·m(m+1)/2
//
// str  = [u32 len][UTF-8 bytes]
// strs = [u32 count][str ...]
// ```
//
// The c/s/qu slabs — the dominant bytes — rehydrate by bulk
// `f64::from_le_bytes` copy into `GroupedArena::from_parts` with zero float
// parsing; the per-dataset `sketch_len` prefix lets the eager snapshot open
// skip every blob and index `(offset, len)` spans for lazy hydration.
// ---------------------------------------------------------------------------

/// Leading payload byte of a binary snapshot.
pub const SNAPSHOT_V2_MARKER: u8 = 0x02;

/// Leading payload byte of a delta-checkpoint payload.
pub const DELTA_MARKER: u8 = 0x03;

/// Leading payload byte of a binary WAL record (JSON records lead with `{`).
pub const WAL_RECORD_MARKER: u8 = 0x04;

const OP_REGISTER: u8 = 0x00;
const OP_REPLACE: u8 = 0x01;
const OP_REMOVE: u8 = 0x02;
const OP_GRANT: u8 = 0x03;
const OP_CHARGE: u8 = 0x04;

fn put_u32(out: &mut Vec<u8>, n: usize) -> Result<()> {
    let n = u32::try_from(n)
        .map_err(|_| CoreError::Storage(format!("payload section too large: {n}")))?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    put_u32(out, s.len())?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_strs(out: &mut Vec<u8>, strs: &[String]) -> Result<()> {
    put_u32(out, strs.len())?;
    for s in strs {
        put_str(out, s)?;
    }
    Ok(())
}

fn put_budget(out: &mut Vec<u8>, b: &PrivacyBudget) {
    out.extend_from_slice(&b.epsilon.to_le_bytes());
    out.extend_from_slice(&b.delta.to_le_bytes());
}

fn put_ledger(out: &mut Vec<u8>, ledger: &[(String, PrivacyBudget, PrivacyBudget)]) -> Result<()> {
    put_u32(out, ledger.len())?;
    for (dataset, limit, spent) in ledger {
        put_str(out, dataset)?;
        put_budget(out, limit);
        put_budget(out, spent);
    }
    Ok(())
}

fn read_ledger(r: &mut ByteReader<'_>) -> Result<Vec<LedgerEntry>> {
    let n_ledger = r.u32("ledger count")?;
    let mut ledger = Vec::new();
    for _ in 0..n_ledger {
        let dataset = r.str_("ledger dataset")?;
        let limit = r.budget("ledger limit")?;
        let spent = r.budget("ledger spent")?;
        ledger.push(LedgerEntry { dataset, limit, spent });
    }
    Ok(ledger)
}

/// Length-prefixed binary profile. Profiles are the *eager* half of a
/// snapshot — every open decodes all of them before the first search — so
/// the MinHash signatures (the dominant profile bytes) serialize as raw
/// u64 slabs instead of JSON number lists.
fn put_profile(out: &mut Vec<u8>, profile: &DatasetProfile) -> Result<()> {
    use mileena_relation::DataType;
    let mut body = Vec::new();
    put_str(&mut body, &profile.name)?;
    body.extend_from_slice(&(profile.rows as u64).to_le_bytes());
    put_u32(&mut body, profile.columns.len())?;
    for col in &profile.columns {
        put_str(&mut body, &col.name)?;
        body.push(match col.data_type {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Str => 2,
        });
        body.extend_from_slice(&(col.distinct as u64).to_le_bytes());
        body.extend_from_slice(&(col.non_null as u64).to_le_bytes());
        let mins = col.minhash.mins();
        put_u32(&mut body, mins.len())?;
        for m in mins {
            body.extend_from_slice(&m.to_le_bytes());
        }
        body.extend_from_slice(&col.terms.total.to_le_bytes());
        // Term-sorted: FxHashMap iteration order is not deterministic and
        // snapshot bytes must be process-independent.
        let mut terms: Vec<(&String, &f64)> = col.terms.counts.iter().collect();
        terms.sort_unstable_by(|a, b| a.0.cmp(b.0));
        put_u32(&mut body, terms.len())?;
        for (term, count) in terms {
            put_str(&mut body, term)?;
            body.extend_from_slice(&count.to_le_bytes());
        }
    }
    put_u32(out, body.len())?;
    out.extend_from_slice(&body);
    Ok(())
}

/// Inverse of [`put_profile`].
fn read_profile(r: &mut ByteReader<'_>) -> Result<DatasetProfile> {
    use mileena_discovery::{ColumnProfile, MinHashSignature, TermVector};
    use mileena_relation::{DataType, FxHashMap};
    let len = r.u32("profile")?;
    let mut pr = ByteReader::new(r.take(len, "profile")?, r.ctx);
    let name = pr.str_("profile name")?;
    let rows = pr.u64("profile rows")? as usize;
    let n_columns = pr.u32("profile column count")?;
    let mut columns = Vec::new();
    for _ in 0..n_columns {
        let col_name = pr.str_("column name")?;
        let data_type = match pr.u8("column type")? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Str,
            tag => return Err(pr.error(format!("unknown column type tag {tag}"))),
        };
        let distinct = pr.u64("column distinct")? as usize;
        let non_null = pr.u64("column non_null")? as usize;
        let k = pr.u32("minhash length")?;
        let raw = pr.take(
            k.checked_mul(8).ok_or_else(|| pr.error("minhash slab too large"))?,
            "minhash slab",
        )?;
        let mins = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        let total = pr.f64("terms total")?;
        let n_terms = pr.u32("term count")?;
        let mut counts = FxHashMap::default();
        for _ in 0..n_terms {
            let term = pr.str_("term")?;
            let count = pr.f64("term weight")?;
            counts.insert(term, count);
        }
        columns.push(ColumnProfile {
            name: col_name,
            data_type,
            distinct,
            non_null,
            minhash: MinHashSignature::from_mins(mins),
            terms: TermVector { counts, total },
        });
    }
    pr.finish("profile")?;
    Ok(DatasetProfile { name, rows, columns })
}

/// Bounds-checked little-endian reader over one payload; every overrun
/// surfaces as a typed storage error naming the payload (`ctx`), never a
/// panic or a corrupt-length allocation.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    ctx: &'static str,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8], ctx: &'static str) -> Self {
        ByteReader { buf, pos: 0, ctx }
    }

    fn error(&self, msg: impl std::fmt::Display) -> CoreError {
        CoreError::Storage(format!("{}: {msg}", self.ctx))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|end| *end <= self.buf.len())
            .ok_or_else(|| self.error(format!("truncated {what}")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<usize> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &str) -> Result<f64> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn i64(&mut self, what: &str) -> Result<i64> {
        let b = self.take(8, what)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn str_(&mut self, what: &str) -> Result<String> {
        let len = self.u32(what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| self.error(format!("{what} is not UTF-8: {e}")))
    }

    fn strs(&mut self, what: &str) -> Result<Vec<String>> {
        let count = self.u32(what)?;
        let mut out = Vec::new();
        for _ in 0..count {
            out.push(self.str_(what)?);
        }
        Ok(out)
    }

    fn budget(&mut self, what: &str) -> Result<PrivacyBudget> {
        Ok(PrivacyBudget { epsilon: self.f64(what)?, delta: self.f64(what)? })
    }

    /// A length-prefixed raw f64 slab: the zero-parse bulk copy.
    fn f64_slab(&mut self, what: &str) -> Result<Vec<f64>> {
        let bytes = self.u64(what)?;
        if bytes % 8 != 0 {
            return Err(self.error(format!("{what} slab is {bytes} bytes, not a multiple of 8")));
        }
        let raw = self.take(bytes as usize, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Every byte consumed: trailing garbage is rejected, not ignored.
    fn finish(&self, what: &str) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(self.error(format!("trailing bytes after {what}")))
        }
    }
}

fn put_key_value(out: &mut Vec<u8>, v: &mileena_relation::KeyValue) -> Result<()> {
    use mileena_relation::KeyValue;
    match v {
        KeyValue::Null => out.push(0x00),
        KeyValue::Int(i) => {
            out.push(0x01);
            out.extend_from_slice(&i.to_le_bytes());
        }
        KeyValue::Str(s) => {
            out.push(0x02);
            put_str(out, s)?;
        }
    }
    Ok(())
}

fn read_key_value(r: &mut ByteReader<'_>) -> Result<mileena_relation::KeyValue> {
    use mileena_relation::KeyValue;
    match r.u8("key value tag")? {
        0x00 => Ok(KeyValue::Null),
        0x01 => Ok(KeyValue::Int(r.i64("int key value")?)),
        0x02 => Ok(KeyValue::Str(r.str_("str key value")?)),
        tag => Err(r.error(format!("unknown key value tag {tag:#x}"))),
    }
}

/// Encode one dataset sketch as a binary blob, straight from the live
/// arena slabs (by reference — nothing is cloned but the bytes written).
fn encode_sketch_blob(sketch: &DatasetSketch) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    put_str(&mut out, &sketch.name)?;
    put_strs(&mut out, &sketch.raw_features)?;
    put_strs(&mut out, &sketch.features)?;
    let full = serde_json::to_string(&sketch.full)
        .map_err(|e| CoreError::Storage(format!("encode full triple: {e}")))?;
    put_u32(&mut out, full.len())?;
    out.extend_from_slice(full.as_bytes());
    out.extend_from_slice(&(sketch.row_count as u64).to_le_bytes());
    put_u32(&mut out, sketch.keyed.len())?;
    for keyed in &sketch.keyed {
        let arena = keyed.arena();
        let m = arena.num_features();
        let p = mileena_semiring::packed_len(m);
        // Row order is key-id order, so payload bytes are
        // process-independent.
        let d = arena.num_keys();
        put_str(&mut out, &keyed.key_column)?;
        put_strs(&mut out, arena.schema())?;
        put_u32(&mut out, d)?;
        for key in arena.keys() {
            put_u32(&mut out, key.len())?;
            for v in &key {
                put_key_value(&mut out, v)?;
            }
        }
        out.extend_from_slice(&((d * 8) as u64).to_le_bytes());
        for r in 0..d {
            out.extend_from_slice(&arena.row(r).0.to_le_bytes());
        }
        out.extend_from_slice(&((d * m * 8) as u64).to_le_bytes());
        for r in 0..d {
            for v in arena.row(r).1 {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out.extend_from_slice(&((d * p * 8) as u64).to_le_bytes());
        for r in 0..d {
            // The arena row *is* the packed triangle: write it verbatim.
            for v in arena.row(r).2 {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    Ok(out)
}

fn read_sketch_blob(r: &mut ByteReader<'_>) -> Result<CompactSketch> {
    let name = r.str_("sketch name")?;
    let raw_features = r.strs("raw features")?;
    let features = r.strs("features")?;
    let full_len = r.u32("full triple")?;
    let full_text = std::str::from_utf8(r.take(full_len, "full triple")?)
        .map_err(|e| r.error(format!("full triple is not UTF-8: {e}")))?;
    let full: mileena_semiring::CovarTriple = serde_json::from_str(full_text)
        .map_err(|e| r.error(format!("undecodable full triple: {e}")))?;
    let row_count = r.u64("row count")? as usize;
    let n_keyed = r.u32("keyed count")?;
    let mut keyed = Vec::new();
    for _ in 0..n_keyed {
        let key_column = r.str_("key column")?;
        let kfeatures = r.strs("keyed features")?;
        let d = r.u32("key count")?;
        let mut keys = Vec::new();
        for _ in 0..d {
            let n_values = r.u32("key width")?;
            let mut key = Vec::new();
            for _ in 0..n_values {
                key.push(read_key_value(r)?);
            }
            keys.push(key);
        }
        let c = r.f64_slab("c slab")?;
        let s = r.f64_slab("s slab")?;
        let qu = r.f64_slab("qu slab")?;
        keyed.push(CompactKeyed { key_column, features: kfeatures, keys, c, s, qu });
    }
    Ok(CompactSketch { name, raw_features, features, full, keyed, row_count })
}

/// Write one dataset entry — the unit snapshots, deltas and WAL records
/// share: the profile, then the length-prefixed sketch blob.
fn put_dataset_entry(
    out: &mut Vec<u8>,
    sketch: &DatasetSketch,
    profile: &DatasetProfile,
) -> Result<()> {
    put_profile(out, profile)?;
    let blob = encode_sketch_blob(sketch)?;
    out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
    out.extend_from_slice(&blob);
    Ok(())
}

/// Read one dataset entry's profile and skip its sketch blob, returning
/// where the blob lies in the reader's payload (the lazy snapshot path).
fn read_entry_span(r: &mut ByteReader<'_>) -> Result<(DatasetProfile, SketchRegion)> {
    let profile = read_profile(r)?;
    let len = r.u64("sketch blob")? as usize;
    let offset = r.pos;
    r.take(len, "sketch blob")?;
    Ok((profile, SketchRegion { offset, len }))
}

/// Read one dataset entry, decoding its sketch blob eagerly.
fn read_dataset_entry(r: &mut ByteReader<'_>) -> Result<DatasetEntry> {
    let (profile, region) = read_entry_span(r)?;
    let sketch = region.decode(r.buf, r.ctx)?;
    Ok(DatasetEntry { sketch, profile })
}

/// Where one dataset's sketch blob lives in a snapshot payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchRegion {
    /// Byte offset of the blob in the payload.
    pub offset: usize,
    /// Blob length in bytes.
    pub len: usize,
}

impl SketchRegion {
    /// Decode the compact sketch from the snapshot payload this region
    /// was indexed from (the lazy-hydration unit).
    pub fn materialize(self, payload: &[u8]) -> Result<CompactSketch> {
        self.decode(payload, "snapshot")
    }

    fn decode(self, payload: &[u8], ctx: &'static str) -> Result<CompactSketch> {
        let blob = self
            .offset
            .checked_add(self.len)
            .and_then(|end| payload.get(self.offset..end))
            .ok_or_else(|| CoreError::Storage(format!("{ctx}: sketch span out of bounds")))?;
        let mut r = ByteReader::new(blob, ctx);
        let sketch = read_sketch_blob(&mut r)?;
        r.finish("sketch blob")?;
        Ok(sketch)
    }
}

/// One dataset's eager half in a decoded snapshot: the profile (discovery
/// hydrates immediately) plus where the sketch bytes are.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSlot {
    /// Dataset name (from the profile, so the eager pass never touches
    /// the sketch blob).
    pub name: String,
    /// The discovery profile.
    pub profile: DatasetProfile,
    /// The sketch blob's span in the payload.
    pub sketch: SketchRegion,
}

/// The eager skeleton of a decoded snapshot: profiles and the ledger
/// materialize; sketch blobs stay as spans until touched. Decoding one of
/// these is what makes time-to-first-search independent of sketch volume.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotIndex {
    /// Every dataset, snapshot order (name-sorted at write time).
    pub datasets: Vec<DatasetSlot>,
    /// The full budget ledger.
    pub ledger: Vec<LedgerEntry>,
}

impl SnapshotIndex {
    /// Decode a snapshot payload's eager skeleton; each sketch is an
    /// `(offset, len)` span into `payload`. A payload that is not a binary
    /// snapshot (the JSON snapshots written before it lead with `{`) is
    /// refused with a typed storage error.
    pub fn decode(payload: &[u8]) -> Result<SnapshotIndex> {
        if payload.first() != Some(&SNAPSHOT_V2_MARKER) {
            return Err(CoreError::Storage(format!(
                "unsupported snapshot format (leading byte {:x?})",
                payload.first()
            )));
        }
        let mut r = ByteReader::new(payload, "snapshot");
        r.u8("version marker")?;
        let n_datasets = r.u32("dataset count")?;
        let mut datasets = Vec::new();
        for _ in 0..n_datasets {
            let (profile, sketch) = read_entry_span(&mut r)?;
            datasets.push(DatasetSlot { name: profile.name.clone(), profile, sketch });
        }
        let ledger = read_ledger(&mut r)?;
        r.finish("snapshot")?;
        Ok(SnapshotIndex { datasets, ledger })
    }
}

impl PlatformSnapshotRef<'_> {
    /// Encode to the binary snapshot payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = vec![SNAPSHOT_V2_MARKER];
        put_u32(&mut out, self.datasets.len())?;
        for (sketch, profile) in &self.datasets {
            put_dataset_entry(&mut out, sketch, profile)?;
        }
        put_ledger(&mut out, self.ledger)?;
        Ok(out)
    }
}

/// A decoded delta-checkpoint payload: only what changed since the base.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaPayload {
    /// Datasets registered or replaced since the base (full entries).
    pub datasets: Vec<DatasetEntry>,
    /// Dataset names removed since the base.
    pub removed: Vec<String>,
    /// Ledger rows that changed since the base (full rows, keyed by name).
    pub ledger: Vec<LedgerEntry>,
}

impl DeltaPayload {
    /// Decode a delta payload (leading [`DELTA_MARKER`] byte). Deltas are
    /// small — everything materializes eagerly.
    pub fn decode(payload: &[u8]) -> Result<DeltaPayload> {
        let mut r = ByteReader::new(payload, "delta");
        if r.u8("delta marker")? != DELTA_MARKER {
            return Err(r.error("unsupported delta format"));
        }
        let n_datasets = r.u32("dataset count")?;
        let mut datasets = Vec::new();
        for _ in 0..n_datasets {
            datasets.push(read_dataset_entry(&mut r)?);
        }
        let removed = r.strs("removed")?;
        let ledger = read_ledger(&mut r)?;
        r.finish("delta")?;
        Ok(DeltaPayload { datasets, removed, ledger })
    }
}

/// Borrowed delta writer: serializes the changed subset straight from the
/// live store, same dataset-entry layout as the snapshot body.
pub struct DeltaPayloadRef<'a> {
    /// `(sketch, profile)` per changed dataset, name-sorted.
    pub datasets: Vec<(&'a DatasetSketch, &'a DatasetProfile)>,
    /// Names removed since the base, sorted.
    pub removed: &'a [String],
    /// Changed ledger rows, name-sorted.
    pub ledger: &'a [(String, PrivacyBudget, PrivacyBudget)],
}

impl DeltaPayloadRef<'_> {
    /// Encode to the delta payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = vec![DELTA_MARKER];
        put_u32(&mut out, self.datasets.len())?;
        for (sketch, profile) in &self.datasets {
            put_dataset_entry(&mut out, sketch, profile)?;
        }
        put_strs(&mut out, self.removed)?;
        put_ledger(&mut out, self.ledger)?;
        Ok(out)
    }
}

/// What recovery found on disk, surfaced through `stats()` so operators can
/// see whether the last shutdown was clean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Sequence covered by the snapshot recovery started from.
    pub snapshot_seq: Option<u64>,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// A torn final record was truncated away (crash mid-append).
    pub torn_tail: bool,
    /// Snapshot files skipped for failing verification.
    pub invalid_snapshots: u64,
    /// Snapshot payload bytes read at open (base plus delta chain).
    #[serde(default)]
    pub snapshot_bytes: u64,
    /// Delta-checkpoint links applied on top of the base snapshot.
    #[serde(default)]
    pub delta_links: u64,
    /// Milliseconds spent in the eager open phase (snapshot skeleton,
    /// deltas, replay, index rebuild) before the platform served traffic.
    #[serde(default)]
    pub eager_ms: u64,
    /// Milliseconds of the eager phase spent replaying WAL records.
    #[serde(default)]
    pub replay_ms: u64,
    /// Datasets left unhydrated at open (lazy sketch slots; drains via
    /// evaluation touches and the background hydrator).
    #[serde(default)]
    pub lazy_datasets: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalDataStore;
    use mileena_relation::{KeyValue, RelationBuilder};

    fn upload() -> ProviderUpload {
        let r = RelationBuilder::new("d")
            .int_col("k", &[1, 2, 3])
            .float_col("x", &[0.5, 1.5, 2.5])
            .build()
            .unwrap();
        LocalDataStore::new(r)
            .prepare_upload(Some(PrivacyBudget::new(1.0, 1e-6).unwrap()), 3)
            .unwrap()
    }

    /// A non-private upload with an extra keyed sketch whose composite keys
    /// mix both joinable key value kinds (Int / Str; NULL keys never reach
    /// an arena).
    fn mixed_key_upload() -> ProviderUpload {
        let mut u = second_upload();
        let arena = mileena_semiring::GroupedArena::from_parts(
            vec!["e.w".to_string()],
            vec![
                vec![KeyValue::Int(9), KeyValue::Int(-7)],
                vec![KeyValue::Str("ny".into()), KeyValue::Str(String::new())],
                vec![KeyValue::Int(3), KeyValue::Str("sf".into())],
            ],
            vec![1.0, 2.0, 3.0],
            vec![0.5, -1.5, 2.25],
            vec![0.25, 2.25, 5.0625],
        )
        .unwrap();
        u.sketch.keyed.push(mileena_sketch::KeyedSketch::from_arena("pair", arena));
        u
    }

    fn by_ref(op: &WalOp) -> WalOpRef<'_> {
        match op {
            WalOp::Register { upload } => WalOpRef::Register { upload },
            WalOp::Replace { upload } => WalOpRef::Replace { upload },
            WalOp::Remove { dataset } => WalOpRef::Remove { dataset },
            WalOp::Grant { dataset, budget } => WalOpRef::Grant { dataset, budget: *budget },
            WalOp::Charge { dataset, cost } => WalOpRef::Charge { dataset, cost: *cost },
        }
    }

    /// Every variant, private and non-private uploads, Int / Str keys.
    fn every_op() -> Vec<WalOp> {
        vec![
            WalOp::Register { upload: upload() },
            WalOp::Register { upload: mixed_key_upload() },
            WalOp::Replace { upload: second_upload() },
            WalOp::Replace { upload: upload() },
            WalOp::Remove { dataset: "d".into() },
            WalOp::Grant { dataset: "d".into(), budget: PrivacyBudget::new(2.0, 1e-7).unwrap() },
            WalOp::Charge { dataset: "d".into(), cost: PrivacyBudget::new(0.25, 1e-9).unwrap() },
        ]
    }

    #[test]
    fn wal_op_roundtrip() {
        for op in every_op() {
            let bytes = by_ref(&op).encode().unwrap();
            assert_eq!(bytes[0], WAL_RECORD_MARKER);
            assert_eq!(WalOp::decode(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn by_ref_and_owned_wal_records_decode_equal() {
        // The owned op's derived `Serialize` is the JSON record layout
        // journaled before the binary one: both decode to the same op.
        for op in every_op() {
            let binary = WalOp::decode(&by_ref(&op).encode().unwrap()).unwrap();
            let json = WalOp::decode(serde_json::to_string(&op).unwrap().as_bytes()).unwrap();
            assert_eq!(binary, json);
            assert_eq!(json, op);
        }
    }

    #[test]
    fn borrowed_snapshot_encoding_matches_owned() {
        let u = upload();
        let ledger = vec![(
            "d".to_string(),
            PrivacyBudget::new(1.0, 1e-6).unwrap(),
            PrivacyBudget::new(1.0, 1e-6).unwrap(),
        )];
        let by_ref =
            PlatformSnapshotRef { datasets: vec![(&u.sketch, &u.profile)], ledger: &ledger };
        let owned = PlatformSnapshot {
            datasets: vec![DatasetEntry {
                sketch: CompactSketch::of(&u.sketch),
                profile: u.profile.clone(),
            }],
            ledger: vec![LedgerEntry {
                dataset: "d".into(),
                limit: ledger[0].1,
                spent: ledger[0].2,
            }],
        };
        let bytes = by_ref.encode().unwrap();
        let decoded = PlatformSnapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, owned);
    }

    #[test]
    fn compact_sketch_roundtrips_bit_identically() {
        // Compaction (schema once + packed symmetric q) must lose nothing:
        // rehydration reproduces the exact sketch, including a privatized
        // one whose q carries correlated noise.
        let u = upload();
        let back = CompactSketch::of(&u.sketch).into_sketch().unwrap();
        assert_eq!(u.sketch, back);
    }

    #[test]
    fn a_journaled_null_key_row_is_dropped_on_replay() {
        // Writers before NULL keys were refused could journal one in this
        // same layout. Forge such a record: rewrite one key of a freshly
        // encoded record in place, at equal length.
        let u = mixed_key_upload();
        let key_bytes = |key: &[KeyValue]| {
            let mut out = Vec::new();
            put_u32(&mut out, key.len()).unwrap();
            for v in key {
                put_key_value(&mut out, v).unwrap();
            }
            out
        };
        let live = key_bytes(&[KeyValue::Int(9), KeyValue::Int(-7)]);
        let null = key_bytes(&[KeyValue::Null, KeyValue::Str("012345678901".into())]);
        assert_eq!(live.len(), null.len());
        let mut record = WalOpRef::Register { upload: &u }.encode().unwrap();
        let at = record.windows(live.len()).position(|w| w == live).unwrap();
        record[at..at + live.len()].copy_from_slice(&null);

        let WalOp::Register { upload } = WalOp::decode(&record).unwrap() else {
            panic!("a register record decodes as one");
        };
        let pair = |u: &ProviderUpload| {
            let keyed = u.sketch.keyed.iter().find(|k| k.key_column == "pair").unwrap();
            keyed.sorted_pairs()
        };
        let want: Vec<_> =
            pair(&u).into_iter().filter(|(key, _)| key[0] != KeyValue::Int(9)).collect();
        assert_eq!(want.len(), 2);
        assert_eq!(pair(&upload), want);
    }

    #[test]
    fn compact_sketch_rejects_sheared_slabs() {
        let mut compact = CompactSketch::of(&upload().sketch);
        compact.keyed[0].qu.pop();
        assert!(compact.into_sketch().is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WalOp::decode(b"{ nope").is_err());
        assert!(WalOp::decode(&[0xFF, 0xFE]).is_err());
        assert!(PlatformSnapshot::decode(b"[]").is_err());
        assert!(PlatformSnapshot::decode(&[SNAPSHOT_V2_MARKER]).is_err());
        assert!(matches!(
            PlatformSnapshot::decode(b"{}"),
            Err(CoreError::Storage(m)) if m.contains("unsupported snapshot format")
        ));
        assert!(DeltaPayload::decode(&[DELTA_MARKER, 0xFF]).is_err());
        assert!(DeltaPayload::decode(b"{}").is_err());

        // Binary WAL records: every strict prefix and one trailing byte
        // are refused with a typed storage error.
        for op in every_op() {
            let bytes = by_ref(&op).encode().unwrap();
            for len in 0..bytes.len() {
                assert!(
                    matches!(WalOp::decode(&bytes[..len]), Err(CoreError::Storage(_))),
                    "prefix of {len}/{} bytes of {op:?} decoded",
                    bytes.len()
                );
            }
            let mut padded = bytes;
            padded.push(0x00);
            assert!(matches!(WalOp::decode(&padded), Err(CoreError::Storage(_))));
        }
        let unknown_op = WalOp::decode(&[WAL_RECORD_MARKER, 0x05]);
        assert!(matches!(unknown_op, Err(CoreError::Storage(m)) if m.contains("unknown op tag")));
        // A non-private upload's record ends in its budget tag (0x00).
        let mut bytes = WalOpRef::Register { upload: &mixed_key_upload() }.encode().unwrap();
        *bytes.last_mut().unwrap() = 0x02;
        let unknown_budget = WalOp::decode(&bytes);
        assert!(
            matches!(unknown_budget, Err(CoreError::Storage(m)) if m.contains("unknown budget tag"))
        );
    }

    fn second_upload() -> ProviderUpload {
        let r = RelationBuilder::new("e")
            .int_col("k", &[2, 3, 5, 5])
            .str_col("city", &["ny", "sf", "ny", "la"])
            .float_col("y", &[4.0, -1.25, 0.0, 9.5])
            .build()
            .unwrap();
        LocalDataStore::new(r).prepare_upload(None, 4).unwrap()
    }

    fn reference_snapshot() -> (PlatformSnapshotRef<'static>, PlatformSnapshot) {
        let u = Box::leak(Box::new(upload()));
        let v = Box::leak(Box::new(second_upload()));
        let ledger = Box::leak(Box::new(vec![(
            "d".to_string(),
            PrivacyBudget::new(1.0, 1e-6).unwrap(),
            PrivacyBudget::new(0.25, 1e-7).unwrap(),
        )]));
        let by_ref = PlatformSnapshotRef {
            datasets: vec![(&u.sketch, &u.profile), (&v.sketch, &v.profile)],
            ledger,
        };
        let owned = PlatformSnapshot {
            datasets: vec![
                DatasetEntry { sketch: CompactSketch::of(&u.sketch), profile: u.profile.clone() },
                DatasetEntry { sketch: CompactSketch::of(&v.sketch), profile: v.profile.clone() },
            ],
            ledger: vec![LedgerEntry {
                dataset: "d".into(),
                limit: ledger[0].1,
                spent: ledger[0].2,
            }],
        };
        (by_ref, owned)
    }

    #[test]
    fn binary_snapshot_roundtrips_bit_identically() {
        let (by_ref, owned) = reference_snapshot();
        let bytes = by_ref.encode().unwrap();
        assert_eq!(bytes[0], SNAPSHOT_V2_MARKER);
        // Full decode is value-identical to the owned compaction of the
        // same state.
        let decoded = PlatformSnapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, owned);
        // The rehydrated sketches are bit-identical to the originals (the
        // raw-f64 slabs round-trip with zero parsing).
        for (entry, (sketch, _)) in decoded.datasets.into_iter().zip(&by_ref.datasets) {
            assert_eq!(&entry.sketch.into_sketch().unwrap(), *sketch);
        }
    }

    #[test]
    fn snapshot_index_spans_hydrate_independently() {
        let (by_ref, owned) = reference_snapshot();
        let bytes = by_ref.encode().unwrap();
        let index = SnapshotIndex::decode(&bytes).unwrap();
        assert_eq!(index.datasets.len(), 2);
        assert_eq!(index.ledger, owned.ledger);
        for (slot, entry) in index.datasets.into_iter().zip(owned.datasets) {
            assert_eq!(slot.name, entry.profile.name);
            assert_eq!(slot.profile, entry.profile);
            assert_eq!(slot.sketch.materialize(&bytes).unwrap(), entry.sketch);
        }
    }

    #[test]
    fn binary_snapshot_rejects_every_truncation() {
        let (by_ref, _) = reference_snapshot();
        let bytes = by_ref.encode().unwrap();
        for len in 0..bytes.len() {
            assert!(
                PlatformSnapshot::decode(&bytes[..len]).is_err(),
                "prefix of {len}/{} bytes decoded",
                bytes.len()
            );
        }
        // Trailing garbage is rejected too, not silently ignored.
        let mut padded = bytes;
        padded.push(0x00);
        assert!(PlatformSnapshot::decode(&padded).is_err());
    }

    #[test]
    fn delta_payload_roundtrips() {
        let u = upload();
        let removed = vec!["gone".to_string()];
        let ledger = vec![(
            "d".to_string(),
            PrivacyBudget::new(1.0, 1e-6).unwrap(),
            PrivacyBudget::new(0.5, 0.0).unwrap(),
        )];
        let bytes = DeltaPayloadRef {
            datasets: vec![(&u.sketch, &u.profile)],
            removed: &removed,
            ledger: &ledger,
        }
        .encode()
        .unwrap();
        assert_eq!(bytes[0], DELTA_MARKER);
        let decoded = DeltaPayload::decode(&bytes).unwrap();
        assert_eq!(decoded.removed, removed);
        assert_eq!(decoded.datasets.len(), 1);
        assert_eq!(decoded.datasets[0].profile, u.profile);
        assert_eq!(decoded.datasets[0].sketch.clone().into_sketch().unwrap(), u.sketch);
        assert_eq!(
            decoded.ledger,
            vec![LedgerEntry { dataset: "d".into(), limit: ledger[0].1, spent: ledger[0].2 }]
        );
        for len in 0..bytes.len() {
            assert!(DeltaPayload::decode(&bytes[..len]).is_err());
        }
    }
}
