//! Arena-backed grouped triples: the zero-realloc memory layout behind
//! keyed sketches.
//!
//! The hash-map-of-`CovarTriple` representation paid three per-key costs in
//! the search hot loop: a `Vec<String>` feature list clone per triple, three
//! small heap allocations per triple, and a `Vec<KeyValue>` hash per probe.
//! [`GroupedArena`] stores one shared feature schema plus three contiguous
//! slabs — `c` (d), `s` (d·m), `qp` (d·m(m+1)/2) — indexed by a
//! [`KeyId`], so composing two sketches is a linear merge over two sorted
//! `u64` arrays with all arithmetic on flat `f64` rows.
//!
//! The per-key product-sum matrix `Q` is symmetric, so the arena stores
//! only its **packed upper triangle** ([`packed_len`] entries per row,
//! row-major `i ≤ j` order). Every kernel — [`GroupedArena::join_stats`],
//! [`GroupedArena::compose`], [`GroupedArena::merge_add`],
//! [`GroupedArena::project_indices`] — operates on packed rows directly,
//! touching roughly half the memory and flops of the full-`m²` layout; the
//! full symmetric matrix is materialized only at the [`CovarTriple`]
//! boundary ([`GroupedArena::triple_at`], join outputs).
//!
//! A [`KeyId`] is a fixed function of the key value — the integer itself
//! for an integer key, a hash otherwise — so every arena in every process
//! agrees on ids, and rows are sorted by id: row order — the summation
//! order of every join statistic — is a function of the keys alone. Orders
//! a reader sees by key value (JSON serialization, the privacy layer's
//! noise walk, `sorted_pairs`) go through the key-sorted view.

use crate::covar::CovarTriple;
use crate::error::{Result, SemiringError};
use mileena_relation::{FxHashMap, KeyValue};
use parking_lot::RwLock;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

/// Entries in the packed upper triangle of a symmetric `m × m` matrix.
#[inline]
pub const fn packed_len(m: usize) -> usize {
    m * (m + 1) / 2
}

/// Index of entry `(i, j)` with `i ≤ j < m` in a packed upper triangle
/// (row-major: row `i` holds `(i, i..m)` contiguously).
#[inline]
pub const fn packed_idx(i: usize, j: usize, m: usize) -> usize {
    i * m - i * (i + 1) / 2 + j
}

/// Append the packed upper triangle of one full symmetric `m × m` row.
pub fn pack_upper_row(full: &[f64], m: usize, out: &mut Vec<f64>) {
    debug_assert_eq!(full.len(), m * m);
    out.reserve(packed_len(m));
    for i in 0..m {
        out.extend_from_slice(&full[i * m + i..(i + 1) * m]);
    }
}

/// Append the full symmetric `m × m` expansion of one packed row.
pub fn unpack_upper_row(packed: &[f64], m: usize, out: &mut Vec<f64>) {
    debug_assert_eq!(packed.len(), packed_len(m));
    let base = out.len();
    out.resize(base + m * m, 0.0);
    let mut idx = 0;
    for i in 0..m {
        for j in i..m {
            let v = packed[idx];
            out[base + i * m + j] = v;
            out[base + j * m + i] = v;
            idx += 1;
        }
    }
}

/// Join-key identity: a fixed function of the key value, the same in every
/// process whatever keys it saw before (DESIGN.md, "Key identity"). A
/// single `Int` key in `-2^62 .. 2^62` takes the order-preserving id
/// `i + 2^62`; every other key, SipHash-2-4 of its canonical encoding (the
/// component count, then per component a tag word — `Null` 0, `Int` 1,
/// `Str` 2 — and its payload: the value, or the byte length then the bytes
/// in zero-padded little-endian words) with the top bit set. A hashed id
/// another key holds sends the newcomer to the next free hashed id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(pub u64);

/// Tag bit of a hashed [`KeyId`]; ids below it stand for single `Int` keys.
const HASHED: u64 = 1 << 63;
/// Offset of an integer key's id: `-2^62 .. 2^62` maps onto `0 .. 2^63`.
const INT_BIAS: i64 = 1 << 62;
/// The fixed SipHash key (the ASCII of "mileena:" and "join key").
const SIP_KEY: (u64, u64) = (0x3a61_6e65_656c_696d, 0x7965_6b20_6e69_6f6a);

impl KeyId {
    /// The id a key takes unless another key already holds it.
    fn home(key: &[KeyValue]) -> KeyId {
        if let [KeyValue::Int(i)] = key {
            if (-INT_BIAS..INT_BIAS).contains(i) {
                return KeyId((i + INT_BIAS) as u64);
            }
        }
        let mut h = SipHash24::new(SIP_KEY);
        h.word(key.len() as u64);
        for v in key {
            match v {
                KeyValue::Null => h.word(0),
                KeyValue::Int(i) => {
                    h.word(1);
                    h.word(*i as u64);
                }
                KeyValue::Str(s) => {
                    h.word(2);
                    h.word(s.len() as u64);
                    for chunk in s.as_bytes().chunks(8) {
                        let mut word = [0u8; 8];
                        word[..chunk.len()].copy_from_slice(chunk);
                        h.word(u64::from_le_bytes(word));
                    }
                }
            }
        }
        KeyId(h.finish() | HASHED)
    }

    /// The hashed id tried after this one (wraps within the hashed half).
    fn next_probe(self) -> KeyId {
        KeyId(self.0.wrapping_add(1) | HASHED)
    }
}

/// SipHash-2-4 over a message of whole little-endian 64-bit words: the
/// state `v0..v3` and the words absorbed so far.
struct SipHash24([u64; 4], u64);

impl SipHash24 {
    fn new((k0, k1): (u64, u64)) -> Self {
        let v = [0x736f_6d65_7073_6575, 0x646f_7261_6e64_6f6d, 0x6c79_6765_6e65_7261];
        SipHash24([k0 ^ v[0], k1 ^ v[1], k0 ^ v[2], k1 ^ 0x7465_6462_7974_6573], 0)
    }

    fn rounds(&mut self, n: usize) {
        let v = &mut self.0;
        for _ in 0..n {
            v[0] = v[0].wrapping_add(v[1]);
            v[1] = v[1].rotate_left(13) ^ v[0];
            v[0] = v[0].rotate_left(32);
            v[2] = v[2].wrapping_add(v[3]);
            v[3] = v[3].rotate_left(16) ^ v[2];
            v[0] = v[0].wrapping_add(v[3]);
            v[3] = v[3].rotate_left(21) ^ v[0];
            v[2] = v[2].wrapping_add(v[1]);
            v[1] = v[1].rotate_left(17) ^ v[2];
            v[2] = v[2].rotate_left(32);
        }
    }

    fn word(&mut self, m: u64) {
        self.0[3] ^= m;
        self.rounds(2);
        self.0[0] ^= m;
        self.1 += 1;
    }

    fn finish(mut self) -> u64 {
        // The closing block holds only the message length in bytes, mod 256.
        self.word(self.1.wrapping_mul(8) << 56);
        self.0[2] ^= 0xff;
        self.rounds(4);
        self.0.iter().fold(0, |h, v| h ^ v)
    }
}

/// Hashed ids back to their keys (an integer id resolves by arithmetic):
/// how ids resolve to values (serialization, the key-ordered noise walk,
/// [`GroupedArena::find`]) and how a key whose home id another key holds
/// finds its own. Entries are never removed, so a probe run ends at the
/// first vacant id.
#[derive(Debug, Default)]
struct KeyTable(FxHashMap<KeyId, Box<[KeyValue]>>);

impl KeyTable {
    /// `Ok(id)` when `key` holds `id`; `Err(id)` with the vacant id it
    /// would be entered under.
    fn lookup(&self, key: &[KeyValue]) -> std::result::Result<KeyId, KeyId> {
        let mut id = KeyId::home(key);
        while id.0 & HASHED != 0 {
            match self.0.get(&id) {
                None => return Err(id),
                Some(held) if **held == *key => break,
                Some(_) => id = id.next_probe(),
            }
        }
        Ok(id)
    }

    /// The id of `key`, entering it if it is new.
    fn enter(&mut self, key: Vec<KeyValue>) -> KeyId {
        self.lookup(&key).unwrap_or_else(|id| {
            self.0.insert(id, key.into_boxed_slice());
            id
        })
    }

    /// The key `id` stands for.
    fn resolve(&self, id: KeyId) -> Vec<KeyValue> {
        if id.0 & HASHED == 0 {
            vec![KeyValue::Int(id.0 as i64 - INT_BIAS)]
        } else {
            self.0[&id].to_vec()
        }
    }
}

fn key_table() -> &'static RwLock<KeyTable> {
    static TABLE: OnceLock<RwLock<KeyTable>> = OnceLock::new();
    TABLE.get_or_init(Default::default)
}

/// Ids of `keys`: under a read lock when every key is known, else under
/// one write lock that enters the new ones. A key with a NULL component is
/// refused — NULL keys never join (SQL semantics).
fn intern_keys(keys: Vec<Vec<KeyValue>>) -> Result<Vec<KeyId>> {
    if let Some(key) = keys.iter().find(|key| key.contains(&KeyValue::Null)) {
        return Err(SemiringError::NullKey(format!("{key:?}")));
    }
    let known: Option<Vec<KeyId>> = {
        let table = key_table().read();
        keys.iter().map(|key| table.lookup(key).ok()).collect()
    };
    Ok(known.unwrap_or_else(|| {
        let mut table = key_table().write();
        keys.into_iter().map(|key| table.enter(key)).collect()
    }))
}

/// Per-key covariance triples in arena layout: row `r` holds the triple of
/// `key_ids[r]` as `c[r]`, `s[r·m .. r·m+m]`, and the packed upper triangle
/// `qp[r·p .. r·p+p]` with `p = m(m+1)/2` ([`packed_len`]).
///
/// Rows are sorted by [`KeyId`] so sketch composition is a sorted merge.
#[derive(Debug, Clone)]
pub struct GroupedArena {
    /// Shared feature schema (one copy per sketch, not per key).
    schema: Arc<[String]>,
    /// Sorted key ids, one per row.
    key_ids: Vec<KeyId>,
    /// Row counts, length `d`.
    c: Vec<f64>,
    /// Feature sums, length `d·m`.
    s: Vec<f64>,
    /// Packed upper triangles of the symmetric per-key product sums,
    /// length `d·m(m+1)/2`, row-major `i ≤ j` per row.
    qp: Vec<f64>,
    /// `[Σ_r s[r] | Σ_r qp[r]]` summed over the rows in row order, filled
    /// on first use by [`GroupedArena::join_stats_into`] and dropped by
    /// every method that changes rows or their order (see
    /// [`GroupedArena::row_sums`]).
    row_sums: OnceLock<Vec<f64>>,
}

thread_local! {
    /// Join accumulators reused across every `join_stats` call on a thread:
    /// a rayon worker evaluating a whole greedy round allocates them once.
    static JOIN_SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
    /// The join kernel's `c_b·Q_a` and `s_a s_bᵀ` block accumulators, laid
    /// into the caller's packed triangle once per call.
    static BLOCK_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// `acc += a · x`, element-wise over equal-length slices.
#[inline]
fn axpy(acc: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(acc.len(), x.len());
    for (d, v) in acc.iter_mut().zip(x) {
        *d += a * v;
    }
}

/// `acc += x`, element-wise over equal-length slices.
#[inline]
fn add_assign(acc: &mut [f64], x: &[f64]) {
    debug_assert_eq!(acc.len(), x.len());
    for (d, v) in acc.iter_mut().zip(x) {
        *d += v;
    }
}

impl GroupedArena {
    /// Empty arena over a feature schema.
    pub fn new(schema: Arc<[String]>) -> Self {
        GroupedArena {
            schema,
            key_ids: Vec::new(),
            c: Vec::new(),
            s: Vec::new(),
            qp: Vec::new(),
            row_sums: OnceLock::new(),
        }
    }

    /// Build from `(key, triple)` pairs. Every triple must carry exactly
    /// `features` (aligned if the order differs). Keys must be distinct and
    /// free of NULL components.
    pub fn from_groups<I>(features: &[String], groups: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Vec<KeyValue>, CovarTriple)>,
    {
        let m = features.len();
        let mut arena = GroupedArena::new(features.into());
        let mut keys = Vec::new();
        let frefs: Vec<&str> = features.iter().map(|s| s.as_str()).collect();
        for (key, triple) in groups {
            let triple = if triple.features == features { triple } else { triple.align(&frefs)? };
            // Hard-validate slab widths: a malformed triple (e.g. from a
            // hostile wire payload) would otherwise shear every later row.
            // The symmetric q canonicalizes to its upper triangle here.
            if triple.s.len() != m || triple.q.len() != m * m {
                return Err(SemiringError::InvalidArgument(format!(
                    "triple dims {}x{} do not match {m} features",
                    triple.s.len(),
                    triple.q.len(),
                )));
            }
            keys.push(key);
            arena.c.push(triple.c);
            arena.s.extend_from_slice(&triple.s);
            pack_upper_row(&triple.q, m, &mut arena.qp);
        }
        arena.key_rows(keys)
    }

    /// Build directly from parallel row slabs — the snapshot-rehydration
    /// path, which skips the per-key hash map and alignment work of
    /// [`GroupedArena::from_groups`]. `keys` may arrive in any order (rows
    /// are re-sorted by id); `c`/`s` are row-major per key and
    /// `qp` carries the **packed** upper triangles ([`packed_len`] entries
    /// per key) — the same layout snapshots persist, so rehydration is a
    /// by-reference identity over the slab.
    pub fn from_parts(
        features: Vec<String>,
        keys: Vec<Vec<KeyValue>>,
        c: Vec<f64>,
        s: Vec<f64>,
        qp: Vec<f64>,
    ) -> Result<Self> {
        let d = keys.len();
        let m = features.len();
        if c.len() != d || s.len() != d * m || qp.len() != d * packed_len(m) {
            return Err(SemiringError::InvalidArgument(format!(
                "slab dims (c={}, s={}, qp={}) do not match {d} keys x {m} features \
                 (packed q is {} per key)",
                c.len(),
                s.len(),
                qp.len(),
                packed_len(m),
            )));
        }
        let arena = GroupedArena {
            schema: features.into(),
            key_ids: Vec::new(),
            c,
            s,
            qp,
            row_sums: OnceLock::new(),
        };
        arena.key_rows(keys)
    }

    /// Give the filled slabs their keys (one per row, in slab order) and
    /// sort the rows by id. Refuses NULL and repeated keys: a repeated key
    /// would shear every lookup.
    fn key_rows(mut self, keys: Vec<Vec<KeyValue>>) -> Result<Self> {
        self.key_ids = intern_keys(keys)?;
        self.sort_rows();
        if let Some(w) = self.key_ids.windows(2).find(|w| w[0] == w[1]) {
            let key = key_table().read().resolve(w[0]);
            return Err(SemiringError::DuplicateKey(format!("{key:?}")));
        }
        Ok(self)
    }

    /// Number of keys `d`.
    pub fn num_keys(&self) -> usize {
        self.key_ids.len()
    }

    /// Number of features `m`.
    pub fn num_features(&self) -> usize {
        self.schema.len()
    }

    /// The shared feature schema.
    pub fn schema(&self) -> &[String] {
        &self.schema
    }

    /// The shared schema handle (cheap to clone onto derived arenas).
    pub fn schema_arc(&self) -> &Arc<[String]> {
        &self.schema
    }

    /// Sorted key ids, one per row.
    pub fn key_ids(&self) -> &[KeyId] {
        &self.key_ids
    }

    /// Row view: `(c, s, qp)` slices for row `r`. The third slice is the
    /// **packed** upper triangle of the row's symmetric `Q`
    /// ([`packed_len`]`(m)` entries, row-major `i ≤ j`).
    #[inline]
    pub fn row(&self, r: usize) -> (f64, &[f64], &[f64]) {
        let m = self.schema.len();
        let p = packed_len(m);
        (self.c[r], &self.s[r * m..(r + 1) * m], &self.qp[r * p..(r + 1) * p])
    }

    /// Materialize row `r` as a standalone triple (full symmetric `q`).
    pub fn triple_at(&self, r: usize) -> CovarTriple {
        let m = self.schema.len();
        let (c, s, qp) = self.row(r);
        let mut q = Vec::new();
        unpack_upper_row(qp, m, &mut q);
        CovarTriple { features: self.schema.to_vec(), c, s: s.to_vec(), q }
    }

    /// Resolve row `r`'s key.
    pub fn key_at(&self, r: usize) -> Vec<KeyValue> {
        key_table().read().resolve(self.key_ids[r])
    }

    /// Every row's key, in row order, resolved under one table read lock.
    pub fn keys(&self) -> Vec<Vec<KeyValue>> {
        let table = key_table().read();
        self.key_ids.iter().map(|&id| table.resolve(id)).collect()
    }

    /// Row index of a key, if present.
    pub fn find(&self, key: &[KeyValue]) -> Option<usize> {
        let id = key_table().read().lookup(key).ok()?;
        self.key_ids.binary_search(&id).ok()
    }

    /// `(row, key)` pairs in key-value order (the order a reader sees).
    pub fn sorted_keys(&self) -> Vec<(usize, Vec<KeyValue>)> {
        let mut pairs: Vec<(usize, Vec<KeyValue>)> = self.keys().into_iter().enumerate().collect();
        pairs.sort_by(|a, b| a.1.cmp(&b.1));
        pairs
    }

    /// Row indices in key-sorted order.
    pub fn sorted_row_order(&self) -> Vec<usize> {
        self.sorted_keys().into_iter().map(|(r, _)| r).collect()
    }

    /// In-place edit of every row, visited in key-value order so that a
    /// stateful editor (the privacy layer's noise walk) gives each key the
    /// same draw in every process. Zero allocation per row. The `q` slice is
    /// the packed upper triangle — exactly one entry per *unordered*
    /// feature pair, in `i ≤ j` row-major order (the order the privacy
    /// layer's seeded noise walk draws in).
    pub fn for_each_row_mut(&mut self, mut f: impl FnMut(&mut f64, &mut [f64], &mut [f64])) {
        self.row_sums.take();
        let m = self.schema.len();
        let p = packed_len(m);
        for r in self.sorted_row_order() {
            let c = &mut self.c[r];
            let s = &mut self.s[r * m..(r + 1) * m];
            let q = &mut self.qp[r * p..(r + 1) * p];
            f(c, s, q);
        }
    }

    /// Keep only the named features, in the given order. One pass, one
    /// allocation for the whole arena (the old layout re-allocated and
    /// re-cloned feature names per key).
    pub fn project(&self, keep: &[&str]) -> Result<GroupedArena> {
        let idx: Vec<usize> = keep
            .iter()
            .map(|k| {
                self.schema
                    .iter()
                    .position(|f| f == k)
                    .ok_or_else(|| SemiringError::FeatureNotFound(k.to_string()))
            })
            .collect::<Result<_>>()?;
        let schema: Arc<[String]> = keep.iter().map(|s| s.to_string()).collect();
        Ok(self.project_indices(schema, &idx))
    }

    /// Projection onto pre-resolved source indices with an explicit new
    /// schema (callers that rename-then-project resolve indices themselves).
    /// Packed-to-packed: entry `(ni, nj)` of the projected triangle reads
    /// source entry `(min(oi,oj), max(oi,oj))` — the canonical upper-triangle
    /// home of the symmetric value.
    pub fn project_indices(&self, schema: Arc<[String]>, idx: &[usize]) -> GroupedArena {
        let m0 = self.schema.len();
        let p0 = packed_len(m0);
        let m = idx.len();
        let p = packed_len(m);
        let d = self.num_keys();
        let mut s = vec![0.0; d * m];
        let mut qp = vec![0.0; d * p];
        for r in 0..d {
            let (src_s, src_q) = (&self.s[r * m0..], &self.qp[r * p0..(r + 1) * p0]);
            let (dst_s, dst_q) = (&mut s[r * m..], &mut qp[r * p..(r + 1) * p]);
            for (ni, &oi) in idx.iter().enumerate() {
                dst_s[ni] = src_s[oi];
                for (nj, &oj) in idx.iter().enumerate().skip(ni) {
                    let (lo, hi) = if oi <= oj { (oi, oj) } else { (oj, oi) };
                    dst_q[packed_idx(ni, nj, m)] = src_q[packed_idx(lo, hi, m0)];
                }
            }
        }
        GroupedArena {
            schema,
            key_ids: self.key_ids.clone(),
            c: self.c.clone(),
            s,
            qp,
            row_sums: OnceLock::new(),
        }
    }

    /// Rename the schema (slabs untouched — renaming is now O(m), not O(d·m)).
    pub fn renamed(&self, f: impl Fn(&str) -> String) -> GroupedArena {
        let mut out = self.clone();
        out.schema = self.schema.iter().map(|n| f(n)).collect();
        out
    }

    /// Features shared with another arena (semi-ring product requires none).
    pub fn shared_features(&self, other: &GroupedArena) -> Vec<String> {
        self.schema.iter().filter(|f| other.schema.contains(f)).cloned().collect()
    }

    /// `[Σ_r s[r] | Σ_r qp[r]]` over this arena's rows in row order,
    /// computed on first use. It is the `c_b·s_a` / `c_b·Q_a` share of a
    /// join whose other side holds every one of this arena's keys with
    /// count 1 (`+= 1.0·v` and `+= v` are the same operation), so every such
    /// join reads it here in place of re-summing the rows. Owned by the
    /// arena: every `&mut self` method that touches rows drops it.
    fn row_sums(&self) -> &[f64] {
        self.row_sums.get_or_init(|| {
            let m = self.num_features();
            let mut sums = vec![0.0; m + packed_len(m)];
            let (s_sum, q_sum) = sums.split_at_mut(m);
            self.add_rows(self.num_keys(), s_sum, q_sum);
            sums
        })
    }

    /// `s_sum += s[r]`, `q_sum += qp[r]` for rows `0..upto`, in row order.
    fn add_rows(&self, upto: usize, s_sum: &mut [f64], q_sum: &mut [f64]) {
        for r in 0..upto {
            let (_, s, qp) = self.row(r);
            add_assign(s_sum, s);
            add_assign(q_sum, qp);
        }
    }

    /// The join kernel: `Σ_k a[k] × b[k]` over matching keys, accumulated
    /// into caller-provided flat buffers (`s_acc` of `ma+mb`, `q_acc` the
    /// packed triangle of `ma+mb`) — a sorted merge over two id arrays with
    /// no hashing and **no allocation at all** once the buffers are warm.
    /// Returns `(c, matched)`.
    ///
    /// The three blocks `[c_b·Q_a | s_a s_bᵀ | c_a·Q_b]` accumulate in
    /// separate contiguous buffers (slice-on-slice loops the compiler can
    /// vectorise; the cross block is kept one column per `other` feature so
    /// its inner loop runs over `self`'s features, the side that grows as a
    /// search commits joins) and are laid into the packed triangle once at
    /// the end.
    /// While every key of `self` so far has matched at `c_b = 1` the
    /// `self`-only block is not accumulated at all: if that still holds
    /// when `self`'s keys run out it is [`GroupedArena::row_sums`], and if
    /// it breaks at row `i` the skipped rows `0..i` are summed in then and
    /// the walk carries on accumulating. Either way every output entry is
    /// the same sum of the same products in the same key order.
    pub fn join_stats_into(
        &self,
        other: &GroupedArena,
        s_acc: &mut Vec<f64>,
        q_acc: &mut Vec<f64>,
    ) -> (f64, usize) {
        let ma = self.num_features();
        let mb = other.num_features();
        let m = ma + mb;
        let pa = packed_len(ma);
        s_acc.clear();
        s_acc.resize(m, 0.0);
        q_acc.clear();
        q_acc.resize(packed_len(m), 0.0);
        let (s_a, s_b) = s_acc.split_at_mut(ma);
        // The packed triangle's rows `ma..m` are exactly the packed b-block.
        let (q_head, q_b) = q_acc.split_at_mut(pa + ma * mb);

        BLOCK_SCRATCH.with(|cell| {
            let blocks = &mut *cell.borrow_mut();
            blocks.clear();
            blocks.resize(pa + ma * mb, 0.0);
            // `cross[y·ma + x]` accumulates `s_b[y]·s_a[x]`.
            let (q_a, cross) = blocks.split_at_mut(pa);
            let mut c_acc = 0.0f64;
            let mut matched = 0usize;
            // True while rows `0..i` of `self` all matched at `c_b = 1` and
            // their share of `s_a` / `q_a` has not been accumulated.
            let mut covered = true;

            let (mut i, mut j) = (0usize, 0usize);
            while i < self.key_ids.len() && j < other.key_ids.len() {
                match self.key_ids[i].cmp(&other.key_ids[j]) {
                    std::cmp::Ordering::Less => {
                        if covered {
                            self.add_rows(i, s_a, q_a);
                            covered = false;
                        }
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let (ca, sa, qa) = self.row(i);
                        let (cb, sb, qb) = other.row(j);
                        if covered && cb != 1.0 {
                            self.add_rows(i, s_a, q_a);
                            covered = false;
                        }
                        matched += 1;
                        c_acc += ca * cb;
                        if !covered {
                            axpy(s_a, cb, sa);
                            axpy(q_a, cb, qa);
                        }
                        axpy(s_b, ca, sb);
                        for (y, &sby) in sb.iter().enumerate() {
                            axpy(&mut cross[y * ma..(y + 1) * ma], sby, sa);
                        }
                        axpy(q_b, ca, qb);
                        i += 1;
                        j += 1;
                    }
                }
            }
            let q_a: &[f64] = if !covered {
                q_a
            } else if i < self.key_ids.len() {
                // `other` ran out first: only rows `0..i` matched.
                self.add_rows(i, s_a, q_a);
                q_a
            } else {
                let (s_sum, q_sum) = self.row_sums().split_at(ma);
                s_a.copy_from_slice(s_sum);
                q_sum
            };

            // Lay `[q_a | cross]` into the triangle: row `x < ma` is its
            // `ma − x` a-block entries, then its `mb` cross entries.
            let (mut dst, mut a_rows) = (q_head, q_a);
            for x in 0..ma {
                let (a_row, a_rest) = a_rows.split_at(ma - x);
                let (d_row, d_rest) = dst.split_at_mut(ma - x + mb);
                d_row[..ma - x].copy_from_slice(a_row);
                for (y, d) in d_row[ma - x..].iter_mut().enumerate() {
                    *d = cross[y * ma + x];
                }
                (dst, a_rows) = (d_rest, a_rest);
            }
            // The walks must consume exactly the whole triangle head and
            // the whole packed a-block: a length drift would otherwise
            // silently truncate the accumulation.
            debug_assert!(dst.is_empty() && a_rows.is_empty());
            (c_acc, matched)
        })
    }

    /// [`GroupedArena::join_stats_into`] with owned, full-matrix output:
    /// returns `(c, s, q, matched)` over the concatenated feature space,
    /// with `q` unpacked to the full symmetric `m²`. Accumulation runs on
    /// thread-local scratch, so a rayon worker scoring a whole round
    /// allocates only the outputs.
    pub fn join_stats(&self, other: &GroupedArena) -> (f64, Vec<f64>, Vec<f64>, usize) {
        let m = self.num_features() + other.num_features();
        JOIN_SCRATCH.with(|cell| {
            let (s_acc, q_acc) = &mut *cell.borrow_mut();
            let (c, matched) = self.join_stats_into(other, s_acc, q_acc);
            let mut q_full = Vec::new();
            unpack_upper_row(q_acc, m, &mut q_full);
            (c, s_acc.clone(), q_full, matched)
        })
    }

    /// Per-key semi-ring product over the key intersection, producing the
    /// composed arena over the concatenated feature space (the multi-join
    /// threading step). Feature disjointness is the caller's contract.
    pub fn compose(&self, other: &GroupedArena) -> GroupedArena {
        let ma = self.num_features();
        let schema: Arc<[String]> =
            self.schema.iter().chain(other.schema.iter()).cloned().collect();
        let mut out = GroupedArena::new(schema);

        let (mut i, mut j) = (0usize, 0usize);
        while i < self.key_ids.len() && j < other.key_ids.len() {
            match self.key_ids[i].cmp(&other.key_ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let (ca, sa, qa) = self.row(i);
                    let (cb, sb, qb) = other.row(j);
                    out.key_ids.push(self.key_ids[i]);
                    out.c.push(ca * cb);
                    out.s.extend(sa.iter().map(|v| cb * v));
                    out.s.extend(sb.iter().map(|v| ca * v));
                    // Packed product triangle, emitted strictly in order:
                    // per row x < ma the a-block tail then the cross block,
                    // then the whole scaled b-block (see `join_stats_into`).
                    let base = out.qp.len();
                    let mut aq = qa.iter();
                    for (x, &sax) in sa.iter().enumerate() {
                        for _ in x..ma {
                            if let Some(v) = aq.next() {
                                out.qp.push(cb * v);
                            }
                        }
                        for v in sb {
                            out.qp.push(sax * v);
                        }
                    }
                    for v in qb {
                        out.qp.push(ca * v);
                    }
                    debug_assert!(aq.next().is_none());
                    debug_assert_eq!(out.qp.len() - base, packed_len(ma + sb.len()));
                    i += 1;
                    j += 1;
                }
            }
        }
        out // rows inherit self's sorted order over the intersection
    }

    /// Fold `other`'s rows into `self` (union semantics: add triples on
    /// matching keys, append new keys). Schemas must match exactly.
    pub fn merge_add(&mut self, other: &GroupedArena) -> Result<()> {
        if self.schema != other.schema {
            return Err(SemiringError::FeatureMismatch {
                left: self.schema.to_vec(),
                right: other.schema.to_vec(),
            });
        }
        self.row_sums.take();
        let m = self.num_features();
        let p = packed_len(m);
        // Appended rows sit unsorted past `d` until the final sort; only
        // the sorted prefix is searched (`other`'s keys are distinct).
        let d = self.num_keys();
        for j in 0..other.num_keys() {
            let id = other.key_ids[j];
            let (cb, sb, qb) = other.row(j);
            match self.key_ids[..d].binary_search(&id) {
                Ok(r) => {
                    self.c[r] += cb;
                    add_assign(&mut self.s[r * m..(r + 1) * m], sb);
                    add_assign(&mut self.qp[r * p..(r + 1) * p], qb);
                }
                Err(_) => {
                    self.key_ids.push(id);
                    self.c.push(cb);
                    self.s.extend_from_slice(sb);
                    self.qp.extend_from_slice(qb);
                }
            }
        }
        if self.num_keys() > d {
            self.sort_rows();
        }
        Ok(())
    }

    /// Sum of all rows (`γ` over all groups).
    pub fn total(&self) -> CovarTriple {
        let m = self.num_features();
        let mut acc =
            CovarTriple::zero(&self.schema.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        for r in 0..self.num_keys() {
            let (c, s, qp) = self.row(r);
            acc.c += c;
            for (a, b) in acc.s.iter_mut().zip(s) {
                *a += b;
            }
            let mut idx = 0;
            for i in 0..m {
                for j in i..m {
                    let v = qp[idx];
                    acc.q[i * m + j] += v;
                    if i != j {
                        acc.q[j * m + i] += v;
                    }
                    idx += 1;
                }
            }
        }
        debug_assert_eq!(acc.s.len(), m);
        acc
    }

    /// `(key, triple)` pairs in key-sorted order (wire format, tests).
    pub fn sorted_pairs(&self) -> Vec<(Vec<KeyValue>, CovarTriple)> {
        self.sorted_keys().into_iter().map(|(r, key)| (key, self.triple_at(r))).collect()
    }

    fn sort_rows(&mut self) {
        self.row_sums.take();
        let d = self.num_keys();
        let m = self.schema.len();
        let p = packed_len(m);
        let mut order: Vec<usize> = (0..d).collect();
        order.sort_by_key(|&r| self.key_ids[r]);
        if order.iter().enumerate().all(|(i, &r)| i == r) {
            return;
        }
        let key_ids = order.iter().map(|&r| self.key_ids[r]).collect();
        let c = order.iter().map(|&r| self.c[r]).collect();
        let mut s = Vec::with_capacity(d * m);
        let mut qp = Vec::with_capacity(d * p);
        for &r in &order {
            s.extend_from_slice(&self.s[r * m..(r + 1) * m]);
            qp.extend_from_slice(&self.qp[r * p..(r + 1) * p]);
        }
        self.key_ids = key_ids;
        self.c = c;
        self.s = s;
        self.qp = qp;
    }
}

impl PartialEq for GroupedArena {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.key_ids == other.key_ids
            && self.c == other.c
            && self.s == other.s
            && self.qp == other.qp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn k(v: i64) -> Vec<KeyValue> {
        vec![KeyValue::Int(v)]
    }

    /// The join kernel as it was before the block-structured rewrite — one
    /// interleaved forward walk over the output triangle per matched key,
    /// no shared block. The reference [`GroupedArena::join_stats_into`]
    /// must equal bit for bit.
    fn join_stats_into_interleaved(
        a: &GroupedArena,
        b: &GroupedArena,
        s_acc: &mut Vec<f64>,
        q_acc: &mut Vec<f64>,
    ) -> (f64, usize) {
        let ma = a.num_features();
        let mb = b.num_features();
        s_acc.clear();
        s_acc.resize(ma + mb, 0.0);
        q_acc.clear();
        q_acc.resize(packed_len(ma + mb), 0.0);
        let mut c_acc = 0.0f64;
        let mut matched = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.key_ids.len() && j < b.key_ids.len() {
            match a.key_ids[i].cmp(&b.key_ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let (ca, sa, qa) = a.row(i);
                    let (cb, sb, qb) = b.row(j);
                    matched += 1;
                    c_acc += ca * cb;
                    for x in 0..ma {
                        s_acc[x] += cb * sa[x];
                    }
                    for y in 0..mb {
                        s_acc[ma + y] += ca * sb[y];
                    }
                    let mut dq = q_acc.iter_mut();
                    let mut aq = qa.iter();
                    for (x, &sax) in sa.iter().enumerate() {
                        for _ in x..ma {
                            if let (Some(d), Some(v)) = (dq.next(), aq.next()) {
                                *d += cb * v;
                            }
                        }
                        for v in sb {
                            if let Some(d) = dq.next() {
                                *d += sax * v;
                            }
                        }
                    }
                    for v in qb {
                        if let Some(d) = dq.next() {
                            *d += ca * v;
                        }
                    }
                    assert!(dq.next().is_none() && aq.next().is_none());
                    i += 1;
                    j += 1;
                }
            }
        }
        (c_acc, matched)
    }

    /// Both kernels' outputs as comparable bit patterns.
    fn join_bits(
        kernel: impl Fn(&GroupedArena, &GroupedArena, &mut Vec<f64>, &mut Vec<f64>) -> (f64, usize),
        a: &GroupedArena,
        b: &GroupedArena,
    ) -> (u64, usize, Vec<u64>, Vec<u64>) {
        let (mut s, mut q) = (vec![f64::NAN; 3], vec![f64::NAN; 50]); // stale scratch
        let (c, matched) = kernel(a, b, &mut s, &mut q);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (c.to_bits(), matched, bits(&s), bits(&q))
    }

    fn assert_kernels_agree(a: &GroupedArena, b: &GroupedArena, what: &str) {
        let want = join_bits(join_stats_into_interleaved, a, b);
        // Twice: the second call finds `row_sums` already filled.
        for pass in 0..2 {
            let got = join_bits(GroupedArena::join_stats_into, a, b);
            assert_eq!(got, want, "{what}, pass {pass}");
        }
    }

    /// splitmix64: the property test draws whole arenas from one seed.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A value whose sums and products round (53 random mantissa bits).
        fn value(&mut self) -> f64 {
            ((self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 64.0
        }
    }

    /// How the second arena's counts are drawn.
    #[derive(Clone, Copy, Debug)]
    enum Counts {
        /// Every count is 1 (the shared-block path when keys also cover).
        Unit,
        /// Every count is a random non-unit value (the general path).
        Random,
        /// All 1 but one row (the block is abandoned mid-walk).
        OneOff,
    }

    fn drawn_arena(
        draw: &mut Draw,
        prefix: &str,
        m: usize,
        keys: &[i64],
        counts: Counts,
    ) -> GroupedArena {
        let d = keys.len();
        let features = (0..m).map(|i| format!("{prefix}{i}")).collect();
        let odd = draw.below(d.max(1) as u64) as usize;
        let c = (0..d)
            .map(|r| match counts {
                Counts::Unit => 1.0,
                Counts::Random => 2.0 + draw.below(5) as f64 + draw.value().abs() / 64.0,
                Counts::OneOff => {
                    if r == odd {
                        3.0
                    } else {
                        1.0
                    }
                }
            })
            .collect();
        let s = (0..d * m).map(|_| draw.value()).collect();
        let qp = (0..d * packed_len(m)).map(|_| draw.value()).collect();
        let keys = keys.iter().map(|&v| k(v)).collect();
        GroupedArena::from_parts(features, keys, c, s, qp).unwrap()
    }

    proptest! {
        #[test]
        fn block_kernel_matches_interleaved_reference_bit_for_bit(
            seed in any::<u64>(),
            dims in (1usize..=6, 1usize..=6),
            shape in (0u8..7, 0u8..3),
        ) {
            let mut draw = Draw(seed);
            let (ma, mb) = dims;
            let (overlap, counts) = shape;
            let d = 1 + draw.below(12) as i64;
            let base = draw.below(1000) as i64 * 100;
            let a_keys: Vec<i64> = (0..d).map(|i| base + 2 * i).collect();
            let (a_keys, b_keys): (Vec<i64>, Vec<i64>) = match overlap {
                // b holds exactly a's keys
                0 => (a_keys.clone(), a_keys),
                // b covers a and has more, below, between and above
                1 => (a_keys.clone(), (-1..=2 * d).map(|i| base + i).collect()),
                // partial: b misses some of a's keys and adds its own
                2 => (a_keys.clone(), (0..=d).map(|i| base + 3 * i).collect()),
                // disjoint
                3 => (a_keys.clone(), a_keys.iter().map(|v| v + 1).collect()),
                // b is a strict prefix of a (b runs out first)
                4 => (a_keys.clone(), a_keys[..(d as usize) / 2].to_vec()),
                // a is empty
                5 => (Vec::new(), a_keys),
                // b is empty
                _ => (a_keys, Vec::new()),
            };
            let counts = [Counts::Unit, Counts::Random, Counts::OneOff][counts as usize];
            let b = drawn_arena(&mut draw, "b", mb, &b_keys, counts);
            let a = drawn_arena(&mut draw, "a", ma, &a_keys, Counts::Random);
            let what = format!("ma={ma} mb={mb} overlap={overlap} {counts:?}");
            assert_kernels_agree(&a, &b, &what);
            // The owned-output wrapper reads the same accumulators.
            let (c, s, q, matched) = a.join_stats(&b);
            let (mut s2, mut q2) = (Vec::new(), Vec::new());
            let (c2, matched2) = join_stats_into_interleaved(&a, &b, &mut s2, &mut q2);
            let mut q2_full = Vec::new();
            unpack_upper_row(&q2, ma + mb, &mut q2_full);
            prop_assert_eq!((c.to_bits(), matched), (c2.to_bits(), matched2));
            prop_assert_eq!(s, s2);
            prop_assert_eq!(q, q2_full);
        }
    }

    #[test]
    fn row_sums_are_dropped_by_every_row_mutation() {
        let mut draw = Draw(7);
        let keys: Vec<i64> = (0..9).collect();
        let mut a = drawn_arena(&mut draw, "a", 3, &keys, Counts::Random);
        let b = drawn_arena(&mut draw, "b", 2, &keys, Counts::Unit);
        assert_kernels_agree(&a, &b, "fresh");
        assert!(a.row_sums.get().is_some(), "unit full coverage takes the shared block");

        // merge_add on existing keys changes row values in place …
        let more = drawn_arena(&mut draw, "a", 3, &keys[2..5], Counts::Random);
        a.merge_add(&more).unwrap();
        assert!(a.row_sums.get().is_none());
        assert_kernels_agree(&a, &b, "after in-place merge_add");
        // … and on new keys appends rows (b no longer covers a).
        let extra = drawn_arena(&mut draw, "a", 3, &[40, 41], Counts::Random);
        a.merge_add(&extra).unwrap();
        assert_kernels_agree(&a, &b, "after appending merge_add");

        let mut a = drawn_arena(&mut draw, "a", 3, &keys, Counts::Random);
        assert_kernels_agree(&a, &b, "fresh again");
        a.for_each_row_mut(|c, s, q| {
            *c += 1.0;
            s[0] *= 0.5;
            q[1] -= 3.0;
        });
        assert!(a.row_sums.get().is_none());
        assert_kernels_agree(&a, &b, "after for_each_row_mut");

        // Renaming keeps the rows, so it may keep the sums.
        assert_kernels_agree(&a.renamed(|n| format!("r.{n}")), &b, "after renamed");
    }

    fn triple(features: &[&str], rows: &[&[f64]]) -> CovarTriple {
        let mut acc = CovarTriple::zero(features);
        for r in rows {
            acc = acc.add(&CovarTriple::of_row(features, r).unwrap()).unwrap();
        }
        acc
    }

    fn arena_of(features: &[&str], groups: &[(i64, &[&[f64]])]) -> GroupedArena {
        let feats: Vec<String> = features.iter().map(|s| s.to_string()).collect();
        GroupedArena::from_groups(
            &feats,
            groups.iter().map(|(key, rows)| (k(*key), triple(features, rows))),
        )
        .unwrap()
    }

    #[test]
    fn key_ids_are_pinned() {
        // Any change to these values changes the row order — and the last
        // bits of every join statistic — of every arena: a deliberate break.
        let s = |v: &str| KeyValue::Str(v.into());
        let vectors: [(Vec<KeyValue>, u64); 9] = [
            (k(0), 0x4000_0000_0000_0000),
            (k(-7), 0x3fff_ffff_ffff_fff9),
            (k(-(1 << 62)), 0),
            (k((1 << 62) - 1), 0x7fff_ffff_ffff_ffff),
            (k(1 << 62), 0x9797_ffdd_f942_a29f),
            (vec![s("")], 0xbef1_3fa4_7496_1f25),
            (vec![s("brooklyn heights")], 0x84dc_8e1b_4c02_97b3),
            (vec![KeyValue::Int(3), s("sf")], 0x88df_4795_29ec_e2ed),
            (vec![s("sf"), KeyValue::Int(3)], 0xa4b2_035e_0d84_e0fa),
        ];
        for (key, want) in &vectors {
            let got = KeyId::home(key);
            assert_eq!(got, KeyId(*want), "{key:?} -> {:#018x}", got.0);
        }
    }

    #[test]
    #[allow(deprecated)] // std's SipHasher is SipHash-2-4: the reference here
    fn siphash_is_siphash_2_4() {
        use std::hash::Hasher;
        // The SipHash paper's key 00..0f over messages 00.. of whole words.
        let (k0, k1) = (0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908);
        assert_eq!(SipHash24::new((k0, k1)).finish(), 0x726f_db47_dd0e_0e31);
        let mut h = SipHash24::new((k0, k1));
        h.word(0x0706_0504_0302_0100);
        assert_eq!(h.finish(), 0x93f5_f579_9a93_2462);
        let mut draw = Draw(3);
        for n in 0..40 {
            let (mut ours, mut reference) = (
                SipHash24::new(SIP_KEY),
                std::hash::SipHasher::new_with_keys(SIP_KEY.0, SIP_KEY.1),
            );
            for _ in 0..n {
                let w = draw.next();
                ours.word(w);
                reference.write(&w.to_le_bytes());
            }
            assert_eq!(ours.finish(), reference.finish(), "{n} words");
        }
    }

    #[test]
    fn key_ids_do_not_depend_on_insertion_order() {
        let forward: Vec<i64> = (900_000..900_050).collect();
        let backward: Vec<i64> = forward.iter().rev().copied().collect();
        let arena = |keys: &[i64]| {
            let feats = ["x".to_string()];
            let groups = keys.iter().map(|&v| {
                let key = vec![KeyValue::Str(format!("zone-{v}"))];
                (key, triple(&["x"], &[&[v as f64]]))
            });
            GroupedArena::from_groups(&feats, groups).unwrap()
        };
        let (a, b) = (arena(&backward), arena(&forward));
        assert_eq!(a.key_ids(), b.key_ids());
        assert_eq!(a, b);
        let key = vec![KeyValue::Str("zone-900007".into())];
        assert_eq!(a.key_ids()[a.find(&key).unwrap()], KeyId::home(&key));
        assert_eq!(a.key_at(a.find(&key).unwrap()), key);
        // Integer keys sort by value, below every hashed key.
        let mixed = arena_of(&["x"], &[(7, &[&[1.0]]), (-3, &[&[1.0]]), (0, &[&[1.0]])]);
        assert_eq!(mixed.keys(), vec![k(-3), k(0), k(7)]);
    }

    #[test]
    fn a_key_whose_id_is_held_takes_the_next() {
        assert_eq!(KeyId(u64::MAX).next_probe(), KeyId(HASHED));
        let mut table = KeyTable::default();
        let key = vec![KeyValue::Str("probe".into())];
        let home = KeyId::home(&key);
        for (id, squatter) in [(home, "a"), (home.next_probe(), "b")] {
            table.0.insert(id, vec![KeyValue::Str(squatter.into())].into_boxed_slice());
        }
        let id = table.enter(key.clone());
        assert_eq!(id, home.next_probe().next_probe());
        assert_eq!((table.lookup(&key), table.enter(key.clone())), (Ok(id), id));
        assert_eq!(table.resolve(id), key);
        // Integer ids resolve by arithmetic and never enter the table.
        assert_eq!(table.enter(k(-3)), KeyId::home(&k(-3)));
        assert_eq!(table.resolve(KeyId::home(&k(-3))), k(-3));
        assert_eq!(table.0.len(), 3);
    }

    #[test]
    fn a_collision_is_never_refused() {
        // Forge a collision in the process-wide table: a squatter holds the
        // home id of a key no other test uses before any arena sees it.
        let victim = vec![KeyValue::Str("collision-victim".into())];
        let squatter = vec![KeyValue::Str("collision-squatter".into())];
        let home = KeyId::home(&victim);
        key_table().write().0.insert(home, squatter.clone().into_boxed_slice());

        // A sketch read back from storage and a requester's sketch both
        // build, agree on the victim's id and join on it.
        let stored = GroupedArena::from_parts(
            vec!["x".to_string()],
            vec![k(5), victim.clone()],
            vec![1.0, 1.0],
            vec![2.0, 3.0],
            vec![4.0, 9.0],
        )
        .unwrap();
        let request = GroupedArena::from_groups(
            &["z".to_string()],
            vec![(victim.clone(), triple(&["z"], &[&[1.0]]))],
        )
        .unwrap();
        let r = stored.find(&victim).unwrap();
        assert_eq!(stored.key_ids()[r], home.next_probe());
        assert_eq!(stored.key_at(r), victim);
        assert_eq!(stored.triple_at(r).s, vec![3.0]);
        assert!(stored.find(&squatter).is_none());
        assert_eq!(stored.sorted_pairs()[1].0, victim);
        let (c, _, _, matched) = request.join_stats(&stored);
        assert_eq!((c, matched), (1.0, 1));
    }

    #[test]
    fn null_and_repeated_keys_are_refused() {
        let feats = ["x".to_string()];
        let one = || triple(&["x"], &[&[1.0]]);
        let null = vec![KeyValue::Int(1), KeyValue::Null];
        let err = GroupedArena::from_groups(&feats, vec![(null.clone(), one())]).unwrap_err();
        assert!(matches!(err, SemiringError::NullKey(_)), "{err:?}");
        let err =
            GroupedArena::from_parts(feats.to_vec(), vec![null], vec![1.0], vec![1.0], vec![1.0])
                .unwrap_err();
        assert!(matches!(err, SemiringError::NullKey(_)), "{err:?}");
        let err =
            GroupedArena::from_groups(&feats, vec![(k(4), one()), (k(4), one())]).unwrap_err();
        assert!(matches!(err, SemiringError::DuplicateKey(_)), "{err:?}");
    }

    #[test]
    fn from_groups_roundtrips_triples() {
        let a = arena_of(&["x", "y"], &[(1, &[&[1.0, 2.0]]), (2, &[&[3.0, 4.0], &[5.0, 6.0]])]);
        assert_eq!(a.num_keys(), 2);
        assert_eq!(a.num_features(), 2);
        let r = a.find(&k(2)).unwrap();
        let t = a.triple_at(r);
        assert_eq!(t.c, 2.0);
        assert_eq!(t.s, vec![8.0, 10.0]);
        assert!(a.find(&k(7)).is_none());
    }

    #[test]
    fn join_stats_matches_triple_mul() {
        let left = arena_of(&["x"], &[(1, &[&[1.0], &[2.0]]), (2, &[&[5.0]])]);
        let right = arena_of(&["z"], &[(1, &[&[10.0]]), (3, &[&[7.0]])]);
        let (c, s, q, matched) = left.join_stats(&right);
        assert_eq!(matched, 1);
        // Only key 1 matches: (rows x ∈ {1,2}) × (z = 10).
        let expect = triple(&["x", "z"], &[&[1.0, 10.0], &[2.0, 10.0]]);
        assert_eq!(c, expect.c);
        assert_eq!(s, expect.s);
        assert_eq!(q, expect.q);
    }

    #[test]
    fn compose_matches_per_key_mul() {
        let left = arena_of(&["x"], &[(1, &[&[1.0], &[2.0]]), (2, &[&[5.0]])]);
        let right = arena_of(&["z"], &[(1, &[&[10.0]]), (2, &[&[3.0], &[4.0]])]);
        let composed = left.compose(&right);
        assert_eq!(composed.num_keys(), 2);
        let r1 = composed.find(&k(1)).unwrap();
        let want = triple(&["x"], &[&[1.0], &[2.0]]).mul(&triple(&["z"], &[&[10.0]])).unwrap();
        assert!(composed.triple_at(r1).approx_eq(&want, 1e-12));
    }

    #[test]
    fn project_and_rename() {
        let a = arena_of(&["x", "y", "z"], &[(1, &[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])]);
        let p = a.project(&["z", "x"]).unwrap();
        assert_eq!(p.schema(), &["z".to_string(), "x".to_string()]);
        let t = p.triple_at(0);
        let want = a.triple_at(0).project(&["z", "x"]).unwrap();
        assert!(t.approx_eq(&want, 1e-12));
        assert!(a.project(&["nope"]).is_err());

        let r = a.renamed(|n| format!("aug.{n}"));
        assert_eq!(r.schema()[0], "aug.x");
        assert_eq!(r.triple_at(0).s, a.triple_at(0).s);
    }

    #[test]
    fn merge_add_folds_and_appends() {
        let mut a = arena_of(&["x"], &[(1, &[&[1.0]])]);
        let b = arena_of(&["x"], &[(1, &[&[2.0]]), (9, &[&[5.0]])]);
        a.merge_add(&b).unwrap();
        assert_eq!(a.num_keys(), 2);
        let r = a.find(&k(1)).unwrap();
        assert_eq!(a.triple_at(r).c, 2.0);
        assert_eq!(a.triple_at(r).s, vec![3.0]);
        // Schema mismatch is rejected.
        let c = arena_of(&["w"], &[(1, &[&[1.0]])]);
        assert!(a.merge_add(&c).is_err());
    }

    #[test]
    fn total_collapses_rows() {
        let a = arena_of(&["x"], &[(1, &[&[1.0]]), (2, &[&[2.0], &[3.0]])]);
        let t = a.total();
        assert_eq!(t.c, 3.0);
        assert_eq!(t.s, vec![6.0]);
    }

    #[test]
    fn packed_indexing_roundtrips() {
        for m in 0..6 {
            assert_eq!(packed_len(m), (0..m).map(|i| m - i).sum::<usize>());
            let mut flat = 0;
            for i in 0..m {
                for j in i..m {
                    assert_eq!(packed_idx(i, j, m), flat);
                    flat += 1;
                }
            }
            let full: Vec<f64> = {
                let mut q = vec![0.0; m * m];
                for i in 0..m {
                    for j in 0..m {
                        q[i * m + j] = ((i * m + j) + (j * m + i)) as f64; // symmetric
                    }
                }
                q
            };
            let mut packed = Vec::new();
            pack_upper_row(&full, m, &mut packed);
            assert_eq!(packed.len(), packed_len(m));
            let mut back = Vec::new();
            unpack_upper_row(&packed, m, &mut back);
            assert_eq!(back, full);
        }
    }

    #[test]
    fn from_parts_validates_packed_slab_lengths() {
        // The snapshot-rehydration boundary must reject sheared slabs with
        // a typed error (never panic): qp is packed, m(m+1)/2 per key.
        let a = arena_of(&["x", "y"], &[(1, &[&[1.0, 2.0]]), (2, &[&[3.0, 4.0]])]);
        let (mut keys, mut c, mut s, mut qp) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for r in 0..a.num_keys() {
            let (rc, rs, rq) = a.row(r);
            keys.push(a.key_at(r));
            c.push(rc);
            s.extend_from_slice(rs);
            qp.extend_from_slice(rq);
        }
        let features = a.schema().to_vec();
        let ok = GroupedArena::from_parts(
            features.clone(),
            keys.clone(),
            c.clone(),
            s.clone(),
            qp.clone(),
        )
        .unwrap();
        assert_eq!(ok, a);

        // Each slab mismatch is a typed InvalidArgument, not a panic.
        let mut short_q = qp.clone();
        short_q.pop();
        for (keys2, c2, s2, q2) in [
            (keys.clone(), c.clone(), s.clone(), short_q),
            (keys.clone(), c[..1].to_vec(), s.clone(), qp.clone()),
            (keys.clone(), c.clone(), s[..1].to_vec(), qp.clone()),
        ] {
            let err = GroupedArena::from_parts(features.clone(), keys2, c2, s2, q2).unwrap_err();
            assert!(matches!(err, SemiringError::InvalidArgument(_)), "{err:?}");
        }
    }

    #[test]
    fn from_groups_rejects_malformed_triple_dims() {
        // The legacy GroupedTriples wire boundary: slab widths that do not
        // match the feature count surface as typed errors.
        let bad_s =
            CovarTriple { features: vec!["x".into()], c: 1.0, s: vec![1.0, 2.0], q: vec![1.0] };
        let err = GroupedArena::from_groups(&["x".to_string()], vec![(k(1), bad_s)]).unwrap_err();
        assert!(matches!(err, SemiringError::InvalidArgument(_)), "{err:?}");
        let bad_q =
            CovarTriple { features: vec!["x".into()], c: 1.0, s: vec![1.0], q: vec![1.0, 2.0] };
        let err = GroupedArena::from_groups(&["x".to_string()], vec![(k(1), bad_q)]).unwrap_err();
        assert!(matches!(err, SemiringError::InvalidArgument(_)), "{err:?}");
    }

    #[test]
    fn join_stats_into_matches_join_stats() {
        let left = arena_of(&["x", "y"], &[(1, &[&[1.0, 3.0], &[2.0, 5.0]]), (2, &[&[5.0, 1.0]])]);
        let right = arena_of(&["z"], &[(1, &[&[10.0]]), (2, &[&[7.0], &[9.0]])]);
        let (c, s, q, matched) = left.join_stats(&right);
        let (mut s2, mut q2) = (Vec::new(), Vec::new());
        let (c2, matched2) = left.join_stats_into(&right, &mut s2, &mut q2);
        assert_eq!((c, matched), (c2, matched2));
        assert_eq!(s, s2);
        let mut q2_full = Vec::new();
        unpack_upper_row(&q2, s.len(), &mut q2_full);
        assert_eq!(q, q2_full);
    }

    #[test]
    fn for_each_row_mut_visits_key_sorted() {
        let mut a = arena_of(&["x"], &[(3, &[&[1.0]]), (1, &[&[2.0]]), (2, &[&[4.0]])]);
        let mut seen = Vec::new();
        a.for_each_row_mut(|c, _s, _q| {
            seen.push(*c);
            *c += 100.0;
        });
        assert_eq!(seen.len(), 3);
        for r in 0..a.num_keys() {
            assert!(a.triple_at(r).c >= 100.0);
        }
    }
}
