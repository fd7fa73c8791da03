//! Per-join-key grouped sketches with a JSON-safe wire format.
//!
//! Since the arena refactor a `KeyedSketch` is a thin wrapper over
//! [`GroupedArena`]: one shared feature schema plus contiguous `c`/`s`/`q`
//! slabs indexed by key ids. The JSON wire format is unchanged —
//! a header followed by *key-sorted* `(key, triple)` pairs — and is written
//! **by reference** (borrowed reprs over the slabs; the old path cloned
//! every key and triple into an owned `PairRepr` first).

use mileena_relation::KeyValue;
use mileena_semiring::{CovarTriple, GroupedArena, GroupedTriples};
use serde::de::{Deserializer, SeqAccess, Visitor};
use serde::ser::{SerializeSeq, SerializeStruct, Serializer};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;

/// The `γ_j(R)` sketch: one covariance triple per distinct join-key value,
/// stored in arena layout.
///
/// Wire format: a *sorted* sequence of `(key, triple)` pairs — JSON maps
/// require string keys, and sorting makes uploads byte-deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedSketch {
    /// The join-key column this sketch is grouped by.
    pub key_column: String,
    arena: GroupedArena,
}

impl KeyedSketch {
    /// Construct from per-key triples. Fails when the triples do not share
    /// one feature set, a slab width is malformed or a key has a NULL
    /// component (all possible in hostile wire input).
    pub fn try_new(
        key_column: impl Into<String>,
        groups: GroupedTriples,
    ) -> mileena_semiring::Result<Self> {
        let features: Vec<String> =
            groups.values().next().map(|t| t.features.clone()).unwrap_or_default();
        let arena = GroupedArena::from_groups(&features, groups)?;
        Ok(KeyedSketch { key_column: key_column.into(), arena })
    }

    /// Construct directly from an arena.
    pub fn from_arena(key_column: impl Into<String>, arena: GroupedArena) -> Self {
        KeyedSketch { key_column: key_column.into(), arena }
    }

    /// The arena layout (kernel-level access).
    pub fn arena(&self) -> &GroupedArena {
        &self.arena
    }

    /// Mutable arena access.
    pub fn arena_mut(&mut self) -> &mut GroupedArena {
        &mut self.arena
    }

    /// Number of distinct keys (`d` in the paper's O(d) vertical cost).
    pub fn num_keys(&self) -> usize {
        self.arena.num_keys()
    }

    /// The shared feature schema.
    pub fn features(&self) -> &[String] {
        self.arena.schema()
    }

    /// Materialized triple for one key.
    pub fn get(&self, key: &[KeyValue]) -> Option<CovarTriple> {
        self.arena.find(key).map(|r| self.arena.triple_at(r))
    }

    /// Apply an in-place edit to every triple, visiting keys in sorted
    /// order (used by the privacy layer; see also the zero-alloc
    /// [`GroupedArena::for_each_row_mut`]). The arena keeps only the upper
    /// triangle of the symmetric `q`, so edits that break symmetry are
    /// canonicalized back to it.
    pub fn map_triples(&mut self, mut f: impl FnMut(&mut CovarTriple)) {
        let features = self.arena.schema().to_vec();
        let m = features.len();
        let mut packed = Vec::new();
        self.arena.for_each_row_mut(|c, s, qp| {
            let mut q = Vec::new();
            mileena_semiring::unpack_upper_row(qp, m, &mut q);
            let mut t = CovarTriple { features: features.clone(), c: *c, s: s.to_vec(), q };
            f(&mut t);
            *c = t.c;
            s.copy_from_slice(&t.s);
            packed.clear();
            mileena_semiring::pack_upper_row(&t.q, m, &mut packed);
            qp.copy_from_slice(&packed);
        });
    }

    /// Sorted `(key, triple)` pairs (deterministic iteration for tests).
    pub fn sorted_pairs(&self) -> Vec<(Vec<KeyValue>, CovarTriple)> {
        self.arena.sorted_pairs()
    }
}

#[derive(Serialize, Deserialize)]
struct SketchRepr {
    key_column: String,
}

/// Owned pair used on the deserialization side.
#[derive(Deserialize)]
struct PairRepr {
    key: Vec<KeyValue>,
    triple: CovarTriple,
}

/// Borrowed `(key, triple)` view over one arena row — serialization writes
/// straight from the slabs, cloning nothing.
struct PairRef<'a> {
    key: &'a [KeyValue],
    features: &'a [String],
    c: f64,
    s: &'a [f64],
    q: &'a [f64],
}

impl Serialize for PairRef<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        struct TripleRef<'a>(&'a PairRef<'a>);
        impl Serialize for TripleRef<'_> {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut st = serializer.serialize_struct("CovarTriple", 4)?;
                st.serialize_field("features", &self.0.features)?;
                st.serialize_field("c", &self.0.c)?;
                st.serialize_field("s", &self.0.s)?;
                st.serialize_field("q", &self.0.q)?;
                st.end()
            }
        }
        let mut st = serializer.serialize_struct("PairRepr", 2)?;
        st.serialize_field("key", &self.key)?;
        st.serialize_field("triple", &TripleRef(self))?;
        st.end()
    }
}

impl Serialize for KeyedSketch {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // (key_column, [pairs...]) as a 1 + n sequence keeps the format flat.
        let arena = &self.arena;
        // One table pass resolves every key exactly once.
        let sorted = arena.sorted_keys();
        let mut seq = serializer.serialize_seq(Some(sorted.len() + 1))?;
        seq.serialize_element(&SketchRepr { key_column: self.key_column.clone() })?;
        let schema = arena.schema();
        let m = schema.len();
        // The wire format carries the full symmetric q; the arena keeps the
        // packed triangle. One reused buffer expands each row in turn.
        let mut q_full = Vec::with_capacity(m * m);
        for (r, key) in &sorted {
            let (c, s, qp) = arena.row(*r);
            q_full.clear();
            mileena_semiring::unpack_upper_row(qp, m, &mut q_full);
            seq.serialize_element(&PairRef { key, features: schema, c, s, q: &q_full })?;
        }
        seq.end()
    }
}

impl<'de> Deserialize<'de> for KeyedSketch {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = KeyedSketch;
            fn expecting(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
                write!(f, "a sequence [header, pair...]")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                use serde::de::Error;
                let header: SketchRepr =
                    seq.next_element()?.ok_or_else(|| A::Error::custom("missing sketch header"))?;
                let mut groups: GroupedTriples = Default::default();
                while let Some(p) = seq.next_element::<PairRepr>()? {
                    match groups.entry(p.key) {
                        Entry::Vacant(slot) => {
                            slot.insert(p.triple);
                        }
                        Entry::Occupied(slot) => {
                            let key = format!("{:?}", slot.key());
                            let e = mileena_semiring::SemiringError::DuplicateKey(key);
                            return Err(A::Error::custom(format!("malformed keyed sketch: {e}")));
                        }
                    }
                }
                // Wire input is untrusted: mismatched feature sets, slab
                // widths or NULL keys must surface as a serde error, not a
                // panic.
                KeyedSketch::try_new(header.key_column, groups)
                    .map_err(|e| A::Error::custom(format!("malformed keyed sketch: {e}")))
            }
        }
        deserializer.deserialize_seq(V)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mileena_relation::FxHashMap;

    fn sample() -> KeyedSketch {
        let mut groups: GroupedTriples = FxHashMap::default();
        groups.insert(vec![KeyValue::Int(1)], CovarTriple::of_row(&["x"], &[2.0]).unwrap());
        groups
            .insert(vec![KeyValue::Str("a".into())], CovarTriple::of_row(&["x"], &[3.0]).unwrap());
        KeyedSketch::try_new("k", groups).unwrap()
    }

    #[test]
    fn json_roundtrip() {
        let s = sample();
        let json = serde_json::to_string(&s).unwrap();
        let back: KeyedSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = serde_json::to_string(&sample()).unwrap();
        let b = serde_json::to_string(&sample()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wire_format_shape_is_stable() {
        // Header object then pair objects with key/triple fields.
        let json = serde_json::to_string(&sample()).unwrap();
        assert!(json.starts_with("[{\"key_column\":\"k\"}"), "{json}");
        assert!(json.contains("\"key\":"), "{json}");
        assert!(json.contains("\"triple\":{\"features\":[\"x\"]"), "{json}");
    }

    #[test]
    fn malformed_wire_input_errors_instead_of_panicking() {
        // Pairs with disagreeing feature sets: must be a serde error.
        let json = r#"[{"key_column":"k"},
            {"key":[{"Int":1}],"triple":{"features":["x"],"c":1.0,"s":[2.0],"q":[4.0]}},
            {"key":[{"Int":2}],"triple":{"features":["y"],"c":1.0,"s":[3.0],"q":[9.0]}}]"#;
        assert!(serde_json::from_str::<KeyedSketch>(json).is_err());
        // Slab width disagreeing with the feature list: also an error.
        let json = r#"[{"key_column":"k"},
            {"key":[{"Int":1}],"triple":{"features":["x"],"c":1.0,"s":[2.0,3.0],"q":[4.0]}}]"#;
        assert!(serde_json::from_str::<KeyedSketch>(json).is_err());
    }

    #[test]
    fn malformed_wire_keys_are_refused() {
        // A key listed twice: refused, not last-one-wins.
        let json = r#"[{"key_column":"k"},
            {"key":[{"Int":1}],"triple":{"features":["x"],"c":1.0,"s":[2.0],"q":[4.0]}},
            {"key":[{"Int":1}],"triple":{"features":["x"],"c":1.0,"s":[3.0],"q":[9.0]}}]"#;
        let err = serde_json::from_str::<KeyedSketch>(json).unwrap_err().to_string();
        assert!(err.contains("listed twice"), "{err}");
        // A NULL key component: NULL keys never join, so none may arrive.
        for key in [r#"["Null"]"#, r#"[{"Int":1},"Null"]"#] {
            let json = format!(
                r#"[{{"key_column":"k"}},
                {{"key":{key},"triple":{{"features":["x"],"c":1.0,"s":[2.0],"q":[4.0]}}}}]"#
            );
            let err = serde_json::from_str::<KeyedSketch>(&json).unwrap_err().to_string();
            assert!(err.contains("NULL"), "{key}: {err}");
        }
    }

    #[test]
    fn map_triples_edits_all() {
        let mut s = sample();
        s.map_triples(|t| t.c += 10.0);
        for (_, t) in s.sorted_pairs() {
            assert!(t.c >= 11.0);
        }
    }

    #[test]
    fn accessors() {
        let s = sample();
        assert_eq!(s.num_keys(), 2);
        assert!(s.get(&[KeyValue::Int(1)]).is_some());
        assert!(s.get(&[KeyValue::Int(99)]).is_none());
        assert_eq!(s.features(), &["x".to_string()]);
    }
}
