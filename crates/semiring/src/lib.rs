//! Semi-ring aggregation for Mileena (§3.1 of the paper).
//!
//! The annotated relational model maps each tuple to an element of a
//! commutative semi-ring `(D, +, ×, 0, 1)`. Group-by sums annotations within
//! a group, union adds annotations, and join multiplies them — which lets
//! aggregations be *pushed down* through joins and unions instead of
//! materializing the augmented relation.
//!
//! The workhorse is the **covariance-matrix semi-ring** ([`CovarTriple`]):
//! a triple `(c, s, Q)` of count, per-feature sums, and the matrix of
//! pairwise sums of products. It is exactly the sufficient statistic set for
//! linear regression (`XᵀX`, `Xᵀy`, `yᵀy` are sub-blocks), so a model can be
//! trained and evaluated over any join/union combination *without touching
//! the data* — the property Mileena's millisecond-latency search and its
//! Factorized Privacy Mechanism are both built on.
//!
//! # Example: pushdown equals materialization
//! ```
//! use mileena_relation::RelationBuilder;
//! use mileena_semiring::{triple_of, grouped_triples, CovarTriple};
//!
//! let train = RelationBuilder::new("train")
//!     .int_col("k", &[1, 2])
//!     .float_col("y", &[1.0, 2.0])
//!     .build().unwrap();
//! let aug = RelationBuilder::new("aug")
//!     .int_col("k", &[1, 2])
//!     .float_col("z", &[5.0, 7.0])
//!     .build().unwrap();
//!
//! // Pushdown: multiply per-key sketches, then sum.
//! let left = grouped_triples(&train, &["k"], &["y"]).unwrap();
//! let right = grouped_triples(&aug, &["k"], &["z"]).unwrap();
//! let mut total = CovarTriple::zero(&[]);
//! for (key, lt) in &left {
//!     if let Some(rt) = right.get(key) {
//!         total = total.add(&lt.mul(rt).unwrap()).unwrap();
//!     }
//! }
//!
//! // Naive: materialize the join, then aggregate.
//! let joined = train.hash_join(&aug, &["k"], &["k"]).unwrap();
//! let naive = triple_of(&joined, &["y", "z"]).unwrap();
//! assert!(total.approx_eq(&naive.align(&total.feature_names()).unwrap(), 1e-9));
//! ```

pub mod algebra;
pub mod arena;
pub mod compute;
pub mod covar;
pub mod error;
pub mod pushdown;

pub use algebra::{CountSemiring, Semiring, SumSemiring};
pub use arena::{pack_upper_row, packed_idx, packed_len, unpack_upper_row, GroupedArena, KeyId};
pub use compute::{grouped_triples, triple_of, GroupedTriples};
pub use covar::{CovarTriple, LrSystem};
pub use error::{Result, SemiringError};
