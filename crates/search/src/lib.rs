//! Task-based dataset search (Problem 1 of the paper).
//!
//! Given a request `(R_train, R_test, M, ε, δ)` and a corpus of sketches,
//! find the union set `R*_∪` and join set `R*_⋈` that maximize the model's
//! test utility, evaluating candidates in time independent of relation
//! sizes via pre-computed semi-ring sketches:
//!
//! - candidate generation comes from `mileena-discovery` (Aurum-style);
//! - candidate *evaluation* composes sketches — O(1) per union, O(d) per
//!   join — and trains the ridge proxy on the resulting sufficient
//!   statistics ([`proxy`]);
//! - [`scatter`] runs the paper's greedy loop — evaluate all remaining
//!   candidates, take the best improvement, re-base, repeat — over one or
//!   many candidate partitions; [`greedy`] holds its vocabulary, round
//!   plans and reference implementations;
//! - [`arda`] and [`novelty`] are the retrain-based and novelty-based
//!   baselines of Figure 4; [`modes`] wires the FPM/APM/TPM privacy
//!   variants of Figure 5.
//!
//! The search consumes sketches *agnostically*: feed raw sketches for
//! non-private search or FPM-privatized sketches for (ε, δ)-DP search —
//! the code path is identical, which is exactly the Factorized Privacy
//! Mechanism's selling point.

pub mod arda;
pub mod cache;
pub mod candidates;
pub mod error;
pub mod greedy;
pub mod modes;
pub mod novelty;
pub mod proxy;
pub mod request;
pub mod scatter;

pub use cache::{CachedCandidate, CandidateCache};
pub use candidates::{
    enumerate_candidates, Augmentation, Candidate, CandidateLimits, CandidateSet,
};
pub use error::{Result, SearchError};
pub use greedy::{
    build_sketched_state, GreedySearch, SearchControl, SearchEvent, SearchOutcome, SelectionStep,
    StopReason,
};
pub use proxy::ProxyState;
pub use request::{SearchConfig, SearchRequest, SketchedRequest, TaskSpec};
pub use scatter::{
    ScatterSearch, ScatterStats, ShardCallFault, ShardCallInterceptor, ShardPartition,
};
