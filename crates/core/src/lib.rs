//! The Mileena platform: the architecture of Figure 1 wired end to end.
//!
//! Two halves, matching the two-tier trust model (Figure 2):
//!
//! - [`LocalDataStore`] — runs **at the provider/requester**, who is
//!   trusted with their own raw data: automatic (agent-based)
//!   transformation, feature clipping, sketch computation, and FPM
//!   privatization all happen here. Only the resulting [`ProviderUpload`]
//!   (noisy sketches + discovery profile) ever leaves.
//! - [`CentralPlatform`] — the **untrusted** central search service: stores
//!   uploads, indexes them for discovery, and answers search requests over
//!   privatized sketches only. Budget accounting is enforced per dataset
//!   at upload time; searches are free post-processing. It is one
//!   coordinator ([`Platform`]: placement, admission, the search session,
//!   telemetry) over one [`Shard`] (store + index + ledger + storage
//!   engine); [`ShardedPlatform`] is the same coordinator over S of them.
//!
//! The boundary between the two is **sketches-only and versioned**: a
//! requester's raw relations are reduced to a `SketchedRequest` locally
//! (via [`SearchRequestBuilder`] / [`LocalDataStore`]), and the platform is
//! driven through the [`PlatformService`] trait — either [`InProcess`]
//! (direct calls) or [`JsonWire`] (full serde round-trip through the
//! versioned `{"v":1,...}` protocol in [`wire`]). Searches are live
//! [`SearchSession`]s streaming per-round progress, cancellable, and safe
//! to run concurrently.
//!
//! ```
//! use mileena_core::{
//!     CentralPlatform, InProcess, LocalDataStore, PlatformConfig, PlatformService,
//!     SearchRequestBuilder,
//! };
//! use mileena_relation::RelationBuilder;
//! use mileena_search::TaskSpec;
//! use std::sync::Arc;
//!
//! // Provider side: prepare an upload (non-private here; pass a budget
//! // for FPM privatization).
//! let weather = RelationBuilder::new("weather")
//!     .int_col("zone", &(0..50).collect::<Vec<_>>())
//!     .float_col("temp", &(0..50).map(|z| (z as f64 * 0.7).sin()).collect::<Vec<_>>())
//!     .build().unwrap();
//! let upload = LocalDataStore::new(weather).prepare_upload(None, 7).unwrap();
//!
//! // Central side: a platform behind a service transport.
//! let service = InProcess::new(Arc::new(CentralPlatform::new(PlatformConfig::default())));
//! service.register(upload).unwrap();
//!
//! // Requester side: raw relations are sketched locally; only the
//! // sketched form reaches the service.
//! let train = RelationBuilder::new("train")
//!     .int_col("zone", &(0..50).collect::<Vec<_>>())
//!     .float_col("y", &(0..50).map(|z| (z as f64 * 0.7).sin() * 2.0).collect::<Vec<_>>())
//!     .build().unwrap();
//! let test = train.clone().with_name("test");
//! let sketched = SearchRequestBuilder::new(train, test)
//!     .task(TaskSpec::new("y", &[]))
//!     .key_columns(&["zone"])
//!     .sketch().unwrap();
//! let reply = service.search(sketched, None).unwrap();
//! assert_eq!(reply.selected_joins(), vec!["weather"]);
//! ```

pub mod durable;
pub mod error;
pub mod local;
pub mod net;
pub mod platform;
pub mod retry;
pub mod sched;
pub mod service;
pub mod shard;
pub mod wire;

pub use durable::{RecoveryReport, StoragePolicy, WalOp};
pub use error::{CoreError, Result};
pub use local::{LocalDataStore, ProviderUpload, SearchRequestBuilder, TaskRequest};
pub use net::{ClientFrame, ServerFrame, TcpServer, TcpServerConfig, TcpWire};
pub use platform::{
    CentralPlatform, Layout, Platform, PlatformConfig, PlatformSearchResult, ShardedPlatform,
};
pub use retry::{search_with_retry, RetryPolicy};
pub use sched::SchedulerConfig;
pub use service::{
    wire_admin, wire_register, wire_submit, InProcess, JsonWire, PlatformService, SearchSession,
    WireSession,
};
pub use shard::Shard;
pub use wire::{
    AdminOp, AdminReply, CheckpointReceipt, DiscoveryReport, ErrorCode, PlatformStats,
    SchedulerReport, SearchReply, ShardReport, SpanBreakdown, StopCounts, StorageReport,
    WIRE_VERSION,
};
