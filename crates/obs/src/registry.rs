//! The fixed metrics registry and its serializable report.
//!
//! [`Metrics`] is a plain struct of atomics — one instance per platform
//! (the TCP server records into the platform's instance via
//! `PlatformService::metrics_handle`, so one deployment has one registry).
//! A [`MetricsReport`] is the mergeable, name-keyed snapshot that crosses
//! the wire (`AdminOp::Metrics`) and feeds the Prometheus-style text dump;
//! subsystems that keep private histograms (scheduler queue-wait, storage
//! I/O) append them to the report by name at snapshot time, which is why
//! the report is name-keyed rather than a fixed struct.

use crate::hist::{Histogram, HistogramReport};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A new zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` (no-op when telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge (current level, not a rate).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A new zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Add a (possibly negative) delta. Unlike counters this is *not*
    /// gated on the telemetry switch: a paired inc/dec crossing a toggle
    /// would leak the level permanently.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The platform's fixed registry: lifetime counters, level gauges, and
/// per-stage latency histograms (all values nanoseconds unless the name
/// says otherwise). See DESIGN.md "Telemetry & observability" for the
/// span taxonomy these histograms implement.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Searches admitted into `submit` (before queueing).
    pub searches_started: Counter,
    /// Searches that produced a reply (any stop reason).
    pub searches_completed: Counter,
    /// Candidate evaluations across all searches.
    pub search_evaluations: Counter,
    /// Bound-pruned candidates across all searches.
    pub search_bound_skips: Counter,
    /// Candidates dropped by enumeration limits across all searches.
    pub search_candidates_truncated: Counter,
    /// WAL records journaled.
    pub wal_appends: Counter,
    /// Snapshots written.
    pub snapshots_written: Counter,
    /// TCP connections accepted over the server's lifetime.
    pub net_connections: Counter,
    /// Frames read off client connections.
    pub net_frames_in: Counter,
    /// Frames written to client connections.
    pub net_frames_out: Counter,
    /// Register requests served.
    pub requests_register: Counter,
    /// Admin requests served.
    pub requests_admin: Counter,
    /// Submit requests served.
    pub requests_submit: Counter,
    /// Cancel frames served.
    pub requests_cancel: Counter,
    /// Searches that crossed the slow-search threshold.
    pub slow_searches: Counter,
    /// Failed scatter shard calls (injected faults and crashes).
    pub shard_call_failures: Counter,
    /// Per-shard gather deadline strikes.
    pub shard_timeout_strikes: Counter,
    /// Shard circuit breakers opened (shard quarantined).
    pub shard_breaker_opened: Counter,
    /// Quarantined shards recovered (breaker closed again).
    pub shard_recoveries: Counter,
    /// Searches that completed degraded (replies labeled `degraded`).
    pub searches_degraded: Counter,
    /// Snapshot payload bytes read at open (cold-start input volume).
    pub snapshot_bytes: Counter,
    /// Sketches hydrated lazily on an evaluation touch (not by the
    /// background hydrator and not eagerly at open).
    pub hydrations_lazy: Counter,

    /// TCP connections currently open.
    pub connections_open: Gauge,
    /// Shards currently quarantined by their circuit breaker.
    pub shards_quarantined: Gauge,
    /// Datasets whose sketch slabs are still waiting to hydrate (drains
    /// to 0 as the background hydrator and evaluation touches catch up).
    pub datasets_unhydrated: Gauge,

    /// Full per-search time: submit receipt → reply built.
    pub search_total: Histogram,
    /// Request validation + sketched-state build.
    pub search_prepare: Histogram,
    /// Candidate enumeration under the discovery index read lock.
    pub search_enumerate: Histogram,
    /// Admission-queue wait (enqueue → worker dequeue).
    pub search_queue_wait: Histogram,
    /// Greedy/scatter execution (the search loop itself).
    pub search_run: Histogram,
    /// One evaluation round (scoring every remaining candidate once).
    pub search_eval_round: Histogram,
    /// One search's bound refresh: every remaining candidate's score bound
    /// recomputed (and union candidates re-projected) after its join
    /// commits. One sample per completed search, 0 when no join committed.
    pub search_bound_refresh: Histogram,
    /// Final model fit after the loop.
    pub search_fit: Histogram,
    /// One shard's slice of one scatter round (per-shard gather time).
    pub shard_gather: Histogram,
    /// One WAL append (journal write, plus fsync when configured).
    pub wal_append: Histogram,
    /// One snapshot write (encode excluded; I/O + rotation + purge).
    pub snapshot_write: Histogram,
    /// One TCP connection's lifetime (accept → teardown).
    pub connection_serve: Histogram,
}

impl Metrics {
    /// A new zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Snapshot every metric into the name-keyed wire report.
    pub fn report(&self) -> MetricsReport {
        let counters = vec![
            ("searches_started".to_string(), self.searches_started.get()),
            ("searches_completed".to_string(), self.searches_completed.get()),
            ("search_evaluations".to_string(), self.search_evaluations.get()),
            ("search_bound_skips".to_string(), self.search_bound_skips.get()),
            ("search_candidates_truncated".to_string(), self.search_candidates_truncated.get()),
            ("wal_appends".to_string(), self.wal_appends.get()),
            ("snapshots_written".to_string(), self.snapshots_written.get()),
            ("net_connections".to_string(), self.net_connections.get()),
            ("net_frames_in".to_string(), self.net_frames_in.get()),
            ("net_frames_out".to_string(), self.net_frames_out.get()),
            ("requests_register".to_string(), self.requests_register.get()),
            ("requests_admin".to_string(), self.requests_admin.get()),
            ("requests_submit".to_string(), self.requests_submit.get()),
            ("requests_cancel".to_string(), self.requests_cancel.get()),
            ("slow_searches".to_string(), self.slow_searches.get()),
            ("shard_call_failures".to_string(), self.shard_call_failures.get()),
            ("shard_timeout_strikes".to_string(), self.shard_timeout_strikes.get()),
            ("shard_breaker_opened".to_string(), self.shard_breaker_opened.get()),
            ("shard_recoveries".to_string(), self.shard_recoveries.get()),
            ("searches_degraded".to_string(), self.searches_degraded.get()),
            ("snapshot_bytes".to_string(), self.snapshot_bytes.get()),
            ("hydrations_lazy".to_string(), self.hydrations_lazy.get()),
        ];
        let gauges = vec![
            ("connections_open".to_string(), self.connections_open.get()),
            ("shards_quarantined".to_string(), self.shards_quarantined.get()),
            ("datasets_unhydrated".to_string(), self.datasets_unhydrated.get()),
        ];
        let histograms = vec![
            ("search_total_ns".to_string(), self.search_total.report()),
            ("search_prepare_ns".to_string(), self.search_prepare.report()),
            ("search_enumerate_ns".to_string(), self.search_enumerate.report()),
            ("search_queue_wait_ns".to_string(), self.search_queue_wait.report()),
            ("search_run_ns".to_string(), self.search_run.report()),
            ("search_eval_round_ns".to_string(), self.search_eval_round.report()),
            ("search_bound_refresh_ns".to_string(), self.search_bound_refresh.report()),
            ("search_fit_ns".to_string(), self.search_fit.report()),
            ("shard_gather_ns".to_string(), self.shard_gather.report()),
            ("wal_append_ns".to_string(), self.wal_append.report()),
            ("snapshot_write_ns".to_string(), self.snapshot_write.report()),
            ("connection_serve_ns".to_string(), self.connection_serve.report()),
        ];
        MetricsReport { counters, gauges, histograms }
    }
}

/// Name-keyed metrics snapshot, wire form. Counters and gauges are
/// `(name, value)`; histograms carry their mergeable bucket reports.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Monotone counters.
    pub counters: Vec<(String, u64)>,
    /// Level gauges.
    pub gauges: Vec<(String, i64)>,
    /// Latency histograms (names end `_ns`).
    pub histograms: Vec<(String, HistogramReport)>,
}

impl MetricsReport {
    /// Value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Value of a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A histogram report by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramReport> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Append (or add into) a histogram by name. Subsystems with private
    /// histograms use this to join the platform report at snapshot time.
    pub fn push_histogram(&mut self, name: &str, report: HistogramReport) {
        match self.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, mine)) => mine.merge(&report),
            None => self.histograms.push((name.to_string(), report)),
        }
    }

    /// Merge another report into this one: counters and gauges add by
    /// name (missing names are appended), histograms merge bucket-exactly.
    /// Used by the sharded coordinator to aggregate shard reports.
    pub fn merge(&mut self, other: &MetricsReport) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            self.push_histogram(name, h.clone());
        }
    }
}

/// Render a report in the Prometheus text exposition format, prefixed
/// `mileena_`. Histogram names ending `_ns` render as `_seconds`
/// summaries (quantile labels + `_sum` / `_count`), everything else as
/// untyped counters/gauges.
pub fn render_prometheus(report: &MetricsReport) -> String {
    let mut out = String::new();
    for (name, v) in &report.counters {
        out.push_str(&format!("# TYPE mileena_{name} counter\nmileena_{name} {v}\n"));
    }
    for (name, v) in &report.gauges {
        out.push_str(&format!("# TYPE mileena_{name} gauge\nmileena_{name} {v}\n"));
    }
    for (name, h) in &report.histograms {
        let base = name.strip_suffix("_ns").unwrap_or(name);
        let s = &h.summary;
        out.push_str(&format!("# TYPE mileena_{base}_seconds summary\n"));
        for (q, v) in [("0.5", s.p50_ns), ("0.95", s.p95_ns), ("0.99", s.p99_ns)] {
            out.push_str(&format!(
                "mileena_{base}_seconds{{quantile=\"{q}\"}} {}\n",
                v as f64 / 1e9
            ));
        }
        out.push_str(&format!("mileena_{base}_seconds_sum {}\n", s.sum_ns as f64 / 1e9));
        out.push_str(&format!("mileena_{base}_seconds_count {}\n", s.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_concurrent_safe() {
        let _sync = crate::test_sync::recording();
        let m = std::sync::Arc::new(Metrics::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let m = std::sync::Arc::clone(&m);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        m.searches_started.inc();
                        m.connections_open.add(1);
                        m.connections_open.add(-1);
                    }
                });
            }
        });
        assert_eq!(m.searches_started.get(), 80_000);
        assert_eq!(m.connections_open.get(), 0);
    }

    #[test]
    fn report_roundtrips_and_looks_up_by_name() {
        let _sync = crate::test_sync::recording();
        let m = Metrics::new();
        m.searches_completed.add(3);
        m.search_total.record(1_000_000);
        m.connections_open.set(2);
        let report = m.report();
        assert_eq!(report.counter("searches_completed"), Some(3));
        assert_eq!(report.gauge("connections_open"), Some(2));
        assert_eq!(report.histogram("search_total_ns").unwrap().summary.count, 1);
        assert_eq!(report.counter("no_such_metric"), None);

        let json = serde_json::to_string(&report).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn reports_merge_by_name() {
        let _sync = crate::test_sync::recording();
        let a = Metrics::new();
        let b = Metrics::new();
        a.searches_completed.add(2);
        b.searches_completed.add(5);
        a.search_total.record(10);
        b.search_total.record(1_000_000);
        let mut merged = a.report();
        merged.merge(&b.report());
        assert_eq!(merged.counter("searches_completed"), Some(7));
        let h = merged.histogram("search_total_ns").unwrap();
        assert_eq!(h.summary.count, 2);
        assert_eq!(h.summary.max_ns, 1_000_000);

        // A name only one side knows is appended, not dropped.
        let mut lopsided = a.report();
        let mut extra = MetricsReport::default();
        extra.counters.push(("custom".into(), 9));
        lopsided.merge(&extra);
        assert_eq!(lopsided.counter("custom"), Some(9));
    }

    #[test]
    fn prometheus_rendering_has_core_series() {
        let _sync = crate::test_sync::recording();
        let m = Metrics::new();
        m.searches_completed.add(4);
        m.search_queue_wait.record(2_000_000);
        let text = render_prometheus(&m.report());
        assert!(text.contains("mileena_searches_completed 4"));
        assert!(text.contains("# TYPE mileena_search_queue_wait_seconds summary"));
        assert!(text.contains("mileena_search_queue_wait_seconds_count 1"));
        assert!(text.contains("quantile=\"0.99\""));
    }

    #[test]
    fn disabled_telemetry_skips_counters_but_not_gauges() {
        let _sync = crate::test_sync::toggling();
        let m = Metrics::new();
        crate::set_enabled(false);
        m.searches_started.inc();
        m.search_total.record(5);
        m.connections_open.add(1);
        crate::set_enabled(true);
        assert_eq!(m.searches_started.get(), 0);
        assert_eq!(m.search_total.count(), 0);
        assert_eq!(m.connections_open.get(), 1, "gauge levels survive the toggle");
    }
}
