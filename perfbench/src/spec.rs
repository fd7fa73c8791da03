//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repo root states
//! the same lists for the driver; a unit test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric definition. `bound` is the share of the baseline median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

/// Workload names are final: later issues cite them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "inproc_search",
        "R517 on a volatile CentralPlatform behind InProcess, 1 closed-loop requester: search, discovery, ml and semiring do all the work; the floor every other shape is subtracted from",
    ),
    (
        "tcp_search",
        "same R517, pool and requester through TcpServer + TcpWire on loopback: differs from inproc_search by transport only, so the difference prices dial/accept, frames and the JSON codec",
    ),
    (
        "sharded_mixed",
        "N2000 on a durable 4-shard ShardedPlatform, 1 closed-loop searcher beside 1 provider paced at 100 FPM registers/s: writes contend with reads on index, store, ledger, scheduler and WAL",
    ),
    (
        "restart",
        "durable CentralPlatform directory holding R517 (snapshot + 100-record WAL tail), 1 operator loop of open -> first verified search -> drop: core.durable, storage and sketch hydration do the work",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics, every one emitted on every workload (the per-workload
/// meaning of each is in the README's table). The timing bounds sit at or
/// near the 25 % the driver allows because that is what this shared host
/// needs: between three ten-run sweeps of the same binary the medians
/// drifted by up to 12 % and the quartile spreads reached 12–19 %.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("search_p50_ms", "ms", Lower, 0.20),
    e2e("search_p90_ms", "ms", Lower, 0.25),
    e2e("searches_per_s", "1/s", Higher, 0.25),
    e2e("register_p50_ms", "ms", Lower, 0.25),
    e2e("register_p90_ms", "ms", Lower, 0.25),
    e2e("utility_gain", "r2", Higher, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Per-layer metrics; layers are module names.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("client.search_p50_ms", "ms", Lower),
    layer("client.search_p99_ms", "ms", Lower),
    layer("client.register_p50_ms", "ms", Lower),
    layer("client.register_p99_ms", "ms", Lower),
    layer("client.restart_to_first_search_p50_ms", "ms", Lower),
    layer("client.restart_to_first_search_p90_ms", "ms", Lower),
    layer("core.net.transport_gap_ms", "ms", Lower),
    layer("core.net.dial_ms", "ms", Lower),
    layer("core.net.connections_per_search", "count", Lower),
    layer("core.net.frames_per_search", "count", Lower),
    layer("core.net.bytes_in_per_search", "bytes", Lower),
    layer("core.net.bytes_out_per_search", "bytes", Lower),
    layer("core.net.register_rtt_ms", "ms", Lower),
    layer("core.net.errors", "count", Lower),
    layer("core.net.unaccounted_share", "share", Lower),
    layer("core.wire.codec_ms", "ms", Lower),
    layer("ledger.inproc_ms", "ms", Lower),
    layer("ledger.jsonwire_ms", "ms", Lower),
    layer("ledger.tcp_central_ms", "ms", Lower),
    layer("ledger.tcp_sharded_ms", "ms", Lower),
    layer("core.sched.queue_wait_p50_ms", "ms", Lower),
    layer("core.sched.queue_wait_p90_ms", "ms", Lower),
    layer("core.sched.shed", "count", Lower),
    layer("core.platform.prepare_ms", "ms", Lower),
    layer("core.platform.unaccounted_ms", "ms", Lower),
    layer("core.platform.register_ms", "ms", Lower),
    layer("core.shard.gather_p50_ms", "ms", Lower),
    layer("core.shard.gather_p90_ms", "ms", Lower),
    layer("core.shard.visits_per_search", "count", Lower),
    layer("core.shard.overhead_ms", "ms", Lower),
    layer("core.shard.failures", "count", Lower),
    layer("search.enumerate_ms", "ms", Lower),
    layer("search.candidates", "count", Lower),
    layer("search.request_state_ms", "ms", Lower),
    layer("search.cache_build_ms", "ms", Lower),
    layer("search.eval_ms", "ms", Lower),
    layer("search.run_other_ms", "ms", Lower),
    layer("search.fit_ms", "ms", Lower),
    layer("search.rounds", "count", Lower),
    layer("search.evaluations", "count", Lower),
    layer("search.bound_skip_share", "share", Higher),
    layer("search.proxy_vs_materialized_abs", "r2", Lower),
    layer("discovery.join_query_ms", "ms", Lower),
    layer("discovery.union_query_ms", "ms", Lower),
    layer("discovery.selectivity", "share", Lower),
    layer("discovery.register_ms", "ms", Lower),
    layer("discovery.profile_ms", "ms", Lower),
    layer("sketch.build_ms", "ms", Lower),
    layer("sketch.request_sketch_ms", "ms", Lower),
    layer("sketch.json_bytes", "bytes", Lower),
    layer("sketch.hydrations_lazy", "count", Lower),
    layer("semiring.join_stats_ns", "ns", Lower),
    layer("semiring.triple_add_ns", "ns", Lower),
    layer("ml.ridge_fit_eval_us", "us", Lower),
    layer("privacy.privatize_ms", "ms", Lower),
    layer("privacy.ledger_rejects", "share", Higher),
    layer("privacy.utility_ratio.n20", "ratio", Higher),
    layer("privacy.utility_ratio.n100", "ratio", Higher),
    layer("privacy.utility_ratio.n500", "ratio", Higher),
    layer("core.local.prepare_upload_ms", "ms", Lower),
    layer("storage.wal_append_p50_us", "us", Lower),
    layer("storage.wal_append_p90_us", "us", Lower),
    layer("storage.wal_bytes_per_register", "bytes", Lower),
    layer("storage.checkpoints", "count", Lower),
    layer("storage.checkpoint_ms", "ms", Lower),
    layer("storage.open_ms", "ms", Lower),
    layer("storage.snapshot_bytes", "bytes", Lower),
    layer("storage.disk_bytes_per_dataset", "bytes", Lower),
    layer("core.durable.open_ms", "ms", Lower),
    layer("core.durable.wal_replay_us_per_record", "us", Lower),
    layer("core.durable.walop_encode_us", "us", Lower),
    layer("core.durable.walop_decode_us", "us", Lower),
    layer("core.durable.first_search_ms", "ms", Lower),
    layer("core.durable.recovered_records", "count", Lower),
    layer("obs.overhead_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.provider_lateness_p90_ms", "ms", Lower),
    layer("bench.trace_spans", "count", Higher),
];

/// Why the named workload exists.
pub fn why(workload: &str) -> &'static str {
    WORKLOADS.iter().find(|w| w.0 == workload).map_or("", |w| w.1)
}

/// The end-to-end definition of `name`, if it is one.
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use std::collections::BTreeSet;

    #[derive(Deserialize)]
    struct FileWorkload {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct FileMetric {
        name: String,
        unit: String,
        better: String,
        #[serde(default)]
        bound: Option<f64>,
    }

    #[derive(Deserialize)]
    struct BenchmarkFile {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<FileWorkload>,
        end_to_end: Vec<FileMetric>,
        per_layer: Vec<FileMetric>,
    }

    fn direction(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn check(file: &[FileMetric], spec: &[MetricSpec]) {
        assert_eq!(file.len(), spec.len());
        for (f, s) in file.iter().zip(spec) {
            assert_eq!(f.name, s.name);
            assert_eq!(f.unit, s.unit, "{}", s.name);
            assert_eq!(f.better, direction(s.better), "{}", s.name);
            assert_eq!(f.bound, s.bound, "{}", s.name);
        }
    }

    #[test]
    fn benchmark_json_states_the_same_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let file: BenchmarkFile = serde_json::from_str(&text).expect("valid BENCHMARK.json");
        assert_eq!(file.paths, ["perfbench"]);
        assert!(file.command.iter().any(|a| a == "perfbench/Cargo.toml"));
        assert!((1..=60).contains(&file.run_seconds));
        assert_eq!(file.workloads.len(), WORKLOADS.len());
        for (f, (name, why)) in file.workloads.iter().zip(WORKLOADS) {
            assert_eq!(f.name, name);
            assert_eq!(f.why, why);
            assert!(f.why.len() <= 200 && !f.why.contains('\n'), "{name}");
        }
        check(&file.end_to_end, END_TO_END);
        check(&file.per_layer, PER_LAYER);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
    }
}
