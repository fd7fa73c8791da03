//! `compare <a.json> <b.json>`: apply the benchmark's own bounds to two
//! results files, one row per (workload, metric).

use crate::outfile::ResultsFile;
use crate::spec::{self, Better, MetricSpec};
use crate::stats::{median, quartile_spread};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread between runs of one side is wider than the bound, so the
    /// runs cannot tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against baseline `a` for one end-to-end metric.
pub fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("only end-to-end metrics are judged");
    let spread = [a, b].into_iter().filter_map(quartile_spread).fold(0.0, f64::max);
    if spread > bound {
        return Verdict::Unresolved;
    }
    let base = median(a);
    let change = (median(b) - base) / base.abs().max(f64::MIN_POSITIVE);
    let worse = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The comparison table, and whether any row regressed.
pub fn compare(a: &ResultsFile, b: &ResultsFile) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<16} {:<32} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    );
    for (key, a_values) in &a.values {
        let (Some(b_values), Some((workload, name))) = (b.values.get(key), key.split_once('/'))
        else {
            continue;
        };
        let (ma, mb) = (median(a_values), median(b_values));
        let change = 100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
        let (bound, verdict) = match spec::end_to_end(name) {
            Some(metric) => {
                let verdict = judge(metric, a_values, b_values);
                regressed |= verdict == Verdict::Regressed;
                (format!("{:.0}%", 100.0 * metric.bound.unwrap_or(0.0)), verdict.as_str())
            }
            // Per-layer rows explain; they are never gated.
            None => (String::new(), "layer"),
        };
        let _ = writeln!(
            out,
            "{workload:<16} {name:<32} {ma:>14.4} {mb:>14.4} {change:>+8.1}% {bound:>7}  {verdict}"
        );
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static MetricSpec {
        spec::end_to_end(name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = metric("search_p50_ms"); // bound 20 %
        assert_eq!(judge(lower, &[10.0], &[11.5]), Verdict::Unchanged);
        assert_eq!(judge(lower, &[10.0], &[12.5]), Verdict::Regressed);
        assert_eq!(judge(lower, &[10.0], &[7.5]), Verdict::Improved);
        let higher = metric("searches_per_s"); // bound 25 %
        assert_eq!(judge(higher, &[100.0], &[70.0]), Verdict::Regressed);
        assert_eq!(judge(higher, &[100.0], &[130.0]), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let m = metric("search_p50_ms");
        let noisy = [6.0, 8.0, 10.0, 12.0, 14.0, 16.0];
        assert_eq!(judge(m, &noisy, &[10.0, 10.0, 10.0, 10.0]), Verdict::Unresolved);
        let steady = [10.0, 10.1, 10.2, 10.1, 10.0];
        assert_eq!(judge(m, &steady, &[10.1, 10.0, 10.2, 10.1]), Verdict::Unchanged);
    }

    #[test]
    fn table_has_a_row_per_workload_and_metric() {
        let mut a = ResultsFile::default();
        a.values.insert("restart/search_p50_ms".into(), vec![100.0]);
        a.values.insert("restart/core.durable.open_ms".into(), vec![80.0]);
        let mut b = a.clone();
        b.values.insert("restart/search_p50_ms".into(), vec![130.0]);
        let (table, regressed) = compare(&a, &b);
        assert!(regressed);
        assert!(table.contains("regressed"), "{table}");
        assert!(table.contains("layer"), "{table}");
        assert!(!compare(&a, &a).1);
    }
}
