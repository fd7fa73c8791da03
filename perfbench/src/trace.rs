//! The harness span recorder: spans around the calls into each layer's
//! public functions, kept in memory and written out when the run ends.
//!
//! Spans inside the program are a later change; until then the server-side
//! stages a reply reports (`SearchReply.spans`) are laid into the client
//! span they belong to, so that one rule — self time is a span's duration
//! minus the part its children cover — yields every "what is left over"
//! row (transport gap, platform unaccounted, run-other).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one operation share an identifier.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink. Off, every call is one branch and records nothing,
/// which is how the untraced pass runs the same code as the traced one.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder { on, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the recorder's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span; `None` when the recorder is off.
    pub fn add(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("no recorder user panics while holding the lock");
        spans.push(Span { name, start_ns, end_ns, parent, op_id });
        Some(spans.len() - 1)
    }

    /// Record a span between two instants the caller already took.
    pub fn add_between(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.add(name, parent, op_id, self.ns(start), self.ns(end))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("no recorder user panics while holding the lock")
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span itself.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Durations and self times grouped by span name, in milliseconds, ascending.
pub struct ByName {
    pub duration_ms: BTreeMap<&'static str, Vec<f64>>,
    pub self_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl ByName {
    pub fn of(spans: &[Span]) -> Self {
        let mut by = ByName { duration_ms: BTreeMap::new(), self_ms: BTreeMap::new() };
        for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            by.duration_ms.entry(span.name).or_default().push(span.duration_ns() as f64 / 1e6);
            by.self_ms.entry(span.name).or_default().push(self_ns as f64 / 1e6);
        }
        by
    }

    fn pick(map: &BTreeMap<&'static str, Vec<f64>>, name: &str, p: f64) -> f64 {
        map.get(name).map_or(0.0, |v| crate::stats::percentile(&crate::stats::sorted(v.clone()), p))
    }

    /// Percentile of a span's durations (0 when the span never occurred).
    pub fn duration(&self, name: &str, p: f64) -> f64 {
        Self::pick(&self.duration_ms, name, p)
    }

    /// Percentile of a span's self times.
    pub fn self_time(&self, name: &str, p: f64) -> f64 {
        Self::pick(&self.self_ms, name, p)
    }

    pub fn count(&self, name: &str) -> usize {
        self.duration_ms.get(name).map_or(0, Vec::len)
    }
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op_id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op_id: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: the union [10, 60) counts once.
            span("b", 30, 60, Some(0)),
            // Sticks out past the parent: clipped to [90, 100).
            span("c", 90, 130, Some(0)),
            span("a.child", 15, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50 - 10, 30 - 5, 30, 40, 5]);
        let by = ByName::of(&spans);
        assert_eq!(by.count("root"), 1);
        assert_eq!(by.self_time("root", 50.0), 40.0 / 1e6);
        assert_eq!(by.duration("missing", 50.0), 0.0);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let rec = Recorder::new(false);
        assert!(rec.add("y", None, 1, 0, 5).is_none());
        assert!(rec.into_spans().is_empty());

        let rec = Recorder::new(true);
        let root = rec.add("root", None, 9, 0, 50);
        let begin = Instant::now();
        rec.add_between("leaf", root, 9, begin, Instant::now());
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op_id, 9);
    }
}
