//! What a run leaves behind: the driver's result line, and the results file
//! that `--all` fills and `compare` reads.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// The one JSON object a run prints as the last line of its standard output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
}

impl ResultLine {
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("finite numbers and plain strings always serialize")
    }

    /// Parse the last non-empty line of a run's standard output.
    pub fn from_stdout(stdout: &str) -> Result<ResultLine, String> {
        let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
        serde_json::from_str(line).map_err(|e| format!("result line: {e}"))
    }
}

/// Results of one or more `--all` passes: per `workload/metric`, one value
/// per pass, plus the report header of the first pass.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultsFile {
    pub header: BTreeMap<String, String>,
    pub units: BTreeMap<String, String>,
    pub values: BTreeMap<String, Vec<f64>>,
}

impl ResultsFile {
    pub fn key(workload: &str, metric: &str) -> String {
        format!("{workload}/{metric}")
    }

    /// Append one run's metrics.
    pub fn push(&mut self, workload: &str, line: &ResultLine) {
        for (name, m) in &line.metrics {
            let key = Self::key(workload, name);
            self.units.insert(key.clone(), m.unit.clone());
            self.values.entry(key).or_default().push(m.value);
        }
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string(self).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
    }

    pub fn read(path: &Path) -> Result<ResultsFile, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> ResultLine {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "search_p50_ms".to_string(),
            MetricValue { value: 24.018_734_5, unit: "ms".into() },
        );
        metrics
            .insert("searches_per_s".to_string(), MetricValue { value: 41.25, unit: "1/s".into() });
        ResultLine { correct: true, attempted: 400, failed: 0, metrics }
    }

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let json = line().to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("24.0187345"), "{json}");
        let stdout = format!("header\nsome table\n{json}\n\n");
        assert_eq!(ResultLine::from_stdout(&stdout).unwrap(), line());
        assert!(ResultLine::from_stdout("not json").is_err());
    }

    #[test]
    fn results_file_round_trips_through_disk() {
        let mut file = ResultsFile::default();
        file.header.insert("host".into(), "2-core shared host".into());
        file.push("inproc_search", &line());
        file.push("inproc_search", &line());
        let dir = crate::host::out_root().join(format!("outfile-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.json");
        file.write(&path).unwrap();
        let back = ResultsFile::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.values["inproc_search/search_p50_ms"], vec![24.018_734_5; 2]);
        assert_eq!(back.units["inproc_search/searches_per_s"], "1/s");
    }
}
