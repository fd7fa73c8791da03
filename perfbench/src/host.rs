//! Facts about the host and the build that every report header states.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Printed in every header: concurrency figures from this box do not carry
/// to a larger one.
pub const HOST_CLASS: &str = "2-core shared host";

/// Where build outputs, storage directories, traces and result files go:
/// the cargo target directory, which `.gitignore` already covers.
pub fn out_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The report header.
pub fn header(
    seed: u64,
    seconds: f64,
    smoke: bool,
    storage_dir: &Path,
) -> BTreeMap<String, String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut h = BTreeMap::new();
    h.insert("host".into(), HOST_CLASS.to_string());
    h.insert(
        "commit".into(),
        command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into()),
    );
    h.insert(
        "rustc".into(),
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    );
    h.insert("nproc".into(), nproc.to_string());
    h.insert("seed".into(), seed.to_string());
    h.insert("measured_seconds".into(), seconds.to_string());
    h.insert("storage_dir_fs".into(), filesystem_of(storage_dir));
    h.insert(
        "comparable".into(),
        if smoke { "no (--smoke: shrunken corpora, 1 s phases)" } else { "yes" }.to_string(),
    );
    h
}
