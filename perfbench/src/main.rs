//! The repo benchmark: four named workloads driven through the platform's
//! public API, end-to-end metrics from an untraced pass, and a per-layer
//! ledger from a traced pass timed from outside. See README.md beside
//! `Cargo.toml` for why each workload exists and how to read the rows.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! perfbench --all --seed <n> [--seconds <s>] [--repeat <r>] [--out <file>] [--smoke]
//! perfbench compare <a.json> <b.json>
//! ```

mod compare;
mod forwarder;
mod host;
mod inputs;
mod layers;
mod outfile;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use outfile::{ResultLine, ResultsFile};
use run::Durations;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::Workload;

/// Measured seconds of a run when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 16.0;

const USAGE: &str = "usage:
  perfbench --workload <inproc_search|tcp_search|sharded_mixed|restart> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  perfbench --all --seed <n> [--seconds <s>] [--repeat <r>] [--out <file>] [--smoke]
  perfbench compare <a.json> <b.json>";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { repeat: 1, ..Default::default() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--all" => parsed.all = true,
            "--smoke" => parsed.smoke = true,
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let seconds: f64 = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds}: want 0 < s <= 600"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                }
            }
            "--repeat" => {
                let v = value()?;
                parsed.repeat = v.parse().map_err(|e| format!("--repeat {v}: {e}"))?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// One workload, one pass, in this process: print the report, then the
/// result line the driver reads. Whether the answers were right is in that
/// line (`correct`), so a run that printed one has done its job.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let durations = Durations::of(args.seconds.unwrap_or(DEFAULT_SECONDS), args.smoke);
    let cfg = run::config(workload, args.seed, args.smoke)?;
    let outcome = if args.trace {
        run::traced(&cfg, durations, args.smoke)
    } else {
        run::untraced(&cfg, durations, args.smoke)
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let outcome = outcome?;
    print!("{}", outcome.report);
    println!("{}", outcome.line.to_json());
    Ok(true)
}

/// Every workload, each pass in a process of its own so that `peak_rss_mb`
/// is the workload's and nothing one workload warmed serves the next.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_root = host::out_root();
    std::fs::create_dir_all(&out_root).map_err(|e| e.to_string())?;
    let mut results = ResultsFile::default();
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    results.header = host::header(args.seed, seconds, args.smoke, &out_root);
    let mut all_correct = true;
    for pass in 0..args.repeat {
        for workload in Workload::ALL {
            let mut of_workload =
                ResultsFile { header: results.header.clone(), ..Default::default() };
            for trace in ["0", "1"] {
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload.name(), "--seed", &args.seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", trace]);
                if args.smoke {
                    child.arg("--smoke");
                }
                let output = child.output().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let body = stdout.trim_end();
                print!("{}", body.rsplit_once('\n').map_or("", |(report, _)| report));
                println!();
                if !output.status.success() {
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                    return Err(format!(
                        "{} --trace {trace} (pass {pass}) failed",
                        workload.name()
                    ));
                }
                let line = ResultLine::from_stdout(&stdout)?;
                all_correct &= line.correct;
                results.push(workload.name(), &line);
                of_workload.push(workload.name(), &line);
            }
            of_workload.write(&out_root.join(format!("{}.json", workload.name())))?;
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_root.join(format!("results-seed{}.json", args.seed)));
    results.write(&path)?;
    println!("results: {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => ResultsFile::read(a.as_ref()).and_then(|a| {
                let (table, regressed) = compare::compare(&a, &ResultsFile::read(b.as_ref())?);
                print!("{table}");
                Ok(!regressed)
            }),
            _ => Err(USAGE.to_string()),
        },
        _ => parse(&argv).and_then(|args| match (&args.workload, args.all) {
            (Some(name), false) => run_one(&args, name),
            (None, true) => run_all(&args),
            _ => Err(USAGE.to_string()),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // `--all` saw a wrong answer, or `compare` a regressed row: the
        // numbers were printed, the exit code says not to take them as a pass.
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse(&args(&[
            "--workload",
            "restart",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("restart"));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, Some(10.0), true, false));
        assert!(parse(&args(&["--trace", "2"])).is_err());
        assert!(parse(&args(&["--seconds", "0"])).is_err());
        assert!(parse(&args(&["--seed"])).is_err());
        assert!(parse(&args(&["--frobnicate"])).is_err());
    }

    /// All four workloads end to end, both passes, at smoke scale: every
    /// answer checked, every declared metric present and finite.
    #[test]
    fn smoke_runs_all_four_workloads_end_to_end() {
        for workload in Workload::ALL {
            let cfg = run::config(workload, 3, true).unwrap();
            let durations = Durations::of(1.0, true);
            let untraced = run::untraced(&cfg, durations, true).unwrap();
            assert!(untraced.line.correct, "{}", untraced.report);
            assert_eq!(untraced.line.metrics.len(), spec::END_TO_END.len());
            assert!(untraced.line.metrics.values().all(|m| m.value > 0.0), "{}", untraced.report);
            let traced = run::traced(&cfg, durations, true).unwrap();
            assert!(traced.line.correct, "{}", traced.report);
            assert_eq!(traced.line.metrics.len(), spec::PER_LAYER.len());
            assert!(traced.report.contains(host::HOST_CLASS));
            let _ = std::fs::remove_dir_all(&cfg.work_dir);
        }
    }
}
