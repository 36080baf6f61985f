//! The repository benchmark: one process per run.
//!
//! ```text
//! perfbench --workload <suite|serve-graph|serve-btree> --seed N --seconds S
//!           --trace <0|1> [--smoke] [--out DIR] [--rev REV] [--source-hash H]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with no
//! tracing; with `--trace 1` it runs the workload once untraced and once
//! with a span around every call into a layer, and prints the per-layer
//! metrics plus the tracing overhead. Correctness checks run before any
//! number is printed; a failed check prints no metric and exits 1.

mod host;
mod report;
mod schedule;
mod serve;
mod spans;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Small inputs that run every workload and check in seconds.
    Smoke,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Span files go here, scratch archives under `work-<pid>/`.
    pub out: PathBuf,
    /// Provenance handed in by `run.py`.
    pub rev: String,
    pub source_hash: String,
}

const USAGE: &str = "usage: perfbench --workload <suite|serve-graph|serve-btree> --seed N \
                     --seconds S --trace <0|1> [--smoke] [--out DIR] [--rev REV] [--source-hash H]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out: PathBuf::from("perfbench/out"),
        rev: "unknown".into(),
        source_hash: "unknown".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.size = Size::Smoke;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            "--rev" => a.rev = value.clone(),
            "--source-hash" => a.source_hash = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !report::WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {}", a.seconds));
    }
    Ok(a)
}

/// Runs one workload and returns what it measured.
pub fn run(args: &Args) -> report::Outcome {
    let mut o = report::Outcome::default();
    let work = args.out.join(format!("work-{}", std::process::id()));
    let steal_before = host::cpu_jiffies();
    match args.workload.as_str() {
        "suite" => suite::run(args, &work, &mut o),
        "serve-graph" => serve::run(args, serve::Family::Graph, &work, &mut o),
        _ => serve::run(args, serve::Family::Btree, &work, &mut o),
    }
    let _ = std::fs::remove_dir_all(&work);
    let steal = host::steal_share(steal_before, host::cpu_jiffies());
    if !o.values.contains_key("peak_rss_mib") {
        o.set("peak_rss_mib", host::peak_rss_mib());
    }
    o.set("host.cpu_steal_share", steal);
    o.set("host.nproc", host::nproc() as f64);
    let config = o.provenance.get("config").map_or("", String::as_str);
    let config_hash = hsu_archive::fnv1a64(config.as_bytes());
    o.note("workload", &args.workload);
    o.note("seed", args.seed);
    o.note("seconds", args.seconds);
    o.note("trace", u8::from(args.trace));
    o.note("size", format!("{:?}", args.size));
    o.note("rev", &args.rev);
    o.note("source_hash", &args.source_hash);
    o.note("config_hash", format!("{config_hash:016x}"));
    o.note("nproc", host::nproc());
    o.note("cpu_steal_share", format!("{steal:.5}"));
    o
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut o = run(&args);
    let declared = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!("{}", report::provenance_line(&o));
    let (line, correct) = report::result_line(&mut o, declared);
    for e in &o.errors {
        eprintln!("check failed: {e}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(extra: &[&str]) -> Vec<String> {
        extra.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&args(&[
            "--workload",
            "serve-btree",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload, "serve-btree");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--workload", "suite", "--trace", "2"])).is_err());
        assert!(parse(&args(&["--workload", "suite", "--seconds", "0"])).is_err());
        assert!(parse(&args(&["--workload", "suite", "--seed"])).is_err());
    }

    /// Every workload at smoke size passes its correctness checks and
    /// prints every declared metric, traced and untraced.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release")]
    fn smoke_runs_every_workload() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/smoke-{}", std::process::id()));
        for workload in report::WORKLOADS {
            for trace in [false, true] {
                let a = Args {
                    workload: workload.to_string(),
                    seed: 11,
                    seconds: 1.0,
                    trace,
                    size: Size::Smoke,
                    out: out.clone(),
                    rev: "test".into(),
                    source_hash: "test".into(),
                };
                let mut o = run(&a);
                let declared = if trace {
                    report::PER_LAYER
                } else {
                    report::END_TO_END
                };
                let (line, correct) = report::result_line(&mut o, declared);
                assert!(correct, "{workload} trace={trace}: {:?}", o.errors);
                for (name, _) in declared {
                    assert!(line.contains(&format!("\"{name}\"")), "{name} missing");
                }
                if !trace {
                    for (name, _) in report::END_TO_END {
                        assert!(o.values[name] > 0.0, "{workload}: {name} is 0");
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
