//! The repository's benchmark: six workloads from the full study to warm
//! serving, end-to-end metrics from untraced runs, per-layer metrics and
//! a span file from a traced run. See `benchmark/README.md`.
//!
//! ```text
//! originscan-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! originscan-benchmark [--seed N] [--seconds S] [--out DIR]      every workload, both ways
//! originscan-benchmark --repeat N [...]                          N sets, spread vs bound
//! originscan-benchmark --selftest                                checks only, tiny scale
//! ```

// Wall-clock timing is what a benchmark is for; nothing measured here
// feeds an analysis. (The root `clippy.toml` bans `Instant::now`.)
#![allow(clippy::disallowed_methods)]

mod client;
mod harness;
mod inputs;
mod json;
mod layers;
mod metrics;
mod spans;
mod stat;
mod workloads;

use harness::{Ctx, RunResult, Workload};
use inputs::{Scale, Seeds};
use json::{Obj, Value};
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::resilience::Resilience;
use workloads::scan_single::ScanSingle;
use workloads::serve::{ServeCold, ServeWarm};
use workloads::store_roundtrip::StoreRoundtrip;
use workloads::study::Study;

/// In `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    Study::NAME,
    ScanSingle::NAME,
    Resilience::NAME,
    StoreRoundtrip::NAME,
    ServeCold::NAME,
    ServeWarm::NAME,
];

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    selftest: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2020,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        selftest: false,
        repeat: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|_| "--repeat takes a count")?;
                if args.repeat < 2 {
                    return Err("--repeat needs at least 2 sets to compare".to_string());
                }
            }
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// A scratch directory of this process's own under `out`, removed on
/// drop: store files live and die inside the checkout.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &Path) -> std::io::Result<Scratch> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_named(name: &str, ctx: &Ctx, seconds: f64, trace: bool) -> RunResult {
    match name {
        Study::NAME => harness::run::<Study>(ctx, seconds, trace),
        ScanSingle::NAME => harness::run::<ScanSingle>(ctx, seconds, trace),
        Resilience::NAME => harness::run::<Resilience>(ctx, seconds, trace),
        StoreRoundtrip::NAME => harness::run::<StoreRoundtrip>(ctx, seconds, trace),
        ServeCold::NAME => harness::run::<ServeCold>(ctx, seconds, trace),
        ServeWarm::NAME => harness::run::<ServeWarm>(ctx, seconds, trace),
        other => unreachable!("`{other}` passed argument validation"),
    }
}

fn result_line(r: &RunResult, defs: &[MetricDef]) -> String {
    Obj::new()
        .bool("correct", r.correct)
        .int("attempted", r.attempted.max(1))
        .int("failed", r.failed)
        .raw("metrics", &r.metrics.to_json(defs))
        .finish()
}

/// One workload, one way: what the driver runs.
fn run_one(args: &Args, name: &str) -> Result<(), String> {
    let scratch =
        Scratch::new(&args.out).map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let ctx = Ctx {
        seeds: Seeds::new(args.seed),
        scale: Scale::BENCH,
        dir: scratch.0.clone(),
    };
    let mut result = run_named(name, &ctx, args.seconds, args.trace);
    if args.trace {
        layers::probe_all(&ctx, &mut result.metrics);
        let path = args.out.join(format!("trace_{name}.jsonl"));
        std::fs::write(&path, result.trace.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!(
        "{}",
        result_line(&result, if args.trace { PER_LAYER } else { END_TO_END })
    );
    Ok(())
}

/// A child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64)>,
}

/// Re-execute this binary for one workload, so that its peak RSS and its
/// CPU are its own, and read its result line back.
fn run_child(args: &Args, name: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .output()
        .map_err(|e| format!("start the {name} run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "the {name} run failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let doc = Value::parse(line).map_err(|e| format!("{name}: unreadable result line ({e})"))?;
    let num = |k: &str| doc.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Value::as_bool).unwrap_or(false),
        attempted: num("attempted"),
        failed: num("failed"),
        values: doc
            .get("metrics")
            .map(Value::as_obj)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// `unit, higher|lower is better` for a registered metric.
fn unit_and_direction(name: &str) -> String {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map_or(String::new(), |d| {
            format!("{} ({} is better)", d.unit, d.better.as_str())
        })
}

/// Every workload, untraced then traced: prints every metric by name and
/// unit and writes `results.json` beside the trace files.
fn run_all(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let mut all_correct = true;
    let mut results = Obj::new()
        .int("seed", args.seed)
        .num("seconds", args.seconds);
    for name in WORKLOADS {
        let mut workload = Obj::new();
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let r = run_child(args, name, trace)?;
            all_correct &= r.correct;
            println!(
                "== {name} ({key}): correct={} attempted={} failed={}",
                r.correct, r.attempted, r.failed
            );
            let mut section = Obj::new();
            for (metric, value) in &r.values {
                println!("{metric:<44} {value:>18.6} {}", unit_and_direction(metric));
                section = section.num(metric, *value);
            }
            workload = workload
                .raw(key, &section.finish())
                .bool(&format!("{key}_correct"), r.correct)
                .int(&format!("{key}_attempted"), r.attempted)
                .int(&format!("{key}_failed"), r.failed);
        }
        results = results.raw(name, &workload.finish());
    }
    let path = args.out.join("results.json");
    std::fs::write(&path, results.finish() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "wrote {} and trace_<workload>.jsonl in {}",
        path.display(),
        args.out.display()
    );
    Ok(all_correct)
}

/// The regression bound `BENCHMARK.json` fixes for an end-to-end metric.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Value::parse(&text)?;
    Ok(doc
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|e| {
            Some((
                e.get("name")?.as_str()?.to_string(),
                e.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// `--repeat N`: N full sets of untraced runs of the same code; for
/// every end-to-end metric × workload, the spread between sets — the
/// distance between the quartiles as a share of the median, the
/// acceptance rule's own statistic — against the metric's bound.
fn run_repeat(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut within = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for name in WORKLOADS {
        let mut sets: Vec<ChildResult> = Vec::new();
        for _ in 0..args.repeat {
            sets.push(run_child(args, name, false)?);
        }
        within &= sets.iter().all(|r| r.correct);
        for (metric, bound) in &bounds {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|r| r.values.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
                .collect();
            let med = stat::median(&values);
            let (min, max) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(*v), hi.max(*v))
                });
            let spread = stat::relative_iqr(&values);
            let ok = spread <= *bound;
            within &= ok;
            println!(
                "{name:<16} {metric:<12} {min:>14.4} {med:>14.4} {max:>14.4} {spread:>8.4} {bound:>6.2}{}",
                if ok { "" } else { "  OUTSIDE" }
            );
        }
    }
    Ok(within)
}

/// `--selftest`: all six workloads at the tiny scale, both ways, and the
/// layer probes once; checks only, no number means anything.
fn selftest(args: &Args) -> Result<bool, String> {
    let scratch =
        Scratch::new(&args.out).map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let ctx = Ctx {
        seeds: Seeds::new(args.seed),
        scale: Scale::TINY,
        dir: scratch.0.clone(),
    };
    let mut ok = true;
    let mut measured = metrics::Metrics::default();
    layers::probe_all(&ctx, &mut measured);
    for name in WORKLOADS {
        for trace in [false, true] {
            let r = run_named(name, &ctx, 0.05, trace);
            println!(
                "{name:<16} trace={} attempted={:<6} failed={:<3} {}",
                u8::from(trace),
                r.attempted,
                r.failed,
                if r.correct { "ok" } else { "FAILED" }
            );
            ok &= r.correct;
            measured.absorb(r.metrics);
        }
    }
    // Every registered metric must be measured by some run: a name in
    // the registry that nothing sets would print 0 for ever.
    let unmeasured: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .filter(|d| measured.get(d.name).is_none())
        .map(|d| d.name)
        .collect();
    if !unmeasured.is_empty() {
        println!("never measured: {unmeasured:?}");
    }
    Ok(ok && unmeasured.is_empty())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        parse_args(&argv).and_then(|args| match (&args.workload, args.selftest, args.repeat) {
            (_, true, _) => selftest(&args),
            (Some(name), _, _) => run_one(&args, name).map(|()| true),
            (None, _, 0) => run_all(&args),
            (None, _, _) => run_repeat(&args),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a check failed or a metric left its bound");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "serve_warm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_warm"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace, d.repeat),
            (2020, DEFAULT_SECONDS, false, 0)
        );
        assert_eq!(d.out, PathBuf::from("benchmark/out"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seconds", "61"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--repeat", "1"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = metrics::Metrics::default();
        m.set("pass_ms", 1.5);
        let r = RunResult {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: m,
            trace: spans::TraceLog::default(),
        };
        let doc = Value::parse(&result_line(&r, END_TO_END)).unwrap();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1.0));
        assert_eq!(doc.get("metrics").unwrap().as_obj().len(), END_TO_END.len());
    }
}
