//! `amos-perfbench`: the end-to-end and per-layer benchmark of AMOS-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload network-cold|op-verify|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs whole rounds of the same operations until `--seconds`
//! of timed work have passed, checks every output against computations that
//! share no code with the path under test, and prints as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The exit code is 1 when a correctness check fails and 2 on a
//! usage error. See `perfbench/README.md`.

mod network;
mod rng;
mod serve;
mod stats;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// Directory, relative to the working directory, that holds everything a
/// run writes: span files and the service's socket and cache directory.
const OUT_DIR: &str = ".perfbench-out";

/// Set-up samples each workload takes before its first timed operation;
/// `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 101;

/// The per-layer metrics of a traced run, with their units. Every traced
/// run reports all of them; a layer the workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("registry.busy_s", "s"),
    ("spec.busy_s", "s"),
    ("spec.calls", "count"),
    ("generate.busy_s", "s"),
    ("generate.mappings", "count"),
    ("generate.validation_calls", "count"),
    ("lower.busy_s", "s"),
    ("lower.programs", "count"),
    ("explore.busy_s", "s"),
    ("explore.generations", "count"),
    ("explore.measured", "count"),
    ("explore.sim_failures", "count"),
    ("screen.candidates", "count"),
    ("screen.memo_hits", "count"),
    ("screen.busy_s", "s"),
    ("screen.candidates_per_s", "1/s"),
    ("emit.busy_s", "s"),
    ("pool.waves", "count"),
    ("pool.tasks", "count"),
    ("pool.chunks", "count"),
    ("pool.tasks_per_wave", "count"),
    ("cache.l1_hits", "count"),
    ("cache.l2_hits", "count"),
    ("cache.misses", "count"),
    ("cache.refine_hits", "count"),
    ("cache.refine_misses", "count"),
    ("verify.busy_s", "s"),
    ("verify.lanes", "count"),
    ("verify.active_lanes", "count"),
    ("verify.lane_efficiency", "ratio"),
    ("verify.lanes_per_s", "1/s"),
    ("serve.bind_s", "s"),
    ("serve.restart_s", "s"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.join_p50_ms", "ms"),
    ("serve.l2_p50_ms", "ms"),
    ("serve.l1_p50_ms", "ms"),
    ("serve.dedup_joined", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.errors", "count"),
    ("trace.op_wall_p50_ms", "ms"),
    ("trace.span_coverage_min", "ratio"),
    ("trace.overhead_probe_ns", "ns"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// How big a run is: the full benchmark, or the smoke size of the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes documented in the README.
    Full,
    /// A run that ends in seconds, for tests.
    Smoke,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed (no answer, or an answer that is not credible).
    pub failed: u64,
    /// Correctness-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Set-up samples, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every successful operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Seconds of the timed section.
    pub timed_s: f64,
    /// Fewest operations any run of this workload attempts; fixes the tail
    /// percentile.
    pub min_ops: usize,
    /// Best simulated cycles of each distinct operator or network.
    pub cycles: Vec<f64>,
    /// Per-layer metrics gathered by a traced run.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a failed correctness check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }
}

/// Fills the per-layer ratios from the counts and busy times beside them;
/// a ratio over nothing reads 0.
pub fn derive_ratios(l: &mut BTreeMap<&'static str, f64>) {
    let ratio = |l: &BTreeMap<&'static str, f64>, a: &str, b: &str| {
        let (a, b) = (
            l.get(a).copied().unwrap_or(0.0),
            l.get(b).copied().unwrap_or(0.0),
        );
        if b > 0.0 {
            a / b
        } else {
            0.0
        }
    };
    let rows = [
        (
            "screen.candidates_per_s",
            ratio(l, "screen.candidates", "screen.busy_s"),
        ),
        ("pool.tasks_per_wave", ratio(l, "pool.tasks", "pool.waves")),
        (
            "verify.lane_efficiency",
            ratio(l, "verify.active_lanes", "verify.lanes"),
        ),
        (
            "verify.lanes_per_s",
            ratio(l, "verify.lanes", "verify.busy_s"),
        ),
    ];
    l.extend(rows);
}

/// Runs `workload` and returns its report.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    size: Size,
    out_dir: &Path,
) -> Result<Report, String> {
    match workload {
        "network-cold" => Ok(network::run(seed, seconds, tracer, size)),
        "op-verify" => Ok(verify::run(seed, seconds, tracer, size)),
        "serve-mixed" => serve::run(seed, seconds, tracer, size, out_dir),
        other => Err(format!(
            "unknown workload `{other}` (network-cold, op-verify, serve-mixed)"
        )),
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(report: &Report) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let tail = stats::tail_percentile(report.min_ops).ok_or_else(|| {
        format!(
            "workload sized below {} operations",
            stats::MIN_TAIL_SAMPLES
        )
    })?;
    Ok(vec![
        ("setup_s", stats::median(&report.setup_s), "s"),
        (
            "throughput_per_s",
            report.latencies_ms.len() as f64 / report.timed_s,
            "1/s",
        ),
        ("latency_p50_ms", stats::median(&report.latencies_ms), "ms"),
        (
            "latency_tail_ms",
            stats::percentile(&report.latencies_ms, tail),
            "ms",
        ),
        (
            "sim_cycles_geomean",
            stats::geomean(&report.cycles),
            "cycles",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ])
}

/// The per-layer metrics of a traced run, with the trace's own figures.
fn per_layer(report: &Report, summary: &trace::Summary) -> Vec<(&'static str, f64, &'static str)> {
    let mut layers = report.layers.clone();
    layers.insert(
        "trace.op_wall_p50_ms",
        stats::median(&summary.op_walls_s) * 1e3,
    );
    layers.insert(
        "trace.span_coverage_min",
        stats::percentile(&summary.coverage, 0.0),
    );
    layers.insert("trace.overhead_probe_ns", probe_span_cost_ns());
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Median cost of recording one empty span, in nanoseconds.
fn probe_span_cost_ns() -> f64 {
    let t = Tracer::new(true);
    let samples: Vec<f64> = (0..51)
        .map(|i| {
            let start = std::time::Instant::now();
            for _ in 0..1_000 {
                t.root(i, "probe", |_| ());
            }
            start.elapsed().as_nanos() as f64 / 1_000.0
        })
        .collect();
    stats::median(&samples)
}

/// Renders the result line.
fn result_line(correct: bool, report: &Report, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a non-finite value is reported as
        // null and makes the run incorrect.
        let v = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // One line per panic, never a backtrace: the F1 requests panic server
    // threads on purpose, and RUST_BACKTRACE must not change what they cost.
    std::panic::set_hook(Box::new(|info| {
        let thread = std::thread::current();
        eprintln!(
            "thread '{}' panicked: {info}",
            thread.name().unwrap_or("<unnamed>")
        );
    }));
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let tracer = Tracer::new(args.trace);
    let mut report = match run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        &tracer,
        Size::Full,
        &out_dir,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = if args.trace {
        let spans = tracer.spans();
        let summary = trace::summarize(&spans);
        print!("{}", summary.table(&args.workload));
        let path = out_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::File::create(&path)
            .and_then(|f| trace::write_jsonl(&spans, std::io::BufWriter::new(f)));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => report.problem(format!("cannot write {}: {e}", path.display())),
        }
        per_layer(&report, &summary)
    } else {
        match end_to_end(&report) {
            Ok(m) => m,
            Err(e) => {
                report.problem(e);
                Vec::new()
            }
        }
    };
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            report.problem(format!("metric {name} is not finite"));
        }
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!(
        "attempted {} failed {} over {:.3} s timed",
        report.attempted, report.failed, report.timed_s
    );
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = report.problems.is_empty();
    println!("{}", result_line(correct, &report, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = args(&[
            "--workload",
            "op-verify",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("op-verify", 7, 3.0, true)
        );
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--bogus", "1"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let report = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        let line = result_line(
            true,
            &report,
            &[("setup_s", 0.5, "s"), ("x", f64::NAN, "ms")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn per_layer_reports_every_named_metric() {
        let report = Report::default();
        let summary = trace::summarize(&[]);
        let m = per_layer(&report, &summary);
        assert_eq!(m.len(), PER_LAYER.len());
        let mut names: Vec<_> = m.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len(), "names are unique");
    }
}
