//! The repository's benchmark: runs one named workload of G-Cache
//! simulator design points with a seed, checks every simulated output,
//! and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload contention --seed 0 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (host CPU time, simulated
//! cycles per second, per-point time, set-up time, peak memory, and the
//! simulated cycle count and G-Cache speedup). Its host times are CPU
//! times scaled to a reference host speed by a fixed probe timed beside
//! each measurement (see `probe.rs`). `--trace 1` runs the generation-only
//! pass, then alternates untraced and profiled passes, and prints the
//! per-layer metrics plus the profiler's own overhead. See
//! `BENCHMARK.json` for the metric list and bounds.

mod exec;
mod metrics;
mod probe;
mod refs;
mod workload;

use exec::{digest, digests, failures, gen_pass, pass, setup, Mode, Pass};
use metrics::{end_to_end, per_layer, Metric};
use refs::References;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repetitions before each pass; `setup_s` is the median over all
/// of them, so its samples spread over the whole run.
const SETUP_REPS: usize = 9;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::NAMES.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::NAMES.join(", ")
        ));
    }
    if out.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(out)
}

/// nproc, CPU model and compiler, printed with every result.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"",
        env!("PERFBENCH_RUSTC")
    )
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };

    // Set-up, repeated before every pass; each pass runs the workload of
    // the last repetition before it.
    let mut setup_s = Vec::new();
    let mut set_up = || {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let (w, s) = setup(&args.workload, args.seed).expect("workload name was checked");
            setup_s.push(s);
            last = Some(w);
        }
        last.expect("at least one set-up")
    };
    let mut w = set_up();
    probe::reserve(w.jobs);
    let refs = (args.seed == 0).then(|| References::for_workload(&w));

    println!("host {}", fingerprint());
    println!(
        "workload {} seed={} points={} jobs={} scale={:?} reference_cells={}",
        w.name,
        w.seed,
        w.points.len(),
        w.jobs,
        w.scale,
        refs.as_ref().map_or(0, References::len)
    );
    println!("why {}", workload::why(w.name));

    // Whole rounds until the next one would overrun the budget. A traced
    // run alternates untraced and profiled passes, so both see the same
    // host conditions and their ratio is the profiler's overhead.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let gen = args.trace.then(|| gen_pass(&w));
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        let round = Instant::now();
        if args.trace {
            passes.push(pass(&w, Mode::Untraced));
            traced.push(pass(&w, Mode::Profiled));
        } else {
            passes.push(pass(&w, Mode::Timed));
        }
        if start.elapsed() + round.elapsed() > budget {
            break;
        }
        w = set_up();
    }
    for (kind, list) in [("untraced", &passes), ("traced", &traced)] {
        for (i, p) in list.iter().enumerate() {
            let cpu_ns: u64 = p.runs.iter().map(|r| r.cpu_ns).sum();
            let mut probe_ms: Vec<f64> = p
                .runs
                .iter()
                .filter_map(|r| r.probe_ns)
                .map(|ns| ns as f64 / 1e6)
                .collect();
            probe_ms.sort_by(f64::total_cmp);
            let probe = probe_ms
                .get(probe_ms.len() / 2)
                .map_or(String::new(), |ms| format!(" probe_ms_p50 {ms}"));
            println!(
                "pass {kind} {i} wall_s {} cpu_s {}{probe}",
                p.wall_ns as f64 / 1e9,
                cpu_ns as f64 / 1e9
            );
        }
    }
    let first = digests(&passes[0]);
    let mut attempted = 0;
    let mut failed = 0;
    let mut reasons = Vec::new();
    for p in passes.iter().chain(&traced) {
        let (flags, why) = failures(&w, p, refs.as_ref(), Some(&first));
        attempted += flags.len();
        failed += flags.iter().filter(|&&f| f).count();
        reasons.extend(why);
    }
    for r in &reasons {
        println!("FAILED {r}");
    }
    println!(
        "digest {} seed={} {:016x}",
        w.name,
        w.seed,
        digest(&passes[0])
    );

    let metrics: Vec<Metric> = match gen {
        Some(g) => per_layer(&w, &passes, &traced, g),
        None => end_to_end(&w, &passes, &setup_s, peak_rss_mb(), attempted, failed),
    };
    for m in &metrics {
        println!("metric {:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        metrics::result_json(failed == 0, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec::run_point;
    use gcache_core::json::Json;
    use gcache_sim::config::{Hierarchy, L1PolicyKind};
    use workload::Workload;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (
                    s("name"),
                    if key == "workloads" {
                        s("why")
                    } else {
                        s("unit")
                    },
                )
            })
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let declared = |key| names(&doc, key);
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(metrics::END_TO_END));
        assert_eq!(declared("per_layer"), own(metrics::PER_LAYER));
        let workloads: Vec<(String, String)> = workload::NAMES
            .iter()
            .map(|n| (n.to_string(), workload::why(n).to_string()))
            .collect();
        assert_eq!(declared("workloads"), workloads);
    }

    /// The sweep-grid workload cut down to STL on the flat machine.
    fn stl_flat(seed: u64) -> Workload {
        let mut w = Workload::build("sweep-grid", seed).expect("known");
        let stl = w
            .benches
            .iter()
            .position(|b| gcache_workloads::Benchmark::info(b).name == "STL")
            .expect("STL");
        w.points
            .retain(|p| p.bench == stl && p.hierarchy == Hierarchy::Flat);
        w
    }

    #[test]
    fn a_perturbed_reference_is_reported_as_a_failure() {
        let w = stl_flat(0);
        assert_eq!(w.points.len(), 6);
        let p = pass(&w, Mode::Untraced);
        let mut refs = References::for_workload(&w);
        let (flags, why) = failures(&w, &p, Some(&refs), None);
        assert!(flags.iter().all(|f| !f), "clean references: {why:?}");

        refs.perturb(0, "Figure 9:", &["STL"], "GC", "99.9%");
        let (flags, why) = failures(&w, &p, Some(&refs), None);
        let gc = (0..w.points.len())
            .find(|&i| matches!(w.points[i].policy, L1PolicyKind::GCache(_)))
            .expect("GC point");
        assert_eq!(flags.iter().filter(|&&f| f).count(), 1, "{why:?}");
        assert!(flags[gc]);
        assert!(why[0].contains("expected 99.9%, got 100.0%"), "{why:?}");
    }

    #[test]
    fn a_failing_point_is_counted_and_the_pass_goes_on() {
        let mut w = stl_flat(7);
        w.points[0].ports = 0; // rejected by `GpuConfig::with_cluster_ports`
        let p = pass(&w, Mode::Untraced);
        let (flags, why) = failures(&w, &p, None, None);
        assert_eq!(flags, [true, false, false, false, false, false]);
        assert!(why[0].contains("cluster_ports"), "{why:?}");
        assert!(p.runs[1..].iter().all(|r| r.stats.is_some()));
    }

    #[test]
    fn seeds_change_the_stats_but_keep_the_invariants() {
        let mut w0 = Workload::build("sweep-grid", 0).expect("known");
        let mut w1 = Workload::build("sweep-grid", 1).expect("known");
        for w in [&mut w0, &mut w1] {
            // BFS under G-Cache on the flat machine.
            w.points.retain(|p| {
                p.bench == 0
                    && p.hierarchy == Hierarchy::Flat
                    && matches!(p.policy, L1PolicyKind::GCache(_))
            });
            assert_eq!(w.points.len(), 1);
        }
        let (r0, r1) = (
            run_point(&w0, 0, Mode::Untraced),
            run_point(&w1, 0, Mode::Untraced),
        );
        assert!(r0.problems.is_empty(), "{:?}", r0.problems);
        assert!(r1.problems.is_empty(), "{:?}", r1.problems);
        let d = |r: &exec::PointRun| format!("{:?}", r.stats.as_ref().expect("stats"));
        assert_ne!(d(&r0), d(&r1), "seed 1 must permute the CTAs");
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = parse("--workload streaming --seed 3 --seconds 5 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 5, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload streaming --trace 2").is_err());
        assert!(parse("--workload streaming --seconds 0").is_err());
        assert!(parse("--workload streaming --frob 1").is_err());
    }
}
