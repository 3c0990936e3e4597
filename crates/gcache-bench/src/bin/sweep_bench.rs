//! Times the parallel sweep engine against its serial fallback on a fixed
//! smoke-scale grid (every registered benchmark × the six Figure 8
//! designs), measures the idle-cycle fast-forward benefit — both on the
//! grid and on full-scale single runs — and writes the measurements to
//! `BENCH_sweep.json`.
//!
//! Also acts as an end-to-end determinism check: the run aborts if the
//! parallel results differ from the serial ones, or if fast-forwarding
//! changes any statistic, in any field.
//!
//! Run with `cargo run --release -p gcache-bench --bin sweep_bench`.
//! `--jobs N` picks the parallel worker count (default: the host's
//! available parallelism). `--quick` skips the full-scale timing section
//! (CI smoke mode). `--profile` additionally self-profiles one
//! representative run — per-component wall clock and fast-forward
//! effectiveness — and records it under `"profile"` in the JSON.
//!
//! Each run also records the previous `BENCH_sweep.json`'s `serial_ms`
//! (when present) as `serial_ms_prev` with the ratio
//! `serial_overhead_vs_prev`, so the wall-clock cost of newly added
//! (disabled) instrumentation hooks is tracked revision to revision.

use gcache_bench::microbench::{l1_access_pass_ns, L1_BENCH_POLICIES};
use gcache_bench::sweep::{run_design_points, DesignPoint};
use gcache_bench::{
    bench_cli, designs, export_telemetry, export_trace, point_config, run, PolicyPlanes, RunOpts,
};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::{Hierarchy, L1PolicyKind};
use gcache_sim::gpu::Gpu;
use gcache_sim::telemetry::Profile;
use gcache_workloads::{registry, Benchmark, Scale};
use std::fmt::Write as _;
use std::time::Instant;

/// Full-scale benchmarks timed individually with the fast-forward on/off:
/// BFS is cache-sensitive and latency-bound (long idle stretches), SPMV is
/// a large streaming workload.
const FULLSCALE_BENCHES: &[&str] = &["BFS", "SPMV"];

/// One self-profiled run (GC design, fast-forward as `opts` says): returns
/// the accumulated [`Profile`].
fn profiled_run(bench: &dyn Benchmark, opts: &RunOpts) -> Profile {
    let cfg = point_config(
        L1PolicyKind::GCache(GCacheConfig::default()),
        None,
        Hierarchy::Flat,
        1,
        PolicyPlanes::default(),
        opts,
    );
    let mut gpu = Gpu::new(cfg);
    gpu.enable_profiling();
    gpu.run_kernel(bench)
        .unwrap_or_else(|e| panic!("profiled {} failed: {e}", bench.info().name));
    gpu.profile().expect("profiling enabled above")
}

/// `serial_ms` recorded by the previous revision's `BENCH_sweep.json`, if
/// one exists (hand-rolled substring parse — the file is our own output).
fn previous_serial_ms() -> Option<f64> {
    let prev = std::fs::read_to_string("BENCH_sweep.json").ok()?;
    let tail = prev.split("\"serial_ms\":").nth(1)?;
    tail.split([',', '\n', '}']).next()?.trim().parse().ok()
}

fn main() {
    let cli = bench_cli();
    let jobs = cli.jobs();
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Fixed default grid so measurements are comparable run to run: the
    // full smoke-scale registry × the six designs (SPDP-B pinned at PD 8 —
    // this is a timing harness, not an experiment). `--hierarchy` multiplies
    // the grid by extra hierarchy shapes; the default stays flat-only so
    // `BENCH_sweep.json` numbers remain comparable across revisions.
    let shapes = cli.hierarchies(&[Hierarchy::Flat]);
    let benches = registry(Scale::Test);
    let mut grid: Vec<DesignPoint<'_>> = Vec::new();
    for b in &benches {
        for &hierarchy in &shapes {
            for policy in designs(8) {
                grid.push(DesignPoint {
                    bench: b.as_ref(),
                    policy,
                    l1_kb: None,
                    hierarchy,
                    cluster_ports: 1,
                    planes: PolicyPlanes::default(),
                });
            }
        }
    }

    eprintln!(
        "[sweep_bench] grid: {} runs ({} benches x {} shapes x {} designs)",
        grid.len(),
        benches.len(),
        shapes.len(),
        designs(8).len()
    );

    // The timed passes pin fast-forward themselves; everything else comes
    // from the command line.
    let (mut ff_on, mut ff_off) = (cli.run.clone(), cli.run.clone());
    (ff_on.fast_forward, ff_off.fast_forward) = (true, false);

    eprintln!("[sweep_bench] serial pass, fast-forward off (1 job) ...");
    let t0 = Instant::now();
    let serial_no_ff = run_design_points(&grid, 1, &ff_off);
    let serial_no_ff_ms = t0.elapsed().as_secs_f64() * 1e3;

    eprintln!("[sweep_bench] serial pass, fast-forward on (1 job) ...");
    let t0 = Instant::now();
    let serial = run_design_points(&grid, 1, &ff_on);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    eprintln!("[sweep_bench] parallel pass ({jobs} jobs) ...");
    let t0 = Instant::now();
    let parallel = run_design_points(&grid, jobs, &ff_on);
    let parallel_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.len(), serial_no_ff.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "parallel result {i} diverges from serial"
        );
    }
    for (i, (s, n)) in serial.iter().zip(&serial_no_ff).enumerate() {
        assert_eq!(
            format!("{s:?}"),
            format!("{n:?}"),
            "fast-forward result {i} diverges from the plain cycle loop"
        );
    }
    eprintln!("[sweep_bench] determinism: parallel and fast-forward results identical to serial");

    // Fast-forward benefit where it matters: full-scale single runs under
    // the LRU baseline, timed with the clock jumping and plain. Skipped
    // under --quick (CI smoke mode).
    let fullscale_names: &[&str] = if cli.quick { &[] } else { FULLSCALE_BENCHES };
    let paper = registry(Scale::Paper);
    let mut fullscale_json = String::new();
    let (mut ff_on_total_ms, mut ff_off_total_ms) = (0.0f64, 0.0f64);
    for (i, name) in fullscale_names.iter().enumerate() {
        let bench = paper
            .iter()
            .find(|b| b.info().name == *name)
            .expect("full-scale benchmark is registered");

        // Best of three per side: single-run wall clock on a loaded host
        // is noisy, and the minimum is the least-disturbed observation.
        let time_side = |opts: &RunOpts| {
            let mut best: Option<(f64, _)> = None;
            for _ in 0..3 {
                let t0 = Instant::now();
                let stats = run(
                    L1PolicyKind::Lru,
                    bench.as_ref(),
                    None,
                    Hierarchy::Flat,
                    opts,
                );
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if let Some((_, prev)) = &best {
                    assert_eq!(
                        format!("{stats:?}"),
                        format!("{prev:?}"),
                        "full-scale {name} is not run-to-run deterministic"
                    );
                }
                if best.as_ref().is_none_or(|(b, _)| ms < *b) {
                    best = Some((ms, stats));
                }
            }
            best.expect("three timed runs")
        };

        eprintln!("[sweep_bench] full-scale {name}, fast-forward on (best of 3) ...");
        let (on_ms, fast) = time_side(&ff_on);
        eprintln!("[sweep_bench] full-scale {name}, fast-forward off (best of 3) ...");
        let (off_ms, slow) = time_side(&ff_off);

        assert_eq!(
            format!("{fast:?}"),
            format!("{slow:?}"),
            "fast-forward diverges on full-scale {name}"
        );
        ff_on_total_ms += on_ms;
        ff_off_total_ms += off_ms;
        let sep = if i + 1 < fullscale_names.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            fullscale_json,
            "\n    {{ \"bench\": \"{name}\", \"ff_on_ms\": {on_ms:.1}, \"ff_off_ms\": {off_ms:.1}, \"speedup\": {:.3} }}{sep}",
            off_ms / on_ms
        );
        eprintln!(
            "[sweep_bench] {name}: {off_ms:.0} ms -> {on_ms:.0} ms ({:.2}x)",
            off_ms / on_ms
        );
    }

    // Self-profile one representative smoke-scale run (BFS under GC) when
    // asked: where does the host time go, and how effective is the
    // fast-forward machinery?
    let profile_json = if cli.profile {
        let bench = benches
            .iter()
            .find(|b| b.info().name == "BFS")
            .unwrap_or(&benches[0]);
        eprintln!(
            "[sweep_bench] self-profiling {} under GC ...",
            bench.info().name
        );
        let p = profiled_run(bench.as_ref(), &cli.run);
        for line in p.to_string().lines() {
            eprintln!("[sweep_bench]   {line}");
        }
        format!(
            "\n  \"profile\": {},\n  \"icnt_share\": {:.3},\n  \"core_share\": {:.3},",
            p.json_object(),
            p.icnt_share(),
            p.core_share()
        )
    } else {
        String::new()
    };

    // L1 access-path microbenchmark: best-of-3 ns/access per policy (the
    // `benches/l1.rs` numbers), recorded so controller hot-path
    // regressions show up in the same file as the grid timings. Skipped
    // under --quick (CI smoke mode) like the full-scale section.
    let l1_json = if cli.quick {
        String::new()
    } else {
        let mut entries = String::new();
        for (i, &policy) in L1_BENCH_POLICIES.iter().enumerate() {
            eprintln!("[sweep_bench] l1 access loop, {policy} (best of 3) ...");
            let best = (0..3)
                .map(|_| l1_access_pass_ns(policy))
                .fold(f64::INFINITY, f64::min);
            let sep = if i + 1 < L1_BENCH_POLICIES.len() {
                ","
            } else {
                ""
            };
            let _ = write!(
                entries,
                "\n    {{ \"policy\": \"{policy}\", \"ns_per_access\": {best:.1} }}{sep}"
            );
        }
        format!("\n  \"l1_microbench\": [{entries}\n  ],")
    };

    // Hook-overhead trend: compare this serial grid pass against the one
    // recorded by the previous revision (read before we overwrite it).
    let prev_json = match previous_serial_ms() {
        Some(prev) if prev > 0.0 => {
            eprintln!(
                "[sweep_bench] serial grid: {serial_ms:.0} ms vs {prev:.0} ms previously ({:+.1}%)",
                (serial_ms / prev - 1.0) * 100.0
            );
            format!(
                "\n  \"serial_ms_prev\": {prev:.1},\n  \"serial_overhead_vs_prev\": {:.3},",
                serial_ms / prev
            )
        }
        _ => String::new(),
    };

    let speedup = serial_ms / parallel_ms;
    let fullscale_ff_speedup = if ff_on_total_ms > 0.0 {
        ff_off_total_ms / ff_on_total_ms
    } else {
        0.0
    };
    let json = format!(
        "{{\n  \"grid_runs\": {},\n  \"benches\": {},\n  \"designs\": {},\n  \"jobs\": {},\n  \"host_threads\": {},\n  \"serial_no_ff_ms\": {:.1},\n  \"serial_ms\": {:.1},{}{}{}\n  \"parallel_ms\": {:.1},\n  \"speedup\": {:.3},\n  \"grid_fastforward_speedup\": {:.3},\n  \"fullscale\": [{}\n  ],\n  \"fastforward_speedup\": {:.3},\n  \"deterministic\": true\n}}\n",
        grid.len(),
        benches.len(),
        designs(8).len(),
        jobs,
        host_threads,
        serial_no_ff_ms,
        serial_ms,
        prev_json,
        profile_json,
        l1_json,
        parallel_ms,
        speedup,
        serial_no_ff_ms / serial_ms,
        fullscale_json,
        fullscale_ff_speedup,
    );
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    print!("{json}");

    export_telemetry(&cli);
    export_trace(&cli);
}
