//! ML workload plane sweep: the composable-plane study over the ML-era
//! kernels (GEMM, CONV, ATTN). Each kernel runs under the G-Cache
//! replacement policy with every cross-product of the orthogonal L1
//! policy planes:
//!
//! * `GC` — both planes defer to the policy (the paper's design),
//! * `GC+HYDRA` — HyDRA-style class-driven fill bypass composed in front,
//! * `GC+CB` — RDC-style clean copy-back of reuse-proven victims,
//! * `GC+HYDRA+CB` — both planes composed.
//!
//! Run with `cargo run --release -p gcache-bench --bin mlsweep`.
//! `--quick` shrinks the kernels for smoke runs, `--bench NAMES`
//! restricts the kernel set, `--jobs N` fans the grid out (stdout is
//! byte-identical for every N) and `--telemetry PATH` re-runs the grid
//! with the per-epoch sampler attached and writes the combined series.

use gcache_bench::sweep::{run_design_points, DesignPoint};
use gcache_bench::{
    bench_cli, pct, run_sampled_with_planes, speedup, write_telemetry_series, PolicyPlanes, Table,
    TelemetrySeries,
};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::{Hierarchy, L1PolicyKind};
use gcache_workloads::{ml_registry, Benchmark};

/// The swept plane compositions, in presentation order.
fn compositions() -> Vec<(&'static str, PolicyPlanes)> {
    vec![
        ("GC", PolicyPlanes::default()),
        ("GC+HYDRA", PolicyPlanes::hydra()),
        ("GC+CB", PolicyPlanes::clean_copy_back(2)),
        (
            "GC+HYDRA+CB",
            PolicyPlanes {
                l1_bypass: PolicyPlanes::hydra().l1_bypass,
                l1_copy_back: PolicyPlanes::clean_copy_back(2).l1_copy_back,
            },
        ),
    ]
}

fn main() {
    let cli = bench_cli();
    let benches: Vec<Box<dyn Benchmark>> = ml_registry(cli.scale())
        .into_iter()
        .filter(|b| cli.only.is_empty() || cli.only.iter().any(|n| n == b.info().name))
        .collect();
    let jobs = cli.jobs();
    let policy = || L1PolicyKind::GCache(GCacheConfig::default());

    let combos = compositions();
    let grid: Vec<DesignPoint<'_>> = benches
        .iter()
        .flat_map(|b| {
            combos.iter().map(move |&(_, planes)| DesignPoint {
                bench: b.as_ref(),
                policy: policy(),
                l1_kb: None,
                hierarchy: Hierarchy::Flat,
                cluster_ports: 1,
                planes,
            })
        })
        .collect();
    eprintln!("[mlsweep] {} runs on {jobs} jobs ...", grid.len());
    let mut results = run_design_points(&grid, jobs, &cli.run).into_iter();

    let mut t = Table::new(&[
        "Bench",
        "Planes",
        "IPC",
        "vs GC",
        "L1 miss",
        "Plane byp",
        "Clean CB",
    ]);
    for b in &benches {
        let runs: Vec<_> = results.by_ref().take(combos.len()).collect();
        let base = &runs[0]; // plain GC is the first composition
        for ((name, _), stats) in combos.iter().zip(&runs) {
            t.row(vec![
                b.info().name.to_string(),
                name.to_string(),
                format!("{:.4}", stats.ipc()),
                speedup(stats.speedup_over(base)),
                pct(stats.l1.miss_rate()),
                stats.l1.plane_bypasses.to_string(),
                stats.l1.clean_copy_backs.to_string(),
            ]);
        }
    }

    println!("## ML workload plane sweep (G-Cache replacement x L1 policy planes)\n");
    println!("{}", t.render());

    if let Some(path) = &cli.telemetry {
        let series: Vec<TelemetrySeries> = benches
            .iter()
            .flat_map(|b| {
                combos.iter().map(|&(name, planes)| {
                    let (_, sampler) = run_sampled_with_planes(
                        policy(),
                        b.as_ref(),
                        None,
                        Hierarchy::Flat,
                        planes,
                        &cli.run,
                    );
                    (b.info().name.to_string(), name, sampler)
                })
            })
            .collect();
        write_telemetry_series(path, &series);
    }
    gcache_bench::export_trace(&cli);
}
