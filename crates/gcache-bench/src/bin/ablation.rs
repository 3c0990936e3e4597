//! Ablation study of G-Cache's design choices (DESIGN.md §5):
//!
//! * hotness threshold `TH_hot`,
//! * ageing period `M` (§5.1's proposed fix for very large reuse
//!   distances),
//! * victim-bit sharing factor `S_v` (§4.1/§4.3's overhead knob),
//! * epoch length (bypass-switch reset period),
//! * warp scheduler (LRR vs GTO) interaction.
//!
//! Run with `cargo run --release -p gcache-bench --bin ablation`
//! (`--bench` restricts the benchmark set; default: SPMV, SYRK, KMN).
//! `--jobs N` fans the runs out over worker threads; stdout is
//! byte-identical for every N.

use gcache_bench::sweep::parallel_map;
use gcache_bench::{
    bench_cli, export_telemetry, export_trace, point_config, run, speedup, PolicyPlanes, RunOpts,
    Table,
};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::{GpuConfig, Hierarchy, L1PolicyKind, WarpSchedKind};
use gcache_sim::gpu::Gpu;
use gcache_sim::stats::SimStats;
use gcache_workloads::Benchmark;

/// One ablation run, closed over its exact configuration. Config
/// mutations don't fit [`gcache_bench::sweep::DesignPoint`], so each grid
/// cell is a boxed thunk fed through [`parallel_map`] directly.
type Job<'a> = Box<dyn Fn() -> SimStats + Send + Sync + 'a>;

fn run_jobs(grid: Vec<Job<'_>>, jobs: usize) -> Vec<SimStats> {
    parallel_map(&grid, jobs, |j| j())
}

fn gc(cfg: GCacheConfig) -> L1PolicyKind {
    L1PolicyKind::GCache(cfg)
}

/// The flat Table 2 machine running `policy` on `bench`, as a grid job.
fn job<'a>(policy: L1PolicyKind, bench: &'a dyn Benchmark, opts: &'a RunOpts) -> Job<'a> {
    Box::new(move || run(policy, bench, None, Hierarchy::Flat, opts))
}

fn run_with(
    policy: L1PolicyKind,
    bench: &dyn Benchmark,
    opts: &RunOpts,
    mutate: impl FnOnce(&mut GpuConfig),
) -> SimStats {
    let mut cfg = point_config(
        policy,
        None,
        Hierarchy::Flat,
        1,
        PolicyPlanes::default(),
        opts,
    );
    mutate(&mut cfg);
    Gpu::new(cfg)
        .run_kernel(bench)
        .expect("simulation completes")
}

fn main() {
    let mut cli = bench_cli();
    if cli.only.is_empty() {
        cli.only = vec!["SPMV".into(), "SYRK".into(), "KMN".into()];
    }
    let benches = cli.benchmarks();
    let jobs = cli.jobs();
    let opts = &cli.run;

    // --- TH_hot sweep -----------------------------------------------------
    eprintln!(
        "[ablation/th_hot] {} runs on {jobs} jobs ...",
        benches.len() * 5
    );
    let grid: Vec<Job<'_>> = benches
        .iter()
        .flat_map(|b| {
            std::iter::once(job(L1PolicyKind::Lru, b.as_ref(), opts)).chain(
                [1u8, 2, 3, 4].into_iter().map(move |t| {
                    let cfg = GCacheConfig {
                        th_hot: t,
                        th_hot_victim: 1,
                        ..GCacheConfig::default()
                    };
                    job(gc(cfg), b.as_ref(), opts)
                }),
            )
        })
        .collect();
    let mut results = run_jobs(grid, jobs).into_iter();
    let mut th = Table::new(&["Bench", "TH=1", "TH=2 (paper)", "TH=3", "TH=4"]);
    for b in &benches {
        let base = results.next().expect("baseline present");
        let mut row = vec![b.info().name.to_string()];
        for s in results.by_ref().take(4) {
            row.push(speedup(s.speedup_over(&base)));
        }
        th.row(row);
    }
    println!("## Ablation: hotness threshold TH_hot (GC speedup over BS)\n");
    println!("{}", th.render());

    // --- Ageing period M (§5.1) -------------------------------------------
    eprintln!(
        "[ablation/aging] {} runs on {jobs} jobs ...",
        benches.len() * 5
    );
    let grid: Vec<Job<'_>> = benches
        .iter()
        .flat_map(|b| {
            std::iter::once(job(L1PolicyKind::Lru, b.as_ref(), opts)).chain(
                [1u32, 2, 4, 8].into_iter().map(move |m| {
                    let cfg = GCacheConfig {
                        aging_period: m,
                        ..GCacheConfig::default()
                    };
                    job(gc(cfg), b.as_ref(), opts)
                }),
            )
        })
        .collect();
    let mut results = run_jobs(grid, jobs).into_iter();
    let mut aging = Table::new(&["Bench", "M=1 (paper)", "M=2", "M=4", "M=8"]);
    for b in &benches {
        let base = results.next().expect("baseline present");
        let mut row = vec![b.info().name.to_string()];
        for s in results.by_ref().take(4) {
            row.push(speedup(s.speedup_over(&base)));
        }
        aging.row(row);
    }
    println!("## Ablation: ageing period M — larger M extends protection reach (§5.1)\n");
    println!("{}", aging.render());

    // --- Victim-bit sharing S_v (§4.1 / §4.3) ------------------------------
    eprintln!(
        "[ablation/share] {} runs on {jobs} jobs ...",
        benches.len() * 4
    );
    let grid: Vec<Job<'_>> = benches
        .iter()
        .flat_map(|b| {
            std::iter::once(job(L1PolicyKind::Lru, b.as_ref(), opts)).chain(
                [1usize, 4, 16].into_iter().map(move |s_v| {
                    Box::new(move || {
                        run_with(gc(GCacheConfig::default()), b.as_ref(), opts, |c| {
                            c.victim_bit_share = s_v;
                        })
                    }) as Job<'_>
                }),
            )
        })
        .collect();
    let mut results = run_jobs(grid, jobs).into_iter();
    let mut share = Table::new(&["Bench", "S_v=1 (paper)", "S_v=4", "S_v=16 (1 bit)"]);
    for b in &benches {
        let base = results.next().expect("baseline present");
        let mut row = vec![b.info().name.to_string()];
        for s in results.by_ref().take(3) {
            row.push(speedup(s.speedup_over(&base)));
        }
        share.row(row);
    }
    println!("## Ablation: victim-bit sharing factor S_v (overhead/accuracy tradeoff)\n");
    println!("{}", share.render());

    // --- Epoch length -------------------------------------------------------
    eprintln!(
        "[ablation/epoch] {} runs on {jobs} jobs ...",
        benches.len() * 5
    );
    let grid: Vec<Job<'_>> = benches
        .iter()
        .flat_map(|b| {
            std::iter::once(job(L1PolicyKind::Lru, b.as_ref(), opts)).chain(
                [256u64, 512, 2048, 0].into_iter().map(move |e| {
                    Box::new(move || {
                        run_with(gc(GCacheConfig::default()), b.as_ref(), opts, |c| {
                            c.l1_epoch_len = e
                        })
                    }) as Job<'_>
                }),
            )
        })
        .collect();
    let mut results = run_jobs(grid, jobs).into_iter();
    let mut epoch = Table::new(&["Bench", "256", "512 (default)", "2048", "off"]);
    for b in &benches {
        let base = results.next().expect("baseline present");
        let mut row = vec![b.info().name.to_string()];
        for s in results.by_ref().take(4) {
            row.push(speedup(s.speedup_over(&base)));
        }
        epoch.row(row);
    }
    println!("## Ablation: bypass-switch reset epoch\n");
    println!("{}", epoch.render());

    // --- Scheduler interaction (§6.2) ---------------------------------------
    eprintln!(
        "[ablation/sched] {} runs on {jobs} jobs ...",
        benches.len() * 4
    );
    let grid: Vec<Job<'_>> = benches
        .iter()
        .flat_map(|b| {
            [
                job(L1PolicyKind::Lru, b.as_ref(), opts),
                job(gc(GCacheConfig::default()), b.as_ref(), opts),
                Box::new(|| {
                    run_with(L1PolicyKind::Lru, b.as_ref(), opts, |c| {
                        c.warp_sched = WarpSchedKind::Gto
                    })
                }) as Job<'_>,
                Box::new(|| {
                    run_with(gc(GCacheConfig::default()), b.as_ref(), opts, |c| {
                        c.warp_sched = WarpSchedKind::Gto;
                    })
                }) as Job<'_>,
            ]
        })
        .collect();
    let mut results = run_jobs(grid, jobs).into_iter();
    let mut sched = Table::new(&["Bench", "LRR BS", "LRR GC", "GTO BS", "GTO GC"]);
    for b in &benches {
        let lrr_bs = results.next().expect("LRR BS present");
        let lrr_gc = results.next().expect("LRR GC present");
        let gto_bs = results.next().expect("GTO BS present");
        let gto_gc = results.next().expect("GTO GC present");
        sched.row(vec![
            b.info().name.to_string(),
            format!("{:.3}", lrr_bs.ipc()),
            format!(
                "{:.3} ({})",
                lrr_gc.ipc(),
                speedup(lrr_gc.speedup_over(&lrr_bs))
            ),
            format!("{:.3}", gto_bs.ipc()),
            format!(
                "{:.3} ({})",
                gto_gc.ipc(),
                speedup(gto_gc.speedup_over(&gto_bs))
            ),
        ]);
    }
    println!("## Ablation: warp scheduler interaction (GC works under both, §6.2)\n");
    println!("{}", sched.render());

    export_telemetry(&cli);
    export_trace(&cli);
}
