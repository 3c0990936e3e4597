//! Differential gate for idle-cycle fast-forward (see `gcache_sim::clocked`
//! module docs): every benchmark × design point at test scale is simulated
//! twice — once jumping the clock over provably idle cycles, once ticking
//! every cycle — and the *entire* [`SimStats`] struct must match, not just
//! the rendered tables. Cycle counts, per-core stall/idle accounting,
//! replay counters, NoC and DRAM stats are all covered by comparing the
//! `Debug` renderings field for field.
//!
//! `GpuConfig::fast_forward` is set directly on each run's config, so
//! every point carries its own value.
//!
//! The full smoke grid (every registered benchmark × the six Figure 8
//! designs) takes a few seconds in release but minutes in debug, so that
//! check is `#[ignore]`d here and run in release by `scripts/check.sh`:
//!
//! ```text
//! cargo test --release -p gcache-bench --test fast_forward_differential -- --ignored
//! ```

use gcache_bench::sweep::{run_design_points, DesignPoint};
use gcache_bench::{PolicyPlanes, RunOpts};
use gcache_sim::config::{GpuConfig, Hierarchy};
use gcache_sim::gpu::Gpu;
use gcache_sim::stats::SimStats;
use gcache_workloads::{Benchmark, Scale};

fn simulate(bench: &dyn Benchmark, cfg: &GpuConfig, fast_forward: bool) -> SimStats {
    let mut cfg = cfg.clone();
    cfg.fast_forward = fast_forward;
    Gpu::new(cfg)
        .run_kernel(bench)
        .unwrap_or_else(|e| panic!("{} failed: {e}", bench.info().name))
}

#[test]
fn fast_forward_stats_match_plain_loop() {
    // BFS (cache-sensitive), CFD (moderate, exercises G-Cache bypass),
    // STL (streaming/insensitive) — same spectrum the golden tests use.
    let names = ["BFS", "CFD", "STL"];
    let benches: Vec<_> = gcache_workloads::registry(Scale::Test)
        .into_iter()
        .filter(|b| names.contains(&b.info().name))
        .collect();
    assert_eq!(benches.len(), names.len(), "benchmark registry changed");

    // The clustered hierarchy adds a third clocked component between the
    // interconnect and the partitions, so its `next_event` bound is part of
    // the differential too: a too-optimistic bound would skip an L1.5
    // wake-up and change cycle counts.
    let shapes = [
        Hierarchy::Flat,
        Hierarchy::SharedL15 {
            cluster_size: 4,
            kb: 64,
        },
    ];

    for bench in &benches {
        for policy in gcache_bench::designs(6) {
            for &hierarchy in &shapes {
                let cfg = GpuConfig::fermi_with_policy(policy)
                    .expect("valid config")
                    .with_hierarchy(hierarchy)
                    .expect("valid hierarchy");
                let fast = simulate(bench.as_ref(), &cfg, true);
                let slow = simulate(bench.as_ref(), &cfg, false);
                assert_eq!(
                    fast.cycles,
                    slow.cycles,
                    "{} / {} / {hierarchy:?}: fast-forward changed the cycle count",
                    bench.info().name,
                    fast.design,
                );
                // SimStats has no PartialEq; its Debug rendering covers every
                // field (and nested stats struct) by derivation.
                assert_eq!(
                    format!("{fast:?}"),
                    format!("{slow:?}"),
                    "{} / {} / {hierarchy:?}: fast-forward changed the statistics",
                    bench.info().name,
                    fast.design,
                );
            }
        }
    }
}

/// Clean copy-backs reach the L2 as their own request kind, whose stall
/// branch parks a partition on a full DRAM queue. CFD under G-Cache with
/// RDC-style copy-back produces both, so this point covers that branch of
/// the event-driven partition — and asserts it is not vacuous.
#[test]
fn fast_forward_matches_with_clean_copy_back() {
    let bench = gcache_workloads::registry(Scale::Test)
        .into_iter()
        .find(|b| b.info().name == "CFD")
        .expect("CFD registered");
    let policy = gcache_bench::designs(6)
        .into_iter()
        .find(|p| p.design_name() == "GC")
        .expect("GC design");
    let cfg = GpuConfig::fermi_with_policy(policy)
        .expect("valid config")
        .with_l1_copy_back(PolicyPlanes::clean_copy_back(2).l1_copy_back);
    let fast = simulate(bench.as_ref(), &cfg, true);
    let slow = simulate(bench.as_ref(), &cfg, false);
    assert!(fast.l1.clean_copy_backs > 0, "no clean copy-back issued");
    assert!(fast.partition.stall_cycles > 0, "no partition ever stalled");
    assert_eq!(
        format!("{fast:?}"),
        format!("{slow:?}"),
        "CFD / GC+CB: fast-forward changed the statistics"
    );
}

/// The whole smoke grid — every registered benchmark × `designs(8)` on
/// the flat machine — through the sweep engine three ways: serially with
/// fast-forward off, serially with it on, and on two worker threads with
/// it on. All three must agree on every [`SimStats`] field of every point.
#[test]
#[ignore = "full grid: minutes in debug; scripts/check.sh runs it in release"]
fn full_grid_matches_plain_loop_and_parallel() {
    let benches = gcache_workloads::registry(Scale::Test);
    let grid: Vec<DesignPoint<'_>> = benches
        .iter()
        .flat_map(|b| {
            gcache_bench::designs(8)
                .into_iter()
                .map(move |policy| DesignPoint {
                    bench: b.as_ref(),
                    policy,
                    l1_kb: None,
                    hierarchy: Hierarchy::Flat,
                    cluster_ports: 1,
                    planes: PolicyPlanes::default(),
                })
        })
        .collect();
    assert_eq!(grid.len(), 17 * 6, "smoke grid changed shape");

    let plain = RunOpts {
        fast_forward: false,
        ..RunOpts::default()
    };
    let ff = RunOpts::default();
    let serial_plain = run_design_points(&grid, 1, &plain);
    let serial = run_design_points(&grid, 1, &ff);
    let parallel = run_design_points(&grid, 2, &ff);
    assert_eq!(serial.len(), grid.len());
    assert_eq!(parallel.len(), grid.len());
    for (i, point) in grid.iter().enumerate() {
        let s = format!("{:?}", serial[i]);
        assert_eq!(
            s,
            format!("{:?}", serial_plain[i]),
            "{point:?}: fast-forward diverges from the plain cycle loop"
        );
        assert_eq!(
            s,
            format!("{:?}", parallel[i]),
            "{point:?}: the 2-job sweep diverges from the serial one"
        );
    }
}
