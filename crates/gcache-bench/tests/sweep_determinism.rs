//! The parallel sweep engine must be a pure scheduling optimisation:
//! results come back in submission order with every stat byte-identical
//! to a serial run, for any worker count.

use gcache_bench::sweep::{run_design_points, DesignPoint};
use gcache_bench::{designs, PolicyPlanes, RunOpts};
use gcache_sim::config::{Hierarchy, L1PolicyKind};
use gcache_workloads::{by_name, Scale};

/// Benchmarks × hierarchy shapes × the six Figure 8 designs. The clustered
/// shape exercises the shared-L1.5 path under the scheduler as well: a
/// worker interleaving must not perturb cluster-level MSHR merging either.
fn small_grid<'a>(
    benches: &'a [Box<dyn gcache_workloads::Benchmark>],
    shapes: &[Hierarchy],
) -> Vec<DesignPoint<'a>> {
    benches
        .iter()
        .flat_map(|b| {
            shapes.iter().flat_map(move |&hierarchy| {
                designs(8).into_iter().map(move |policy| DesignPoint {
                    bench: b.as_ref(),
                    policy,
                    l1_kb: None,
                    hierarchy,
                    cluster_ports: 1,
                    planes: PolicyPlanes::default(),
                })
            })
        })
        .collect()
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let benches: Vec<_> = ["SPMV", "SYRK", "BFS"]
        .iter()
        .map(|n| by_name(n, Scale::Test).expect("benchmark registered"))
        .collect();
    let shapes = [
        Hierarchy::Flat,
        Hierarchy::SharedL15 {
            cluster_size: 4,
            kb: 64,
        },
    ];
    let grid = small_grid(&benches, &shapes);

    let serial = run_design_points(&grid, 1, &RunOpts::default());
    for jobs in [2, 4, 8] {
        let parallel = run_design_points(&grid, jobs, &RunOpts::default());
        assert_eq!(serial.len(), parallel.len(), "jobs={jobs}");
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                format!("{s:?}"),
                format!("{p:?}"),
                "jobs={jobs}: result {i} ({:?}) diverges from serial",
                grid[i]
            );
        }
    }
}

#[test]
fn results_follow_submission_order() {
    // Distinct policies per slot make misordering visible: each result's
    // bypass counter profile is characteristic of its policy, so a swap
    // between slots would trip the per-slot comparison above. Here we
    // check the cheap structural half: grid length in, same length out,
    // and the L1 capacity override lands on the right slot.
    let benches: Vec<_> = [by_name("SPMV", Scale::Test).expect("benchmark registered")]
        .into_iter()
        .collect();
    let grid = vec![
        DesignPoint {
            bench: benches[0].as_ref(),
            policy: L1PolicyKind::Lru,
            l1_kb: None,
            hierarchy: Hierarchy::Flat,
            cluster_ports: 1,
            planes: PolicyPlanes::default(),
        },
        DesignPoint {
            bench: benches[0].as_ref(),
            policy: L1PolicyKind::Lru,
            l1_kb: Some(64),
            hierarchy: Hierarchy::Flat,
            cluster_ports: 1,
            planes: PolicyPlanes::default(),
        },
    ];
    let out = run_design_points(&grid, 4, &RunOpts::default());
    assert_eq!(out.len(), 2);
    // The 64 KB cache can only do better; identical stats would mean the
    // slots were filled ignoring the submission index.
    assert!(
        out[1].l1_miss_rate() <= out[0].l1_miss_rate(),
        "64KB slot ({:.4}) should not miss more than 32KB slot ({:.4})",
        out[1].l1_miss_rate(),
        out[0].l1_miss_rate()
    );
}
