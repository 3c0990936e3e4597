//! The benchmark's metrics: their names and units (which must match
//! `BENCHMARK.json`), how each is derived from the passes, and the JSON
//! result line.

use crate::exec::{GenPass, Pass};
use crate::probe::scaled_s;
use crate::workload::{label, Workload};
use gcache_bench::PolicyPlanes;
use gcache_sim::config::Hierarchy;
use gcache_sim::stats::{geomean, SimStats};
use gcache_sim::telemetry::Profile;
use gcache_workloads::Benchmark;
use std::collections::HashMap;

/// End-to-end metrics (`--trace 0`), `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cpu_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("point_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_frac", "ratio"),
    ("sim_cycles", "cycles"),
    ("gc_speedup_gm", "ratio"),
];

/// Per-layer metrics (`--trace 1`), `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gpu.ticked_cycles", "cycles"),
    ("gpu.cycles_skipped", "cycles"),
    ("gpu.skip_frac", "ratio"),
    ("gpu.bounds_computed", "count"),
    ("gpu.wake_skips", "count"),
    ("gpu.loop_ns", "ns"),
    ("gpu.ns_per_ticked_cycle", "ns/cycle"),
    ("core.busy_ns", "ns"),
    ("core.busy_share", "ratio"),
    ("core.insts", "count"),
    ("core.mem_insts", "count"),
    ("core.transactions", "count"),
    ("core.ldst_full_stalls", "count"),
    ("core.ns_per_inst", "ns/inst"),
    ("workloads.ops", "count"),
    ("workloads.gen_ns", "ns"),
    ("workloads.ns_per_op", "ns/op"),
    ("workloads.gen_share_of_core", "ratio"),
    ("icnt.busy_ns", "ns"),
    ("icnt.busy_share", "ratio"),
    ("icnt.flits", "count"),
    ("icnt.packets", "count"),
    ("icnt.ns_per_flit", "ns/flit"),
    ("icnt.mean_latency_cycles", "cycles"),
    ("icnt.inject_fail_rate", "ratio"),
    ("mem.busy_ns", "ns"),
    ("mem.busy_share", "ratio"),
    ("mem.l2_accesses", "count"),
    ("mem.l2_miss_rate", "ratio"),
    ("mem.dram_reads", "count"),
    ("mem.dram_writes", "count"),
    ("mem.row_hit_rate", "ratio"),
    ("mem.ns_per_l2_access", "ns/access"),
    ("cluster.busy_ns", "ns"),
    ("cluster.l15_accesses", "count"),
    ("cluster.xbar_grants", "count"),
    ("cluster.ns_per_l15_access", "ns/access"),
    ("dispatch.busy_ns", "ns"),
    ("dispatch.ctas", "count"),
    ("sweep.points", "count"),
    ("sweep.busy_s", "s"),
    ("sweep.parallel_eff", "ratio"),
    ("sweep.point_ms_p95", "ms"),
    ("l1.accesses", "count"),
    ("l1.miss_rate", "ratio"),
    ("l1.bypass_ratio", "ratio"),
    ("l1.plane_bypasses", "count"),
    ("l1.clean_copy_backs", "count"),
    ("profile.overhead_frac", "ratio"),
];

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `q` quantile of `v` by linear interpolation between closest ranks.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Attaches units from `table` to computed `(name, value)` pairs, in the
/// table's order.
fn named(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    let by_name: HashMap<&str, f64> = values.iter().copied().collect();
    assert_eq!(by_name.len(), table.len(), "one value per declared metric");
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: *by_name
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} computed")),
            unit,
        })
        .collect()
}

/// Geomean of G-Cache IPC over LRU IPC across the workload's Table 1
/// benchmarks on the flat machine.
fn gc_speedup_gm(w: &Workload, stats: &[Option<&SimStats>]) -> f64 {
    let index: HashMap<String, usize> = (0..w.points.len()).map(|i| (w.label(i), i)).collect();
    let at = |b: &str, d: &str| {
        index
            .get(&label(b, d, Hierarchy::Flat, PolicyPlanes::default()))
            .and_then(|&i| stats[i])
    };
    geomean(w.benches.iter().filter_map(|b| {
        let name = b.info().name;
        Some(at(name, "GC")?.speedup_over(at(name, "BS")?))
    }))
}

/// Each point's CPU ms, the median over the passes, scaled to the
/// reference host speed when the passes were timed.
fn point_ms(w: &Workload, passes: &[Pass]) -> Vec<f64> {
    (0..w.points.len())
        .map(|i| {
            let ms: Vec<f64> = passes
                .iter()
                .map(|p| {
                    let r = &p.runs[i];
                    r.probe_ns
                        .map_or(r.cpu_ns as f64 / 1e9, |probe| scaled_s(r.cpu_ns, probe))
                        * 1e3
                })
                .collect();
            quantile(&ms, 0.5)
        })
        .collect()
}

/// The end-to-end metrics of untraced passes.
pub fn end_to_end(
    w: &Workload,
    passes: &[Pass],
    setup_s: &[f64],
    peak_rss_mb: f64,
    attempted: usize,
    failed: usize,
) -> Vec<Metric> {
    let point_ms = point_ms(w, passes);
    let cpu_s = point_ms.iter().sum::<f64>() / 1e3;
    let stats: Vec<Option<&SimStats>> = passes[0].runs.iter().map(|r| r.stats.as_ref()).collect();
    let cycles = stats.iter().flatten().map(|s| s.cycles).sum::<u64>() as f64;
    named(
        END_TO_END,
        &[
            ("cpu_s", cpu_s),
            ("sim_cycles_per_s", ratio(cycles, cpu_s)),
            ("point_ms_p50", quantile(&point_ms, 0.5)),
            ("setup_s", quantile(setup_s, 0.5)),
            ("peak_rss_mb", peak_rss_mb),
            (
                "passed_frac",
                ratio((attempted - failed) as f64, attempted as f64),
            ),
            ("sim_cycles", cycles),
            ("gc_speedup_gm", gc_speedup_gm(w, &stats)),
        ],
    )
}

/// The pass with the median wall time (the lower one of an even count).
fn median_pass(passes: &[Pass]) -> &Pass {
    let mut by_wall: Vec<&Pass> = passes.iter().collect();
    by_wall.sort_by_key(|p| p.wall_ns);
    by_wall[(by_wall.len() - 1) / 2]
}

/// The per-layer metrics of the median profiled pass, with the median
/// untraced pass of the same run as the overhead baseline, and the
/// generation-only pass.
pub fn per_layer(w: &Workload, untraced: &[Pass], traced: &[Pass], gen: GenPass) -> Vec<Metric> {
    // The tail is a sweep-level figure, in raw CPU ms of the untraced
    // passes: only sweep-grid has ten points beyond its 95th percentile,
    // so it is no end-to-end metric.
    let point_ms_p95 = quantile(&point_ms(w, untraced), 0.95);
    let (untraced, traced) = (median_pass(untraced), median_pass(traced));
    let mut p = Profile::default();
    let mut s = SimStats::new("all", "all");
    let mut kernel_ns = 0u64;
    for r in &traced.runs {
        if let (Some(rp), Some(rs)) = (&r.profile, &r.stats) {
            p.core_ns += rp.core_ns;
            p.icnt_ns += rp.icnt_ns;
            p.cluster_ns += rp.cluster_ns;
            p.mem_ns += rp.mem_ns;
            p.dispatch_ns += rp.dispatch_ns;
            p.ticked_cycles += rp.ticked_cycles;
            p.bounds_computed += rp.bounds_computed;
            p.cycles_skipped += rp.cycles_skipped;
            p.wake_skips += rp.wake_skips;
            kernel_ns += r.kernel_ns;
            s.cycles += rs.cycles;
            s.l1.merge(&rs.l1);
            s.l15.merge(&rs.l15);
            s.l2.merge(&rs.l2);
            s.dram.merge(&rs.dram);
            s.core.merge(&rs.core);
            for (mine, theirs) in [
                (&mut s.noc_req, &rs.noc_req),
                (&mut s.noc_resp, &rs.noc_resp),
            ] {
                mine.packets += theirs.packets;
                mine.flits += theirs.flits;
                mine.delivered += theirs.delivered;
                mine.inject_fails += theirs.inject_fails;
                mine.total_latency += theirs.total_latency;
            }
            s.xbar.grants += rs.xbar.grants;
        }
    }
    let f = |x: u64| x as f64;
    let total = f(p.total_ns());
    let loop_ns = f(kernel_ns.saturating_sub(p.total_ns()));
    let noc = |g: fn(&gcache_sim::icnt::NocStats) -> u64| f(g(&s.noc_req) + g(&s.noc_resp));
    let busy_s = untraced.runs.iter().map(|r| f(r.point_ns)).sum::<f64>() / 1e9;
    let untraced_s = f(untraced.wall_ns) / 1e9;
    named(
        PER_LAYER,
        &[
            ("gpu.ticked_cycles", f(p.ticked_cycles)),
            ("gpu.cycles_skipped", f(p.cycles_skipped)),
            ("gpu.skip_frac", ratio(f(p.cycles_skipped), f(s.cycles))),
            ("gpu.bounds_computed", f(p.bounds_computed)),
            ("gpu.wake_skips", f(p.wake_skips)),
            ("gpu.loop_ns", loop_ns),
            (
                "gpu.ns_per_ticked_cycle",
                ratio(loop_ns, f(p.ticked_cycles)),
            ),
            ("core.busy_ns", f(p.core_ns)),
            ("core.busy_share", ratio(f(p.core_ns), total)),
            ("core.insts", f(s.core.instructions)),
            ("core.mem_insts", f(s.core.mem_instructions)),
            ("core.transactions", f(s.core.transactions)),
            ("core.ldst_full_stalls", f(s.core.ldst_full_stalls)),
            (
                "core.ns_per_inst",
                ratio(f(p.core_ns), f(s.core.instructions)),
            ),
            ("workloads.ops", f(gen.ops)),
            ("workloads.gen_ns", f(gen.ns)),
            ("workloads.ns_per_op", ratio(f(gen.ns), f(gen.ops))),
            (
                "workloads.gen_share_of_core",
                ratio(f(gen.ns), f(p.core_ns)),
            ),
            ("icnt.busy_ns", f(p.icnt_ns)),
            ("icnt.busy_share", ratio(f(p.icnt_ns), total)),
            ("icnt.flits", noc(|n| n.flits)),
            ("icnt.packets", noc(|n| n.packets)),
            ("icnt.ns_per_flit", ratio(f(p.icnt_ns), noc(|n| n.flits))),
            (
                "icnt.mean_latency_cycles",
                ratio(noc(|n| n.total_latency), noc(|n| n.delivered)),
            ),
            (
                "icnt.inject_fail_rate",
                ratio(
                    noc(|n| n.inject_fails),
                    noc(|n| n.packets) + noc(|n| n.inject_fails),
                ),
            ),
            ("mem.busy_ns", f(p.mem_ns)),
            ("mem.busy_share", ratio(f(p.mem_ns), total)),
            ("mem.l2_accesses", f(s.l2.accesses())),
            ("mem.l2_miss_rate", s.l2.miss_rate()),
            ("mem.dram_reads", f(s.dram.reads)),
            ("mem.dram_writes", f(s.dram.writes)),
            ("mem.row_hit_rate", s.dram.row_hit_rate()),
            (
                "mem.ns_per_l2_access",
                ratio(f(p.mem_ns), f(s.l2.accesses())),
            ),
            ("cluster.busy_ns", f(p.cluster_ns)),
            ("cluster.l15_accesses", f(s.l15.accesses())),
            ("cluster.xbar_grants", f(s.xbar.grants)),
            (
                "cluster.ns_per_l15_access",
                ratio(f(p.cluster_ns), f(s.l15.accesses())),
            ),
            ("dispatch.busy_ns", f(p.dispatch_ns)),
            ("dispatch.ctas", f(s.core.ctas_completed)),
            ("sweep.points", w.points.len() as f64),
            ("sweep.busy_s", busy_s),
            (
                "sweep.parallel_eff",
                ratio(busy_s, w.jobs as f64 * untraced_s),
            ),
            ("sweep.point_ms_p95", point_ms_p95),
            ("l1.accesses", f(s.l1.accesses())),
            ("l1.miss_rate", s.l1.miss_rate()),
            ("l1.bypass_ratio", s.l1.bypass_ratio()),
            ("l1.plane_bypasses", f(s.l1.plane_bypasses)),
            ("l1.clean_copy_backs", f(s.l1.clean_copy_backs)),
            (
                "profile.overhead_frac",
                ratio(f(traced.wall_ns), f(untraced.wall_ns)) - 1.0,
            ),
        ],
    )
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let m = [Metric {
            name: "cpu_s",
            value: 1.25,
            unit: "s",
        }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"cpu_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
