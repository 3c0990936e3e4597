//! Running a workload's design points: untimed set-up, timed and
//! profiled passes through the sweep engine, the generation-only pass,
//! and the per-point correctness checks.

use crate::probe;
use crate::refs::References;
use crate::workload::Workload;
use gcache_bench::sweep::parallel_map;
use gcache_core::snapshot::fnv1a;
use gcache_sim::gpu::Gpu;
use gcache_sim::isa::Kernel;
use gcache_sim::stats::SimStats;
use gcache_sim::telemetry::Profile;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What one design point produced.
#[derive(Clone, Debug)]
pub struct PointRun {
    /// The kernel's statistics, unless the simulation failed.
    pub stats: Option<SimStats>,
    /// Self-profile of the cycle loop (profiled passes only).
    pub profile: Option<Profile>,
    /// Broken invariants or the simulation error; empty when the point ran
    /// cleanly.
    pub problems: Vec<String>,
    /// Host ns for the whole point: configuration, `Gpu::new`, the kernel.
    pub point_ns: u64,
    /// CPU ns the running thread spent on the whole point (see
    /// [`thread_cpu_ns`]).
    pub cpu_ns: u64,
    /// CPU ns of the reference probe around the point on the same thread
    /// (see [`probe::around`]); timed passes only.
    pub probe_ns: Option<u64>,
    /// Host ns inside `Gpu::run_kernel` alone.
    pub kernel_ns: u64,
}

/// One pass over every point of a workload.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Per-point results, in point order.
    pub runs: Vec<PointRun>,
    /// Host ns for the whole pass.
    pub wall_ns: u64,
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// CPU time of the calling thread, in ns (`CLOCK_THREAD_CPUTIME_ID`).
///
/// Unlike wall time it leaves out time the thread spent waiting: on the
/// run queue, and, on a virtual machine with steal-time accounting, while
/// the hypervisor ran another guest on its CPU. On a shared host those
/// waits come and go with the neighbours' load, not with the simulator.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `Timespec` has the layout of C's `struct timespec` on 64-bit
    // Linux (two 64-bit fields), and `ts` is valid and writable for the
    // whole call, which writes only that struct.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Invariants that hold on every completed point, whatever the seed.
fn invariants(s: &SimStats, gpu: &Gpu) -> Vec<String> {
    let mut out = Vec::new();
    for (net, n) in [("request", &s.noc_req), ("response", &s.noc_resp)] {
        if n.packets != n.delivered {
            out.push(format!(
                "{net} network: {} packets injected, {} delivered",
                n.packets, n.delivered
            ));
        }
    }
    if s.dram.completed != s.dram.reads + s.dram.writes {
        out.push(format!(
            "DRAM: {} completed != {} reads + {} writes",
            s.dram.completed, s.dram.reads, s.dram.writes
        ));
    }
    if !gpu.tag_masks_consistent() {
        out.push("tag-array masks disagree with the slot states".to_string());
    }
    out
}

/// How a pass runs its points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Untraced, with the reference probe around every point: the passes
    /// the end-to-end metrics come from.
    Timed,
    /// Untraced, without probes: the baseline of the profiled passes.
    Untraced,
    /// Under `Gpu::enable_profiling`, without probes.
    Profiled,
}

/// Runs point `i` of `w` on a fresh GPU. A panic, a simulation error or a
/// broken invariant is recorded in [`PointRun::problems`]; it never
/// escapes.
pub fn run_point(w: &Workload, i: usize, mode: Mode) -> PointRun {
    let probe_before = (mode == Mode::Timed).then(probe::before);
    let start = Instant::now();
    let cpu_start = thread_cpu_ns();
    let mut kernel_ns = 0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut gpu = Gpu::new(w.points[i].config()?);
        if mode == Mode::Profiled {
            gpu.enable_profiling();
        }
        let k = Instant::now();
        let result = gpu.run_kernel(w.bench(i));
        kernel_ns = ns(k);
        let stats = result.map_err(|e| e.to_string())?;
        let problems = invariants(&stats, &gpu);
        Ok::<_, String>((stats, gpu.profile(), problems))
    }));
    let point_ns = ns(start);
    let cpu_ns = thread_cpu_ns() - cpu_start;
    let probe_ns = probe_before.map(|b| probe::around(&b));
    let (stats, profile, problems) = match outcome {
        Ok(Ok((stats, profile, problems))) => (Some(stats), profile, problems),
        Ok(Err(e)) => (None, None, vec![e]),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            (None, None, vec![format!("panicked: {msg}")])
        }
    };
    PointRun {
        stats,
        profile,
        problems,
        point_ns,
        cpu_ns,
        probe_ns,
        kernel_ns,
    }
}

/// Runs every point of `w` through the sweep engine on `w.jobs` workers.
pub fn pass(w: &Workload, mode: Mode) -> Pass {
    let idx: Vec<usize> = (0..w.points.len()).collect();
    let start = Instant::now();
    let runs = parallel_map(&idx, w.jobs, |&i| run_point(w, i, mode));
    Pass {
        runs,
        wall_ns: ns(start),
    }
}

/// Builds the workload's generators, validates every point's
/// configuration and constructs its GPU, without simulating a cycle.
/// Returns the workload and the set-up's CPU time scaled to the reference
/// host speed, in seconds.
pub fn setup(name: &str, seed: u64) -> Option<(Workload, f64)> {
    let probe_before = probe::before();
    let start = thread_cpu_ns();
    let w = Workload::build(name, seed)?;
    for p in &w.points {
        // `Gpu::new` validates the configuration; an invalid point is
        // reported by its run, not here.
        if let Ok(cfg) = p.config() {
            let _ = catch_unwind(|| black_box(Gpu::new(cfg)));
        }
    }
    let cpu_ns = thread_cpu_ns() - start;
    Some((w, probe::scaled_s(cpu_ns, probe::around(&probe_before))))
}

/// Result of draining every warp program without a simulator attached.
#[derive(Clone, Copy, Debug, Default)]
pub struct GenPass {
    /// Ops produced, summed over the points (each point generates its
    /// benchmark's ops once).
    pub ops: u64,
    /// Host ns spent generating them.
    pub ns: u64,
}

/// Drains every warp program of every point serially through
/// `warp_program`/`next_op`, exactly as the simulator would pull them.
pub fn gen_pass(w: &Workload) -> GenPass {
    let mut g = GenPass::default();
    for i in 0..w.points.len() {
        let bench = w.bench(i);
        let grid = bench.grid();
        let width = w.points[i].config().map_or(32, |c| c.warp_width);
        let warps = grid.warps_per_cta(width);
        let start = Instant::now();
        for cta in 0..grid.ctas {
            for warp in 0..warps {
                let mut prog = bench.warp_program(cta, warp);
                while let Some(op) = prog.next_op() {
                    black_box(op);
                    g.ops += 1;
                }
            }
        }
        g.ns += ns(start);
    }
    g
}

/// Per-point failure flags of a pass: a point fails when it has a
/// problem, misses a seed-0 reference, or differs from the first pass.
pub fn failures(
    w: &Workload,
    p: &Pass,
    refs: Option<&References>,
    first: Option<&[u64]>,
) -> (Vec<bool>, Vec<String>) {
    let mut failed: Vec<bool> = p.runs.iter().map(|r| !r.problems.is_empty()).collect();
    let mut why: Vec<String> = p
        .runs
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            r.problems
                .iter()
                .map(move |m| format!("{}: {m}", w.label(i)))
        })
        .collect();
    if let Some(refs) = refs {
        let stats: Vec<Option<SimStats>> = p.runs.iter().map(|r| r.stats.clone()).collect();
        for m in refs.compare(w, &stats) {
            failed[m.point] = true;
            why.push(format!("{}: {}", w.label(m.point), m.what));
        }
    }
    if let Some(first) = first {
        for (i, (d, f)) in digests(p).iter().zip(first).enumerate() {
            if d != f {
                failed[i] = true;
                why.push(format!("{}: stats differ from the first pass", w.label(i)));
            }
        }
    }
    (failed, why)
}

/// FNV-1a of every `SimStats` field of each point (0 for a failed point).
pub fn digests(p: &Pass) -> Vec<u64> {
    p.runs
        .iter()
        .map(|r| {
            r.stats
                .as_ref()
                .map_or(0, |s| fnv1a(format!("{s:?}").as_bytes()))
        })
        .collect()
}

/// One digest over all points of a pass, for comparing two commits.
pub fn digest(p: &Pass) -> u64 {
    let all: Vec<u8> = digests(p).iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a(&all)
}
