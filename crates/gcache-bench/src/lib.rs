//! # gcache-bench
//!
//! The experiment harness regenerating every table and figure of the
//! G-Cache paper. Each `src/bin/*` binary reproduces one artefact:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1` | Table 1 — benchmark list |
//! | `table2` | Table 2 — simulated configuration |
//! | `fig2`   | Figure 2 — L1 reuse-count distribution |
//! | `fig3_fig4` | Figures 3 & 4 — L1-size sensitivity (miss rate, speedup) |
//! | `fig8_fig9` | Figures 8 & 9 — IPC speedup and miss rate of all designs |
//! | `table3` | Table 3 — bypass ratios and optimal PDs |
//! | `fig10` | Figure 10 — 64 KB-L1 scalability study |
//!
//! All binaries accept `--quick` (shrunk workloads for smoke runs) and
//! `--bench NAME[,NAME...]` to restrict the benchmark set, plus
//! checkpoint/resume flags (`--checkpoint`, `--checkpoint-every`,
//! `--resume`) so interrupted runs can continue byte-identically.
//! Beyond the per-artefact binaries, `sweep_server` runs whole
//! design-point grids as a kill-safe sharded service (see [`server`]).

#![warn(missing_docs)]

pub mod microbench;
pub mod obs;
pub mod server;
pub mod sweep;

use gcache_core::cache::{BypassPlane, CopyBackPlane};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_core::policy::pdp_dyn::DynamicPdpConfig;
use gcache_core::snapshot::{fnv1a, SnapshotError, SnapshotReader, SnapshotWriter};
use gcache_core::trace::SharedTraceRing;
use gcache_core::trace_export::ChromeTraceBuilder;
use gcache_sim::config::{GpuConfig, Hierarchy, L1PolicyKind};
use gcache_sim::gpu::Gpu;
use gcache_sim::stats::SimStats;
use gcache_sim::telemetry::{Profile, Sample, Sampler};
use gcache_workloads::{Benchmark, Scale};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Checkpoint interval in cycles when `--checkpoint` is given without
/// `--checkpoint-every`.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 65_536;

/// Checkpoint/resume options of one run (`--checkpoint`,
/// `--checkpoint-every`, `--resume`), honoured by every [`run`]-family
/// simulation.
#[derive(Clone, Debug)]
pub struct CheckpointOpts {
    /// Stem from `--checkpoint PATH`: each grid point checkpoints to
    /// `PATH.<label-hash>.ckpt` (distinct files, so parallel sweep workers
    /// never collide), atomically via a temp file + rename.
    pub write: Option<String>,
    /// Checkpoint cadence in cycles (`--checkpoint-every`).
    pub every: u64,
    /// Stem from `--resume PATH`: before each grid point starts, its
    /// checkpoint file is probed and, when present and matching, restored.
    pub resume: Option<String>,
}

impl Default for CheckpointOpts {
    fn default() -> Self {
        CheckpointOpts {
            write: None,
            every: DEFAULT_CHECKPOINT_EVERY,
            resume: None,
        }
    }
}

/// How the run helpers simulate each point: built once by [`Cli`] from
/// the command line and passed explicitly to every [`run`]-family call,
/// [`sweep::run_design_points`] and the sweep server's workers. None of
/// it changes a simulated byte — it selects how a point is executed, not
/// what it computes.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Skip provably idle cycles (`GpuConfig::fast_forward`; off with
    /// `--no-fast-forward`). Stats are bit-identical either way — off
    /// exists for cross-checking and for profiling the plain cycle loop.
    pub fast_forward: bool,
    /// Checkpoint/resume options.
    pub checkpoint: CheckpointOpts,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            fast_forward: true,
            checkpoint: CheckpointOpts::default(),
        }
    }
}

/// Candidate protection distances swept to find SPDP-B's per-benchmark
/// optimum (Table 3's right column).
pub const PD_CANDIDATES: &[u16] = &[2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96];

/// Usage text printed when argument parsing fails.
pub const USAGE: &str = "\
usage: <experiment> [--quick] [--bench NAME[,NAME...]] [--jobs N]
                    [--hierarchy SHAPE[,SHAPE...]] [--cluster-ports N[,N...]]
                    [--no-fast-forward] [--telemetry PATH] [--trace-out PATH]
                    [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]

  --quick        use shrunk workloads (smoke-test scale)
  --bench NAMES  restrict to these benchmarks (paper abbreviations)
  --jobs N       run sweeps on N worker threads (default: GCACHE_JOBS
                 env var, else the host's available parallelism);
                 results are bit-identical for every N
  --hierarchy SHAPES
                 memory-hierarchy shapes to sweep: 'flat' (Table 2
                 machine) or 'cN[:KB]' for N-core clusters sharing a
                 KB-sized L1.5 (default 64 KB), e.g.
                 --hierarchy flat,c4,c8:128
  --cluster-ports N[,N...]
                 cluster-crossbar port counts to sweep on clustered
                 shapes (hierarchy binary; default 1,2). 1 = the legacy
                 single-injection-port mesh node; >= 2 models a
                 core<->L1.5 crossbar with that many transfer ports
  --no-fast-forward
                 tick every cycle instead of skipping provably idle
                 ones; slower, bit-identical output (cross-checking)
  --telemetry PATH
                 additionally run the selected benchmarks under the GC
                 design with the per-epoch time-series sampler attached
                 and write the combined series to PATH (CSV; a .json
                 extension selects JSON). The experiment's own stdout
                 stays byte-identical
  --trace-out PATH
                 additionally run the selected benchmarks under the GC
                 design with the event trace ring and self-profiler
                 attached, and write the combined timeline to PATH as
                 Chrome trace_event JSON (load in ui.perfetto.dev).
                 Simulated cycles map to microseconds, each cache/DRAM
                 instance gets its own track, and G-Cache switch flips
                 appear as instant events. The experiment's own stdout
                 stays byte-identical
  --checkpoint PATH
                 periodically snapshot each in-flight simulation to
                 PATH.<point-hash>.ckpt (atomic write; file removed when
                 the point completes), so an interrupted run can continue
                 instead of restarting. Output stays byte-identical
  --checkpoint-every N
                 checkpoint cadence in cycles (default 65536); requires
                 --checkpoint
  --resume PATH  before simulating each point, restore its checkpoint
                 file under the PATH stem when one exists; the resumed
                 run's output is bit-identical to an uninterrupted one";

/// Command-line options shared by all experiment binaries.
#[derive(Clone, Debug, Default)]
pub struct Cli {
    /// Use shrunk workloads (4× fewer CTAs/iterations).
    pub quick: bool,
    /// Restrict to these benchmark names (paper abbreviations).
    pub only: Vec<String>,
    /// Worker-thread count from `--jobs` (`None` = not given; see
    /// [`Cli::jobs`] for the resolution order).
    pub jobs: Option<usize>,
    /// Hierarchy shapes from `--hierarchy` (empty = the binary's default,
    /// usually just [`Hierarchy::Flat`]).
    pub hierarchy: Vec<Hierarchy>,
    /// Cluster-crossbar port counts from `--cluster-ports` (empty = the
    /// binary's default; only the hierarchy sweep uses the axis).
    pub cluster_ports: Vec<usize>,
    /// How each point is simulated (`--no-fast-forward`, `--checkpoint`,
    /// `--checkpoint-every`, `--resume`).
    pub run: RunOpts,
    /// Write a per-epoch telemetry time series here (`--telemetry`);
    /// CSV unless the path ends in `.json`.
    pub telemetry: Option<String>,
    /// Write a Chrome `trace_event` timeline here (`--trace-out`).
    pub trace_out: Option<String>,
}

/// Validates at parse time that `path`'s parent directory exists, so a
/// mistyped `--telemetry`/`--checkpoint`/`--resume` destination fails at
/// the command line instead of deep into a run at first write.
pub fn ensure_parent_dir(flag: &str, path: &str) -> Result<(), String> {
    match Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
    {
        Some(p) if !p.is_dir() => Err(format!(
            "{flag} {path}: parent directory '{}' does not exist",
            p.display()
        )),
        _ => Ok(()),
    }
}

/// Parses one `--hierarchy` shape: `flat`, `cN` or `cN:KB` (cluster size
/// `N`, shared L1.5 of `KB` kilobytes, default 64). The shape is validated
/// against the Table 2 machine immediately so errors surface at the
/// command line, not mid-sweep.
pub fn parse_hierarchy(s: &str) -> Result<Hierarchy, String> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("flat") {
        return Ok(Hierarchy::Flat);
    }
    let body = s
        .strip_prefix('c')
        .ok_or_else(|| format!("hierarchy shape '{s}' must be 'flat' or 'cN[:KB]'"))?;
    let (size, kb) = match body.split_once(':') {
        Some((size, kb)) => (size, kb),
        None => (body, "64"),
    };
    let cluster_size: usize = size
        .parse()
        .map_err(|_| format!("hierarchy shape '{s}': cluster size must be an integer"))?;
    let kb: u64 = kb
        .parse()
        .map_err(|_| format!("hierarchy shape '{s}': KB must be an integer"))?;
    let hierarchy = Hierarchy::SharedL15 { cluster_size, kb };
    GpuConfig::fermi()
        .expect("valid config")
        .with_hierarchy(hierarchy)
        .map_err(|e| format!("hierarchy shape '{s}': {e}"))?;
    Ok(hierarchy)
}

impl Cli {
    /// Parses `std::env::args()`-style arguments, exiting with the usage
    /// message on any error (unknown flag, missing or malformed value).
    pub fn parse(args: impl Iterator<Item = String>) -> Cli {
        Cli::try_parse(args).unwrap_or_else(|e| {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Fallible flavour of [`Cli::parse`]: returns a description of the
    /// first problem instead of exiting.
    pub fn try_parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut every_given = false;
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => cli.quick = true,
                "--bench" => {
                    let names = args.next().ok_or("--bench requires a value")?;
                    cli.only = names
                        .split(',')
                        .map(|s| s.trim().to_ascii_uppercase())
                        .collect();
                }
                "--jobs" => {
                    let n = args.next().ok_or("--jobs requires a value")?;
                    let jobs: usize = n
                        .trim()
                        .parse()
                        .map_err(|_| format!("--jobs expects a positive integer, got '{n}'"))?;
                    if jobs == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                    cli.jobs = Some(jobs);
                }
                "--hierarchy" => {
                    let shapes = args.next().ok_or("--hierarchy requires a value")?;
                    cli.hierarchy = shapes
                        .split(',')
                        .map(parse_hierarchy)
                        .collect::<Result<_, _>>()?;
                }
                "--cluster-ports" => {
                    let counts = args.next().ok_or("--cluster-ports requires a value")?;
                    cli.cluster_ports = counts
                        .split(',')
                        .map(|s| {
                            s.trim().parse::<usize>().ok().filter(|&p| p >= 1).ok_or({
                                format!("--cluster-ports expects positive integers, got '{s}'")
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--no-fast-forward" => cli.run.fast_forward = false,
                "--telemetry" => {
                    let path = args.next().ok_or("--telemetry requires a value")?;
                    ensure_parent_dir("--telemetry", &path)?;
                    cli.telemetry = Some(path);
                }
                "--trace-out" => {
                    let path = args.next().ok_or("--trace-out requires a value")?;
                    ensure_parent_dir("--trace-out", &path)?;
                    cli.trace_out = Some(path);
                }
                "--checkpoint" => {
                    let path = args.next().ok_or("--checkpoint requires a value")?;
                    ensure_parent_dir("--checkpoint", &path)?;
                    cli.run.checkpoint.write = Some(path);
                }
                "--checkpoint-every" => {
                    let n = args.next().ok_or("--checkpoint-every requires a value")?;
                    let every: u64 = n.trim().parse().map_err(|_| {
                        format!("--checkpoint-every expects a positive integer, got '{n}'")
                    })?;
                    if every == 0 {
                        return Err("--checkpoint-every must be at least 1".into());
                    }
                    cli.run.checkpoint.every = every;
                    every_given = true;
                }
                "--resume" => {
                    let path = args.next().ok_or("--resume requires a value")?;
                    ensure_parent_dir("--resume", &path)?;
                    cli.run.checkpoint.resume = Some(path);
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        if every_given && cli.run.checkpoint.write.is_none() {
            return Err("--checkpoint-every requires --checkpoint".into());
        }
        Ok(cli)
    }

    /// The worker-thread count for sweeps: `--jobs` if given, else the
    /// `GCACHE_JOBS` environment variable, else the host's available
    /// parallelism. A malformed `GCACHE_JOBS` is ignored with a warning
    /// on stderr (stdout stays byte-identical across job counts).
    pub fn jobs(&self) -> usize {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let oversubscribed = |j: usize, source: &str| {
            if j > host {
                eprintln!(
                    "warning: {source} = {j} exceeds the host's available \
                     parallelism ({host}); workers will contend for CPUs"
                );
            }
            j
        };
        if let Some(j) = self.jobs {
            return oversubscribed(j, "--jobs");
        }
        if let Ok(v) = std::env::var("GCACHE_JOBS") {
            match v.trim().parse::<usize>() {
                Ok(j) if j >= 1 => return oversubscribed(j, "GCACHE_JOBS"),
                _ => eprintln!("warning: ignoring malformed GCACHE_JOBS='{v}'"),
            }
        }
        host
    }

    /// The workload scale implied by the flags.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Test
        } else {
            Scale::Paper
        }
    }

    /// The hierarchy shapes to sweep: `--hierarchy` if given, else
    /// `default` (each binary picks its own — most sweep only the flat
    /// Table 2 machine).
    pub fn hierarchies(&self, default: &[Hierarchy]) -> Vec<Hierarchy> {
        if self.hierarchy.is_empty() {
            default.to_vec()
        } else {
            self.hierarchy.clone()
        }
    }

    /// The crossbar port counts to sweep: `--cluster-ports` if given,
    /// else `default` (the hierarchy binary sweeps `[1, 2]`; binaries
    /// without the axis pass `[1]`).
    pub fn port_counts(&self, default: &[usize]) -> Vec<usize> {
        if self.cluster_ports.is_empty() {
            default.to_vec()
        } else {
            self.cluster_ports.clone()
        }
    }

    /// The selected benchmarks.
    pub fn benchmarks(&self) -> Vec<Box<dyn Benchmark>> {
        gcache_workloads::registry(self.scale())
            .into_iter()
            .filter(|b| self.only.is_empty() || self.only.iter().any(|n| n == b.info().name))
            .collect()
    }
}

/// Parses the process command line for an experiment binary — the one
/// entry point every `src/bin/*` main uses, so shared flags (and their
/// validation) land everywhere at once.
pub fn bench_cli() -> Cli {
    Cli::parse(std::env::args().skip(1))
}

/// [`bench_cli`] plus binary-specific boolean switches (e.g. fig3_fig4's
/// `--all`): returns the parsed shared flags and, per switch, whether it
/// was present.
pub fn bench_cli_with_switches(switches: &[&str]) -> (Cli, Vec<bool>) {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let present = switches
        .iter()
        .map(|&s| args.iter().any(|a| a == s))
        .collect();
    args.retain(|a| !switches.contains(&a.as_str()));
    (Cli::parse(args.into_iter()), present)
}

/// The orthogonal L1 policy-plane axes of one design point: the
/// class-driven fill-time bypass gate and the eviction-time clean
/// copy-back rule, composed around whatever replacement policy the point
/// selects. [`PolicyPlanes::default`] is the pre-plane behaviour (both
/// axes defer to the policy), so every legacy grid is bit-identical.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PolicyPlanes {
    /// Fill-time bypass plane for the L1.
    pub l1_bypass: BypassPlane,
    /// Eviction-time clean copy-back plane for the L1.
    pub l1_copy_back: CopyBackPlane,
}

impl Default for PolicyPlanes {
    fn default() -> Self {
        PolicyPlanes {
            l1_bypass: BypassPlane::Policy,
            l1_copy_back: CopyBackPlane::Policy,
        }
    }
}

impl PolicyPlanes {
    /// HyDRA-style class-driven cacheability on the fill path.
    pub const fn hydra() -> Self {
        PolicyPlanes {
            l1_bypass: BypassPlane::Hydra,
            l1_copy_back: CopyBackPlane::Policy,
        }
    }

    /// RDC-style clean copy-back of reuse-proven victims.
    pub const fn clean_copy_back(min_reuse: u32) -> Self {
        PolicyPlanes {
            l1_bypass: BypassPlane::Policy,
            l1_copy_back: CopyBackPlane::CleanReuse { min_reuse },
        }
    }

    /// A short stable label for tables and checkpoint identities.
    pub fn label(&self) -> String {
        let bypass = match self.l1_bypass {
            BypassPlane::Policy => "policy",
            BypassPlane::Hydra => "hydra",
        };
        let cb = match self.l1_copy_back {
            CopyBackPlane::Policy => "policy".to_string(),
            CopyBackPlane::Never => "never".to_string(),
            CopyBackPlane::CleanReuse { min_reuse } => format!("clean{min_reuse}"),
        };
        format!("{bypass}/{cb}")
    }
}

/// Runs one benchmark under one L1 policy on the Table 2 machine,
/// optionally overriding the L1 capacity (KB) and the memory-hierarchy
/// shape (`Hierarchy::Flat` = the paper's machine), simulated as `opts`
/// says.
///
/// # Panics
///
/// Panics if the simulation fails (cycle limit / deadlock) — experiment
/// configurations are expected to complete — or if `hierarchy` does not
/// fit the machine (pre-validate shapes with [`parse_hierarchy`]).
pub fn run(
    policy: L1PolicyKind,
    bench: &dyn Benchmark,
    l1_kb: Option<u64>,
    hierarchy: Hierarchy,
    opts: &RunOpts,
) -> SimStats {
    run_with_planes(
        policy,
        bench,
        l1_kb,
        hierarchy,
        1,
        PolicyPlanes::default(),
        opts,
    )
}

/// Like [`run`], additionally setting the cluster-crossbar port count
/// (`1` = the legacy single-injection-port mesh node; only meaningful on
/// clustered hierarchies) and composing the orthogonal L1 policy planes
/// (fill-time bypass, eviction-time clean copy-back) around the
/// replacement policy. [`PolicyPlanes::default`] reproduces the
/// single-plane behaviour bit-identically.
///
/// # Panics
///
/// Same conditions as [`run`], plus `cluster_ports == 0`.
pub fn run_with_planes(
    policy: L1PolicyKind,
    bench: &dyn Benchmark,
    l1_kb: Option<u64>,
    hierarchy: Hierarchy,
    cluster_ports: usize,
    planes: PolicyPlanes,
    opts: &RunOpts,
) -> SimStats {
    let cfg = point_config(policy, l1_kb, hierarchy, cluster_ports, planes, opts);
    let label = point_label(
        &policy,
        bench,
        l1_kb,
        hierarchy,
        cluster_ports,
        planes,
        /* sampled = */ false,
    );
    let (stats, _) = run_gpu(cfg, bench, false, &label, &opts.checkpoint);
    stats
}

/// The machine configuration for one grid point — the single place the
/// run helpers and the sweep server turn a `(policy, L1 size, hierarchy,
/// ports, planes)` tuple and the run's [`RunOpts`] into a validated
/// [`GpuConfig`].
///
/// # Panics
///
/// Panics on an invalid L1 size, hierarchy, or port count — grid axes are
/// expected to be pre-validated at the command line.
pub fn point_config(
    policy: L1PolicyKind,
    l1_kb: Option<u64>,
    hierarchy: Hierarchy,
    cluster_ports: usize,
    planes: PolicyPlanes,
    opts: &RunOpts,
) -> GpuConfig {
    let mut cfg = GpuConfig::fermi_with_policy(policy).expect("valid config");
    if let Some(kb) = l1_kb {
        cfg = cfg.with_l1_kb(kb).expect("valid L1 size");
    }
    cfg = cfg
        .with_hierarchy(hierarchy)
        .unwrap_or_else(|e| panic!("invalid hierarchy {hierarchy:?}: {e}"));
    cfg = cfg
        .with_cluster_ports(cluster_ports)
        .expect("positive cluster port count");
    cfg = cfg
        .with_l1_bypass(planes.l1_bypass)
        .with_l1_copy_back(planes.l1_copy_back);
    cfg.fast_forward = opts.fast_forward;
    cfg
}

/// A stable identity for one grid point, embedded in (and hashed into the
/// filename of) its checkpoint so `--resume` can never cross wires
/// between points — not even between the sampled and unsampled runs of
/// the same configuration, whose machine states coincide but whose
/// telemetry does not.
#[allow(clippy::too_many_arguments)]
pub(crate) fn point_label(
    policy: &L1PolicyKind,
    bench: &dyn Benchmark,
    l1_kb: Option<u64>,
    hierarchy: Hierarchy,
    cluster_ports: usize,
    planes: PolicyPlanes,
    sampled: bool,
) -> String {
    format!(
        "{}|{policy:?}|kb={l1_kb:?}|{hierarchy:?}|ports={cluster_ports}|planes={}|sampled={sampled}",
        bench.info().name,
        planes.label()
    )
}

/// The checkpoint file for one labelled grid point under a `--checkpoint`
/// / `--resume` stem.
fn checkpoint_file(stem: &str, label: &str) -> PathBuf {
    PathBuf::from(format!("{stem}.{:016x}.ckpt", fnv1a(label.as_bytes())))
}

/// Atomically replaces `path` with a labelled checkpoint (the wrapped
/// `Gpu` snapshot), via a temp file + rename so a kill mid-write leaves
/// the previous checkpoint intact rather than a truncated file. The temp
/// name carries the writer's PID: after a coordinator kill, an orphaned
/// sweep-server worker and its respawned replacement may both checkpoint
/// the same point, and distinct temp files keep those writes from tearing
/// each other (the rename itself is atomic either way).
pub(crate) fn write_labelled_checkpoint(
    path: &Path,
    label: &str,
    snapshot: &[u8],
) -> std::io::Result<()> {
    let mut w = SnapshotWriter::new();
    w.section("bench_ckpt", |w| {
        w.str(label);
        w.bytes(snapshot);
    });
    let tmp = path.with_extension(format!("ckpt.tmp.{}", std::process::id()));
    std::fs::write(&tmp, w.finish())?;
    std::fs::rename(&tmp, path)
}

/// Reads a labelled checkpoint back, returning the wrapped `Gpu` snapshot.
/// `Ok(None)` when no file exists; corrupt files or label mismatches are
/// errors the caller reports before starting the point from scratch.
pub(crate) fn read_labelled_checkpoint(
    path: &Path,
    label: &str,
) -> Result<Option<Vec<u8>>, String> {
    let buf = match std::fs::read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut r = SnapshotReader::new(&buf).map_err(|e| e.to_string())?;
    let mut snapshot = None;
    r.section("bench_ckpt", |r| {
        let found = r.str()?;
        if found != label {
            return Err(SnapshotError::Mismatch {
                what: format!("checkpoint is for a different grid point ({found})"),
            });
        }
        snapshot = Some(r.bytes()?.to_vec());
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    Ok(snapshot)
}

/// Builds a GPU for one grid point and runs it, honouring the run's
/// checkpoint/resume options: an existing checkpoint for
/// `label` is restored first (diagnostics go to stderr; stdout stays
/// byte-identical), periodic snapshots are written while running, and the
/// checkpoint file is removed once the point completes.
fn run_gpu(
    cfg: GpuConfig,
    bench: &dyn Benchmark,
    with_sampler: bool,
    label: &str,
    ckpt: &CheckpointOpts,
) -> (SimStats, Option<Sampler>) {
    let build = || {
        let mut gpu = Gpu::new(cfg.clone());
        if with_sampler {
            gpu.attach_sampler(Sampler::new(gcache_sim::telemetry::DEFAULT_INTERVAL));
        }
        gpu
    };
    let mut gpu = build();
    if let Some(stem) = &ckpt.resume {
        let path = checkpoint_file(stem, label);
        match read_labelled_checkpoint(&path, label) {
            Ok(None) => {}
            Ok(Some(snapshot)) => match gpu.restore_checkpoint(&snapshot, bench) {
                Ok(()) => eprintln!(
                    "resuming {} from {} (cycle {})",
                    bench.info().name,
                    path.display(),
                    gpu.cycle()
                ),
                Err(e) => {
                    // A failed restore may leave the GPU half-written.
                    eprintln!("warning: ignoring checkpoint {}: {e}", path.display());
                    gpu = build();
                }
            },
            Err(e) => eprintln!("warning: ignoring checkpoint {}: {e}", path.display()),
        }
    }
    let result = match &ckpt.write {
        Some(stem) => {
            let path = checkpoint_file(stem, label);
            let r = gpu.run_kernel_checkpointed(bench, ckpt.every, |_, snapshot| {
                write_labelled_checkpoint(&path, label, &snapshot)
            });
            if r.is_ok() {
                // The point is done; its checkpoint would only go stale.
                let _ = std::fs::remove_file(&path);
            }
            r
        }
        None => gpu.run_kernel(bench),
    };
    let stats = result.unwrap_or_else(|e| panic!("{} ({label}) failed: {e}", bench.info().name));
    (stats, gpu.take_sampler())
}

/// Like [`run`], but with a per-epoch telemetry [`Sampler`] attached;
/// returns the recorded time series alongside the stats. The stats are
/// bit-identical to an unsampled [`run`] of the same point (sampling is
/// passive; the `telemetry_off_identical` integration test enforces it).
pub fn run_sampled(
    policy: L1PolicyKind,
    bench: &dyn Benchmark,
    l1_kb: Option<u64>,
    hierarchy: Hierarchy,
    opts: &RunOpts,
) -> (SimStats, Sampler) {
    run_sampled_with_planes(
        policy,
        bench,
        l1_kb,
        hierarchy,
        PolicyPlanes::default(),
        opts,
    )
}

/// Like [`run_sampled`], additionally composing the L1 policy planes —
/// the telemetry entry point of the `mlsweep` plane-composition study.
///
/// # Panics
///
/// Same conditions as [`run_sampled`].
pub fn run_sampled_with_planes(
    policy: L1PolicyKind,
    bench: &dyn Benchmark,
    l1_kb: Option<u64>,
    hierarchy: Hierarchy,
    planes: PolicyPlanes,
    opts: &RunOpts,
) -> (SimStats, Sampler) {
    let cfg = point_config(policy, l1_kb, hierarchy, 1, planes, opts);
    let label = point_label(
        &policy, bench, l1_kb, hierarchy, 1, planes, /* sampled = */ true,
    );
    let (stats, sampler) = run_gpu(cfg, bench, true, &label, &opts.checkpoint);
    (stats, sampler.expect("sampler attached by run_gpu"))
}

/// One labelled telemetry series: `(benchmark, design, recorded series)`.
pub type TelemetrySeries = (String, &'static str, Sampler);

/// Renders labelled telemetry series as one CSV document: the sample
/// columns prefixed by `bench` and `design` label columns.
pub fn telemetry_csv(series: &[TelemetrySeries]) -> String {
    let mut out = format!("bench,design,{}\n", Sample::CSV_HEADER);
    for (bench, design, sampler) in series {
        for s in sampler.samples() {
            let _ = writeln!(out, "{bench},{design},{}", s.csv_row());
        }
    }
    out
}

/// Renders labelled telemetry series as one JSON document.
pub fn telemetry_json(series: &[TelemetrySeries]) -> String {
    let rows: Vec<String> = series
        .iter()
        .map(|(bench, design, sampler)| {
            format!(
                "{{\"bench\":\"{bench}\",\"design\":\"{design}\",\"telemetry\":{}}}",
                sampler.to_json()
            )
        })
        .collect();
    format!("{{\"series\":[{}]}}", rows.join(","))
}

/// Honours `--telemetry PATH`: re-runs the selected benchmarks under the
/// GC design (flat Table 2 machine) with the sampler attached and writes
/// the combined series to `PATH` — CSV, or JSON when the path ends in
/// `.json`. A no-op when the flag was not given, so every experiment's
/// own stdout stays byte-identical.
///
/// # Panics
///
/// Panics if a simulation fails or the file cannot be written.
pub fn export_telemetry(cli: &Cli) {
    let Some(path) = &cli.telemetry else {
        return;
    };
    let policy = L1PolicyKind::GCache(GCacheConfig::default());
    let series: Vec<TelemetrySeries> = cli
        .benchmarks()
        .iter()
        .map(|b| {
            let (stats, sampler) = run_sampled(policy, b.as_ref(), None, Hierarchy::Flat, &cli.run);
            (b.info().name.to_string(), stats.design, sampler)
        })
        .collect();
    write_telemetry_series(path, &series);
}

/// Trace-ring capacity used by [`export_trace`]: large enough to hold a
/// whole `--quick` run's event stream; a longer run keeps the newest
/// events and the export records how many older ones the ring dropped.
pub const TRACE_EXPORT_CAPACITY: usize = 1 << 21;

/// Honours `--trace-out PATH`: re-runs the selected benchmarks under the
/// GC design (flat Table 2 machine) with the event trace ring and the
/// self-profiler attached, and writes the combined timeline to `PATH` as
/// Chrome `trace_event` JSON (loadable in Perfetto). One Perfetto
/// process per benchmark (its caches/DRAM as tracks, simulated cycles as
/// microseconds), plus one per-benchmark host-stage process from the
/// profiler's wall-clock spans. A no-op when the flag was not given, so
/// every experiment's own stdout stays byte-identical.
///
/// # Panics
///
/// Panics if a simulation fails or the file cannot be written.
pub fn export_trace(cli: &Cli) {
    let Some(path) = &cli.trace_out else {
        return;
    };
    let mut b = ChromeTraceBuilder::new();
    let mut total_events = 0usize;
    let mut total_dropped = 0u64;
    for (i, bench) in cli.benchmarks().iter().enumerate() {
        let name = bench.info().name;
        let pid = (i + 1) as u32;
        let (ring, profile) = trace_gc_run(bench.as_ref(), &cli.run);
        b.add_process(pid, name);
        total_events += b.add_sim_events(pid, &ring.events());
        total_dropped += ring.dropped();
        if let Some(p) = profile {
            b.add_host_stages(
                1_000_000 + pid,
                &format!("host: {name}"),
                &[
                    ("core", p.core_ns),
                    ("icnt", p.icnt_ns),
                    ("cluster", p.cluster_ns),
                    ("mem", p.mem_ns),
                    ("dispatch", p.dispatch_ns),
                ],
            );
        }
    }
    b.note("events", &total_events.to_string());
    b.note("dropped", &total_dropped.to_string());
    std::fs::write(path, b.finish()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("chrome trace written to {path} ({total_events} events, {total_dropped} dropped)");
}

/// Runs `bench` under the GC design (flat Table 2 machine) with the
/// event trace ring and the self-profiler attached, returning the filled
/// ring and the profile — the per-benchmark leg of [`export_trace`],
/// public so the trace round-trip test can regenerate the expected event
/// stream independently of the exported file.
///
/// # Panics
///
/// Panics if the simulation fails.
pub fn trace_gc_run(bench: &dyn Benchmark, opts: &RunOpts) -> (SharedTraceRing, Option<Profile>) {
    let policy = L1PolicyKind::GCache(GCacheConfig::default());
    let ring = SharedTraceRing::new(TRACE_EXPORT_CAPACITY);
    let cfg = point_config(
        policy,
        None,
        Hierarchy::Flat,
        1,
        PolicyPlanes::default(),
        opts,
    );
    let mut gpu = Gpu::new(cfg);
    gpu.attach_trace(&ring);
    gpu.enable_profiling();
    gpu.run_kernel(bench)
        .unwrap_or_else(|e| panic!("{} (trace export) failed: {e}", bench.info().name));
    let profile = gpu.profile();
    (ring, profile)
}

/// Writes labelled telemetry series to `path` — CSV, or JSON when the
/// path ends in `.json` — and notes the destination on stderr (stdout is
/// reserved for experiment output).
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_telemetry_series(path: &str, series: &[TelemetrySeries]) {
    let body = if path.ends_with(".json") {
        telemetry_json(series)
    } else {
        telemetry_csv(series)
    };
    std::fs::write(path, body).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("telemetry series written to {path}");
}

/// Picks the oracle SPDP-B configuration from a [`PD_CANDIDATES`] sweep
/// run as independent grid jobs: returns `(best_pd, stats at best_pd)` by
/// IPC. Candidates must be supplied in [`PD_CANDIDATES`] order, and a
/// later candidate wins only when it beats the incumbent by more than
/// 0.2 %, so ties go to the *smallest* PD: protection distance is
/// hardware state, so on a flat IPC curve — streaming benchmarks are flat
/// by construction — the cheapest distance is the "optimal" one, matching
/// Table 3's PD-4 rows for PVR/SD1/STL.
///
/// # Panics
///
/// Panics on an empty candidate list.
pub fn select_optimal_pd(results: impl IntoIterator<Item = (u16, SimStats)>) -> (u16, SimStats) {
    let mut best: Option<(u16, SimStats)> = None;
    for (pd, stats) in results {
        let better = best
            .as_ref()
            .is_none_or(|(_, b)| stats.ipc() > b.ipc() * 1.002);
        if better {
            best = Some((pd, stats));
        }
    }
    best.expect("candidate list is non-empty")
}

/// The six design points of the paper's Figure 8, given a per-benchmark
/// SPDP-B protection distance.
pub fn designs(spdp_pd: u16) -> Vec<L1PolicyKind> {
    vec![
        L1PolicyKind::Lru,
        L1PolicyKind::Srrip { bits: 3 },
        L1PolicyKind::DynamicPdp(DynamicPdpConfig::pdp3()),
        L1PolicyKind::DynamicPdp(DynamicPdpConfig::pdp8()),
        L1PolicyKind::StaticPdp { pd: spdp_pd },
        L1PolicyKind::GCache(GCacheConfig::default()),
    ]
}

/// A minimal markdown table builder for experiment output.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table as pipe-aligned markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {c:<w$} |");
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio as a percentage string (`0.318` → `"31.8%"`).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a speedup as `"1.31x"`.
pub fn speedup(x: f64) -> String {
    format!("{x:.3}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_parses_flags() {
        let cli = Cli::parse(
            ["--quick", "--bench", "spmv,BFS"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert!(cli.quick);
        assert_eq!(cli.only, vec!["SPMV", "BFS"]);
        assert_eq!(cli.benchmarks().len(), 2);
    }

    #[test]
    fn cli_defaults_to_all() {
        let cli = Cli::parse(std::iter::empty());
        assert!(!cli.quick);
        assert!(cli.jobs.is_none());
        assert_eq!(cli.benchmarks().len(), 17);
    }

    #[test]
    fn cli_parses_jobs() {
        let cli = Cli::try_parse(["--jobs", "8"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(cli.jobs, Some(8));
        assert_eq!(cli.jobs(), 8);
    }

    #[test]
    fn cli_parses_no_fast_forward() {
        let cli = Cli::try_parse(["--no-fast-forward"].iter().map(|s| s.to_string())).unwrap();
        assert!(!cli.run.fast_forward);
        let cli = Cli::try_parse(std::iter::empty()).unwrap();
        assert!(cli.run.fast_forward);
    }

    #[test]
    fn cli_rejects_unknown_flags() {
        let err = Cli::try_parse(["--frobnicate"].iter().map(|s| s.to_string())).unwrap_err();
        assert!(err.contains("unknown flag '--frobnicate'"), "got: {err}");
    }

    #[test]
    fn cli_rejects_malformed_jobs() {
        let err = Cli::try_parse(["--jobs", "many"].iter().map(|s| s.to_string())).unwrap_err();
        assert!(err.contains("positive integer"), "got: {err}");
        let err = Cli::try_parse(["--jobs", "0"].iter().map(|s| s.to_string())).unwrap_err();
        assert!(err.contains("at least 1"), "got: {err}");
        let err = Cli::try_parse(["--jobs"].iter().map(|s| s.to_string())).unwrap_err();
        assert!(err.contains("requires a value"), "got: {err}");
    }

    #[test]
    fn cli_rejects_missing_bench_value() {
        let err = Cli::try_parse(["--bench"].iter().map(|s| s.to_string())).unwrap_err();
        assert!(err.contains("requires a value"), "got: {err}");
    }

    #[test]
    fn select_optimal_pd_prefers_smallest_on_flat_curve() {
        let flat = |pd: u16, ipc_scale: u64| {
            let mut s = SimStats::new("X", "SPDP-B");
            s.cycles = 1000;
            s.instructions = ipc_scale;
            (pd, s)
        };
        // Flat IPC: first candidate (smallest PD) wins.
        let (pd, _) = select_optimal_pd([flat(2, 500), flat(4, 500), flat(8, 501)]);
        assert_eq!(pd, 2, "0.2 % tie band must keep the smallest PD");
        // A real improvement (> 0.2 %) switches.
        let (pd, _) = select_optimal_pd([flat(2, 500), flat(8, 600)]);
        assert_eq!(pd, 8);
    }

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(&["Bench", "IPC"]);
        t.row(vec!["BFS".into(), "1.23".into()]);
        t.row(vec!["LONGNAME".into(), "0.5".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Bench"));
        assert!(lines[1].starts_with("|--"));
        assert_eq!(lines[2].len(), lines[3].len(), "rows must align");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        Table::new(&["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.309), "30.9%");
        assert_eq!(speedup(1.309), "1.309x");
    }

    #[test]
    fn designs_cover_figure_8() {
        let d = designs(14);
        let names: Vec<_> = d.iter().map(|p| p.design_name()).collect();
        assert_eq!(names, vec!["BS", "BS-S", "PDP-3", "PDP-8", "SPDP-B", "GC"]);
    }
}
