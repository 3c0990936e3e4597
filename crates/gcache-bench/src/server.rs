//! The kill-safe sharded sweep server behind the `sweep_server` binary.
//!
//! A sweep is a deterministic grid of design points (benchmark × design ×
//! hierarchy × crossbar ports). The coordinator writes the grid's
//! manifest into a run directory, deals the points round-robin across
//! `--workers` **processes** — the process-level analogue of
//! [`parallel_map`]'s round-robin deal — and supervises them with one
//! thread per shard, over `parallel_map` itself. Each worker walks its
//! shard in submission order and, per point:
//!
//! * skips it when `results/NNNNN.result` already exists (completed on a
//!   previous attempt),
//! * otherwise resumes from `ckpt/NNNNN.ckpt` when one matches the
//!   point's label, simulates with periodic checkpoints at the same
//!   cadence as `--checkpoint-every`, and
//! * publishes the finished point atomically (temp file + rename) before
//!   deleting its checkpoint.
//!
//! Every file the server writes is replaced atomically, and every
//! checkpoint embeds the point's label and the machine's configuration
//! fingerprint, so a `SIGKILL` — of a worker, or of the coordinator
//! itself — never corrupts the run directory. Re-running the same
//! command against the same directory picks up exactly where the sweep
//! died: completed points are skipped, in-flight points resume from
//! their latest snapshot, and the merged output (stdout and
//! `merged.tsv`) is byte-identical to an uninterrupted sweep. A killed
//! worker is respawned by the coordinator itself, up to
//! [`MAX_RESPAWNS`] times per shard.
//!
//! The run directory also survives *concurrent* duplicate writers (an
//! orphaned worker from a killed coordinator racing its respawned
//! replacement): temp names carry the writer PID, renames are atomic,
//! result bytes for a given point are identical no matter who computes
//! them, and a torn checkpoint is caught by its checksum and simply
//! re-simulated.
//!
//! [`parallel_map`]: crate::sweep::parallel_map

use crate::obs::{
    fresh_run_id, status_path, unix_ms, FleetState, Heartbeat, HeartbeatWriter, Logger,
    ShardStatus, StatusPlane, StatusSnapshot,
};
use crate::sweep::parallel_map;
use crate::{
    designs, point_config, point_label, read_labelled_checkpoint, write_labelled_checkpoint, Cli,
    PolicyPlanes, DEFAULT_CHECKPOINT_EVERY, USAGE,
};
use gcache_sim::config::{Hierarchy, L1PolicyKind};
use gcache_sim::gpu::Gpu;
use gcache_sim::stats::SimStats;
use gcache_workloads::Benchmark;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// How many times the coordinator respawns one shard's worker process
/// before declaring the sweep failed. A deterministic crash (a panic in
/// the simulator) repeats on every respawn; the cap turns that into a
/// clean error instead of a crash loop.
pub const MAX_RESPAWNS: usize = 5;

/// Default `--stale-after-ms`: a worker whose heartbeat is older than
/// this while its shard still has work in flight is flagged stale (a
/// warning event plus a status gauge — detection only, never a kill).
pub const DEFAULT_STALE_AFTER_MS: u64 = 30_000;

/// First line of `manifest.txt`; bumped if the run-directory layout ever
/// changes incompatibly.
const MANIFEST_HEADER: &str = "gcache-sweep-server v1";

/// Environment variable carrying a fault-injection spec for the
/// kill-resume tests: `ckpt:N` makes a worker abort right after writing
/// its `N`-th checkpoint, `result:N` right before publishing its `N`-th
/// result. The coordinator forwards the spec to the *first* spawn of
/// shard 0 only, so the respawned replacement runs clean.
pub const FAULT_ENV: &str = "GCACHE_SWEEP_FAULT";

/// Usage text for the `sweep_server` binary.
pub const SERVER_USAGE: &str = "\
usage: sweep_server --dir RUNDIR [--workers N] [--checkpoint-every N]
                    [--status-addr ADDR] [--stale-after-ms N] [--no-logs]
                    [--quick] [--bench NAME[,NAME...]]
                    [--hierarchy SHAPE[,SHAPE...]] [--cluster-ports N[,N...]]
                    [--no-fast-forward]

  --dir RUNDIR   run directory: manifest, per-point checkpoints and
                 results, and the final merged.tsv live here. Re-running
                 the same command against the same directory resumes an
                 interrupted sweep; the merged output is byte-identical
                 to an uninterrupted run
  --workers N    worker *processes* to shard the grid across (default:
                 the --jobs resolution order). The count may differ
                 between a run and its resumption
  --checkpoint-every N
                 in-flight points snapshot every N cycles (default 65536)
  --status-addr ADDR
                 serve live fleet status over HTTP on ADDR (e.g.
                 127.0.0.1:0; the bound port is logged at startup).
                 GET /metrics for a Prometheus-style exposition,
                 GET /status.json for the aggregated JSON document
  --stale-after-ms N
                 flag a shard stale when its heartbeat is older than N ms
                 while work is still in flight (default 30000; detection
                 only — a warning event plus a status gauge)
  --no-logs      disable the observability files (logs/*.jsonl,
                 heartbeats, status.json); structured records still go
                 to stderr, and stale-shard detection is off (there are
                 no heartbeats to age). The sweep output is
                 byte-identical either way

The remaining flags select the grid and behave exactly as in the other
experiment binaries:
";

/// One grid point, by value (no borrow into the benchmark registry):
/// `bench` indexes the roster the grid was built against.
#[derive(Clone, Copy, Debug)]
struct GridPoint {
    bench: usize,
    policy: L1PolicyKind,
    hierarchy: Hierarchy,
    cluster_ports: usize,
}

/// The sweep grid: the benchmark roster plus every point in submission
/// order. Built deterministically from the command line, so the
/// coordinator and each worker process reconstruct the identical grid
/// from the identical flags.
pub struct Grid {
    benches: Vec<Box<dyn Benchmark>>,
    points: Vec<GridPoint>,
}

impl Grid {
    /// Builds the grid: every selected benchmark × the six Figure 8
    /// designs (SPDP-B pinned at PD 8) × every
    /// hierarchy shape (default: flat) × the crossbar-port axis on
    /// clustered shapes (default: 1 port).
    pub fn from_cli(cli: &Cli) -> Grid {
        let benches = cli.benchmarks();
        let shapes = cli.hierarchies(&[Hierarchy::Flat]);
        let ports = cli.port_counts(&[1]);
        let mut points = Vec::new();
        for bench in 0..benches.len() {
            for &hierarchy in &shapes {
                let ports: &[usize] = match hierarchy {
                    Hierarchy::Flat => &[1],
                    Hierarchy::SharedL15 { .. } => &ports,
                };
                for &cluster_ports in ports {
                    for policy in designs(8) {
                        points.push(GridPoint {
                            bench,
                            policy,
                            hierarchy,
                            cluster_ports,
                        });
                    }
                }
            }
        }
        Grid { benches, points }
    }

    /// Number of points in the grid.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid is empty (e.g. `--bench` matched nothing).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The stable label of point `i` — the same label the checkpoint
    /// machinery embeds in snapshot files.
    fn label(&self, i: usize) -> String {
        let p = &self.points[i];
        point_label(
            &p.policy,
            self.benches[p.bench].as_ref(),
            None,
            p.hierarchy,
            p.cluster_ports,
            PolicyPlanes::default(),
            /* sampled = */ false,
        )
    }

    /// The manifest body: header, point count, then one `NNNNN label`
    /// line per point in submission order.
    fn manifest(&self) -> String {
        let mut out = format!("{MANIFEST_HEADER}\npoints={}\n", self.points.len());
        for i in 0..self.points.len() {
            let _ = writeln!(out, "{i:05} {}", self.label(i));
        }
        out
    }
}

/// Parsed `sweep_server` command line: the server-specific flags plus
/// the shared grid flags, and the raw argument list workers are
/// respawned with.
#[derive(Debug)]
pub struct ServerOpts {
    /// Run directory (`--dir`).
    pub dir: PathBuf,
    /// Worker-process count.
    pub workers: usize,
    /// Checkpoint cadence in cycles.
    pub every: u64,
    /// `Some(shard)` in a worker process (`--shard`, spawned by the
    /// coordinator — not part of the public interface).
    pub shard: Option<usize>,
    /// Listen address of the live status endpoint (`--status-addr`),
    /// coordinator-only.
    pub status_addr: Option<String>,
    /// Heartbeat staleness threshold (`--stale-after-ms`).
    pub stale_after_ms: u64,
    /// Disable the observability files (`--no-logs`); structured records
    /// still mirror to stderr.
    pub no_logs: bool,
    /// Run identity (`--run-id`, stamped onto worker spawns by the
    /// coordinator — not part of the public interface).
    pub run_id: Option<String>,
    /// Shared grid flags.
    pub cli: Cli,
    /// The original argument list (without `--shard`/`--run-id` and the
    /// coordinator-only status flags), re-issued to worker processes.
    passthrough: Vec<String>,
}

/// Removes `flag value` from `args`, returning the value. Errors when
/// the flag is present without a value; the *last* occurrence wins.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let mut found = None;
    while let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        found = Some(args.remove(i + 1));
        args.remove(i);
    }
    Ok(found)
}

/// Removes every occurrence of the bare `flag` from `args`, returning
/// whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let mut found = false;
    while let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        found = true;
    }
    found
}

impl ServerOpts {
    /// Parses a `sweep_server` argument list (no program name).
    pub fn parse(mut args: Vec<String>) -> Result<ServerOpts, String> {
        let dir = take_flag_value(&mut args, "--dir")?
            .ok_or("--dir RUNDIR is required (the sweep's state lives there)")?;
        let shard = take_flag_value(&mut args, "--shard")?
            .map(|s| {
                s.parse::<usize>()
                    .map_err(|_| format!("--shard expects an index, got '{s}'"))
            })
            .transpose()?;
        let every = match take_flag_value(&mut args, "--checkpoint-every")? {
            Some(n) => match n.trim().parse::<u64>() {
                Ok(e) if e >= 1 => e,
                _ => {
                    return Err(format!(
                        "--checkpoint-every expects a positive integer, got '{n}'"
                    ))
                }
            },
            None => DEFAULT_CHECKPOINT_EVERY,
        };
        let explicit_workers = match take_flag_value(&mut args, "--workers")? {
            Some(n) => match n.trim().parse::<usize>() {
                Ok(w) if w >= 1 => Some(w),
                _ => return Err(format!("--workers expects a positive integer, got '{n}'")),
            },
            None => None,
        };
        let status_addr = take_flag_value(&mut args, "--status-addr")?;
        let stale_after_ms = match take_flag_value(&mut args, "--stale-after-ms")? {
            Some(n) => match n.trim().parse::<u64>() {
                Ok(ms) if ms >= 1 => ms,
                _ => {
                    return Err(format!(
                        "--stale-after-ms expects a positive integer, got '{n}'"
                    ))
                }
            },
            None => DEFAULT_STALE_AFTER_MS,
        };
        let run_id = take_flag_value(&mut args, "--run-id")?;
        let no_logs = take_flag(&mut args, "--no-logs");
        let cli = Cli::try_parse(args.iter().cloned())?;
        // Worker-process count: `--workers`, falling back to the shared
        // `--jobs` resolution order.
        let workers = explicit_workers.unwrap_or_else(|| cli.jobs());
        // `--shard`/`--run-id` (re-issued per spawn) and the
        // coordinator-only status flags are stripped; everything else is
        // re-issued to worker processes so they rebuild the identical
        // grid. The resolved worker count and cadence are pinned
        // explicitly — the round-robin deal must match between
        // coordinator and workers even when the coordinator's count came
        // from the environment.
        let mut passthrough = vec!["--dir".into(), dir.clone()];
        passthrough.extend(["--checkpoint-every".to_string(), every.to_string()]);
        passthrough.extend(["--workers".to_string(), workers.to_string()]);
        if no_logs {
            passthrough.push("--no-logs".into());
        }
        passthrough.extend(args.iter().cloned());
        if cli.run.checkpoint.write.is_some() || cli.run.checkpoint.resume.is_some() {
            return Err(
                "--checkpoint/--resume do not apply: the sweep server always checkpoints \
                 into RUNDIR/ckpt and always resumes from it"
                    .into(),
            );
        }
        if cli.telemetry.is_some() {
            return Err("--telemetry is not supported by the sweep server".into());
        }
        Ok(ServerOpts {
            dir: PathBuf::from(dir),
            workers,
            every,
            shard,
            status_addr,
            stale_after_ms,
            no_logs,
            run_id,
            cli,
            passthrough,
        })
    }
}

/// The result file of point `i`.
fn result_path(dir: &Path, i: usize) -> PathBuf {
    dir.join("results").join(format!("{i:05}.result"))
}

/// The checkpoint file of point `i`.
fn ckpt_path(dir: &Path, i: usize) -> PathBuf {
    dir.join("ckpt").join(format!("{i:05}.ckpt"))
}

/// Atomically replaces `path` with `body` (PID-suffixed temp + rename),
/// so a kill mid-write can never publish a torn file.
fn write_atomic(path: &Path, body: &str) -> std::io::Result<()> {
    let mut name = path.file_name().expect("non-empty file name").to_owned();
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(name);
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

/// Column header of the merged output (and, sans `index`/`point`, of
/// each result line's payload).
const RESULT_HEADER: &str =
    "index\tpoint\tcycles\tinstructions\tipc\tl1_miss_rate\tl1_bypass_ratio\tl15_miss_rate\n";

/// Renders one completed point as its result-file line. Fixed-precision
/// floats over deterministic simulation output: the bytes are identical
/// no matter which worker (or which attempt) computes them — the
/// property the merge's byte-identity guarantee rests on.
fn result_line(index: usize, label: &str, stats: &SimStats) -> String {
    format!(
        "{index:05}\t{label}\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
        stats.cycles,
        stats.instructions,
        stats.ipc(),
        stats.l1_miss_rate(),
        stats.l1_bypass_ratio(),
        stats.l15_miss_rate(),
    )
}

/// The shard owning point `i` under a round-robin deal across `workers`
/// shards — the same deal [`parallel_map`] opens with.
fn owner(i: usize, workers: usize) -> usize {
    i % workers
}

/// Fault-injection spec parsed from [`FAULT_ENV`] (tests only).
enum Fault {
    /// Abort right after writing the `n`-th checkpoint.
    AfterCkpt(u64),
    /// Abort right before publishing the `n`-th result.
    BeforeResult(u64),
}

fn parse_fault() -> Option<Fault> {
    let spec = std::env::var(FAULT_ENV).ok()?;
    let (kind, n) = spec.split_once(':')?;
    let n: u64 = n.parse().ok()?;
    match kind {
        "ckpt" => Some(Fault::AfterCkpt(n)),
        "result" => Some(Fault::BeforeResult(n)),
        _ => None,
    }
}

/// Worker process: walks shard `shard`'s points in submission order,
/// resuming and checkpointing each through `RUNDIR/ckpt`, publishing
/// completed points into `RUNDIR/results`.
fn run_worker(opts: &ServerOpts, grid: &Grid, shard: usize, workers: usize) -> Result<(), String> {
    let run_id = opts.run_id.clone().unwrap_or_else(fresh_run_id);
    let log = if opts.no_logs {
        Logger::stderr_only(&run_id, Some(shard))
    } else {
        Logger::shard(&opts.dir, &run_id, shard)
    };
    let fault = parse_fault();
    let mine: Vec<usize> = (0..grid.len())
        .filter(|&i| owner(i, workers) == shard)
        .collect();
    let mut hb = HeartbeatWriter::new(
        (!opts.no_logs).then_some(opts.dir.as_path()),
        shard,
        mine.len(),
    );
    hb.beat();
    log.info("worker_start")
        .num("points", mine.len() as i64)
        .flag("fault_armed", fault.is_some())
        .emit();

    let mut ckpts_written: u64 = 0;
    let mut results_written: u64 = 0;
    for i in mine {
        let res = result_path(&opts.dir, i);
        if res.exists() {
            // Completed on a previous attempt.
            hb.hb.done += 1;
            hb.beat();
            continue;
        }
        let p = &grid.points[i];
        let bench = grid.benches[p.bench].as_ref();
        let label = grid.label(i);
        let ckpt = ckpt_path(&opts.dir, i);

        let point_start = Instant::now();
        hb.hb.current_index = Some(i);
        hb.hb.current_label = label.clone();
        hb.hb.last_ckpt_cycle = 0;
        hb.beat();
        log.info("point_start")
            .num("index", i as i64)
            .str_field("point_label", &label)
            .emit();

        let cfg = point_config(
            p.policy,
            None,
            p.hierarchy,
            p.cluster_ports,
            PolicyPlanes::default(),
            &opts.cli.run,
        );
        let build = || Gpu::new(cfg.clone());
        let mut gpu = build();
        match read_labelled_checkpoint(&ckpt, &label) {
            Ok(None) => {}
            Ok(Some(snapshot)) => match gpu.restore_checkpoint(&snapshot, bench) {
                Ok(()) => {
                    hb.hb.last_ckpt_cycle = gpu.cycle();
                    hb.beat();
                    log.info("point_resume")
                        .num("index", i as i64)
                        .str_field("point_label", &label)
                        .num("cycle", gpu.cycle() as i64)
                        .msg(format!(
                            "resuming {i:05} ({label}) from cycle {}",
                            gpu.cycle()
                        ))
                        .emit();
                }
                Err(e) => {
                    log.warn("ckpt_ignored")
                        .num("index", i as i64)
                        .msg(format!("ignoring checkpoint {i:05}: {e}"))
                        .emit();
                    gpu = build();
                }
            },
            Err(e) => log
                .warn("ckpt_ignored")
                .num("index", i as i64)
                .msg(format!("ignoring checkpoint {i:05}: {e}"))
                .emit(),
        }

        let stats = gpu
            .run_kernel_checkpointed(bench, opts.every, |cycle, snapshot| {
                write_labelled_checkpoint(&ckpt, &label, &snapshot)?;
                ckpts_written += 1;
                hb.hb.last_ckpt_cycle = cycle;
                hb.beat();
                if let Some(Fault::AfterCkpt(n)) = fault {
                    if ckpts_written == n {
                        log.error("fault_abort")
                            .num("index", i as i64)
                            .num("nth", n as i64)
                            .msg(format!("fault injection: abort after checkpoint {n}"))
                            .emit();
                        std::process::abort();
                    }
                }
                Ok(())
            })
            .map_err(|e| format!("point {i:05} ({label}) failed: {e}"))?;

        if let Some(Fault::BeforeResult(n)) = fault {
            if results_written + 1 == n {
                log.error("fault_abort")
                    .num("index", i as i64)
                    .num("nth", n as i64)
                    .msg(format!("fault injection: abort before result {n}"))
                    .emit();
                std::process::abort();
            }
        }
        write_atomic(&res, &result_line(i, &label, &stats))
            .map_err(|e| format!("cannot publish {}: {e}", res.display()))?;
        results_written += 1;
        let _ = std::fs::remove_file(&ckpt); // the point is done; only stale now
        hb.hb.done += 1;
        hb.hb.current_index = None;
        hb.hb.current_label.clear();
        hb.beat();
        log.info("point_done")
            .num("index", i as i64)
            .str_field("point_label", &label)
            .num("cycles", stats.cycles as i64)
            .float("point_ms", point_start.elapsed().as_secs_f64() * 1e3)
            .msg(format!("{i:05} ({label}) done"))
            .emit();
    }
    log.info("worker_done")
        .num("results_written", results_written as i64)
        .num("ckpts_written", ckpts_written as i64)
        .emit();
    Ok(())
}

/// Spawns and supervises shard `shard`'s worker process, respawning it
/// on any abnormal exit (a `SIGKILL`ed worker included), up to
/// [`MAX_RESPAWNS`] times. `fault` is forwarded only to the first spawn
/// of shard 0 — see [`FAULT_ENV`].
fn supervise(
    opts: &ServerOpts,
    shard: usize,
    fault: Option<&str>,
    run_id: &str,
    log: &Logger,
    fleet: &FleetState,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    for attempt in 0..=MAX_RESPAWNS {
        let mut cmd = Command::new(&exe);
        cmd.args(&opts.passthrough)
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--run-id")
            .arg(run_id)
            .env_remove(FAULT_ENV);
        if let (0, 0, Some(spec)) = (shard, attempt, fault) {
            cmd.env(FAULT_ENV, spec);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot spawn worker {shard}: {e}"))?;
        if status.success() {
            return Ok(());
        }
        fleet.respawns[shard].fetch_add(1, Ordering::Relaxed);
        log.warn("worker_respawn")
            .num("worker", shard as i64)
            .num("attempt", (attempt + 1) as i64)
            .num("max_respawns", MAX_RESPAWNS as i64)
            .str_field("exit", &status.to_string())
            .msg(format!(
                "worker {shard} died ({status}); respawn {}/{MAX_RESPAWNS}",
                attempt + 1
            ))
            .emit();
    }
    fleet.gave_up[shard].store(true, Ordering::Relaxed);
    log.error("worker_gave_up")
        .num("worker", shard as i64)
        .num("attempts", (MAX_RESPAWNS + 1) as i64)
        .msg(format!(
            "worker {shard} failed {} times; giving up",
            MAX_RESPAWNS + 1
        ))
        .emit();
    Err(format!(
        "worker {shard} failed {} times; giving up",
        MAX_RESPAWNS + 1
    ))
}

/// Reads every result file in submission order and renders the merged
/// document. Errors on a missing file or on a line that does not open
/// with the expected `index\tlabel\t` prefix (a stale or foreign run
/// directory).
fn merge(dir: &Path, grid: &Grid) -> Result<String, String> {
    let mut out = String::from(RESULT_HEADER);
    for i in 0..grid.len() {
        let path = result_path(dir, i);
        let line = std::fs::read_to_string(&path)
            .map_err(|e| format!("missing result {}: {e}", path.display()))?;
        let want = format!("{i:05}\t{}\t", grid.label(i));
        if !line.starts_with(&want) {
            return Err(format!(
                "{} does not match the manifest (expected prefix '{want}')",
                path.display()
            ));
        }
        out.push_str(&line);
    }
    Ok(out)
}

/// Coordinator process: prepares the run directory, deals the grid
/// across worker processes, supervises them, and — once every point has
/// published — merges the results in submission order to `merged.tsv`
/// and stdout.
fn run_coordinator(opts: &ServerOpts, grid: &Grid, workers: usize) -> Result<(), String> {
    if grid.is_empty() {
        return Err("the grid is empty (no benchmark matched)".into());
    }
    std::fs::create_dir_all(opts.dir.join("results"))
        .and_then(|()| std::fs::create_dir_all(opts.dir.join("ckpt")))
        .map_err(|e| format!("cannot prepare {}: {e}", opts.dir.display()))?;

    let run_id = opts.run_id.clone().unwrap_or_else(fresh_run_id);
    let log = Arc::new(if opts.no_logs {
        Logger::stderr_only(&run_id, None)
    } else {
        Logger::coordinator(&opts.dir, &run_id)
    });

    // The manifest pins the grid to the directory: resuming with
    // different flags (a different grid) must fail loudly instead of
    // merging unrelated results.
    let manifest = grid.manifest();
    let mpath = opts.dir.join("manifest.txt");
    let mut resumed = false;
    match std::fs::read_to_string(&mpath) {
        Ok(prev) if prev != manifest => {
            return Err(format!(
                "{} belongs to a different sweep (manifest mismatch); \
                 use a fresh --dir or re-run with the original flags",
                opts.dir.display()
            ));
        }
        Ok(_) => {
            resumed = true;
            log.info("sweep_resume")
                .msg(format!("resuming sweep in {}", opts.dir.display()))
                .emit();
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            write_atomic(&mpath, &manifest)
                .map_err(|e| format!("cannot write {}: {e}", mpath.display()))?;
        }
        Err(e) => return Err(format!("cannot read {}: {e}", mpath.display())),
    }

    let done = (0..grid.len())
        .filter(|&i| result_path(&opts.dir, i).exists())
        .count();
    // The fault spec (tests only) is consumed here so the respawned
    // replacement of a deliberately killed worker runs clean.
    let fault = std::env::var(FAULT_ENV).ok();
    log.info("run_start")
        .num("points", grid.len() as i64)
        .num("already_done", done as i64)
        .num("workers", workers as i64)
        .num("checkpoint_every", opts.every as i64)
        .flag("resumed", resumed)
        .msg(format!(
            "{} points ({done} already complete), {workers} worker processes, \
             checkpoint every {} cycles",
            grid.len(),
            opts.every
        ))
        .emit();
    if let Some(spec) = &fault {
        log.warn("fault_armed")
            .str_field("spec", spec)
            .msg(format!(
                "fault injection armed: {spec} (first spawn of shard 0)"
            ))
            .emit();
    }

    let fleet = Arc::new(FleetState::new(workers, fault.clone()));
    let plane = start_status_plane(opts, grid.len(), workers, &run_id, &log, &fleet)?;
    if let Some(plane) = &plane {
        if let Some(addr) = plane.addr {
            log.info("status_endpoint")
                .str_field("addr", &addr.to_string())
                .msg(format!(
                    "status endpoint listening on http://{addr}/metrics"
                ))
                .emit();
        }
    }

    if done < grid.len() {
        // One supervisor thread per shard, over the sweep engine's own
        // fan-out.
        let shards: Vec<usize> = (0..workers).collect();
        let outcomes = parallel_map(&shards, workers, |&shard| {
            supervise(opts, shard, fault.as_deref(), &run_id, &log, &fleet)
        });
        let failures: Vec<String> = outcomes.into_iter().filter_map(Result::err).collect();
        if !failures.is_empty() {
            fleet.set_state("failed");
            if let Some(plane) = plane {
                plane.finish();
            }
            return Err(failures.join("; "));
        }
    }

    fleet.set_state("merging");
    let merged = merge(&opts.dir, grid)?;
    let out = opts.dir.join("merged.tsv");
    write_atomic(&out, &merged).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    fleet.set_state("complete");
    log.info("run_complete")
        .num("points", grid.len() as i64)
        .msg(format!(
            "merged {} results into {}",
            grid.len(),
            out.display()
        ))
        .emit();
    if let Some(plane) = plane {
        plane.finish();
    }
    print!("{merged}");
    Ok(())
}

/// Starts the coordinator's status plane: periodic aggregation of the
/// worker heartbeats plus the coordinator-owned fleet bookkeeping into
/// `status.json` (skipped under `--no-logs`) and the optional live
/// endpoint. Returns `None` when there is nothing to publish at all.
/// Stale shards are detected here, on each aggregation pass, and logged
/// once per stale episode.
fn start_status_plane(
    opts: &ServerOpts,
    points_total: usize,
    workers: usize,
    run_id: &str,
    log: &Arc<Logger>,
    fleet: &Arc<FleetState>,
) -> Result<Option<StatusPlane>, String> {
    if opts.no_logs && opts.status_addr.is_none() {
        return Ok(None);
    }
    let dir = opts.dir.clone();
    let run_id = run_id.to_string();
    let stale_after_ms = opts.stale_after_ms;
    // Under --no-logs the workers write no heartbeat files at all, so a
    // missing/old heartbeat carries no signal — staleness detection
    // would flag every healthy shard. Keep the plane (endpoint, counts)
    // but disable the staleness gauge.
    let heartbeats_enabled = !opts.no_logs;
    let log = Arc::clone(log);
    let fleet = Arc::clone(fleet);
    let start = Instant::now();
    let mut warned = vec![false; workers];
    let make = move || {
        let state = fleet.state.lock().unwrap().clone();
        let running = state == "running";
        let elapsed_ms = start.elapsed().as_millis() as u64;
        let now = unix_ms();
        let points_done = (0..points_total)
            .filter(|&i| result_path(&dir, i).exists())
            .count();
        let shards: Vec<ShardStatus> = (0..workers)
            .map(|s| {
                let heartbeat = Heartbeat::read(&dir, s);
                let age_ms = heartbeat
                    .as_ref()
                    .map(|hb| now.saturating_sub(hb.updated_ms));
                let complete = heartbeat.as_ref().is_some_and(|hb| hb.done >= hb.total);
                let stale = heartbeats_enabled
                    && running
                    && !complete
                    && age_ms.unwrap_or(elapsed_ms) > stale_after_ms;
                if stale && !warned[s] {
                    warned[s] = true;
                    log.warn("shard_stale")
                        .num("worker", s as i64)
                        .num("age_ms", age_ms.unwrap_or(elapsed_ms) as i64)
                        .num("stale_after_ms", stale_after_ms as i64)
                        .msg(format!(
                            "worker {s} heartbeat is stale ({} ms old; threshold {stale_after_ms})",
                            age_ms.unwrap_or(elapsed_ms)
                        ))
                        .emit();
                } else if !stale {
                    warned[s] = false;
                }
                ShardStatus {
                    heartbeat,
                    respawns: fleet.respawns[s].load(Ordering::Relaxed),
                    gave_up: fleet.gave_up[s].load(Ordering::Relaxed),
                    age_ms,
                    stale,
                }
            })
            .collect();
        let eta_ms = (points_done > 0 && points_done < points_total)
            .then(|| elapsed_ms * (points_total - points_done) as u64 / points_done as u64);
        StatusSnapshot {
            run_id: run_id.clone(),
            state,
            points_total,
            points_done,
            workers,
            elapsed_ms,
            eta_ms,
            stale_after_ms,
            fault: fleet.fault.clone(),
            shards,
        }
    };
    let status_file = (!opts.no_logs).then(|| status_path(&opts.dir));
    StatusPlane::start(opts.status_addr.as_deref(), status_file, make).map(Some)
}

/// Runs the sweep server with parsed options: as coordinator, or — when
/// spawned with `--shard` — as one worker process.
pub fn run(opts: &ServerOpts) -> Result<(), String> {
    let grid = Grid::from_cli(&opts.cli);
    // Clamped identically in the coordinator and in every worker (both
    // see the same pinned `--jobs` and the same grid), so the deal and
    // the supervised shard set always agree.
    let workers = opts.workers.clamp(1, grid.len().max(1));
    match opts.shard {
        Some(shard) => run_worker(opts, &grid, shard, workers),
        None => run_coordinator(opts, &grid, workers),
    }
}

/// Prints a `sweep_server` usage failure and exits.
pub fn usage_exit(err: &str) -> ! {
    eprintln!("error: {err}\n\n{SERVER_USAGE}{USAGE}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::try_parse(args.iter().map(|s| s.to_string())).expect("valid flags")
    }

    #[test]
    fn grid_is_deterministic_and_label_stable() {
        let c = cli(&["--quick", "--bench", "BFS,STL"]);
        let a = Grid::from_cli(&c);
        let b = Grid::from_cli(&c);
        assert_eq!(a.len(), 2 * 6, "2 benches x 6 designs");
        assert_eq!(a.manifest(), b.manifest());
        assert!(a.label(0).starts_with("BFS|"), "got: {}", a.label(0));
        // The six designs of one bench precede the next bench.
        assert!(a.label(6).starts_with("STL|"), "got: {}", a.label(6));
    }

    #[test]
    fn grid_ports_axis_applies_to_clustered_shapes_only() {
        let c = cli(&[
            "--quick",
            "--bench",
            "BFS",
            "--hierarchy",
            "flat,c4",
            "--cluster-ports",
            "1,2",
        ]);
        let g = Grid::from_cli(&c);
        // flat: 1 port; c4: 2 port counts — (1 + 2) x 6 designs.
        assert_eq!(g.len(), 18);
    }

    #[test]
    fn round_robin_deal_covers_every_point_once() {
        let workers = 3;
        let mut seen = [0u32; 10];
        for shard in 0..workers {
            for i in (0..10).filter(|&i| owner(i, workers) == shard) {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn server_opts_parse_extracts_server_flags() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = ServerOpts::parse(args(&[
            "--dir",
            "/tmp/x",
            "--quick",
            "--checkpoint-every",
            "500",
        ]))
        .expect("parses");
        assert_eq!(o.dir, PathBuf::from("/tmp/x"));
        assert_eq!(o.every, 500);
        assert!(o.shard.is_none());
        assert!(o.cli.quick);
        // Workers rebuild the identical grid from the passthrough.
        assert!(o.passthrough.contains(&"--quick".to_string()));
        assert!(!o.passthrough.contains(&"--shard".to_string()));

        let o = ServerOpts::parse(args(&["--dir", "/tmp/x", "--workers", "7"])).expect("parses");
        assert_eq!(o.workers, 7);
        assert!(
            o.passthrough
                .windows(2)
                .any(|w| w[0] == "--workers" && w[1] == "7"),
            "worker count must be pinned for respawned workers: {:?}",
            o.passthrough
        );

        let err = ServerOpts::parse(args(&["--quick"])).unwrap_err();
        assert!(err.contains("--dir"), "got: {err}");
        let err = ServerOpts::parse(args(&["--dir", "d", "--checkpoint", "x"])).unwrap_err();
        assert!(err.contains("sweep server"), "got: {err}");
        let err = ServerOpts::parse(args(&["--dir", "d", "--shard", "zero"])).unwrap_err();
        assert!(err.contains("--shard"), "got: {err}");
    }

    #[test]
    fn result_line_round_trips_through_merge_prefix_check() {
        let mut s = SimStats::new("BFS", "GC");
        s.cycles = 1000;
        s.instructions = 500;
        let line = result_line(7, "BFS|Lru|kb=None|Flat|ports=1|sampled=false", &s);
        assert!(line.starts_with("00007\tBFS|Lru|"), "got: {line}");
        assert!(line.ends_with('\n'));
        assert_eq!(line.split('\t').count(), 8, "got: {line}");
    }

    #[test]
    fn write_atomic_replaces_contents() {
        let dir = std::env::temp_dir().join(format!("gcache-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.txt");
        write_atomic(&path, "one").unwrap();
        write_atomic(&path, "two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        // No temp litter left behind on the happy path.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
