//! Run options are an explicit value, never process-wide state: parsing
//! a command line builds one [`RunOpts`] and touches nothing else, and
//! two runs with different options in one process each keep their own.

use gcache_bench::{point_config, Cli, PolicyPlanes, RunOpts, DEFAULT_CHECKPOINT_EVERY};
use gcache_sim::config::{GpuConfig, Hierarchy, L1PolicyKind};
use gcache_sim::gpu::Gpu;
use gcache_workloads::{by_name, Scale};
use std::sync::Barrier;

fn args<'a>(a: &'a [&str]) -> impl Iterator<Item = String> + 'a {
    a.iter().map(|s| s.to_string())
}

fn flat_lru(opts: &RunOpts) -> GpuConfig {
    point_config(
        L1PolicyKind::Lru,
        None,
        Hierarchy::Flat,
        1,
        PolicyPlanes::default(),
        opts,
    )
}

#[test]
fn cli_builds_checkpoint_opts() {
    let cli = Cli::try_parse(args(&[
        "--checkpoint",
        "c",
        "--checkpoint-every",
        "9",
        "--resume",
        "r",
    ]))
    .unwrap();
    assert_eq!(cli.run.checkpoint.write.as_deref(), Some("c"));
    assert_eq!(cli.run.checkpoint.every, 9);
    assert_eq!(cli.run.checkpoint.resume.as_deref(), Some("r"));
    let cli = Cli::try_parse(std::iter::empty()).unwrap();
    assert_eq!(cli.run.checkpoint.every, DEFAULT_CHECKPOINT_EVERY);
    let err = Cli::try_parse(args(&["--checkpoint-every", "9"])).unwrap_err();
    assert!(err.contains("requires --checkpoint"), "got: {err}");
}

#[test]
fn parsing_has_no_process_wide_effect() {
    let off = Cli::parse(args(&["--no-fast-forward"])).run;
    assert!(!off.fast_forward);
    let on = RunOpts::default();
    assert!(
        flat_lru(&on).fast_forward,
        "parsing --no-fast-forward leaked into an unrelated run"
    );

    // The same point on two threads at once, one per opts value: each
    // config carries its own switch, and the stats agree.
    let bench = by_name("BFS", Scale::Test).expect("registered");
    let both_started = Barrier::new(2);
    let simulate = |opts: &RunOpts| {
        both_started.wait();
        let cfg = flat_lru(opts);
        let ff = cfg.fast_forward;
        let stats = Gpu::new(cfg).run_kernel(bench.as_ref()).expect("completes");
        (ff, format!("{stats:?}"))
    };
    let ((ff_on, stats_on), (ff_off, stats_off)) = std::thread::scope(|s| {
        let a = s.spawn(|| simulate(&on));
        let b = s.spawn(|| simulate(&off));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(
        ff_on && !ff_off,
        "each config keeps its own fast-forward value"
    );
    assert_eq!(stats_on, stats_off, "fast-forward changed the stats");
}
