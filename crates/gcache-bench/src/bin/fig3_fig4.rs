//! Figures 3 & 4: L1 cache-size sensitivity of the baseline (BS) —
//! miss rate and speedup at 16/32/64/128 KB L1s, cache-sensitive set.
//!
//! Run with `cargo run --release -p gcache-bench --bin fig3_fig4`.
//! `--all` includes every benchmark (the paper plots only the sensitive
//! ones).
//!
//! Every run goes through the telemetry [`Sampler`] (via `run_sampled`),
//! so `--telemetry PATH` exports the per-interval series of each
//! (benchmark, L1 size) point for free; the figures themselves are
//! derived from the same `SimStats` as before, byte-identically
//! (`scripts/check.sh` diffs the quick output against a golden).
//!
//! [`Sampler`]: gcache_sim::telemetry::Sampler

use gcache_bench::{bench_cli_with_switches, pct, run_sampled, speedup, Table, TelemetrySeries};
use gcache_sim::config::{Hierarchy, L1PolicyKind};
use gcache_workloads::Category;

const SIZES_KB: [u64; 4] = [16, 32, 64, 128];

fn main() {
    let (cli, switches) = bench_cli_with_switches(&["--all"]);
    let all = switches[0];
    let benches: Vec<_> = cli
        .benchmarks()
        .into_iter()
        .filter(|b| all || b.info().category == Category::Sensitive || !cli.only.is_empty())
        .collect();

    let headers = ["Bench", "16KB", "32KB", "64KB", "128KB"];
    let mut fig3 = Table::new(&headers);
    let mut fig4 = Table::new(&headers);
    let mut series: Vec<TelemetrySeries> = Vec::new();

    for b in &benches {
        let info = b.info();
        eprintln!("[fig3/4] running {} ...", info.name);
        let runs: Vec<_> = SIZES_KB
            .iter()
            .map(|&kb| {
                let (stats, sampler) = run_sampled(
                    L1PolicyKind::Lru,
                    b.as_ref(),
                    Some(kb),
                    Hierarchy::Flat,
                    &cli.run,
                );
                if cli.telemetry.is_some() {
                    series.push((format!("{}@{kb}KB", info.name), stats.design, sampler));
                }
                stats
            })
            .collect();
        let base = &runs[1]; // 32 KB is the baseline machine
        fig3.row(
            std::iter::once(info.name.to_string())
                .chain(runs.iter().map(|r| pct(r.l1_miss_rate())))
                .collect(),
        );
        fig4.row(
            std::iter::once(info.name.to_string())
                .chain(runs.iter().map(|r| speedup(r.speedup_over(base))))
                .collect(),
        );
    }

    println!("## Figure 3: L1 miss rate vs L1 size (BS, LRU)\n");
    println!("{}", fig3.render());
    println!("## Figure 4: speedup vs L1 size (normalised to 32KB)\n");
    println!("{}", fig4.render());

    if let Some(path) = &cli.telemetry {
        gcache_bench::write_telemetry_series(path, &series);
    }
    gcache_bench::export_trace(&cli);
}
