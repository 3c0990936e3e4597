//! Differential gate for the event-driven memory partition.
//!
//! A seeded stream of reads, writes, atomics and clean copy-backs drives
//! two partitions side by side: the reference ticks every cycle (the
//! plain loop), the event-gated one is ticked only when its
//! [`Partition::next_event`] bound comes due or a request arrives — the
//! gating `MemorySystem::tick_with` applies under fast-forward. A
//! two-entry DRAM queue and a small L2 MSHR file make head-of-line
//! requests park on both stall branches (primary miss, clean copy-back),
//! so the lazily charged stall cycles are exercised; mid-stream the gated
//! partition is checkpointed while parked with L2 ticks still uncharged
//! and restored into a fresh partition. Responses (with their cycles),
//! partition, L2 and DRAM statistics must all match.

use gcache_core::addr::{CoreId, LineAddr, PartitionId};
use gcache_core::policy::AccessKind;
use gcache_core::rng::SmallRng;
use gcache_core::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
use gcache_sim::config::{DramTiming, GpuConfig};
use gcache_sim::partition::Partition;
use gcache_sim::request::{MemRequest, MemResponse};

/// Table 2's DRAM timing has only even parameters, so with the L2 at half
/// the core clock every CAS commit lands on an L2 tick. The odd variant
/// moves commits between L2 ticks, where a commit frees the DRAM queue
/// slot a parked head waits for without an L2 tick to retry it.
fn odd_timing() -> DramTiming {
    DramTiming {
        t_cl: 11,
        t_rp: 13,
        t_rc: 41,
        t_ras: 29,
        t_rcd: 11,
        t_rrd: 5,
        t_burst: 3,
    }
}

fn config(timing: DramTiming, fast_forward: bool) -> GpuConfig {
    let mut cfg = GpuConfig::fermi().expect("valid config");
    cfg.dram_timing = timing;
    cfg.dram_queue = 2;
    cfg.l2_mshr_entries = 4;
    cfg.fast_forward = fast_forward;
    cfg
}

fn snapshot_roundtrip(p: &Partition, cfg: &GpuConfig) -> Partition {
    let mut w = SnapshotWriter::new();
    p.save(&mut w);
    let bytes = w.finish();
    let mut restored = Partition::new(PartitionId(0), cfg);
    let mut r = SnapshotReader::new(&bytes).expect("snapshot header");
    restored.restore(&mut r).expect("restore");
    restored
}

/// One request for partition 0: lines crowd a few L2 sets so fills evict
/// (dirty) victims, and the kind mix covers every serve path.
fn request(rng: &mut SmallRng, partitions: u64) -> MemRequest {
    let local = rng.gen_range(0..4) + 64 * rng.gen_range(0..40);
    let kind = match rng.gen_range(0..20) {
        0..=7 => AccessKind::Read,
        8..=12 => AccessKind::Write,
        13 => AccessKind::Atomic,
        _ => AccessKind::CopyBack,
    };
    MemRequest {
        line: LineAddr::new(local * partitions),
        kind,
        core: CoreId(rng.gen_range(0..15) as usize),
        warp: rng.gen_range(0..48) as usize,
        class: None,
    }
}

#[derive(Default)]
struct Parks {
    primary: u64,
    copy_back: u64,
}

#[test]
fn gated_partition_matches_every_cycle_tick() {
    differential(DramTiming::default(), 13);
    differential(odd_timing(), 14);
}

fn differential(timing: DramTiming, seed: u64) {
    let cfg = config(timing, false);
    let gated_cfg = config(timing, true);
    let period = cfg.l2_period;
    let partitions = cfg.partitions as u64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut reference = Partition::new(PartitionId(0), &cfg);
    let mut gated = Partition::new(PartitionId(0), &gated_cfg);
    let mut want: Vec<(MemResponse, u64)> = Vec::new();
    let mut got: Vec<(MemResponse, u64)> = Vec::new();
    // The gated partition's cached wake-up cycle and its last tick.
    let (mut wake, mut last_gated_tick, mut gated_ticks) = (0u64, 0u64, 0u64);
    let mut parks = Parks::default();
    let mut restored_at = None;
    const REQUESTS: usize = 4000;
    let mut sent = 0;
    let mut now = 0u64;

    while sent < REQUESTS || !reference.is_idle() || !gated.is_idle() {
        now += 1;
        assert!(now < 2_000_000, "seed {seed}: partitions never drained");
        let arrivals = if sent < REQUESTS && rng.gen_bool(0.15) {
            rng.gen_range(1..4).min((REQUESTS - sent) as u64)
        } else {
            0
        };
        for _ in 0..arrivals {
            let req = request(&mut rng, partitions);
            reference.push_request(req);
            gated.push_request(req);
            sent += 1;
        }

        reference.tick(now);
        while let Some(r) = reference.pop_response(now) {
            want.push((r, now));
        }
        if now >= wake || arrivals > 0 {
            gated.tick(now);
            last_gated_tick = now;
            gated_ticks += 1;
            while let Some(r) = gated.pop_response(now) {
                got.push((r, now));
            }
            wake = gated.next_event(now).unwrap_or(u64::MAX);
        }

        match gated.parked_head().map(|r| r.kind) {
            Some(AccessKind::CopyBack) => parks.copy_back += 1,
            Some(_) => parks.primary += 1,
            None => {}
        }
        // Checkpoint between cycles while parked with at least one L2
        // tick since the last gated tick still uncharged.
        if restored_at.is_none()
            && sent >= REQUESTS / 2
            && gated.parked_head().is_some()
            && now / period > last_gated_tick / period
        {
            gated = snapshot_roundtrip(&gated, &gated_cfg);
            // The memory system ticks a restored partition next cycle.
            wake = 0;
            restored_at = Some(now);
        }
    }

    assert!(
        gated_ticks < now / 2,
        "seed {seed}: gating elided too little, {gated_ticks} ticks in {now} cycles"
    );
    assert!(
        parks.primary > 0,
        "seed {seed}: no primary miss ever parked"
    );
    assert!(
        parks.copy_back > 0,
        "seed {seed}: no clean copy-back ever parked"
    );
    assert!(
        restored_at.is_some(),
        "seed {seed}: never checkpointed a parked partition"
    );
    assert!(reference.stats().stall_cycles > 0, "seed {seed}: no stalls");
    assert!(
        gated.parked_l2_ticks() > 0,
        "seed {seed}: no stall was charged lazily after the restore"
    );
    assert_eq!(reference.parked_l2_ticks(), 0, "the plain loop parked");
    assert_eq!(
        want.len(),
        got.len(),
        "seed {seed}: response count diverged"
    );
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(w, g, "seed {seed}: response {i} diverged");
    }
    assert_eq!(
        format!("{:?}", reference.stats()),
        format!("{:?}", gated.stats()),
        "seed {seed}: partition statistics diverged"
    );
    assert_eq!(
        reference.l2_stats(),
        gated.l2_stats(),
        "seed {seed}: L2 statistics diverged"
    );
    assert_eq!(
        reference.dram_stats(),
        gated.dram_stats(),
        "seed {seed}: DRAM statistics diverged"
    );
}
