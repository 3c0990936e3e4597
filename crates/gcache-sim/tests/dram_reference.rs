//! Differential gate for the DRAM channel's maintained scheduling bound.
//!
//! A seeded request stream drives two channels side by side: the
//! reference, which runs a full FR-FCFS scan every cycle, and an
//! event-gated one, which is ticked only when its [`Dram::next_event`]
//! bound (taken after its last tick or enqueue) comes due — the way a
//! fast-forwarding memory partition drives it. The stream includes bursts
//! that overrun the controller queue, and the gated channel is
//! checkpointed and restored into a fresh channel mid-stream. Both must
//! complete the same tokens on the same cycles with identical statistics,
//! and the gated channel's maintained bound must equal its recomputation
//! after every step.

use gcache_core::addr::LineAddr;
use gcache_core::rng::SmallRng;
use gcache_core::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
use gcache_sim::config::DramTiming;
use gcache_sim::dram::{Dram, DramQueueFull};

const BANKS: usize = 4;
const ROW_BYTES: u32 = 2048;
const QUEUE: usize = 8;
const LINE: u32 = 128;

fn channel(gated: bool) -> Dram<u64> {
    let mut d = Dram::new(DramTiming::default(), BANKS, ROW_BYTES, QUEUE, LINE);
    d.set_event_gating(gated);
    d
}

fn snapshot_roundtrip(d: &Dram<u64>) -> Dram<u64> {
    let mut w = SnapshotWriter::new();
    d.save(&mut w);
    let bytes = w.finish();
    let mut restored = channel(true);
    let mut r = SnapshotReader::new(&bytes).expect("snapshot header");
    restored.restore(&mut r).expect("restore");
    restored
}

/// Runs one seeded stream; returns the gated channel's completions so the
/// caller can check the run was not vacuous.
fn differential(seed: u64) -> Vec<(u64, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut reference = channel(false);
    let mut gated = channel(true);
    // Cycle at which the gated channel must next be ticked; 0 = now.
    let mut wake = 0u64;
    let (mut want, mut got) = (Vec::new(), Vec::new());
    let mut token = 0u64;
    let mut full_rejects = 0;
    let mut restored = false;
    const CYCLES: u64 = 40_000;

    for now in 1..CYCLES {
        // Arrivals: mostly single requests, sometimes a burst larger than
        // the queue. Lines come from a small footprint so row hits, opens
        // and conflicts all occur.
        let burst = if rng.gen_bool(0.01) {
            rng.gen_range(QUEUE as u64..2 * QUEUE as u64)
        } else {
            u64::from(rng.gen_bool(0.08))
        };
        for _ in 0..burst {
            let line = LineAddr::new(rng.gen_range(0..512));
            let write = rng.gen_bool(0.3);
            let a = reference.enqueue(line, write, token, now);
            let b = gated.enqueue(line, write, token, now);
            assert_eq!(a, b, "seed {seed} cycle {now}: admission diverged");
            if a == Err(DramQueueFull) {
                full_rejects += 1;
            } else {
                token += 1;
                wake = 0;
            }
            assert!(gated.bound_consistent(), "seed {seed} cycle {now}: enqueue");
        }

        reference.tick(now);
        if now >= wake {
            gated.tick(now);
            wake = gated.next_event(now).unwrap_or(u64::MAX);
        }
        assert!(gated.bound_consistent(), "seed {seed} cycle {now}: tick");

        while let Some(t) = reference.pop_completed(now) {
            want.push((t, now));
        }
        while let Some(t) = gated.pop_completed(now) {
            got.push((t, now));
        }

        if !restored && now >= CYCLES / 2 && !gated.is_idle() {
            gated = snapshot_roundtrip(&gated);
            assert!(gated.bound_consistent(), "seed {seed}: restored bound");
            // A restored channel is ticked on the next cycle, as the
            // memory system does after a checkpoint restore.
            wake = 0;
            restored = true;
        }
    }
    assert!(restored, "seed {seed}: never snapshotted a busy channel");
    assert!(full_rejects > 0, "seed {seed}: no burst overran the queue");
    assert_eq!(want, got, "seed {seed}: completion sequence diverged");
    assert_eq!(
        reference.stats(),
        gated.stats(),
        "seed {seed}: statistics diverged"
    );
    got
}

#[test]
fn gated_channel_matches_every_cycle_scan() {
    for seed in [0, 1, 7, 42] {
        let done = differential(seed);
        assert!(done.len() > 1000, "seed {seed}: only {} done", done.len());
    }
}

#[test]
fn bound_tracks_enqueue_and_commit() {
    // Ungated, so every tick below runs a real scheduling scan; the bound
    // is maintained either way.
    let mut d = channel(false);
    assert_eq!(d.next_event(5), None, "empty queue has no event");
    d.enqueue(LineAddr::new(0), false, 1, 100).unwrap();
    assert!(d.bound_consistent());
    // A cold bank past tRRD can start its activate on the next cycle.
    assert_eq!(d.next_event(100), Some(101));
    d.tick(101);
    assert!(d.bound_consistent());
    assert_eq!(d.next_event(101), None, "the only request committed");
    // Same bank, other row: a conflict waits for tRAS after the
    // activation at cycle 101, so the bound lies well ahead.
    d.enqueue(LineAddr::new(64 * 16), false, 2, 102).unwrap();
    assert!(d.bound_consistent());
    let ev = d.next_event(102).expect("one queued request");
    assert!(ev > 103, "conflict bound {ev} ignores tRAS");
    for now in 103..ev {
        d.tick(now);
        assert_eq!(d.stats().row_conflicts, 0, "committed before the bound");
    }
    assert!(
        (ev..ev + 100).any(|now| {
            d.tick(now);
            d.stats().row_conflicts == 1
        }),
        "the conflict never committed"
    );
    assert!(d.bound_consistent());
}
