//! A fixed reference computation, timed beside every measured point and
//! set-up, so that host times are stated at a reference host speed.
//!
//! On a shared virtual machine the speed of a vCPU drifts with the load
//! of other guests: on a 2-vCPU KVM guest (Intel Xeon, model 207) the CPU
//! time of one and the same design point varied by 20–60% within a 40 s
//! run, with steal time below 1%, and no statistic over one run removes
//! drift that lasts minutes. The probe slows down with the host: its CPU
//! time correlated 0.6–0.85 with that of the simulated point next to it.
//! Over ten seeds of 40 s runs, scaling cut the spread (interquartile
//! range ÷ median) of the workload CPU time from 0.16 to 0.05 on
//! streaming, 0.08 to 0.03 on contention and 0.15 to 0.05 on sweep-grid.
//!
//! The probe is branchy integer code on hash tables (see [`probe_ns`]),
//! and it depends on nothing in the program: a change to the simulator
//! moves the scaled times exactly as it moves the raw ones.

use crate::exec::thread_cpu_ns;
use std::hint::black_box;
use std::sync::Mutex;

/// The probe's median CPU time on the reference host (the 2-vCPU Xeon
/// guest above), in seconds: a scaled time is the measured CPU time ×
/// `REF_S` ÷ the probe's CPU time beside it.
pub const REF_S: f64 = 1.4e-3;

/// A small (512 KB) and a large (4 MB) table, and room for the small
/// table's keys.
type Tables = (Vec<u64>, Vec<u64>, Vec<u64>);

/// Tables kept between probes, one set per thread probing at once (see
/// [`reserve`]). A probe never allocates, so its work does not depend on
/// the heap the simulator leaves behind, and it adds a fixed amount to
/// the peak RSS.
static TABLES: Mutex<Vec<Tables>> = Mutex::new(Vec::new());

fn new_tables() -> Tables {
    // Non-zero, so that every page is written, and resident, right away.
    (vec![1; 1 << 16], vec![1; 1 << 19], vec![1; 1 << 16])
}

/// Makes sure `n` sets of tables exist: call it before the first pass
/// with the pass's worker count, so that no probe allocates in a pass.
pub fn reserve(n: usize) {
    let mut pool = TABLES.lock().expect("no probe panics");
    while pool.len() < n {
        pool.push(new_tables());
    }
}

/// Clears `table` (a power-of-two length) and inserts `ops` pseudo-random
/// keys drawn from `1..=keys` into it by open addressing; returns how
/// many keys were already there.
fn fill(table: &mut [u64], ops: usize, keys: u64) -> u64 {
    table.fill(0);
    let mask = table.len() - 1;
    let shift = 64 - table.len().trailing_zeros();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut repeats = 0;
    for _ in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % keys + 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            match table[slot] {
                0 => {
                    table[slot] = key;
                    break;
                }
                k if k == key => {
                    repeats += 1;
                    break;
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }
    repeats
}

/// Runs the reference computation once and returns its CPU time in ns.
///
/// It has two parts. A 512 KB table, mostly repeated keys, whose keys
/// are then sorted, stays in the per-core cache, like the simulator's
/// hot structures. A 4 MB table, cleared and filled at random, streams
/// through memory and misses the per-core cache, like the simulator's
/// paper-scale working set. The parts are summed.
pub fn probe_ns() -> u64 {
    let taken = TABLES.lock().expect("no probe panics").pop();
    let (mut small, mut large, mut keys) = taken.unwrap_or_else(new_tables);
    let start = thread_cpu_ns();
    let repeats = fill(&mut small, 35_000, 20_000);
    keys.clear();
    keys.extend(small.iter().copied().filter(|&k| k != 0));
    keys.sort_unstable_by_key(|k| k.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    black_box((&keys, repeats));
    black_box(fill(&mut large, 20_000, 1 << 19));
    let ns = thread_cpu_ns() - start;
    TABLES
        .lock()
        .expect("no probe panics")
        .push((small, large, keys));
    ns
}

/// Probes taken just before and just after each measurement.
pub const ROUNDS: usize = 3;

/// The median of `ROUNDS` probes before and `ROUNDS` after a measurement,
/// which a burst of host load during one probe does not move.
pub fn around(before: &[u64; ROUNDS]) -> u64 {
    let mut all = before.to_vec();
    all.extend((0..ROUNDS).map(|_| probe_ns()));
    all.sort_unstable();
    (all[ROUNDS - 1] + all[ROUNDS]) / 2
}

/// `ROUNDS` probes, to be taken before a measurement.
pub fn before() -> [u64; ROUNDS] {
    std::array::from_fn(|_| probe_ns())
}

/// `cpu_ns` scaled to the reference host speed by the probe CPU time
/// measured beside it, in seconds.
pub fn scaled_s(cpu_ns: u64, probe_ns: u64) -> f64 {
    cpu_ns as f64 / probe_ns.max(1) as f64 * REF_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_relative_to_the_probe() {
        assert_eq!(scaled_s(4_000_000, 2_000_000), 2.0 * REF_S);
        assert!(probe_ns() > 0);
    }
}
