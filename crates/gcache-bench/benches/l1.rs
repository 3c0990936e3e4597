//! Micro-benchmarks of the rebuilt Core/L1 access path: the branchless
//! packed-tag probe on a hit/miss mix, and the full controller access
//! loop (probe + MSHR + fill) under every management policy.
//!
//! `scripts/check.sh` runs this target and checks that the probe line
//! and one access-loop line per policy appear.

use gcache_bench::microbench::{bench, black_box, l1_access_pass_ns, L1_BENCH_POLICIES};
use gcache_core::geometry::CacheGeometry;
use gcache_core::tag_array::TagArray;

fn main() {
    // Probe cost on a mixed hit/miss stream: a warm L1-shaped array
    // probed with alternating resident and absent lines, so both the
    // mask-hit and mask-miss sides of the branchless compare are timed.
    let geom = CacheGeometry::new(32 * 1024, 4, 128).unwrap();
    let mut tags = TagArray::new(geom);
    let mut mix = Vec::new();
    for set in 0..geom.sets() as usize {
        for way in 0..geom.ways() as usize {
            let line = geom.line_of(way as u64 + 1, set);
            tags.fill(set, way, line, false);
            mix.push(line); // hit
            mix.push(geom.line_of(way as u64 + 100, set)); // miss, same set
        }
    }
    let mut i = 0;
    bench("l1/probe_hit_miss_mix", || {
        i = (i + 1) % mix.len();
        black_box(tags.probe(black_box(mix[i])));
    });

    // Full access-path cost per policy: one number per PolicyKind so
    // policy-logic regressions are visible against the shared substrate.
    for &policy in L1_BENCH_POLICIES {
        let ns = l1_access_pass_ns(policy);
        println!("l1/access_loop/{policy:<26} {ns:>14.1} ns/access");
    }
}
