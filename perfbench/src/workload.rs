//! The benchmark's workloads: which design points each one simulates,
//! why it was chosen, and the seeded CTA permutation that turns a seed
//! into a distinct but equivalent input. Every point runs on a fresh GPU,
//! so its caches start empty.

use gcache_bench::{designs, PolicyPlanes};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_core::rng::SmallRng;
use gcache_core::snapshot::fnv1a;
use gcache_sim::config::{GpuConfig, Hierarchy, L1PolicyKind};
use gcache_sim::isa::{GridDim, Kernel, WarpProgram};
use gcache_workloads::{ml_registry, registry, Benchmark, Scale, WorkloadInfo};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["contention", "streaming", "sweep-grid"];

/// The 17 Table 1 benchmarks, in the registry's order.
const TABLE1: [&str; 17] = [
    "BFS", "KMN", "PVC", "SSC", "SD2", "SPMV", "SYRK", "IIX", "FFT", "CFD", "PVR", "NW", "SD1",
    "BP", "STL", "WP", "FWT",
];

/// Why each workload was chosen, one line each (mirrors `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "contention" => {
            "paper scale, 1 job: the G-Cache victim-bit/bypass path, cores and mesh do most of \
             the work; CONV/ATTN add HyDRA plane bypasses and clean copy-back writes"
        }
        "streaming" => {
            "paper scale, 1 job: DRAM and the L2 do most of the work with stencil stores as the \
             write stream; FFT is the one bench where fast-forward pays"
        }
        _ => {
            "smoke scale, 2 jobs: many short cold-cache points stress the sweep engine, per-point \
             set-up, CTA dispatch and the clustered L1.5/crossbar"
        }
    }
}

/// A benchmark whose CTA ids pass through a seeded permutation before
/// they reach the generator. Seed 0 is the identity, so seed-0 runs
/// reproduce the committed paper numbers; any other seed dispatches the
/// same CTAs in a different order, which changes every timing-dependent
/// outcome while keeping the work itself fixed.
pub struct Seeded {
    inner: Box<dyn Benchmark>,
    perm: Vec<usize>,
}

impl Seeded {
    /// Wraps `inner`, permuting its CTA ids with a stream drawn from
    /// `seed` and the benchmark's name.
    pub fn new(inner: Box<dyn Benchmark>, seed: u64) -> Self {
        let n = inner.grid().ctas;
        let mut perm: Vec<usize> = (0..n).collect();
        if seed != 0 {
            let mut rng = SmallRng::seed_from_u64(seed ^ fnv1a(inner.info().name.as_bytes()));
            for i in (1..n).rev() {
                let j = rng.gen_range(0..i as u64 + 1) as usize;
                perm.swap(i, j);
            }
        }
        Seeded { inner, perm }
    }
}

impl Kernel for Seeded {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn grid(&self) -> GridDim {
        self.inner.grid()
    }

    fn warp_program(&self, cta_id: usize, warp_in_cta: usize) -> Box<dyn WarpProgram> {
        self.inner.warp_program(self.perm[cta_id], warp_in_cta)
    }
}

impl Benchmark for Seeded {
    fn info(&self) -> WorkloadInfo {
        self.inner.info()
    }
}

/// One simulated design point of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Index into [`Workload::benches`].
    pub bench: usize,
    /// L1 replacement/bypass policy.
    pub policy: L1PolicyKind,
    /// Memory-hierarchy shape.
    pub hierarchy: Hierarchy,
    /// Cluster-crossbar port count.
    pub ports: usize,
    /// L1 bypass and copy-back planes.
    pub planes: PolicyPlanes,
}

impl Point {
    /// The validated machine configuration of this point.
    pub fn config(&self) -> Result<GpuConfig, String> {
        let cfg = GpuConfig::fermi_with_policy(self.policy)
            .map_err(|e| e.to_string())?
            .with_hierarchy(self.hierarchy)?
            .with_cluster_ports(self.ports)?
            .with_l1_bypass(self.planes.l1_bypass)
            .with_l1_copy_back(self.planes.l1_copy_back);
        Ok(cfg)
    }
}

/// A point's identity for reference lookups: `bench|design|shape|planes`.
pub fn label(bench: &str, design: &str, hierarchy: Hierarchy, planes: PolicyPlanes) -> String {
    let shape = match hierarchy {
        Hierarchy::Flat => "flat".to_string(),
        Hierarchy::SharedL15 { cluster_size, kb } => format!("c{cluster_size}:{kb}"),
    };
    format!("{bench}|{design}|{shape}|{}", planes.label())
}

/// A built workload: its generators (seeded) and its design points.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Generator scale.
    pub scale: Scale,
    /// Sweep worker threads.
    pub jobs: usize,
    /// The seed the generators were permuted with.
    pub seed: u64,
    /// The distinct benchmarks the points run.
    pub benches: Vec<Seeded>,
    /// The design points, in a fixed order.
    pub points: Vec<Point>,
}

impl Workload {
    /// Builds the named workload for `seed` (generator construction
    /// included), or `None` for an unknown name.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let gc = || L1PolicyKind::GCache(GCacheConfig::default());
        let flat = (Hierarchy::Flat, 1);
        let c4 = (
            Hierarchy::SharedL15 {
                cluster_size: 4,
                kb: 64,
            },
            2,
        );
        Some(match name {
            "contention" => {
                let mut w = Workload::empty("contention", Scale::Paper, 1, seed);
                for b in w.add(&["BFS", "KMN", "IIX", "SYRK"]) {
                    w.grid(b, &designs(8), &[flat], &[PolicyPlanes::default()]);
                }
                let planes = [
                    PolicyPlanes::default(),
                    PolicyPlanes::hydra(),
                    PolicyPlanes::clean_copy_back(2),
                ];
                for b in w.add(&["CONV", "ATTN"]) {
                    w.grid(b, &[gc()], &[flat], &planes);
                }
                w
            }
            "streaming" => {
                let mut w = Workload::empty("streaming", Scale::Paper, 1, seed);
                for b in w.add(&["STL", "SD1", "FWT", "NW", "FFT"]) {
                    w.grid(
                        b,
                        &[L1PolicyKind::Lru, gc()],
                        &[flat],
                        &[PolicyPlanes::default()],
                    );
                }
                w
            }
            "sweep-grid" => {
                let mut w = Workload::empty("sweep-grid", Scale::Test, 2, seed);
                for b in w.add(&TABLE1) {
                    w.grid(b, &designs(8), &[flat, c4], &[PolicyPlanes::default()]);
                }
                for b in w.add(&["GEMM", "CONV", "ATTN"]) {
                    w.grid(b, &[gc()], &[flat], &ml_planes());
                }
                w
            }
            _ => return None,
        })
    }

    fn empty(name: &'static str, scale: Scale, jobs: usize, seed: u64) -> Workload {
        Workload {
            name,
            scale,
            jobs,
            seed,
            benches: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Instantiates the named generators from the Table 1 and ML
    /// registries (one registry pass per call) and returns their indices.
    fn add(&mut self, names: &[&str]) -> std::ops::Range<usize> {
        let start = self.benches.len();
        let mut pool: Vec<Option<Box<dyn Benchmark>>> = registry(self.scale)
            .into_iter()
            .chain(ml_registry(self.scale))
            .map(Some)
            .collect();
        for name in names {
            let b = pool
                .iter_mut()
                .find(|b| b.as_ref().is_some_and(|b| b.info().name == *name))
                .and_then(Option::take)
                .unwrap_or_else(|| panic!("benchmark {name} is in the registries"));
            self.benches.push(Seeded::new(b, self.seed));
        }
        start..self.benches.len()
    }

    /// Adds bench × shape × policy × planes points, shape-major.
    fn grid(
        &mut self,
        bench: usize,
        policies: &[L1PolicyKind],
        shapes: &[(Hierarchy, usize)],
        planes: &[PolicyPlanes],
    ) {
        for &(hierarchy, ports) in shapes {
            for &policy in policies {
                for &planes in planes {
                    self.points.push(Point {
                        bench,
                        policy,
                        hierarchy,
                        ports,
                        planes,
                    });
                }
            }
        }
    }

    /// The reference label of point `i`.
    pub fn label(&self, i: usize) -> String {
        let p = &self.points[i];
        label(
            self.benches[p.bench].info().name,
            p.policy.design_name(),
            p.hierarchy,
            p.planes,
        )
    }

    /// The benchmark point `i` runs.
    pub fn bench(&self, i: usize) -> &Seeded {
        &self.benches[self.points[i].bench]
    }
}

/// The four `mlsweep` plane compositions, with the names its table uses.
pub fn ml_planes() -> [PolicyPlanes; 4] {
    [
        PolicyPlanes::default(),
        PolicyPlanes::hydra(),
        PolicyPlanes::clean_copy_back(2),
        PolicyPlanes {
            l1_bypass: PolicyPlanes::hydra().l1_bypass,
            l1_copy_back: PolicyPlanes::clean_copy_back(2).l1_copy_back,
        },
    ]
}

/// The `mlsweep` table name of a plane composition under G-Cache.
pub fn ml_plane_name(planes: PolicyPlanes) -> &'static str {
    let [gc, hydra, cb, both] = ml_planes();
    if planes == gc {
        "GC"
    } else if planes == hydra {
        "GC+HYDRA"
    } else if planes == cb {
        "GC+CB"
    } else if planes == both {
        "GC+HYDRA+CB"
    } else {
        "?"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_identity_and_other_seeds_permute() {
        let b = || registry(Scale::Test).into_iter().next().expect("BFS");
        let n = b().grid().ctas;
        assert!(n > 2);
        assert_eq!(Seeded::new(b(), 0).perm, (0..n).collect::<Vec<_>>());
        let mut p1 = Seeded::new(b(), 1).perm;
        assert_ne!(p1, (0..n).collect::<Vec<_>>());
        p1.sort_unstable();
        assert_eq!(p1, (0..n).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn workloads_have_the_documented_sizes() {
        let sizes: Vec<usize> = NAMES
            .iter()
            .map(|n| Workload::build(n, 0).expect("known").points.len())
            .collect();
        assert_eq!(sizes, vec![30, 10, 17 * 6 * 2 + 12]);
        assert!(Workload::build("nope", 0).is_none());
    }
}
