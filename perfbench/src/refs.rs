//! Seed-0 reference checks: every simulated point must reproduce the
//! committed experiment tables at the precision they were printed with.

use crate::workload::{label, ml_plane_name, ml_planes, Workload};
use gcache_bench::{pct, speedup, PolicyPlanes};
use gcache_sim::config::Hierarchy;
use gcache_sim::stats::SimStats;
use std::collections::HashMap;

/// Full-scale Figures 8/9.
const FIG8_FIG9: &str = include_str!("../../results/fig8_fig9.txt");
/// Full-scale ML plane sweep.
const MLSWEEP: &str = include_str!("../../results/mlsweep.txt");
/// Smoke-scale goldens over BFS, CFD and STL.
const FIG8_FIG9_QUICK: &str =
    include_str!("../../crates/gcache-bench/tests/golden/fig8_fig9_quick.txt");
const HIERARCHY_QUICK: &str =
    include_str!("../../crates/gcache-bench/tests/golden/hierarchy_quick.txt");
/// Smoke-scale ML plane sweep.
const MLSWEEP_QUICK: &str =
    include_str!("../../crates/gcache-bench/tests/golden/mlsweep_quick.txt");

/// One markdown table of a reference document, under its `## ` title.
#[derive(Clone, Debug)]
struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// A parsed reference document.
#[derive(Clone, Debug)]
struct Doc {
    name: &'static str,
    tables: Vec<Table>,
}

impl Doc {
    /// Parses the pipe tables of `text`, each under the nearest `## ` title.
    fn parse(name: &'static str, text: &str) -> Doc {
        let mut tables: Vec<Table> = Vec::new();
        let mut title = String::new();
        let mut in_table = false;
        for line in text.lines() {
            if let Some(t) = line.strip_prefix("## ") {
                title = t.to_string();
                in_table = false;
            } else if line.starts_with('|') {
                let cells: Vec<String> = line
                    .trim_matches('|')
                    .split('|')
                    .map(|c| c.trim().to_string())
                    .collect();
                if !in_table {
                    tables.push(Table {
                        title: title.clone(),
                        headers: cells,
                        rows: Vec::new(),
                    });
                    in_table = true;
                } else if !cells[0].starts_with('-') {
                    tables.last_mut().expect("table started").rows.push(cells);
                }
            } else {
                in_table = false;
            }
        }
        Doc { name, tables }
    }

    /// The cell under `column` in the row whose leading cells are `key`,
    /// in the table whose title starts with `title`.
    fn cell(&self, title: &str, key: &[&str], column: &str) -> Option<&str> {
        let t = self.tables.iter().find(|t| t.title.starts_with(title))?;
        let col = t.headers.iter().position(|h| h == column)?;
        let row = t
            .rows
            .iter()
            .find(|r| r.len() > key.len() && r.iter().zip(key).all(|(c, k)| c == k))?;
        row.get(col).map(String::as_str)
    }

    /// Overwrites one cell (used by the self-tests to perturb a reference).
    #[cfg(test)]
    fn set(&mut self, title: &str, key: &[&str], column: &str, value: &str) {
        let t = self
            .tables
            .iter_mut()
            .find(|t| t.title.starts_with(title))
            .expect("table");
        let col = t.headers.iter().position(|h| h == column).expect("column");
        let row = t
            .rows
            .iter_mut()
            .find(|r| r.iter().zip(key).all(|(c, k)| c == k))
            .expect("row");
        row[col] = value.to_string();
    }
}

/// The printed quantity a reference cell holds.
#[derive(Clone, Copy, Debug)]
enum Value {
    /// `speedup(point IPC / base IPC)`.
    Speedup,
    /// `pct(L1 miss rate)`.
    L1Miss,
    /// `pct(L1.5 miss rate)`, `-` on a flat machine.
    L15Miss,
    /// IPC with 3 decimals.
    Ipc3,
    /// IPC with 4 decimals.
    Ipc4,
    /// Mean packet latency over both mesh networks, 1 decimal.
    NocLat,
    /// Injection-fail rate over both mesh networks.
    NocFail,
    /// Crossbar port occupancy, `-` without crossbars.
    XbarOcc,
    /// L1 plane bypass count.
    PlaneByp,
    /// L1 clean copy-back count.
    CleanCb,
}

impl Value {
    fn render(self, s: &SimStats, base: Option<&SimStats>) -> String {
        let noc = |f: fn(&gcache_sim::icnt::NocStats) -> u64| f(&s.noc_req) + f(&s.noc_resp);
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        match self {
            Value::Speedup => speedup(s.speedup_over(base.expect("speedup has a base"))),
            Value::L1Miss => pct(s.l1_miss_rate()),
            Value::L15Miss if s.l15.accesses() == 0 => "-".to_string(),
            Value::L15Miss => pct(s.l15_miss_rate()),
            Value::Ipc3 => format!("{:.3}", s.ipc()),
            Value::Ipc4 => format!("{:.4}", s.ipc()),
            Value::NocLat => format!(
                "{:.1}",
                ratio(noc(|n| n.total_latency), noc(|n| n.delivered))
            ),
            Value::NocFail => pct(ratio(
                noc(|n| n.inject_fails),
                noc(|n| n.packets) + noc(|n| n.inject_fails),
            )),
            Value::XbarOcc if s.xbar_ports == 0 => "-".to_string(),
            Value::XbarOcc => pct(s.xbar_occupancy()),
            Value::PlaneByp => s.l1.plane_bypasses.to_string(),
            Value::CleanCb => s.l1.clean_copy_backs.to_string(),
        }
    }
}

/// One reference cell and the point(s) it is computed from.
#[derive(Clone, Debug)]
struct Check {
    doc: usize,
    title: &'static str,
    key: Vec<String>,
    column: String,
    point: String,
    base: Option<String>,
    value: Value,
}

/// The reference documents and the cells a workload must reproduce.
pub struct References {
    docs: Vec<Doc>,
    checks: Vec<Check>,
}

/// A reference cell the simulated point did not reproduce.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Index of the blamed point.
    pub point: usize,
    /// Human-readable description.
    pub what: String,
}

const FIG8: &str = "Figure 8:";
const FIG9: &str = "Figure 9:";
const BS: &str = "BS";
const FIG_DESIGNS: [&str; 5] = ["BS", "BS-S", "PDP-3", "PDP-8", "GC"];

impl References {
    /// The seed-0 references of `w` (empty for unknown workloads).
    pub fn for_workload(w: &Workload) -> References {
        let mut r = References {
            docs: Vec::new(),
            checks: Vec::new(),
        };
        let flat = Hierarchy::Flat;
        let plain = PolicyPlanes::default();
        match w.name {
            "contention" => {
                let fig = r.doc("results/fig8_fig9.txt", FIG8_FIG9);
                r.figure(fig, &["BFS", "KMN", "IIX", "SYRK"], &FIG_DESIGNS);
                let ml = r.doc("results/mlsweep.txt", MLSWEEP);
                r.mlsweep(ml, &["CONV", "ATTN"], &ml_planes()[..3]);
            }
            "streaming" => {
                let fig = r.doc("results/fig8_fig9.txt", FIG8_FIG9);
                r.figure(fig, &["STL", "SD1", "FWT", "NW", "FFT"], &["BS", "GC"]);
            }
            "sweep-grid" => {
                let quick = ["BFS", "CFD", "STL"];
                let fig = r.doc(
                    "crates/gcache-bench/tests/golden/fig8_fig9_quick.txt",
                    FIG8_FIG9_QUICK,
                );
                r.figure(fig, &quick, &FIG_DESIGNS);
                let h = r.doc(
                    "crates/gcache-bench/tests/golden/hierarchy_quick.txt",
                    HIERARCHY_QUICK,
                );
                let c4 = Hierarchy::SharedL15 {
                    cluster_size: 4,
                    kb: 64,
                };
                for (title, shape) in [
                    ("Hierarchy flat:", flat),
                    ("Hierarchy c4/64KB (2-port xbar):", c4),
                ] {
                    for b in quick {
                        let at = |d: &str, s| label(b, d, s, plain);
                        let cells: [(&str, &str, Value); 9] = [
                            ("BS IPC", BS, Value::Ipc3),
                            ("BS-S IPC", "BS-S", Value::Ipc3),
                            ("GC IPC", "GC", Value::Ipc3),
                            ("GC vs flat BS", "GC", Value::Speedup),
                            ("GC L1 miss", "GC", Value::L1Miss),
                            ("GC L1.5 miss", "GC", Value::L15Miss),
                            ("GC NoC lat", "GC", Value::NocLat),
                            ("GC NoC fail", "GC", Value::NocFail),
                            ("GC xbar occ", "GC", Value::XbarOcc),
                        ];
                        for (column, design, value) in cells {
                            let (point, base) = (at(design, shape), Some(at(BS, flat)));
                            r.push(h, title, &[b], column, point, base, value);
                        }
                    }
                }
                let ml = r.doc(
                    "crates/gcache-bench/tests/golden/mlsweep_quick.txt",
                    MLSWEEP_QUICK,
                );
                r.mlsweep(ml, &["GEMM", "CONV", "ATTN"], &ml_planes());
            }
            _ => {}
        }
        r
    }

    fn doc(&mut self, name: &'static str, text: &str) -> usize {
        self.docs.push(Doc::parse(name, text));
        self.docs.len() - 1
    }

    /// Figure 8 speedups over BS and Figure 9 miss rates, flat machine.
    fn figure(&mut self, doc: usize, benches: &[&str], designs: &[&str]) {
        let plain = PolicyPlanes::default();
        for b in benches {
            let at = |d: &str| label(b, d, Hierarchy::Flat, plain);
            for d in designs {
                if *d != BS {
                    self.push(doc, FIG8, &[b], d, at(d), Some(at(BS)), Value::Speedup);
                }
                self.push(doc, FIG9, &[b], d, at(d), None, Value::L1Miss);
            }
        }
    }

    /// `mlsweep` rows: G-Cache under each plane composition.
    fn mlsweep(&mut self, doc: usize, benches: &[&str], planes: &[PolicyPlanes]) {
        let title = "ML workload plane sweep";
        for b in benches {
            let at = |p| label(b, "GC", Hierarchy::Flat, p);
            for &p in planes {
                let key = [*b, ml_plane_name(p)];
                let base = Some(at(PolicyPlanes::default()));
                for (column, value) in [
                    ("IPC", Value::Ipc4),
                    ("vs GC", Value::Speedup),
                    ("L1 miss", Value::L1Miss),
                    ("Plane byp", Value::PlaneByp),
                    ("Clean CB", Value::CleanCb),
                ] {
                    self.push(doc, title, &key, column, at(p), base.clone(), value);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        doc: usize,
        title: &'static str,
        key: &[&str],
        column: &str,
        point: String,
        base: Option<String>,
        value: Value,
    ) {
        self.checks.push(Check {
            doc,
            title,
            key: key.iter().map(|k| k.to_string()).collect(),
            column: column.to_string(),
            point,
            base,
            value,
        });
    }

    /// Number of reference cells checked.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// Compares every reference cell with the stats of `w`'s points
    /// (`None` for a point that produced no stats) and returns the cells
    /// that differ, each blamed on the point it renders.
    pub fn compare(&self, w: &Workload, stats: &[Option<SimStats>]) -> Vec<Mismatch> {
        let index: HashMap<String, usize> = (0..w.points.len()).map(|i| (w.label(i), i)).collect();
        let mut out = Vec::new();
        for c in &self.checks {
            let doc = &self.docs[c.doc];
            let key: Vec<&str> = c.key.iter().map(String::as_str).collect();
            // Cells over points a (trimmed) workload does not run are skipped.
            let Some(&point) = index.get(&c.point) else {
                continue;
            };
            let base = match &c.base {
                None => None,
                Some(b) => match index.get(b) {
                    Some(&b) => Some(b),
                    None => continue,
                },
            };
            let want = doc.cell(c.title, &key, &c.column);
            let got = match (&stats[point], base.map(|b| &stats[b])) {
                (Some(s), None) => Some(c.value.render(s, None)),
                (Some(s), Some(Some(b))) => Some(c.value.render(s, Some(b))),
                _ => None,
            };
            if want.is_none() || got.as_deref() != want {
                out.push(Mismatch {
                    point,
                    what: format!(
                        "{} [{}] {} / {}: expected {}, got {}",
                        doc.name,
                        c.title,
                        c.key.join(" "),
                        c.column,
                        want.unwrap_or("<missing>"),
                        got.as_deref().unwrap_or("<no result>")
                    ),
                });
            }
        }
        out
    }

    /// Overwrites one reference cell (self-tests only).
    #[cfg(test)]
    pub fn perturb(&mut self, doc: usize, title: &str, key: &[&str], column: &str, value: &str) {
        self.docs[doc].set(title, key, column, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_keyed_cells() {
        let d = Doc::parse("fig", FIG8_FIG9);
        assert_eq!(d.cell(FIG8, &["BFS"], "GC"), Some("1.112x"));
        assert_eq!(d.cell(FIG9, &["SYRK"], "BS-S"), Some("79.4%"));
        let m = Doc::parse("ml", MLSWEEP);
        assert_eq!(
            m.cell("ML workload", &["CONV", "GC+CB"], "Clean CB"),
            Some("8621")
        );
        assert_eq!(d.cell(FIG8, &["NOPE"], "GC"), None);
    }

    #[test]
    fn every_workload_has_references() {
        for name in crate::workload::NAMES {
            let w = Workload::build(name, 0).expect("known workload");
            let r = References::for_workload(&w);
            assert!(r.len() >= 15, "{name}: {} checks", r.len());
            // Every check names a point of the workload.
            let labels: Vec<String> = (0..w.points.len()).map(|i| w.label(i)).collect();
            for c in &r.checks {
                assert!(labels.contains(&c.point), "{name}: {}", c.point);
            }
        }
    }
}
