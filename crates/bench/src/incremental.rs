//! **E13 — incremental dirty-FUB relaxation**: sweep work and wall time
//! of incremental (dirty-FUB) versus full partitioned relaxation.
//!
//! After the first sweep, most FUBs' boundary reads stop changing long
//! before the global fixpoint is reached; the incremental engine diffs
//! the cross-FUB boundary values at each barrier and re-walks only the
//! FUBs that consume a changed value. This study runs the same design
//! through [`SartEngine::run`] and the full-sweep oracle
//! [`SartEngine::run_full_sweeps`] at one and many worker threads,
//! records the per-sweep trajectory (`walked_nodes`, `dirty_fubs`, wall
//! time), and *checks* the contract: incremental mode must produce
//! bit-identical AVFs while walking strictly fewer (or equal) nodes.
//!
//! The node-walk reduction is deterministic (a property of the design's
//! convergence trajectory, not the host); wall-time speedup tracks it
//! minus barrier and diffing overhead.

use serde::{Deserialize, Serialize};

use seqavf_core::engine::{SartConfig, SartEngine};
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::synth::{generate, SynthConfig};

use crate::common::{Provenance, Scale};

/// One sweep of one mode's convergence trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Sweep index (the last one is the verification sweep).
    pub iter: usize,
    /// FUBs walked this sweep.
    pub dirty_fubs: usize,
    /// FUBs skipped because none of their boundary reads changed.
    pub skipped_fubs: usize,
    /// Nodes walked this sweep (the work metric).
    pub walked_nodes: usize,
    /// Annotations whose term set changed this sweep.
    pub changed_sets: usize,
    /// Wall-clock seconds for this sweep.
    pub wall_seconds: f64,
}

/// One (threads, mode) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModePoint {
    /// Worker threads used.
    pub threads: usize,
    /// Whether dirty-FUB skipping was enabled.
    pub incremental: bool,
    /// Relaxation wall time (sum over sweeps), best of the repeats,
    /// seconds.
    pub relax_seconds: f64,
    /// Total nodes walked across all sweeps (identical across repeats).
    pub total_walked_nodes: usize,
    /// Productive relaxation iterations.
    pub iterations: usize,
    /// Per-sweep trajectory from the last repeat.
    pub trajectory: Vec<SweepPoint>,
}

/// The full-vs-incremental comparison report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalReport {
    /// Measurement provenance (design digest, host, thread counts).
    pub provenance: Provenance,
    /// Nodes in the benchmarked design.
    pub nodes: usize,
    /// FUB partitions.
    pub fubs: usize,
    /// One entry per (threads, mode) pair.
    pub points: Vec<ModePoint>,
    /// Full-sweep node walks divided by incremental node walks (the
    /// deterministic work reduction; identical at every thread count).
    pub node_walk_reduction: f64,
    /// Whether every (threads, mode) pair produced bit-identical AVFs.
    pub bit_identical: bool,
}

impl IncrementalReport {
    /// Wall-time speedup of incremental over full sweeps at a thread
    /// count, if both points were measured.
    pub fn wall_speedup(&self, threads: usize) -> Option<f64> {
        let full = self
            .points
            .iter()
            .find(|p| p.threads == threads && !p.incremental)?;
        let inc = self
            .points
            .iter()
            .find(|p| p.threads == threads && p.incremental)?;
        Some(full.relax_seconds / inc.relax_seconds.max(1e-12))
    }

    /// Renders the comparison and the incremental trajectory.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "incremental dirty-FUB relaxation ({} nodes, {} FUBs)\n\
             {:<8} {:<12} {:>12} {:>13} {:>11}",
            self.nodes, self.fubs, "threads", "mode", "relax (s)", "node walks", "iterations"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<8} {:<12} {:>12.4} {:>13} {:>11}",
                p.threads,
                if p.incremental { "incremental" } else { "full" },
                p.relax_seconds,
                p.total_walked_nodes,
                p.iterations
            );
        }
        let _ = writeln!(
            out,
            "\nnode-walk reduction (full / incremental): {:.2}x",
            self.node_walk_reduction
        );
        for p in &self.points {
            if let (true, Some(s)) = (p.incremental, self.wall_speedup(p.threads)) {
                let _ = writeln!(out, "wall-time speedup at {} threads: {:.2}x", p.threads, s);
            }
        }
        if let Some(p) = self.points.iter().find(|p| p.incremental) {
            let _ = writeln!(
                out,
                "\nincremental trajectory ({} threads)\n{:<6} {:>11} {:>13} {:>13} {:>13}",
                p.threads, "sweep", "dirty FUBs", "skipped", "nodes walked", "changed sets"
            );
            for s in &p.trajectory {
                let _ = writeln!(
                    out,
                    "{:<6} {:>11} {:>13} {:>13} {:>13}",
                    s.iter, s.dirty_fubs, s.skipped_fubs, s.walked_nodes, s.changed_sets
                );
            }
        }
        let _ = writeln!(
            out,
            "\nAVFs bit-identical across modes and thread counts: {}",
            if self.bit_identical {
                "yes"
            } else {
                "NO (BUG)"
            }
        );
        out
    }
}

/// Runs the comparison (best of `repeats` runs per point).
pub fn run(scale: Scale, seed: u64, thread_counts: &[usize]) -> IncrementalReport {
    let factor = match scale {
        Scale::Quick => 1.0,
        Scale::Full => 4.0,
    };
    let design = generate(&SynthConfig::xeon_like(seed).scaled(factor));
    let nl = &design.netlist;
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let inputs = PavfInputs::new();
    let repeats = 3usize;

    let mut points = Vec::new();
    let mut baseline_avf: Option<Vec<f64>> = None;
    let mut bit_identical = true;
    let mut walks = (0usize, 0usize); // (full, incremental) at any thread count
    for &threads in thread_counts {
        let engine = SartEngine::new(
            nl,
            &mapping,
            SartConfig {
                threads,
                ..SartConfig::default()
            },
        );
        for incremental in [false, true] {
            let mut best = f64::INFINITY;
            let mut last = None;
            for _ in 0..repeats {
                let r = if incremental {
                    engine.run(&inputs)
                } else {
                    engine.run_full_sweeps(&inputs)
                };
                best = best.min(r.outcome.total_wall_seconds());
                last = Some(r);
            }
            let r = last.expect("at least one run");
            match &baseline_avf {
                None => baseline_avf = Some(r.avf.clone()),
                Some(base) => {
                    if base != &r.avf {
                        bit_identical = false;
                    }
                }
            }
            if incremental {
                walks.1 = r.outcome.total_walked_nodes();
            } else {
                walks.0 = r.outcome.total_walked_nodes();
            }
            points.push(ModePoint {
                threads,
                incremental,
                relax_seconds: best,
                total_walked_nodes: r.outcome.total_walked_nodes(),
                iterations: r.outcome.iterations,
                trajectory: r
                    .outcome
                    .trace
                    .iter()
                    .enumerate()
                    .map(|(i, s)| SweepPoint {
                        iter: i,
                        dirty_fubs: s.dirty_fubs,
                        skipped_fubs: s.skipped_fubs,
                        walked_nodes: s.walked_nodes,
                        changed_sets: s.changed_sets,
                        wall_seconds: s.wall_seconds,
                    })
                    .collect(),
            });
        }
    }

    IncrementalReport {
        provenance: Provenance::capture(nl.content_digest(), thread_counts),
        nodes: nl.node_count(),
        fubs: nl.fub_count(),
        points,
        node_walk_reduction: walks.0 as f64 / (walks.1 as f64).max(1.0),
        bit_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_reduces_work_and_stays_bit_identical() {
        let report = run(Scale::Quick, 7, &[1]);
        assert!(report.bit_identical);
        assert!(
            report.node_walk_reduction >= 1.0,
            "incremental walked more nodes than full sweeps: {:.2}x",
            report.node_walk_reduction
        );
        let inc = report
            .points
            .iter()
            .find(|p| p.incremental)
            .expect("incremental point");
        assert!(inc.trajectory.iter().any(|s| s.skipped_fubs > 0));
    }
}
