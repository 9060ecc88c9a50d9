//! Inputs every workload shares: the seeded design on disk, the seeded
//! pAVF tables, the configuration the program runs with, and the
//! provenance stamped on every result.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use seqavf_core::engine::SartConfig;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::sweep::SweepOptions;
use seqavf_netlist::exlif;
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_serve::api::NamedTable;
use seqavf_serve::resident::ResidentConfig;
use seqavf_serve::server::ServeConfig;

use crate::rng::SplitMix64;

/// pAVF tables per request or sweep: one lane group of the batched
/// evaluator.
pub const TABLES: usize = 16;

/// Design size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `xeon_like(seed).scaled(2.0).with_cores(8)`: about 102k nodes,
    /// 79k sequential bits and 99 FUBs.
    Production,
    /// `xeon_like(seed)`: about 3k nodes and 12 FUBs, for the
    /// benchmark's own tests.
    #[cfg(test)]
    Tiny,
}

impl Scale {
    fn synth(self, seed: u64) -> SynthConfig {
        match self {
            Scale::Production => SynthConfig::xeon_like(seed).scaled(2.0).with_cores(8),
            #[cfg(test)]
            Scale::Tiny => SynthConfig::xeon_like(seed),
        }
    }
}

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Design size.
    pub scale: Scale,
    /// The workload seed; drives the design, the tables and the edits.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the plain one.
    pub trace: bool,
    /// Worker threads everywhere: relaxation, flattening, evaluation,
    /// server workers and client connections.
    pub threads: usize,
    /// Scratch directory for the design files; removed when the run ends.
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans (NDJSON).
    pub spans_out: PathBuf,
}

impl RunConfig {
    /// The relaxation configuration every path uses.
    pub fn sart(&self) -> SartConfig {
        SartConfig {
            threads: self.threads,
            ..SartConfig::default()
        }
    }

    /// Sweep options of the cache-free `sweep` path.
    pub fn sweep_options(&self) -> SweepOptions {
        SweepOptions {
            threads: self.threads,
            cache_dir: None,
            warm_start: None,
        }
    }

    /// Residency settings shared by the server and in-process replays.
    pub fn resident(&self) -> ResidentConfig {
        ResidentConfig {
            threads: self.threads,
            ..ResidentConfig::default()
        }
    }

    /// Server settings: one worker per thread, loopback, any port.
    pub fn serve(&self) -> ServeConfig {
        ServeConfig {
            workers: self.threads,
            resident: self.resident(),
            ..ServeConfig::default()
        }
    }
}

/// Stream ids of [`SplitMix64`] under the benchmark seed.
pub mod stream {
    /// pAVF table values.
    pub const TABLES: u64 = 1;
    /// The edit sequence.
    pub const EDITS: u64 = 2;
    /// Which edit cycles get an independent cold check.
    pub const CHECK_SAMPLE: u64 = 3;
}

/// The design written to disk, plus what the checks need from it.
#[derive(Debug, Clone)]
pub struct DesignFiles {
    /// EXLIF path.
    pub exlif: PathBuf,
    /// Structure-mapping path.
    pub map: PathBuf,
    /// EXLIF text as written.
    pub text: String,
    /// Mapping text as written.
    pub map_text: String,
    /// Distinct performance-structure names the mapping uses.
    pub perf_names: Vec<String>,
    /// Design facts for provenance.
    pub facts: DesignFacts,
}

/// Size and identity of a design.
#[derive(Debug, Clone, Copy)]
pub struct DesignFacts {
    /// `Netlist::content_digest`.
    pub digest: u64,
    /// Flattened nodes.
    pub nodes: usize,
    /// Sequential bits.
    pub seq: usize,
    /// FUB partitions.
    pub fubs: usize,
}

/// Generates the seeded design and writes its EXLIF and mapping files
/// into `dir` under `stem`.
pub fn write_design(
    scale: Scale,
    seed: u64,
    dir: &Path,
    stem: &str,
) -> Result<DesignFiles, String> {
    let design = generate(&scale.synth(seed));
    let nl = &design.netlist;
    let text = exlif::write(nl);
    let perf_names: BTreeSet<String> = design
        .meta
        .structure_map
        .iter()
        .map(|(_, p)| p.clone())
        .collect();
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let map_text = mapping.to_text(nl);
    let exlif_path = dir.join(format!("{stem}.exlif"));
    let map_path = dir.join(format!("{stem}.map"));
    for (path, body) in [(&exlif_path, &text), (&map_path, &map_text)] {
        std::fs::write(path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(DesignFiles {
        exlif: exlif_path,
        map: map_path,
        facts: DesignFacts {
            digest: nl.content_digest(),
            nodes: nl.node_count(),
            seq: nl.seq_count(),
            fubs: nl.fub_count(),
        },
        text,
        map_text,
        perf_names: perf_names.into_iter().collect(),
    })
}

/// Seeded pAVF tables over the design's performance structures: distinct
/// port values per table, and a measured structure AVF for about half of
/// the structures so both struct-slot paths are exercised. Values are
/// multiples of 1/1000, so they survive JSON exactly.
pub fn tables(seed: u64, perf_names: &[String]) -> Vec<NamedTable> {
    let mut rng = SplitMix64::new(seed, stream::TABLES);
    let mut p = move || (50 + rng.below(900)) as f64 / 1000.0;
    (0..TABLES)
        .map(|i| {
            let mut inputs = PavfInputs::new();
            for name in perf_names {
                let (read, write) = (p(), p());
                inputs.set_port(name.clone(), read, write);
                if p() < 0.5 {
                    inputs.set_structure_avf(name.clone(), p());
                }
            }
            NamedTable {
                workload: format!("w{i:02}"),
                inputs,
            }
        })
        .collect()
}

/// `(name, table)` pairs as `run_sweep` takes them.
pub fn workload_pairs(tables: &[NamedTable]) -> Vec<(String, PavfInputs)> {
    tables
        .iter()
        .map(|t| (t.workload.clone(), t.inputs.clone()))
        .collect()
}

/// Where the benchmark was built from and what it ran on.
pub fn provenance(cfg: &RunConfig, workload: &str, clients: usize, facts: &DesignFacts) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let thread_note = if nproc == 1 {
        "nproc is 1: every thread count below is 1, and no thread curve is reported"
    } else {
        "one thread count per run (nproc); no thread curve is reported"
    };
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"scale\":\"{:?}\",\"design_digest\":\"{:016x}\",\
         \"nodes\":{},\"seq_bits\":{},\"fubs\":{},\"nproc\":{nproc},\"sart_threads\":{t},\
         \"flatten_threads\":{t},\"eval_threads\":{t},\"serve_workers\":{t},\"clients\":{clients},\
         \"threads_note\":\"{thread_note}\",\"git_revision\":\"{}\",\"build_profile\":\"{}\"}}",
        cfg.seed,
        cfg.scale,
        facts.digest,
        facts.nodes,
        facts.seq,
        facts.fubs,
        git_revision(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        t = cfg.threads,
    )
}

/// The git revision of the working directory, or `unknown` when it is
/// not the top of a git work tree (repositories above it are not
/// searched, so a plain source checkout never reports someone else's).
fn git_revision() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let mut git = std::process::Command::new("git");
    if let Some(parent) = cwd.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git.args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_seeded_and_distinct() {
        let names = vec!["rob".to_owned(), "prf".to_owned()];
        let a = tables(4, &names);
        let inputs = |t: &[NamedTable]| t.iter().map(|t| t.inputs.clone()).collect::<Vec<_>>();
        assert_eq!(a.len(), TABLES);
        assert_eq!(inputs(&a), inputs(&tables(4, &names)));
        assert_ne!(inputs(&a), inputs(&tables(5, &names)));
        assert_ne!(a[0].inputs, a[1].inputs);
    }
}
