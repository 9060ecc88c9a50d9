//! The multi-workload sweep driver: compile once, evaluate per workload,
//! and skip relaxation entirely on repeated sweeps via an on-disk cache.
//!
//! The paper's amortization argument (§5.2) is that SART's symbolic result
//! makes per-workload AVF nearly free: one relaxation, then cheap
//! substitution of each workload's measured pAVF terms. This module
//! industrializes that path:
//!
//! 1. [`run_sweep`] relaxes the design once (or loads a cached compiled
//!    DAG), lowers the closed forms with [`CompiledSweep::compile`], and
//!    evaluates every workload's input table in parallel.
//! 2. [`SweepCache`] persists the compiled DAG keyed by
//!    **(netlist content hash, structure mapping, result-affecting
//!    `SartConfig` fields)** — see [`cache_key`]. The relaxation fixpoint
//!    is symbolic and independent of input values (see [`crate::relax`]),
//!    so those inputs fully determine the compiled artifact; a
//!    byte-identical netlist under the same configuration may reuse it
//!    regardless of file name — and regardless of `threads`, which
//!    changes execution strategy but never the result — while any
//!    netlist edit, mapping edit, or result-affecting
//!    configuration change produces a different key and a fresh
//!    relaxation.
//! 3. The **edit ladder** — [`solve`] (warm from a stored fixpoint, or
//!    cold) then [`compile_or_patch`] (patch the previous revision's DAG,
//!    or recompile) — is the one route from an edited design to its
//!    compiled DAG. `sweep`/`validate`, `sart --warm-start` and the
//!    resident server all take it and differ only in where they keep
//!    fixpoints and DAGs.
//!
//! Observability: compilation records a `sweep.compile` span, every
//! workload evaluation a `sweep.eval` span, and cache consultations bump
//! the `sweep.cache.hit` / `sweep.cache.miss` counters; the ladder counts
//! `relax.warmstart.{hit,miss}` and `sweep.patch.{hit,full_rebuild}`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use seqavf_netlist::graph::Netlist;
use seqavf_netlist::scc::LoopAnalysis;
use seqavf_netlist::snapshot::write_atomic;
use seqavf_netlist::Fnv1a64;
use seqavf_obs::Collector;

use crate::compile::{CompileStats, CompiledSweep, PatchStats, SeqStats};
use crate::engine::{SartConfig, SartEngine, SartResult, WarmStatus};
use crate::fixpoint::{self, StoredFixpoint};
use crate::mapping::{PavfInputs, StructureMapping};

/// The sweep-cache key: a 64-bit FNV-1a hash over the netlist's semantic
/// content digest ([`Netlist::content_digest`] — the same digest the
/// binary graph snapshot embeds), the structure→performance-counter
/// mapping, and the configuration's *result key*
/// ([`SartConfig::result_key`]). The digest depends only on graph
/// *content*, never on the file it was parsed from, so renaming a design
/// file cannot invalidate the cache while any structural edit must.
///
/// The result key deliberately excludes `threads`: it is an execution
/// strategy with a bit-identity guarantee, so a
/// `--threads 8` sweep reuses the artifact a `--threads 1` sweep wrote.
/// The mapping is keyed because it decides which structures carry
/// performance-counter names — it changes the compiled DAG's `Struct`
/// slots and therefore the evaluated AVFs.
pub fn cache_key(nl: &Netlist, mapping: &StructureMapping, config: &SartConfig) -> u64 {
    cache_key_parts(
        nl.content_digest(),
        &mapping.to_text(nl),
        &config.result_key(),
    )
}

/// [`cache_key`] from its already-extracted ingredients. The warm patch
/// path uses this to address the *previous* revision's compiled artifact:
/// the fixpoint artifact records the old content digest
/// ([`crate::fixpoint::StoredFixpoint::content_digest`]), while mapping
/// text and result key are revision-independent for a graph edit.
fn cache_key_parts(content_digest: u64, mapping_text: &str, result_key: &str) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(&content_digest.to_le_bytes());
    h.update(&[0]);
    h.update(mapping_text.as_bytes());
    h.update(&[0]);
    h.update(result_key.as_bytes());
    h.finish()
}

/// An on-disk cache of compiled sweep artifacts.
///
/// One directory, one sealed `seqavf-sweep/3` artifact
/// (`sweep-<key>.bin`, see [`CompiledSweep::encode`]) per key. Artifacts
/// that fail to decode, embed a different configuration, or disagree with
/// the requested netlist's node count are treated as misses (and
/// overwritten by the fresh store) — corruption degrades to a recompute,
/// never to a wrong answer.
#[derive(Debug, Clone)]
pub struct SweepCache {
    dir: PathBuf,
}

impl SweepCache {
    /// Opens (creating if needed) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SweepCache, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        Ok(SweepCache { dir })
    }

    /// The artifact path for a key.
    pub fn artifact_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("sweep-{key:016x}.bin"))
    }

    /// Loads the artifact for `key` if present, decodable, configured as
    /// requested, and shaped for a netlist of `node_count` nodes.
    pub fn load(&self, key: u64, config: &SartConfig, node_count: usize) -> Option<CompiledSweep> {
        let bytes = std::fs::read(self.artifact_path(key)).ok()?;
        let compiled = CompiledSweep::decode(&bytes, config).ok()?;
        (compiled.node_count() == node_count).then_some(compiled)
    }

    /// Stores a compiled artifact under `key`, atomically
    /// ([`write_atomic`]).
    pub fn store(&self, key: u64, compiled: &CompiledSweep) -> Result<PathBuf, String> {
        let path = self.artifact_path(key);
        write_atomic(&path, &compiled.encode())
            .map_err(|e| format!("cannot write cache artifact {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// How the sweep obtained its compiled DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// No cache directory configured: relaxed and compiled fresh.
    Disabled,
    /// Cache consulted, artifact absent or invalid: relaxed, compiled,
    /// and stored.
    Miss,
    /// Cache consulted and the artifact reused: relaxation skipped.
    Hit,
}

/// How [`compile_or_patch`] built the DAG after an edit, when a
/// warm-started relaxation made incremental patching possible at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchStatus {
    /// The previous revision's DAG was patched in place of a full
    /// recompile ([`CompiledSweep::patch_traced`]).
    Patched(PatchStats),
    /// The DAG was recompiled from scratch instead, for the reason given:
    /// every FUB dirty, no previous DAG, or a patch precondition failed.
    Rebuilt(&'static str),
}

/// Per-workload AVF summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadAvf {
    /// Workload name.
    pub workload: String,
    /// Mean AVF over sequential nodes.
    pub mean_seq_avf: f64,
    /// Lowest sequential-node AVF.
    pub min_seq_avf: f64,
    /// Highest sequential-node AVF.
    pub max_seq_avf: f64,
    /// Every node's AVF, indexed by `NodeId::index`.
    pub node_avfs: Vec<f64>,
}

/// Sweep-driver options.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads for the per-workload evaluation fan-out (0 and 1
    /// both run inline).
    pub threads: usize,
    /// Artifact-cache directory; `None` disables the cache.
    pub cache_dir: Option<PathBuf>,
    /// Warm-start directory holding `seqavf-fixpoint/1` artifacts
    /// (see [`crate::fixpoint`]); `None` always relaxes cold. Only
    /// consulted when a fresh relaxation actually runs — a compiled-DAG
    /// cache hit skips relaxation entirely and needs no seed.
    pub warm_start: Option<PathBuf>,
}

/// Everything a sweep produces.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Whether the compiled DAG came from the cache.
    pub cache: CacheStatus,
    /// Which solve path a warm-start request took, when a fresh
    /// relaxation ran with [`SweepOptions::warm_start`] set.
    pub warm: Option<WarmStatus>,
    /// Whether a cache-miss rebuild patched the previous revision's DAG
    /// or recompiled from scratch; `None` when no patch was attemptable
    /// (cache hit, cache disabled, or cold solve).
    pub patch: Option<PatchStatus>,
    /// Sharing statistics of the compiled DAG.
    pub stats: CompileStats,
    /// One row per requested workload, in request order.
    pub rows: Vec<WorkloadAvf>,
}

/// Runs a multi-workload sweep: obtain the compiled DAG (cache or fresh
/// relaxation seeded by `base_inputs`), then evaluate every named workload
/// table. See [`run_sweep_with_loops_traced`] for the observability variant.
pub fn run_sweep(
    nl: &Netlist,
    mapping: &StructureMapping,
    config: &SartConfig,
    base_inputs: &PavfInputs,
    workloads: &[(String, PavfInputs)],
    opts: &SweepOptions,
) -> Result<SweepOutcome, String> {
    run_sweep_with_loops_traced(
        nl,
        mapping,
        config,
        base_inputs,
        workloads,
        opts,
        None,
        &Collector::disabled(),
    )
}

/// The key a design's stored fixpoint lives under, on disk
/// ([`fixpoint::artifact_path`]) or resident. Deliberately built from the
/// design *name*, mapping text, and config `result_key` — not the netlist
/// content digest — so an edited design resolves to the same entry and
/// finds its predecessor's fixpoint there.
pub fn fixpoint_key(nl: &Netlist, mapping: &StructureMapping, config: &SartConfig) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(nl.design_name().as_bytes());
    h.update(&[0]);
    h.update(mapping.to_text(nl).as_bytes());
    h.update(&[0]);
    h.update(config.result_key().as_bytes());
    h.finish()
}

/// Step one of the edit ladder: relax `engine`, warm from `stored` when
/// the caller has a fixpoint for this design, cold otherwise (`Err`
/// carries the caller's reason for having none). Counts
/// `relax.warmstart.hit` or `relax.warmstart.miss`. Returns the result,
/// the path taken, and the patch-clean FUB mask of a warm solve (see
/// [`SartEngine::run_warm_patch_traced`]). Capturing and storing the new
/// fixpoint is left to the caller, which owns the storage.
pub fn solve(
    engine: &SartEngine<'_>,
    base_inputs: &PavfInputs,
    stored: Result<&StoredFixpoint, &'static str>,
    obs: &Collector,
) -> (SartResult, WarmStatus, Option<Vec<bool>>) {
    let solved = match stored {
        Ok(s) => engine.run_warm_patch_traced(base_inputs, s, obs),
        Err(reason) => (
            engine.run_traced(base_inputs, obs),
            WarmStatus::Cold(reason),
            None,
        ),
    };
    match solved.1 {
        WarmStatus::Warm { .. } => obs.count("relax.warmstart.hit", 1),
        WarmStatus::Cold(_) => obs.count("relax.warmstart.miss", 1),
    }
    solved
}

/// Step two of the edit ladder: lower `result` to a compiled DAG,
/// patching the previous revision's DAG when a warm [`solve`] left some
/// FUB patch-clean ([`CompiledSweep::patch_traced`] re-lowers only the
/// dirty cone). `previous(old_key, old_node_count)` fetches that DAG from
/// wherever the caller keeps it; the key is [`cache_key`] of the
/// revision `stored` was captured from.
///
/// Without a stored fixpoint and clean mask no patch is attemptable and
/// the status is `None`. Otherwise the DAG is patched (`sweep.patch.hit`)
/// or, when every FUB is dirty, the previous DAG is missing, or the patch
/// refuses, compiled from scratch (`sweep.patch.full_rebuild`) — both
/// bit-identical to a cold compile.
pub fn compile_or_patch(
    result: &SartResult,
    nl: &Netlist,
    mapping: &StructureMapping,
    stored: Option<&StoredFixpoint>,
    clean: Option<&[bool]>,
    previous: impl FnOnce(u64, usize) -> Option<Arc<CompiledSweep>>,
    obs: &Collector,
) -> (CompiledSweep, Option<PatchStatus>) {
    let (Some(fp), Some(clean)) = (stored, clean) else {
        return (CompiledSweep::compile_traced(result, nl, obs), None);
    };
    let attempt = if clean.contains(&true) {
        let old_key = cache_key_parts(
            fp.content_digest,
            &mapping.to_text(nl),
            &result.config.result_key(),
        );
        previous(old_key, fp.node_count)
            .ok_or("no DAG for the previous revision")
            .and_then(|old| {
                let layout: Vec<(&str, usize)> = fp
                    .fubs
                    .iter()
                    .map(|f| (f.name.as_str(), f.fwd.len()))
                    .collect();
                old.patch_traced(result, nl, &layout, clean, obs)
            })
    } else {
        Err("every FUB dirty")
    };
    match attempt {
        Ok((patched, stats)) => {
            obs.count("sweep.patch.hit", 1);
            (patched, Some(PatchStatus::Patched(stats)))
        }
        Err(reason) => {
            obs.count("sweep.patch.full_rebuild", 1);
            (
                CompiledSweep::compile_traced(result, nl, obs),
                Some(PatchStatus::Rebuilt(reason)),
            )
        }
    }
}

/// Obtains the compiled DAG for a design from the on-disk stores: the
/// artifact cache when `cache_dir` holds a valid artifact for the
/// (netlist, mapping, config) key (`sweep.cache.hit`), otherwise a fresh
/// relaxation seeded by `base_inputs` whose DAG is stored back
/// (`sweep.cache.miss`). The `validate` flow shares the sweep's artifacts
/// through this function instead of re-relaxing designs the sweep
/// already compiled.
///
/// With `warm_dir`, the relaxation runs the edit ladder: [`solve`] warm
/// from the directory's fixpoint artifact for this design, refresh that
/// artifact so the *next* edit starts warm, then [`compile_or_patch`]
/// against the previous revision's DAG in `cache_dir`. Without
/// `warm_dir` it relaxes cold and captures no fixpoint.
#[allow(clippy::too_many_arguments)]
pub fn obtain_compiled_warm_traced(
    nl: &Netlist,
    mapping: &StructureMapping,
    config: &SartConfig,
    base_inputs: &PavfInputs,
    cache_dir: Option<&Path>,
    warm_dir: Option<&Path>,
    loops: Option<&LoopAnalysis>,
    obs: &Collector,
) -> Result<
    (
        CompiledSweep,
        CacheStatus,
        Option<WarmStatus>,
        Option<PatchStatus>,
    ),
    String,
> {
    let cache = match cache_dir {
        Some(dir) => Some((SweepCache::open(dir)?, cache_key(nl, mapping, config))),
        None => None,
    };
    if let Some((store, key)) = &cache {
        if let Some(c) = store.load(*key, config, nl.node_count()) {
            obs.count("sweep.cache.hit", 1);
            return Ok((c, CacheStatus::Hit, None, None));
        }
        obs.count("sweep.cache.miss", 1);
    }
    let engine = match loops {
        Some(l) => SartEngine::new_with_loops_traced(nl, mapping, config.clone(), l, obs),
        None => SartEngine::new_traced(nl, mapping, config.clone(), obs),
    };
    let (compiled, warm, patch) = match warm_dir {
        None => {
            let result = engine.run_traced(base_inputs, obs);
            (CompiledSweep::compile_traced(&result, nl, obs), None, None)
        }
        Some(dir) => {
            let path = fixpoint::artifact_path(dir, fixpoint_key(nl, mapping, config));
            let stored = fixpoint::load(&path).unwrap_or_default();
            let (result, warm, clean) = solve(
                &engine,
                base_inputs,
                stored.as_ref().ok_or("no usable fixpoint artifact"),
                obs,
            );
            // Best-effort refresh: the next run should warm-start from
            // *this* design's fixpoint.
            if let Some(captured) = engine.capture_fixpoint(&result) {
                let _ = fixpoint::store(&path, &captured);
            }
            // Without a cache directory no previous revision's DAG can
            // exist, so there is nothing to patch from.
            let (compiled, patch) = match &cache {
                None => (CompiledSweep::compile_traced(&result, nl, obs), None),
                Some((store, _)) => compile_or_patch(
                    &result,
                    nl,
                    mapping,
                    stored.as_ref(),
                    clean.as_deref(),
                    |old_key, old_nodes| store.load(old_key, config, old_nodes).map(Arc::new),
                    obs,
                ),
            };
            (compiled, Some(warm), patch)
        }
    };
    let status = match &cache {
        Some((store, key)) => {
            store.store(*key, &compiled)?;
            CacheStatus::Miss
        }
        None => CacheStatus::Disabled,
    };
    Ok((compiled, status, warm, patch))
}

/// [`run_sweep`] with observability (spans `sweep.compile` / `sweep.eval`,
/// counters `sweep.cache.{hit,miss}`, plus the usual relaxation telemetry
/// on a miss) and an optional precomputed loop analysis (e.g. one
/// restored from a graph snapshot): when present, a fresh relaxation
/// reuses it instead of re-running the SCC pass.
#[allow(clippy::too_many_arguments)]
pub fn run_sweep_with_loops_traced(
    nl: &Netlist,
    mapping: &StructureMapping,
    config: &SartConfig,
    base_inputs: &PavfInputs,
    workloads: &[(String, PavfInputs)],
    opts: &SweepOptions,
    loops: Option<&LoopAnalysis>,
    obs: &Collector,
) -> Result<SweepOutcome, String> {
    let (compiled, cache, warm, patch) = obtain_compiled_warm_traced(
        nl,
        mapping,
        config,
        base_inputs,
        opts.cache_dir.as_deref(),
        opts.warm_start.as_deref(),
        loops,
        obs,
    )?;

    let tables: Vec<&PavfInputs> = workloads.iter().map(|(_, t)| t).collect();
    let avfs = compiled.evaluate_many_traced(&tables, opts.threads, obs);
    let seq: Vec<usize> = nl.seq_nodes().map(|id| id.index()).collect();
    let rows = workloads
        .iter()
        .zip(avfs)
        .map(|((name, _), node_avfs)| {
            let (mean, min, max) = SeqStats::of(&node_avfs, &seq).finish(seq.len());
            WorkloadAvf {
                workload: name.clone(),
                mean_seq_avf: mean,
                min_seq_avf: min,
                max_seq_avf: max,
                node_avfs,
            }
        })
        .collect();
    Ok(SweepOutcome {
        cache,
        warm,
        patch,
        stats: compiled.stats(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqavf_netlist::exlif;
    use seqavf_netlist::flatten::parse_netlist;
    use seqavf_netlist::synth::{generate, SynthConfig};

    /// The ladder end to end on a one-gate edit: `solve` counts each warm
    /// start once, `compile_or_patch` asks `previous` for exactly the key
    /// and node count the stored revision's DAG was cached under, patches
    /// when that DAG is there, rebuilds with a reason when it is not, and
    /// reports no patch status after a cold solve — every DAG
    /// bit-identical to a cold compile.
    #[test]
    fn ladder_patches_from_the_previous_revision_or_rebuilds() {
        let design = generate(&SynthConfig::xeon_like(7));
        let text = exlif::write(&design.netlist);
        let nl0 = parse_netlist(&text).unwrap();
        let nl1 = parse_netlist(&text.replacen(".gate and ", ".gate or ", 1)).unwrap();
        let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
        let config = SartConfig::default();
        let mut base = PavfInputs::new();
        base.set_port("uops_executed", 0.21, 0.34);
        let obs = Collector::new();

        let engine0 = SartEngine::new(&nl0, &mapping, config.clone());
        let (r0, warm0, clean0) = solve(&engine0, &base, Err("none stored"), &obs);
        assert_eq!(warm0, WarmStatus::Cold("none stored"));
        assert!(clean0.is_none());
        let stored = engine0.capture_fixpoint(&r0).expect("converged");
        let old = Arc::new(CompiledSweep::compile(&r0, &nl0));

        let engine1 = SartEngine::new(&nl1, &mapping, config.clone());
        let (r1, warm1, clean1) = solve(&engine1, &base, Ok(&stored), &obs);
        assert!(matches!(warm1, WarmStatus::Warm { .. }), "{warm1:?}");
        let clean1 = clean1.expect("a warm solve reports the clean mask");

        let mut asked = None;
        let (patched, status) = compile_or_patch(
            &r1,
            &nl1,
            &mapping,
            Some(&stored),
            Some(&clean1),
            |key, nodes| {
                asked = Some((key, nodes));
                Some(Arc::clone(&old))
            },
            &obs,
        );
        assert_eq!(
            asked,
            Some((cache_key(&nl0, &mapping, &config), nl0.node_count()))
        );
        assert!(
            matches!(status, Some(PatchStatus::Patched(_))),
            "{status:?}"
        );

        let (rebuilt, status) = compile_or_patch(
            &r1,
            &nl1,
            &mapping,
            Some(&stored),
            Some(&clean1),
            |_, _| None,
            &obs,
        );
        assert_eq!(
            status,
            Some(PatchStatus::Rebuilt("no DAG for the previous revision"))
        );

        let (compiled, status) = compile_or_patch(
            &r1,
            &nl1,
            &mapping,
            None,
            None,
            |_, _| panic!("a cold solve has no previous revision to patch"),
            &obs,
        );
        assert_eq!(status, None);

        let want = CompiledSweep::compile(&r1, &nl1).evaluate(&base);
        for dag in [&patched, &rebuilt, &compiled] {
            let got = dag.evaluate(&base);
            assert!(got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        let report = obs.report();
        assert_eq!(report.counter("relax.warmstart.hit"), Some(1));
        assert_eq!(report.counter("relax.warmstart.miss"), Some(1));
        assert_eq!(report.counter("sweep.patch.hit"), Some(1));
        assert_eq!(report.counter("sweep.patch.full_rebuild"), Some(1));
    }
}
