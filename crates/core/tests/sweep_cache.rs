//! Artifact-cache correctness: the sweep cache must be keyed by netlist
//! *content*, structure mapping, and the result-affecting configuration
//! fields — a single-gate mutation invalidates it, a byte-identical
//! netlist parsed from a differently named file reuses it, and execution
//! strategy knob `threads` never invalidates it — and
//! cache hits must reproduce bit-identical node AVFs.

use std::path::{Path, PathBuf};

use seqavf_core::engine::SartConfig;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::sweep::{cache_key, run_sweep_with_loops_traced, CacheStatus, SweepOptions};
use seqavf_netlist::flatten::parse_netlist;
use seqavf_netlist::graph::Netlist;
use seqavf_obs::Collector;

const DESIGN: &str = r"
.design cachetest
.fub f
  .struct s1 1
  .struct s2 1
  .flop q1 s1[0]
  .flop q2 s2[0]
  .gate nor g1 q1 q2
  .flop q3 g1
  .sw s2[0] q3
.endfub
.end
";

/// The same circuit with one gate changed (`nor` → `and`).
const DESIGN_MUTATED: &str = r"
.design cachetest
.fub f
  .struct s1 1
  .struct s2 1
  .flop q1 s1[0]
  .flop q2 s2[0]
  .gate and g1 q1 q2
  .flop q3 g1
  .sw s2[0] q3
.endfub
.end
";

fn temp_cache(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("seqavf-sweep-cache-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workloads() -> Vec<(String, PavfInputs)> {
    (0..3)
        .map(|k| {
            let mut p = PavfInputs::new();
            p.set_port("f.s1", 0.1 + 0.2 * k as f64, 0.5);
            p.set_port("f.s2", 0.4, 0.3 + 0.1 * k as f64);
            (format!("w{k}"), p)
        })
        .collect()
}

fn sweep(
    nl: &Netlist,
    config: &SartConfig,
    dir: &Path,
    obs: &Collector,
) -> seqavf_core::sweep::SweepOutcome {
    run_sweep_with_loops_traced(
        nl,
        &StructureMapping::new(),
        config,
        &PavfInputs::new(),
        &workloads(),
        &SweepOptions {
            threads: 2,
            cache_dir: Some(dir.to_path_buf()),
            warm_start: None,
        },
        None,
        obs,
    )
    .expect("sweep succeeds")
}

#[test]
fn second_run_hits_and_reproduces_avfs_bitwise() {
    let dir = temp_cache("hit");
    let nl = parse_netlist(DESIGN).unwrap();
    let config = SartConfig::default();
    let obs = Collector::new();
    let first = sweep(&nl, &config, &dir, &obs);
    assert_eq!(first.cache, CacheStatus::Miss);
    let second = sweep(&nl, &config, &dir, &obs);
    assert_eq!(second.cache, CacheStatus::Hit);
    assert_eq!(first.rows.len(), second.rows.len());
    for (a, b) in first.rows.iter().zip(&second.rows) {
        assert_eq!(a.workload, b.workload);
        for (x, y) in a.node_avfs.iter().zip(&b.node_avfs) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    // One miss, one hit, observable through the counters.
    let counters = obs.counters();
    assert!(counters.contains(&("sweep.cache.miss", 1)), "{counters:?}");
    assert!(counters.contains(&("sweep.cache.hit", 1)), "{counters:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_gate_mutation_is_a_cache_miss() {
    let dir = temp_cache("mutate");
    let nl = parse_netlist(DESIGN).unwrap();
    let mutated = parse_netlist(DESIGN_MUTATED).unwrap();
    assert_ne!(
        cache_key(&nl, &StructureMapping::new(), &SartConfig::default()),
        cache_key(&mutated, &StructureMapping::new(), &SartConfig::default()),
        "a single-gate edit must change the cache key"
    );
    let config = SartConfig::default();
    let obs = Collector::new();
    assert_eq!(sweep(&nl, &config, &dir, &obs).cache, CacheStatus::Miss);
    // The mutated netlist must not reuse the original's artifact.
    assert_eq!(
        sweep(&mutated, &config, &dir, &obs).cache,
        CacheStatus::Miss
    );
    assert!(obs.counters().contains(&("sweep.cache.miss", 2)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn renamed_but_identical_netlist_is_a_cache_hit() {
    let dir = temp_cache("rename");
    // Simulate "same design, different file name": write the same bytes
    // to two files and parse each — the key must depend on content only.
    let file_a = dir.join("design-a.exlif");
    let file_b = dir.join("copy-of-design.exlif");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&file_a, DESIGN).unwrap();
    std::fs::write(&file_b, DESIGN).unwrap();
    let nl_a = parse_netlist(&std::fs::read_to_string(&file_a).unwrap()).unwrap();
    let nl_b = parse_netlist(&std::fs::read_to_string(&file_b).unwrap()).unwrap();
    let config = SartConfig::default();
    let obs = Collector::new();
    let first = sweep(&nl_a, &config, &dir, &obs);
    assert_eq!(first.cache, CacheStatus::Miss);
    let second = sweep(&nl_b, &config, &dir, &obs);
    assert_eq!(
        second.cache,
        CacheStatus::Hit,
        "content key must ignore file names"
    );
    for (a, b) in first.rows.iter().zip(&second.rows) {
        for (x, y) in a.node_avfs.iter().zip(&b.node_avfs) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_change_is_a_cache_miss() {
    let dir = temp_cache("config");
    let nl = parse_netlist(DESIGN).unwrap();
    let obs = Collector::disabled();
    assert_eq!(
        sweep(&nl, &SartConfig::default(), &dir, &obs).cache,
        CacheStatus::Miss
    );
    let other = SartConfig {
        loop_pavf: 0.7,
        ..SartConfig::default()
    };
    assert_eq!(sweep(&nl, &other, &dir, &obs).cache, CacheStatus::Miss);
    // And the original still hits.
    assert_eq!(
        sweep(&nl, &SartConfig::default(), &dir, &obs).cache,
        CacheStatus::Hit
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_artifact_degrades_to_a_miss() {
    let dir = temp_cache("corrupt");
    let nl = parse_netlist(DESIGN).unwrap();
    let config = SartConfig::default();
    let obs = Collector::disabled();
    assert_eq!(sweep(&nl, &config, &dir, &obs).cache, CacheStatus::Miss);
    // Clobber the stored artifact; the next run must recompute (and
    // overwrite it with a good copy), never error or return garbage.
    let artifact = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("sweep-"))
        .expect("artifact stored")
        .path();
    let mut garbage = b"seqavf-sweep/3\n".to_vec();
    garbage.extend((0u8..64).map(|b| b.wrapping_mul(37)));
    std::fs::write(&artifact, &garbage).unwrap();
    assert_eq!(sweep(&nl, &config, &dir, &obs).cache, CacheStatus::Miss);
    // An artifact of another format version (here, the retired text
    // format's magic) is likewise just a miss.
    garbage[..15].copy_from_slice(b"seqavf-sweep/2\n");
    std::fs::write(&artifact, &garbage).unwrap();
    assert_eq!(sweep(&nl, &config, &dir, &obs).cache, CacheStatus::Miss);
    assert_eq!(sweep(&nl, &config, &dir, &obs).cache, CacheStatus::Hit);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn execution_strategy_fields_do_not_poison_the_key() {
    // `threads` picks how the fixpoint is computed, not which fixpoint —
    // results are bit-identical by design, so every thread count must map
    // to the same cache key.
    let nl = parse_netlist(DESIGN).unwrap();
    let map = StructureMapping::new();
    let base_key = cache_key(&nl, &map, &SartConfig::default());
    for threads in [0, 1, 2, 8, 32] {
        let cfg = SartConfig {
            threads,
            ..SartConfig::default()
        };
        assert_eq!(
            cache_key(&nl, &map, &cfg),
            base_key,
            "threads={threads} must not change the key"
        );
    }
    // Result-affecting fields still must.
    let other = SartConfig {
        max_iterations: 3,
        ..SartConfig::default()
    };
    assert_ne!(cache_key(&nl, &map, &other), base_key);
}

#[test]
fn thread_count_changes_hit_the_same_artifact() {
    // Regression for the key poisoning bug: a `--threads 8` sweep must
    // reuse (and bitwise reproduce) the artifact a `--threads 1` sweep
    // wrote.
    let dir = temp_cache("exec-fields");
    let nl = parse_netlist(DESIGN).unwrap();
    let obs = Collector::new();
    let one_thread = SartConfig {
        threads: 1,
        ..SartConfig::default()
    };
    let first = sweep(&nl, &one_thread, &dir, &obs);
    assert_eq!(first.cache, CacheStatus::Miss);
    let eight_threads = SartConfig {
        threads: 8,
        ..SartConfig::default()
    };
    let second = sweep(&nl, &eight_threads, &dir, &obs);
    assert_eq!(
        second.cache,
        CacheStatus::Hit,
        "execution-strategy fields must not invalidate the cache"
    );
    for (a, b) in first.rows.iter().zip(&second.rows) {
        assert_eq!(a.workload, b.workload);
        for (x, y) in a.node_avfs.iter().zip(&b.node_avfs) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    let counters = obs.counters();
    assert!(counters.contains(&("sweep.cache.miss", 1)), "{counters:?}");
    assert!(counters.contains(&("sweep.cache.hit", 1)), "{counters:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mapping_change_is_a_cache_miss() {
    // The structure mapping decides which structures carry perf-counter
    // names, which changes the compiled DAG's Struct slots — two sweeps
    // differing only in mapping must not share an artifact.
    let dir = temp_cache("mapping");
    let nl = parse_netlist(DESIGN).unwrap();
    let config = SartConfig::default();
    let obs = Collector::disabled();
    let empty = StructureMapping::new();
    let mut mapped = StructureMapping::new();
    let sid = nl
        .structure_ids()
        .next()
        .expect("test design has structures");
    mapped.insert(sid, "uops_executed");
    assert_ne!(
        cache_key(&nl, &empty, &config),
        cache_key(&nl, &mapped, &config),
        "mapping must be part of the cache key"
    );
    let opts = SweepOptions {
        threads: 2,
        cache_dir: Some(dir.clone()),
        warm_start: None,
    };
    let run = |mapping: &StructureMapping| {
        run_sweep_with_loops_traced(
            &nl,
            mapping,
            &config,
            &PavfInputs::new(),
            &workloads(),
            &opts,
            None,
            &obs,
        )
        .expect("sweep succeeds")
    };
    assert_eq!(run(&empty).cache, CacheStatus::Miss);
    assert_eq!(
        run(&mapped).cache,
        CacheStatus::Miss,
        "a different mapping must not reuse the empty mapping's artifact"
    );
    assert_eq!(run(&empty).cache, CacheStatus::Hit);
    assert_eq!(run(&mapped).cache, CacheStatus::Hit);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_trace_validates_against_the_schema() {
    let dir = temp_cache("trace");
    let nl = parse_netlist(DESIGN).unwrap();
    let config = SartConfig::default();
    let obs = Collector::new();
    sweep(&nl, &config, &dir, &obs);
    let mut buf = Vec::new();
    obs.write_ndjson(&mut buf, &[("cmd", "sweep")]).unwrap();
    let text = String::from_utf8(buf).unwrap();
    seqavf_obs::validate_trace(&text).expect("sweep trace validates");
    assert!(text.contains("sweep.compile"));
    assert!(text.contains("sweep.eval"));
    assert!(text.contains("sweep.cache.miss"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm sweep after an edit *patches* the previous revision's cached DAG
/// — `sweep.patch.hit`, ops mostly retained — and still reproduces an
/// independent cold sweep bit for bit; re-sweeping the edited design is
/// then a plain cache hit with nothing to patch.
#[test]
fn warm_sweep_patches_the_cached_dag_after_an_edit() {
    use seqavf_core::sweep::PatchStatus;
    use seqavf_netlist::exlif;
    use seqavf_netlist::synth::{generate, SynthConfig};

    let dir = temp_cache("dagpatch");
    let design = generate(&SynthConfig::xeon_like(21));
    let base_text = exlif::write(&design.netlist);
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let config = SartConfig::default();
    let mut inputs = PavfInputs::new();
    inputs.set_port("uops_executed", 0.21, 0.34);
    let wl = vec![("w0".to_owned(), inputs.clone())];
    let opts = SweepOptions {
        threads: 2,
        cache_dir: Some(dir.clone()),
        warm_start: Some(dir.join("fixpoints")),
    };
    let obs = Collector::new();

    let nl0 = parse_netlist(&base_text).unwrap();
    let first =
        run_sweep_with_loops_traced(&nl0, &mapping, &config, &inputs, &wl, &opts, None, &obs)
            .unwrap();
    assert_eq!(first.cache, CacheStatus::Miss);
    assert!(first.patch.is_none(), "first sweep has nothing to patch");

    let edited_text = base_text.replacen(".gate and ", ".gate or ", 1);
    assert_ne!(
        edited_text, base_text,
        "synthetic design must have an and-gate"
    );
    let nl1 = parse_netlist(&edited_text).unwrap();
    let second =
        run_sweep_with_loops_traced(&nl1, &mapping, &config, &inputs, &wl, &opts, None, &obs)
            .unwrap();
    assert_eq!(second.cache, CacheStatus::Miss);
    let st = match second.patch {
        Some(PatchStatus::Patched(st)) => st,
        other => panic!("expected a DAG patch after a one-gate edit, got {other:?}"),
    };
    let total_ops = second.stats.sum_ops + second.stats.min_ops;
    assert!(st.ops_retained > 0, "a one-gate edit must retain ops");
    assert!(
        st.slots_relowered > 0,
        "a one-gate edit must re-lower slots"
    );
    assert!(
        st.ops_added < total_ops,
        "added {} of {total_ops} ops — not proportional to the edit",
        st.ops_added
    );
    let report = obs.report();
    assert_eq!(report.counter("sweep.patch.hit"), Some(1));
    assert_eq!(report.counter("sweep.patch.full_rebuild"), None);
    assert_eq!(
        report.counter("sweep.patch.slots_relowered"),
        Some(st.slots_relowered as u64)
    );
    assert!(report.counter("sweep.patch.ops_added").is_some());

    // The patched DAG's rows match an independent, cache-less cold sweep.
    let cold = run_sweep_with_loops_traced(
        &nl1,
        &mapping,
        &config,
        &inputs,
        &wl,
        &SweepOptions {
            threads: 2,
            cache_dir: None,
            warm_start: None,
        },
        None,
        &Collector::disabled(),
    )
    .unwrap();
    for (a, b) in second.rows.iter().zip(&cold.rows) {
        for (x, y) in a.node_avfs.iter().zip(&b.node_avfs) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    // Idempotent re-sweep: plain artifact hit, no patch involved.
    let third =
        run_sweep_with_loops_traced(&nl1, &mapping, &config, &inputs, &wl, &opts, None, &obs)
            .unwrap();
    assert_eq!(third.cache, CacheStatus::Hit);
    assert!(third.patch.is_none());

    // The patch telemetry rides the NDJSON trace schema: the span and
    // both volume counters validate and appear by name.
    let mut buf = Vec::new();
    obs.write_ndjson(&mut buf, &[("cmd", "sweep")]).unwrap();
    let text = String::from_utf8(buf).unwrap();
    seqavf_obs::validate_trace(&text).expect("patch trace validates");
    assert!(text.contains("sweep.patch"), "span missing from trace");
    assert!(text.contains("sweep.patch.hit"));
    assert!(text.contains("sweep.patch.slots_relowered"));
    assert!(text.contains("sweep.patch.ops_added"));
    assert!(text.contains("sweep.patch.nodes_orphaned"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An edit that leaves no FUB patch-clean — here a rewrite of the
/// design's only FUB — goes straight to a full rebuild
/// (`sweep.patch.full_rebuild`) instead of a patch that would re-lower
/// everything, and the rows still match a cold sweep bit for bit.
#[test]
fn all_dirty_edit_rebuilds_instead_of_patching() {
    use seqavf_core::engine::WarmStatus;
    use seqavf_core::sweep::PatchStatus;

    let dir = temp_cache("alldirty");
    let config = SartConfig::default();
    let warm_opts = SweepOptions {
        threads: 2,
        cache_dir: Some(dir.clone()),
        warm_start: Some(dir.join("fixpoints")),
    };
    let obs = Collector::new();
    let run = |nl: &Netlist, opts: &SweepOptions, obs: &Collector| {
        run_sweep_with_loops_traced(
            nl,
            &StructureMapping::new(),
            &config,
            &PavfInputs::new(),
            &workloads(),
            opts,
            None,
            obs,
        )
        .expect("sweep succeeds")
    };

    let first = run(&parse_netlist(DESIGN).unwrap(), &warm_opts, &obs);
    assert!(first.patch.is_none(), "first sweep has nothing to patch");

    let edited = parse_netlist(DESIGN_MUTATED).unwrap();
    let second = run(&edited, &warm_opts, &obs);
    assert_eq!(second.cache, CacheStatus::Miss);
    assert!(
        matches!(second.warm, Some(WarmStatus::Warm { dirty_fubs: 1, .. })),
        "the edit must dirty the only FUB: {:?}",
        second.warm
    );
    assert_eq!(second.patch, Some(PatchStatus::Rebuilt("every FUB dirty")));
    let report = obs.report();
    assert_eq!(report.counter("sweep.patch.full_rebuild"), Some(1));
    assert_eq!(report.counter("sweep.patch.hit"), None);

    let cold_opts = SweepOptions {
        threads: 2,
        cache_dir: None,
        warm_start: None,
    };
    let cold = run(&edited, &cold_opts, &Collector::disabled());
    assert_eq!(second.rows.len(), cold.rows.len());
    for (a, b) in second.rows.iter().zip(&cold.rows) {
        assert_eq!(a.mean_seq_avf.to_bits(), b.mean_seq_avf.to_bits());
        assert_eq!(a.min_seq_avf.to_bits(), b.min_seq_avf.to_bits());
        assert_eq!(a.max_seq_avf.to_bits(), b.max_seq_avf.to_bits());
        for (x, y) in a.node_avfs.iter().zip(&b.node_avfs) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
