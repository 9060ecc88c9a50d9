//! `cold_sweep`: the `sweep` CLI with no caches. One op reads the EXLIF
//! and mapping from disk, parses and flattens, finds loops, then runs
//! `run_sweep_with_loops_traced` (disabled collector, no caches) over 16
//! pAVF tables. One client. Frontend, prepare, relax and compile do
//! nearly all the work; evaluation is a small share.

use std::time::Instant;

use seqavf_core::compile::CompiledSweep;
use seqavf_core::engine::SartEngine;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::sweep::run_sweep_with_loops_traced;
use seqavf_netlist::flatten::build_netlist_threaded;
use seqavf_netlist::{exlif, scc::find_loops};
use seqavf_obs::Collector;

use super::{ms_since, repeated_setup, windows, Layers, Window};
use crate::check::{self, Row};
use crate::design::{tables, workload_pairs, write_design, DesignFacts, DesignFiles, RunConfig};
use crate::procfs;
use crate::report::Measurement;
use crate::trace::{self, Tracer};

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<(Measurement, DesignFacts), String> {
    let mut m = Measurement::default();
    let files = repeated_setup(
        &mut m,
        || write_design(cfg.scale, cfg.seed, &cfg.work_dir, "cold"),
        drop,
    )?;
    let named = tables(cfg.seed, &files.perf_names);
    let pairs = workload_pairs(&named);
    let (plain, traced) = windows(cfg);

    let mut outputs: Vec<Result<Vec<Row>, String>> = Vec::new();
    let mut window = Window::start()?;
    let t0 = Instant::now();
    while t0.elapsed() < plain {
        let t = Instant::now();
        let out = op(cfg, &files, &pairs);
        m.latencies_ms.push(ms_since(t));
        outputs.push(out);
        window.between_ops()?;
    }
    window.finish(&mut m)?;

    if cfg.trace {
        let mut tracer = Tracer::new(Instant::now());
        let mut counts = Counts::default();
        let t1 = Instant::now();
        let mut k = 0u64;
        while k == 0 || t1.elapsed() < traced {
            tracer.set_op(k);
            outputs.push(traced_op(cfg, &files, &pairs, &mut tracer, &mut counts));
            procfs::release_free_memory();
            k += 1;
        }
        let spans = tracer.into_spans();
        layer_metrics(&mut m, &Layers::new(&spans), &counts, files.text.len());
        trace::write_ndjson(&cfg.spans_out, &spans)?;
    }

    // After the windows, so the checker's time and memory stay out of
    // setup_s and peak_rss_mb: the independent arena-evaluator reference,
    // computed once, and the bit-for-bit comparison of every op.
    let reference = check::arena_reference(&files.text, &files.map_text, cfg, &named)?;
    for out in outputs {
        m.tally
            .op(&out.and_then(|rows| check::compare(&rows, &reference)), 1);
    }
    Ok((m, files.facts))
}

/// One untraced op.
fn op(
    cfg: &RunConfig,
    files: &DesignFiles,
    pairs: &[(String, PavfInputs)],
) -> Result<Vec<Row>, String> {
    let text = read(&files.exlif)?;
    let map_text = read(&files.map)?;
    let ast = exlif::parse(&text).map_err(|e| e.to_string())?;
    let nl = build_netlist_threaded(&ast, cfg.threads).map_err(|e| e.to_string())?;
    let loops = find_loops(&nl);
    let mapping = StructureMapping::from_text(&nl, &map_text)?;
    let outcome = run_sweep_with_loops_traced(
        &nl,
        &mapping,
        &cfg.sart(),
        &pairs[0].1,
        pairs,
        &cfg.sweep_options(),
        Some(&loops),
        &Collector::disabled(),
    )?;
    Ok(check::sweep_rows(&outcome))
}

fn read(path: &std::path::Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Per-op counters of the traced run.
#[derive(Default)]
struct Counts {
    walked: Vec<f64>,
    iterations: Vec<f64>,
    shape: Option<[usize; 3]>,
}

/// The same op with a span around every public call. The sweep call is
/// taken apart into the calls `run_sweep_with_loops_traced` makes on the
/// cache-free path: engine preparation, relaxation, compilation, batch
/// evaluation and the summary fold.
fn traced_op(
    cfg: &RunConfig,
    files: &DesignFiles,
    pairs: &[(String, PavfInputs)],
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<Vec<Row>, String> {
    let root = tr.enter(trace::OP);
    let out = (|| {
        let (text, map_text) = tr.time("cli.read_design", || {
            Ok::<_, String>((read(&files.exlif)?, read(&files.map)?))
        })?;
        let ast = tr
            .time("netlist.exlif.parse", || exlif::parse(&text))
            .map_err(|e| e.to_string())?;
        let nl = tr
            .time("netlist.flatten", || {
                build_netlist_threaded(&ast, cfg.threads)
            })
            .map_err(|e| e.to_string())?;
        let loops = tr.time("netlist.scc", || find_loops(&nl));
        let mapping = tr.time("cli.mapping", || {
            StructureMapping::from_text(&nl, &map_text)
        })?;
        let engine = tr.time("core.engine.prepare", || {
            SartEngine::new_with_loops(&nl, &mapping, cfg.sart(), &loops)
        });
        let result = tr.time("core.relax", || engine.run(&pairs[0].1));
        counts
            .walked
            .push(result.outcome.total_walked_nodes() as f64);
        counts.iterations.push(result.iterations() as f64);
        let dag = tr.time("core.compile", || CompiledSweep::compile(&result, &nl));
        let st = dag.stats();
        counts.shape = Some([st.sum_ops, st.min_ops, st.nodes]);
        let inputs: Vec<PavfInputs> = pairs.iter().map(|(_, t)| t.clone()).collect();
        let avfs = tr.time("core.compile.evaluate", || {
            dag.evaluate_many(&inputs, cfg.threads)
        });
        let names: Vec<&str> = pairs.iter().map(|(n, _)| n.as_str()).collect();
        Ok(tr.time("core.sweep.fold", || check::fold_rows(&nl, &names, &avfs)))
    })();
    tr.exit(root);
    out
}

fn layer_metrics(m: &mut Measurement, l: &Layers, c: &Counts, text_bytes: usize) {
    l.record(m, text_bytes);
    let walked = super::median_or_zero(&c.walked);
    m.layers.insert("core.relax.walked_nodes", walked);
    m.layers.insert("core.relax.cold_walked_nodes", walked);
    m.layers.insert(
        "core.relax.iterations",
        super::median_or_zero(&c.iterations),
    );
    if let Some([sum, min, slots]) = c.shape {
        m.layers.insert("core.compile.sum_ops", sum as f64);
        m.layers.insert("core.compile.min_ops", min as f64);
        m.layers.insert("core.compile.slots", slots as f64);
    }
}
