//! `edit_loop`: the interactive edit cycle. One op flips one seeded gate
//! in one seeded FUB of the current revision and writes the file, sends
//! `POST /v1/design-update` with `prev_ref`, then one 16-table `/v1/avf`
//! on the new ref. One client. Warm relax and the DAG patch stand in for
//! cold relax and compile; residency inserts and removes; parse and
//! flatten rerun on every update.

use std::net::SocketAddr;
use std::time::Instant;

use seqavf_core::compile::CompiledSweep;
use seqavf_core::engine::SartEngine;
use seqavf_core::fixpoint::StoredFixpoint;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::sweep::cache_key;
use seqavf_netlist::exlif;
use seqavf_netlist::flatten::build_netlist_threaded;
use seqavf_netlist::scc::find_loops;
use seqavf_obs::Collector;
use seqavf_serve::api::{DesignUpdateRequest, DesignUpdateResponse, NamedTable};
use seqavf_serve::client::post_json;
use seqavf_serve::resident::Resident;

use super::warm_query::{cold_request, hit_flags, serve_setup, warm_request};
use super::{
    avf_response, median_or_zero, ms_since, replay_query, stop_server, to_json, windows, Layers,
    Refused, Window,
};
use crate::check::{self, Row};
use crate::design::{stream, tables, DesignFacts, DesignFiles, RunConfig};
use crate::edit::{Edit, EditableDesign};
use crate::procfs;
use crate::report::Measurement;
use crate::rng::SplitMix64;
use crate::trace::{self, Tracer};

/// Edit cycles, besides the last, that get an independent cold check.
const CHECKED_CYCLES: usize = 3;

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<(Measurement, DesignFacts), String> {
    let mut m = Measurement::default();
    let (files, server, base_ref) = serve_setup(cfg, &mut m, "edit")?;
    let result = measure(cfg, &mut m, &files, server.addr(), base_ref);
    stop_server(server);
    result?;
    Ok((m, files.facts))
}

/// One edit cycle as the client saw it.
struct Cycle {
    edit: Edit,
    /// The update's reply and the query's body, or the transport/status
    /// error that ended the cycle.
    reply: Result<(DesignUpdateResponse, String), String>,
}

/// The client's state across cycles.
struct Client<'a> {
    cfg: &'a RunConfig,
    files: &'a DesignFiles,
    named: &'a [NamedTable],
    addr: SocketAddr,
    design: EditableDesign,
    rng: SplitMix64,
    current_ref: String,
    refused: Refused,
}

impl Client<'_> {
    /// One op; spans are recorded only when `tr` is given. `Err` only
    /// when the edited design cannot be written, which ends the run.
    fn cycle(&mut self, mut tr: Option<&mut Tracer>) -> Result<Cycle, String> {
        let edit = span(&mut tr, "bench.edit", || {
            let e = self.design.random_edit(&mut self.rng);
            self.design.write(&self.files.exlif).map(|()| e)
        })?;
        let reply = (|| {
            let update = to_json(&self.update_request())?;
            let reply = span(&mut tr, "serve.http.roundtrip", || {
                post_json(self.addr, "/v1/design-update", &update)
            });
            let text = self.refused.ok_body("/v1/design-update", reply)?;
            let upd: DesignUpdateResponse = serde_json::from_str(&text)
                .map_err(|e| format!("decoding /v1/design-update response: {e}"))?;
            self.current_ref = upd.design_ref.clone();
            let q = to_json(&warm_request(&upd.design_ref, self.named))?;
            let reply = span(&mut tr, "serve.http.roundtrip", || {
                post_json(self.addr, "/v1/avf", &q)
            });
            Ok((upd, self.refused.ok_body("/v1/avf", reply)?))
        })();
        Ok(Cycle { edit, reply })
    }

    fn update_request(&self) -> DesignUpdateRequest {
        DesignUpdateRequest {
            design_path: self.files.exlif.display().to_string(),
            prev_ref: Some(self.current_ref.clone()),
            map_path: None,
            config: None,
            base_inputs: None,
        }
    }
}

/// Runs `f`, as a span when tracing.
fn span<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

fn measure(
    cfg: &RunConfig,
    m: &mut Measurement,
    files: &DesignFiles,
    addr: SocketAddr,
    base_ref: String,
) -> Result<(), String> {
    let named = tables(cfg.seed, &files.perf_names);
    let mut client = Client {
        cfg,
        files,
        named: &named,
        addr,
        design: EditableDesign::new(&files.text)?,
        rng: SplitMix64::new(cfg.seed, stream::EDITS),
        current_ref: base_ref,
        refused: Refused::default(),
    };
    let (plain, traced) = windows(cfg);
    let mut cycles: Vec<Cycle> = Vec::new();

    let mut window = Window::start()?;
    let t0 = Instant::now();
    while t0.elapsed() < plain {
        let t = Instant::now();
        cycles.push(client.cycle(None)?);
        m.latencies_ms.push(ms_since(t));
        window.between_ops()?;
    }
    window.finish(m)?;

    if cfg.trace {
        let mut replay = Replay::new(&client)?;
        let mut tr = Tracer::new(Instant::now());
        let t1 = Instant::now();
        let mut k = 0u64;
        while k == 0 || t1.elapsed() < traced {
            tr.set_op(k);
            let root = tr.enter(trace::OP);
            let cycle = client.cycle(Some(&mut tr));
            tr.exit(root);
            let cycle = cycle?;
            if let Ok((upd, _)) = &cycle.reply {
                replay.run(&mut tr, &client, upd)?;
            }
            cycles.push(cycle);
            procfs::release_free_memory();
            k += 1;
        }
        let spans = tr.into_spans();
        layer_metrics(m, &Layers::new(&spans), &replay, &cycles);
        m.layers
            .insert("serve.http.refused", client.refused.count());
        trace::write_ndjson(&cfg.spans_out, &spans)?;
    }

    // Outside every timed window: every update must have been warm, and
    // a seeded sample of cycles plus the last must match an independent
    // cold `run_sweep` of that revision bit for bit.
    let mut outcomes: Vec<Result<Vec<Row>, String>> = cycles
        .iter()
        .map(|c| match &c.reply {
            Ok((upd, body)) if upd.mode == "warm" => {
                avf_response(body, &upd.design_ref).map(|r| check::response_rows(&r))
            }
            Ok((upd, _)) => Err(format!(
                "update to {} ran {} ({:?}), expected warm",
                upd.design_ref, upd.mode, upd.reason
            )),
            Err(e) => Err(e.clone()),
        })
        .collect();
    let sampled = sample_cycles(cfg.seed, cycles.len());
    let mut revision = EditableDesign::new(&files.text)?;
    let mut applied = 0usize;
    let mut extra_checks = vec![0u64; cycles.len()];
    for &k in &sampled {
        while applied <= k {
            revision.apply(cycles[applied].edit);
            applied += 1;
        }
        if let Ok(rows) = &outcomes[k] {
            let want = check::library_reference(&revision.text(), &files.map_text, cfg, &named)?;
            if let Err(e) = check::compare(rows, &want) {
                outcomes[k] = Err(format!("cycle {k}: {e}"));
            }
            extra_checks[k] = 1;
        }
    }
    for (out, extra) in outcomes.into_iter().zip(extra_checks) {
        m.tally.op(&out.map(drop), 1 + extra);
    }
    Ok(())
}

/// `CHECKED_CYCLES` distinct seeded cycle indices plus the last, ascending.
pub fn sample_cycles(seed: u64, cycles: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, stream::CHECK_SAMPLE);
    let mut picked: Vec<usize> = Vec::new();
    if let Some(last) = cycles.checked_sub(1) {
        picked.push(last);
        while picked.len() < (CHECKED_CYCLES + 1).min(cycles) {
            let k = rng.below(cycles);
            if !picked.contains(&k) {
                picked.push(k);
            }
        }
    }
    picked.sort_unstable();
    picked
}

/// Per-op counters of the replayed layers.
#[derive(Default)]
struct Counts {
    walked: Vec<f64>,
    iterations: Vec<f64>,
    slots_relowered: Vec<f64>,
    slot_ratio: Vec<f64>,
    ops_added: Vec<f64>,
    op_ratio: Vec<f64>,
    shape: Option<[usize; 3]>,
}

/// The server-side work of each cycle, replayed in-process: the handler
/// calls on a second `Resident` that follows the same revisions, and the
/// layer calls the update makes (parse, flatten, SCC, prepare, warm
/// relax, DAG patch, identity, evaluation) on a chain of this
/// benchmark's own fixpoints and DAGs.
struct Replay {
    resident: Resident,
    fixpoint: StoredFixpoint,
    dag: CompiledSweep,
    cold_walked: usize,
    text_bytes: usize,
    inputs: Vec<PavfInputs>,
    counts: Counts,
}

impl Replay {
    /// Cold-loads the client's current revision into both chains.
    fn new(client: &Client<'_>) -> Result<Replay, String> {
        let cfg = client.cfg;
        let resident = Resident::new(cfg.resident(), Collector::disabled());
        resident
            .handle(&cold_request(client.files, client.named))
            .map_err(|e| format!("replay cold load: {}", e.message))?;
        let text = client.design.text();
        let nl = seqavf_netlist::flatten::parse_netlist(&text).map_err(|e| e.to_string())?;
        let mapping = StructureMapping::from_text(&nl, &client.files.map_text)?;
        let engine = SartEngine::new(&nl, &mapping, cfg.sart());
        let result = engine.run(&PavfInputs::default());
        let fixpoint = engine
            .capture_fixpoint(&result)
            .ok_or("replay base revision did not converge")?;
        Ok(Replay {
            resident,
            fixpoint,
            dag: CompiledSweep::compile(&result, &nl),
            cold_walked: result.outcome.total_walked_nodes(),
            text_bytes: text.len(),
            inputs: client.named.iter().map(|t| t.inputs.clone()).collect(),
            counts: Counts::default(),
        })
    }

    fn run(
        &mut self,
        tr: &mut Tracer,
        client: &Client<'_>,
        upd: &DesignUpdateResponse,
    ) -> Result<(), String> {
        let root = tr.enter(trace::REPLAY);
        let out = self.replay(tr, client, upd);
        tr.exit(root);
        out
    }

    fn replay(
        &mut self,
        tr: &mut Tracer,
        client: &Client<'_>,
        upd: &DesignUpdateResponse,
    ) -> Result<(), String> {
        let cfg = client.cfg;
        let update = client_update(client, upd);
        let mirrored = tr
            .time("serve.resident.design_update", || {
                self.resident.handle_design_update(&update)
            })
            .map_err(|e| format!("replayed update: {}", e.message))?;
        if mirrored.design_ref != upd.design_ref {
            return Err("replayed update diverged from the server's revision".to_owned());
        }
        let q = to_json(&warm_request(&upd.design_ref, client.named))?;
        replay_query(tr, &self.resident, &q);

        let text = client.design.text();
        self.text_bytes = text.len();
        let ast = tr
            .time("netlist.exlif.parse", || exlif::parse(&text))
            .map_err(|e| e.to_string())?;
        let nl = tr
            .time("netlist.flatten", || {
                build_netlist_threaded(&ast, cfg.threads)
            })
            .map_err(|e| e.to_string())?;
        let loops = tr.time("netlist.scc", || find_loops(&nl));
        let mapping = StructureMapping::from_text(&nl, &client.files.map_text)?;
        let engine = tr.time("core.engine.prepare", || {
            SartEngine::new_with_loops(&nl, &mapping, cfg.sart(), &loops)
        });
        let (result, _, clean) = tr.time("core.relax", || {
            engine.run_warm_patch_traced(
                &PavfInputs::default(),
                &self.fixpoint,
                &Collector::disabled(),
            )
        });
        let c = &mut self.counts;
        c.walked.push(result.outcome.total_walked_nodes() as f64);
        c.iterations.push(result.iterations() as f64);
        let layout: Vec<(&str, usize)> = self
            .fixpoint
            .fubs
            .iter()
            .map(|f| (f.name.as_str(), f.fwd.len()))
            .collect();
        let patched = match &clean {
            Some(mask) => tr
                .time("core.compile.patch", || {
                    self.dag.patch(&result, &nl, &layout, mask)
                })
                .ok(),
            None => None,
        };
        let dag = match patched {
            Some((dag, st)) => {
                let slots = (st.slots_retained + st.slots_relowered) as f64;
                let ops = (st.ops_retained + st.ops_added) as f64;
                c.slots_relowered.push(st.slots_relowered as f64);
                c.slot_ratio.push(st.slots_relowered as f64 / slots);
                c.ops_added.push(st.ops_added as f64);
                c.op_ratio.push(st.ops_added as f64 / ops);
                dag
            }
            None => tr.time("core.compile", || CompiledSweep::compile(&result, &nl)),
        };
        let st = dag.stats();
        c.shape = Some([st.sum_ops, st.min_ops, st.nodes]);
        let fixpoint = tr
            .time("core.fixpoint.capture", || engine.capture_fixpoint(&result))
            .ok_or("replayed revision did not converge")?;
        std::hint::black_box(tr.time("core.sweep.cache_key", || {
            cache_key(&nl, &mapping, &cfg.sart())
        }));
        std::hint::black_box(tr.time("netlist.content_digest", || nl.content_digest()));
        let seq: Vec<usize> = nl.seq_nodes().map(|id| id.index()).collect();
        std::hint::black_box(tr.time("core.compile.evaluate", || {
            dag.evaluate_seq_stats_traced(&self.inputs, &seq, cfg.threads, &Collector::disabled())
        }));
        drop(engine);
        self.fixpoint = fixpoint;
        self.dag = dag;
        Ok(())
    }
}

/// The update request the client just sent, as the handler received it.
fn client_update(client: &Client<'_>, upd: &DesignUpdateResponse) -> DesignUpdateRequest {
    DesignUpdateRequest {
        design_path: client.files.exlif.display().to_string(),
        prev_ref: upd.prev_ref.clone(),
        map_path: None,
        config: None,
        base_inputs: None,
    }
}

fn layer_metrics(m: &mut Measurement, l: &Layers, r: &Replay, cycles: &[Cycle]) {
    l.record(m, r.text_bytes);
    let c = &r.counts;
    let walked = median_or_zero(&c.walked);
    m.layers.insert("core.relax.walked_nodes", walked);
    m.layers
        .insert("core.relax.iterations", median_or_zero(&c.iterations));
    m.layers
        .insert("core.relax.cold_walked_nodes", r.cold_walked as f64);
    m.layers
        .insert("core.relax.warm_walk_ratio", walked / r.cold_walked as f64);
    m.layers.insert(
        "core.compile.patch.slots_relowered",
        median_or_zero(&c.slots_relowered),
    );
    m.layers.insert(
        "core.compile.patch.slot_ratio",
        median_or_zero(&c.slot_ratio),
    );
    m.layers
        .insert("core.compile.patch.ops_added", median_or_zero(&c.ops_added));
    m.layers
        .insert("core.compile.patch.op_ratio", median_or_zero(&c.op_ratio));
    if let Some([sum, min, slots]) = c.shape {
        m.layers.insert("core.compile.sum_ops", sum as f64);
        m.layers.insert("core.compile.min_ops", min as f64);
        m.layers.insert("core.compile.slots", slots as f64);
    }
    // Server-reported outcomes, over every cycle of the run.
    let updates: Vec<&DesignUpdateResponse> = cycles
        .iter()
        .filter_map(|c| c.reply.as_ref().ok().map(|(u, _)| u))
        .collect();
    let n = cycles.len().max(1) as f64;
    let share = |f: &dyn Fn(&DesignUpdateResponse) -> bool| {
        updates.iter().filter(|u| f(u)).count() as f64 / n
    };
    m.layers.insert(
        "serve.resident.warm_update_ratio",
        share(&|u| u.mode == "warm"),
    );
    m.layers.insert(
        "serve.resident.patched_update_ratio",
        share(&|u| u.dag == "patched"),
    );
    let queries: Vec<(bool, bool)> = cycles
        .iter()
        .filter_map(|c| c.reply.as_ref().ok())
        .filter_map(|(upd, body)| avf_response(body, &upd.design_ref).ok())
        .map(|r| hit_flags(&r))
        .collect();
    let bytes: Vec<f64> = cycles
        .iter()
        .filter_map(|c| c.reply.as_ref().ok())
        .map(|(_, body)| body.len() as f64)
        .collect();
    m.layers
        .insert("serve.json.response_bytes", median_or_zero(&bytes));
    m.layers.insert(
        "serve.resident.graph_hit_ratio",
        queries.iter().filter(|h| h.0).count() as f64 / n,
    );
    m.layers.insert(
        "serve.resident.sweep_hit_ratio",
        queries.iter().filter(|h| h.1).count() as f64 / n,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_sample_is_seeded_and_includes_the_last_cycle() {
        let a = sample_cycles(4, 50);
        assert_eq!(a, sample_cycles(4, 50));
        assert_eq!(a.len(), CHECKED_CYCLES + 1);
        assert_eq!(a.last(), Some(&49));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample_cycles(4, 2), vec![0, 1]);
        assert!(sample_cycles(4, 0).is_empty());
    }
}
