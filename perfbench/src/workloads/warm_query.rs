//! `warm_query`: `POST /v1/avf` by `design_ref` with 16 tables and
//! summaries only, over a real loopback socket to an in-process server.
//! One closed-loop connection per thread. Cache identity, evaluation and
//! fold, JSON and the socket do all the work; frontend, relax and compile
//! do none.

use std::net::SocketAddr;
use std::time::Instant;

use seqavf_core::compile::CompiledSweep;
use seqavf_core::engine::SartEngine;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::sweep::cache_key;
use seqavf_netlist::flatten::parse_netlist;
use seqavf_netlist::graph::Netlist;
use seqavf_netlist::scc::find_loops;
use seqavf_obs::Collector;
use seqavf_serve::api::{AvfRequest, AvfResponse, NamedTable};
use seqavf_serve::client::post_json;
use seqavf_serve::resident::Resident;
use seqavf_serve::server::{spawn, ServerHandle};

use super::{
    avf_response, median_or_zero, ms_since, repeated_setup, replay_query, stop_server, to_json,
    windows, Layers, Refused, Window,
};
use crate::check;
use crate::design::{tables, write_design, DesignFacts, DesignFiles, RunConfig};
use crate::report::Measurement;
use crate::trace::{self, Tracer};

/// A cold (file-addressed) request for the design.
pub fn cold_request(files: &DesignFiles, named: &[NamedTable]) -> AvfRequest {
    AvfRequest {
        design_path: Some(files.exlif.display().to_string()),
        design_ref: None,
        map_path: Some(files.map.display().to_string()),
        config: None,
        base_inputs: None,
        tables: named.to_vec(),
        include_nodes: None,
        include_fubs: None,
    }
}

/// A warm request: resident design by ref, summaries only.
pub fn warm_request(design_ref: &str, named: &[NamedTable]) -> AvfRequest {
    AvfRequest {
        design_path: None,
        design_ref: Some(design_ref.to_owned()),
        map_path: None,
        config: None,
        base_inputs: None,
        tables: named.to_vec(),
        include_nodes: Some(false),
        include_fubs: Some(false),
    }
}

/// Sends one cold `/v1/avf` request and returns the ref of the design it
/// loaded.
fn cold_load(addr: SocketAddr, body: &str) -> Result<String, String> {
    let text = Refused::default().ok_body("/v1/avf", post_json(addr, "/v1/avf", body))?;
    let resp: AvfResponse =
        serde_json::from_str(&text).map_err(|e| format!("decoding /v1/avf response: {e}"))?;
    Ok(resp.design_ref)
}

/// Set-up shared with `edit_loop`, repeated per [`repeated_setup`]:
/// write the design, start a server, and cold-load the design with one
/// file-addressed request. Returns the files, the server and the
/// design's ref.
pub fn serve_setup(
    cfg: &RunConfig,
    m: &mut Measurement,
    stem: &str,
) -> Result<(DesignFiles, ServerHandle, String), String> {
    repeated_setup(
        m,
        || {
            let files = write_design(cfg.scale, cfg.seed, &cfg.work_dir, stem)?;
            let named = tables(cfg.seed, &files.perf_names);
            let server = spawn(cfg.serve(), Collector::disabled())?;
            let body = to_json(&cold_request(&files, &named))?;
            match cold_load(server.addr(), &body) {
                Ok(design_ref) => Ok((files, server, design_ref)),
                Err(e) => {
                    stop_server(server);
                    Err(e)
                }
            }
        },
        |(_, server, _)| stop_server(server),
    )
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<(Measurement, DesignFacts), String> {
    let mut m = Measurement::default();
    let (files, server, design_ref) = serve_setup(cfg, &mut m, "warm")?;
    let result = measure(cfg, &mut m, &files, &server, &design_ref);
    stop_server(server);
    result?;
    Ok((m, files.facts))
}

/// What each client saw for one op: the digest of its rows.
type Seen = Result<u64, String>;

fn measure(
    cfg: &RunConfig,
    m: &mut Measurement,
    files: &DesignFiles,
    server: &ServerHandle,
    design_ref: &str,
) -> Result<(), String> {
    let named = tables(cfg.seed, &files.perf_names);
    let body = to_json(&warm_request(design_ref, &named))?;
    let addr = server.addr();
    let (plain, traced) = windows(cfg);
    let refused = Refused::default();
    let decode = |reply| {
        refused
            .ok_body("/v1/avf", reply)
            .and_then(|text| avf_response(&text, design_ref))
    };

    // Untraced: one closed-loop client per thread.
    let window = Window::start()?;
    let per_client: Vec<(Vec<f64>, Vec<Seen>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|_| {
                s.spawn(|| {
                    let (mut lat, mut seen) = (Vec::new(), Vec::new());
                    let t0 = Instant::now();
                    while t0.elapsed() < plain {
                        let t = Instant::now();
                        let reply = post_json(addr, "/v1/avf", &body);
                        lat.push(ms_since(t));
                        seen.push(decode(reply).map(|r| check::digest(&check::response_rows(&r))));
                    }
                    (lat, seen)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    window.finish(m)?;
    let mut outputs: Vec<Seen> = Vec::new();
    for (lat, seen) in per_client {
        m.latencies_ms.extend(lat);
        outputs.extend(seen);
    }

    if cfg.trace {
        // Rounds: every client sends one traced request, all in flight at
        // once as in the untraced window; when all have returned, the
        // round's requests are replayed in-process one at a time under
        // their op ids, so no replay competes with a request.
        let replay = Replay::new(cfg, files, &named)?;
        let epoch = Instant::now();
        let mut tracers: Vec<Tracer> = (0..cfg.threads).map(|_| Tracer::new(epoch)).collect();
        let mut counts = Vec::new();
        let t0 = Instant::now();
        let mut k = 0u64;
        while k == 0 || t0.elapsed() < traced {
            let replies: Vec<Result<(u16, String), String>> = std::thread::scope(|s| {
                let handles: Vec<_> = tracers
                    .iter_mut()
                    .enumerate()
                    .map(|(client, tr)| {
                        let body = &body;
                        s.spawn(move || {
                            tr.set_op(((client as u64) << 32) | k);
                            let root = tr.enter(trace::OP);
                            let reply = tr
                                .time("serve.http.roundtrip", || post_json(addr, "/v1/avf", body));
                            tr.exit(root);
                            reply
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            for (tr, reply) in tracers.iter_mut().zip(replies) {
                let bytes = reply.as_ref().map_or(0, |(_, b)| b.len());
                let resp = decode(reply);
                let (graph_hit, sweep_hit) = resp.as_ref().map_or((false, false), hit_flags);
                outputs.push(resp.map(|r| check::digest(&check::response_rows(&r))));
                replay.run(tr, &body);
                counts.push(OpCounts {
                    bytes,
                    graph_hit,
                    sweep_hit,
                });
            }
            k += 1;
        }
        let spans = trace::merge(tracers.into_iter().map(Tracer::into_spans).collect());
        layer_metrics(m, &Layers::new(&spans), &counts, &replay);
        m.layers.insert("serve.http.refused", refused.count());
        trace::write_ndjson(&cfg.spans_out, &spans)?;
    }

    // Outside every timed window: library `run_sweep` on the same design
    // and tables, and the bit-for-bit comparison of every response.
    let reference = check::digest(&check::library_reference(
        &files.text,
        &files.map_text,
        cfg,
        &named,
    )?);
    for out in outputs {
        let checked = out.and_then(|d| {
            (d == reference)
                .then_some(())
                .ok_or_else(|| "response rows differ from library run_sweep".to_owned())
        });
        m.tally.op(&checked, 1);
    }
    Ok(())
}

/// Residency tiers a response reports as hits: `(graph, sweep)`.
pub fn hit_flags(resp: &AvfResponse) -> (bool, bool) {
    (resp.graph_cache == "hit", resp.sweep_cache == "hit")
}

struct OpCounts {
    bytes: usize,
    graph_hit: bool,
    sweep_hit: bool,
}

/// The server-side work of one request, replayed in-process through the
/// public calls the handler makes, on the same design and tables.
struct Replay {
    resident: Resident,
    nl: Netlist,
    mapping: StructureMapping,
    dag: CompiledSweep,
    seq: Vec<usize>,
    inputs: Vec<PavfInputs>,
    sart: seqavf_core::engine::SartConfig,
    threads: usize,
}

impl Replay {
    fn new(cfg: &RunConfig, files: &DesignFiles, named: &[NamedTable]) -> Result<Replay, String> {
        let resident = Resident::new(cfg.resident(), Collector::disabled());
        resident
            .handle(&cold_request(files, named))
            .map_err(|e| format!("replay cold load: {}", e.message))?;
        let nl = parse_netlist(&files.text).map_err(|e| e.to_string())?;
        let mapping = StructureMapping::from_text(&nl, &files.map_text)?;
        let loops = find_loops(&nl);
        let engine = SartEngine::new_with_loops(&nl, &mapping, cfg.sart(), &loops);
        let dag = CompiledSweep::compile(&engine.run(&named[0].inputs), &nl);
        drop(engine);
        let seq = nl.seq_nodes().map(|id| id.index()).collect();
        Ok(Replay {
            resident,
            seq,
            dag,
            mapping,
            nl,
            inputs: named.iter().map(|t| t.inputs.clone()).collect(),
            sart: cfg.sart(),
            threads: cfg.threads,
        })
    }

    fn run(&self, tr: &mut Tracer, body: &str) {
        let root = tr.enter(trace::REPLAY);
        replay_query(tr, &self.resident, body);
        self.layers(tr);
        tr.exit(root);
    }

    /// The handler's identity and evaluation calls, each on its own.
    fn layers(&self, tr: &mut Tracer) {
        std::hint::black_box(tr.time("core.sweep.cache_key", || {
            cache_key(&self.nl, &self.mapping, &self.sart)
        }));
        std::hint::black_box(tr.time("netlist.content_digest", || self.nl.content_digest()));
        std::hint::black_box(tr.time("core.compile.evaluate", || {
            self.dag.evaluate_seq_stats_traced(
                &self.inputs,
                &self.seq,
                self.threads,
                &Collector::disabled(),
            )
        }));
    }
}

fn layer_metrics(m: &mut Measurement, l: &Layers, counts: &[OpCounts], replay: &Replay) {
    l.record(m, 0);
    let n = counts.len().max(1) as f64;
    let share = |f: fn(&OpCounts) -> bool| counts.iter().filter(|c| f(c)).count() as f64 / n;
    m.layers
        .insert("serve.resident.graph_hit_ratio", share(|c| c.graph_hit));
    m.layers
        .insert("serve.resident.sweep_hit_ratio", share(|c| c.sweep_hit));
    let bytes: Vec<f64> = counts.iter().map(|c| c.bytes as f64).collect();
    m.layers
        .insert("serve.json.response_bytes", median_or_zero(&bytes));
    let st = replay.dag.stats();
    m.layers.insert("core.compile.sum_ops", st.sum_ops as f64);
    m.layers.insert("core.compile.min_ops", st.min_ops as f64);
    m.layers.insert("core.compile.slots", st.nodes as f64);
}
