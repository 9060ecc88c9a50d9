//! The three workloads and what they share: set-up repetition, the
//! measured window, and per-layer summaries of a traced run.

pub mod cold_sweep;
pub mod edit_loop;
pub mod warm_query;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use seqavf_serve::api::{AvfRequest, AvfResponse};
use seqavf_serve::resident::Resident;
use seqavf_serve::server::ServerHandle;

use crate::design::{RunConfig, TABLES};
use crate::procfs;
use crate::report::Measurement;
use crate::stats;
use crate::trace::{self, Span, Tracer};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` [`SETUP_REPS`] times, timing each; every result but the
/// last is handed to `teardown` outside the timed part.
pub fn repeated_setup<T>(
    m: &mut Measurement,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            teardown(old);
            procfs::release_free_memory();
        }
        let t = Instant::now();
        let state = setup()?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(state);
    }
    kept.ok_or_else(|| "no set-up ran".to_owned())
}

/// Lengths of the untraced and traced windows. A traced run spends half
/// its time untraced, so `trace.overhead_ratio` compares like with like.
pub fn windows(cfg: &RunConfig) -> (Duration, Duration) {
    let total = Duration::from_secs_f64(cfg.seconds);
    if cfg.trace {
        (total / 2, total / 2)
    } else {
        (total, Duration::ZERO)
    }
}

/// CPU time and wall clock of the untraced window, less the pauses
/// between ops.
pub struct Window {
    t0: Instant,
    cpu0: f64,
    paused: Duration,
    paused_cpu: f64,
}

impl Window {
    /// Starts the window; peak RSS counts from here, so the benchmark's
    /// own set-up (design generation) stays out of it.
    pub fn start() -> Result<Window, String> {
        procfs::release_free_memory();
        procfs::reset_peak_rss()?;
        Ok(Window {
            cpu0: procfs::cpu_seconds()?,
            t0: Instant::now(),
            paused: Duration::ZERO,
            paused_cpu: 0.0,
        })
    }

    /// Between two ops of a one-client workload: returns the heap the
    /// last op freed to the kernel, so every op starts from the same heap
    /// state. Without it, how much freed memory glibc's arenas kept
    /// varied from run to run, and so did the next op's page faults and
    /// the peak RSS. The pause is taken out of the window's wall and CPU
    /// time.
    pub fn between_ops(&mut self) -> Result<(), String> {
        let (t, cpu) = (Instant::now(), procfs::cpu_seconds()?);
        procfs::release_free_memory();
        self.paused_cpu += procfs::cpu_seconds()? - cpu;
        self.paused += t.elapsed();
        Ok(())
    }

    /// Ends it, recording wall, CPU and peak RSS into `m`.
    pub fn finish(self, m: &mut Measurement) -> Result<(), String> {
        m.window_s = (self.t0.elapsed() - self.paused).as_secs_f64();
        m.cpu_s = procfs::cpu_seconds()? - self.cpu0 - self.paused_cpu;
        m.peak_rss_mb = procfs::peak_rss_mb()?;
        Ok(())
    }
}

/// Stops a server and waits for every thread of it.
pub fn stop_server(server: ServerHandle) {
    server.shutdown();
    server.join();
}

/// Serialises a request body.
pub fn to_json<T: serde::Serialize>(v: &T) -> Result<String, String> {
    serde_json::to_string(v).map_err(|e| e.to_string())
}

/// Replies a workload's clients saw with status 503 (`serve.http.refused`).
#[derive(Debug, Default)]
pub struct Refused(AtomicU64);

impl Refused {
    /// The body of a 200 reply to `what`; a transport error or any other
    /// status is an error, and a 503 is also counted.
    pub fn ok_body(
        &self,
        what: &str,
        reply: Result<(u16, String), String>,
    ) -> Result<String, String> {
        let (status, body) = reply?;
        if status == 503 {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        if status == 200 {
            Ok(body)
        } else {
            Err(format!("{what}: HTTP {status}: {body}"))
        }
    }

    /// 503s counted so far.
    pub fn count(&self) -> f64 {
        self.0.load(Ordering::Relaxed) as f64
    }
}

/// Decodes a `/v1/avf` response body and checks that it answers for
/// `design_ref`.
pub fn avf_response(body: &str, design_ref: &str) -> Result<AvfResponse, String> {
    let resp: AvfResponse =
        serde_json::from_str(body).map_err(|e| format!("decoding /v1/avf response: {e}"))?;
    if resp.design_ref != design_ref {
        return Err(format!(
            "answered for {} instead of {design_ref}",
            resp.design_ref
        ));
    }
    Ok(resp)
}

/// Replays one `/v1/avf` body through the calls the server's handler
/// makes, each as a span: JSON decode, `Resident::handle`, JSON encode.
pub fn replay_query(tr: &mut Tracer, resident: &Resident, body: &str) {
    if let Ok(req) = tr.time("serve.json.decode", || {
        serde_json::from_str::<AvfRequest>(body)
    }) {
        if let Ok(resp) = tr.time("serve.resident.handle", || resident.handle(&req)) {
            let _ = tr.time("serve.json.encode", || serde_json::to_string(&resp));
        }
    }
}

/// Each layer span and the per-layer `ms` metric of its self time.
const SPAN_MS: &[(&str, &str)] = &[
    ("cli.read_design", "cli.read_design.ms"),
    ("netlist.exlif.parse", "netlist.exlif.parse.ms"),
    ("netlist.flatten", "netlist.flatten.ms"),
    ("netlist.scc", "netlist.scc.ms"),
    ("netlist.content_digest", "netlist.content_digest.ms"),
    ("core.engine.prepare", "core.engine.prepare.ms"),
    ("core.relax", "core.relax.ms"),
    ("core.compile", "core.compile.ms"),
    ("core.compile.patch", "core.compile.patch.ms"),
    ("core.sweep.cache_key", "core.sweep.cache_key.ms"),
    ("core.compile.evaluate", "core.compile.evaluate.ms"),
    ("serve.resident.handle", "serve.resident.handle.ms"),
    (
        "serve.resident.design_update",
        "serve.resident.design_update.ms",
    ),
    ("serve.json.decode", "serve.json.decode_ms"),
    ("serve.json.encode", "serve.json.encode_ms"),
    ("serve.http.roundtrip", "serve.http.roundtrip.ms"),
];

/// Per-layer summary of a traced run's spans.
pub struct Layers {
    by_op: BTreeMap<&'static str, BTreeMap<u64, f64>>,
    ops: Vec<u64>,
    op_ms: Vec<f64>,
}

impl Layers {
    /// Summarises `spans`; every op with an `OP` root counts.
    pub fn new(spans: &[Span]) -> Layers {
        let by_op = trace::self_ms_by_op(spans);
        let ops = by_op
            .get(trace::OP)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        Layers {
            by_op,
            ops,
            op_ms: trace::op_ms(spans),
        }
    }

    /// Self ms of `span` in each traced op (0 where it did not run).
    fn per_op(&self, span: &str) -> Vec<f64> {
        let m = self.by_op.get(span);
        self.ops
            .iter()
            .map(|op| m.and_then(|m| m.get(op)).copied().unwrap_or(0.0))
            .collect()
    }

    /// Median over ops of the self ms of `span`.
    fn ms(&self, span: &str) -> f64 {
        median_or_zero(&self.per_op(span))
    }

    /// Median over ops of `f` applied to the listed spans' per-op self ms.
    fn combine(&self, spans: &[&str], f: impl Fn(&[f64]) -> f64) -> f64 {
        let cols: Vec<Vec<f64>> = spans.iter().map(|s| self.per_op(s)).collect();
        let per_op: Vec<f64> = (0..self.ops.len())
            .map(|i| f(&cols.iter().map(|c| c[i]).collect::<Vec<_>>()))
            .collect();
        median_or_zero(&per_op)
    }

    fn has(&self, span: &str) -> bool {
        self.by_op.contains_key(span)
    }

    /// Writes every metric derived from span times alone, for each layer
    /// that ran: self ms per span, parse throughput over `text_bytes` of
    /// EXLIF, evaluation throughput, the handler's own time (handle minus
    /// identity and evaluation), HTTP overhead (round trip minus the
    /// handler calls it carried), and the bookkeeping metrics. A layer
    /// that never ran is left out and reports 0.
    pub fn record(&self, m: &mut Measurement, text_bytes: usize) {
        for &(span, metric) in SPAN_MS {
            if self.has(span) {
                m.layers.insert(metric, self.ms(span));
            }
        }
        let mb = text_bytes as f64 / 1e6;
        if self.has("netlist.exlif.parse") {
            m.layers.insert(
                "netlist.exlif.parse.mb_per_s",
                self.combine(&["netlist.exlif.parse"], |v| mb / (v[0] / 1e3)),
            );
        }
        if self.has("core.compile.evaluate") {
            m.layers.insert(
                "core.compile.evaluate.tables_per_s",
                self.combine(&["core.compile.evaluate"], |v| TABLES as f64 / (v[0] / 1e3)),
            );
        }
        if self.has("serve.resident.handle") {
            m.layers.insert(
                "serve.resident.handle.self_ms",
                self.combine(
                    &[
                        "serve.resident.handle",
                        "core.sweep.cache_key",
                        "core.compile.evaluate",
                    ],
                    |v| v[0] - v[1] - v[2],
                ),
            );
        }
        if self.has("serve.http.roundtrip") {
            m.layers.insert(
                "serve.http.overhead_ms",
                self.combine(
                    &[
                        "serve.http.roundtrip",
                        "serve.resident.handle",
                        "serve.resident.design_update",
                    ],
                    |v| v[0] - v[1] - v[2],
                ),
            );
        }
        self.bookkeeping(m);
    }

    /// Writes the bookkeeping metrics: unattributed op time, tracing
    /// overhead against the untraced p50, and the traced op count.
    fn bookkeeping(&self, m: &mut Measurement) {
        let untraced_p50 = stats::percentile(&stats::sorted(m.latencies_ms.clone()), 50);
        m.layers.insert("trace.unattributed_ms", self.ms(trace::OP));
        m.layers.insert(
            "trace.overhead_ratio",
            median_or_zero(&self.op_ms) / untraced_p50,
        );
        m.layers.insert("trace.ops", self.ops.len() as f64);
    }
}

/// Median, or 0 for an empty sample.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Scale;

    fn tiny(name: &str, trace: bool) -> RunConfig {
        let dir = std::env::temp_dir().join(format!(
            "seqavf-perfbench-test-{name}-{trace}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        RunConfig {
            scale: Scale::Tiny,
            seed: 21,
            seconds: 0.6,
            trace,
            threads: 2,
            spans_out: dir.join("spans.ndjson"),
            work_dir: dir,
        }
    }

    fn passes_every_check(
        name: &str,
        run: fn(&RunConfig) -> Result<(Measurement, crate::design::DesignFacts), String>,
    ) {
        for trace in [false, true] {
            let cfg = tiny(name, trace);
            let (m, facts) = run(&cfg).unwrap();
            let _ = std::fs::remove_dir_all(&cfg.work_dir);
            assert!(
                facts.nodes > 1000,
                "{name}: tiny design has {} nodes",
                facts.nodes
            );
            assert!(m.tally.attempted > 0, "{name}: no op ran");
            assert!(
                m.tally.checks >= m.tally.attempted,
                "{name}: an op went unchecked"
            );
            assert_eq!(m.tally.failed, 0, "{name}: {:?}", m.tally.messages);
            assert_eq!(m.setup_s.len(), SETUP_REPS);
            let e2e = m.end_to_end();
            assert!(
                e2e.values().all(|v| v.is_finite() && *v > 0.0),
                "{name}: {e2e:?}"
            );
            if trace {
                for metric in [
                    "trace.ops",
                    "trace.overhead_ratio",
                    "core.compile.evaluate.ms",
                ] {
                    assert!(m.layers[metric] > 0.0, "{name}: {metric} = 0");
                }
            }
        }
    }

    #[test]
    fn tiny_cold_sweep_passes_every_check() {
        passes_every_check("cold_sweep", cold_sweep::run);
    }

    #[test]
    fn tiny_warm_query_passes_every_check() {
        passes_every_check("warm_query", warm_query::run);
    }

    #[test]
    fn tiny_edit_loop_passes_every_check() {
        passes_every_check("edit_loop", edit_loop::run);
    }
}
