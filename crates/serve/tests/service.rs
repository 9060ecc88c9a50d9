//! End-to-end service tests over real sockets: concurrent clients must
//! get bit-identical answers, and a full admission queue must answer 503
//! instead of queueing unboundedly.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::exlif;
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_obs::Collector;
use seqavf_serve::api::{AvfRequest, AvfResponse, NamedTable};
use seqavf_serve::client;
use seqavf_serve::server::{spawn, ServeConfig};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqavf-service-test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_design(dir: &Path, seed: u64) -> (PathBuf, PathBuf) {
    let design = generate(&SynthConfig::xeon_like(seed));
    let exlif_path = dir.join("design.exlif");
    std::fs::write(&exlif_path, exlif::write(&design.netlist)).unwrap();
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let map_path = dir.join("design.map");
    std::fs::write(&map_path, mapping.to_text(&design.netlist)).unwrap();
    (exlif_path, map_path)
}

fn batch_body(design: &Path, map: &Path, n_tables: usize) -> String {
    let tables = (0..n_tables)
        .map(|i| {
            let mut inputs = PavfInputs::new();
            inputs.set_port("uops_executed", 0.15 + 0.05 * i as f64, 0.4);
            NamedTable {
                workload: format!("w{i}"),
                inputs,
            }
        })
        .collect();
    let req = AvfRequest {
        design_path: Some(design.display().to_string()),
        design_ref: None,
        map_path: Some(map.display().to_string()),
        config: None,
        base_inputs: None,
        tables,
        include_nodes: None,
        include_fubs: None,
    };
    serde_json::to_string(&req).unwrap()
}

#[test]
fn concurrent_clients_get_bit_identical_answers() {
    let dir = scratch("concurrent");
    let (design, map) = write_design(&dir, 21);
    let server = spawn(
        ServeConfig {
            workers: 3,
            queue_cap: 64,
            ..ServeConfig::default()
        },
        Collector::new(),
    )
    .unwrap();
    let addr = server.addr();
    let body = batch_body(&design, &map, 2);

    // Prime once so every concurrent request is warm (and so the cold
    // compile is not raced — racing it is legal, just slower).
    let (status, reference) = client::post_json(addr, "/v1/avf", &body).unwrap();
    assert_eq!(status, 200, "{reference}");

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || client::post_json(addr, "/v1/avf", &body).unwrap())
        })
        .collect();
    for c in clients {
        let (status, text) = c.join().unwrap();
        assert_eq!(status, 200);
        // Byte-identical bodies: same rows, same ref, warm both tiers.
        assert_eq!(text, reference.replace("\"miss\"", "\"hit\""));
        let resp: AvfResponse = serde_json::from_str(&text).unwrap();
        assert_eq!(resp.graph_cache, "hit");
        assert_eq!(resp.sweep_cache, "hit");
    }

    // The per-request spans and counters reflect the batch.
    let (status, metrics) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("seqavf_serve_cache_hit 8"), "{metrics}");
    assert!(metrics.contains("seqavf_serve_cache_miss 1"), "{metrics}");
    server.shutdown();
    server.join();
}

#[test]
fn full_admission_queue_answers_503_and_recovers() {
    let dir = scratch("backpressure");
    let (design, map) = write_design(&dir, 22);
    let server = spawn(
        ServeConfig {
            workers: 1,
            queue_cap: 1,
            read_timeout: Duration::from_secs(3),
            ..ServeConfig::default()
        },
        Collector::new(),
    )
    .unwrap();
    let addr = server.addr();

    // Occupy the only worker: a connection that sends nothing pins it in
    // read_request until the 3 s read timeout.
    let hold_worker = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    // Occupy the only queue slot the same way.
    let hold_queue = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // Worker busy + queue full: admission control must answer 503 at the
    // door, bounded and immediate — not hang, not queue, not grow memory.
    let t0 = std::time::Instant::now();
    let (status, text) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 503, "{text}");
    assert!(text.contains("admission queue"), "{text}");
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "503 took {:?}, admission control is queueing",
        t0.elapsed()
    );

    // Release the held connections; the server must recover fully.
    drop(hold_worker);
    drop(hold_queue);
    let mut ok = false;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(100));
        if let Ok((200, _)) = client::get(addr, "/healthz") {
            ok = true;
            break;
        }
    }
    assert!(ok, "server did not recover after backpressure");

    // Real work still succeeds after the squeeze, and the rejection was
    // counted.
    let body = batch_body(&design, &map, 1);
    let (status, _) = client::post_json(addr, "/v1/avf", &body).unwrap();
    assert_eq!(status, 200);
    let (_, metrics) = client::get(addr, "/metrics").unwrap();
    assert!(
        metrics.contains("seqavf_serve_rejected_total 1")
            || metrics.contains("seqavf_serve_rejected_total 2"),
        "{metrics}"
    );
    server.shutdown();
    server.join();
}

#[test]
fn graceful_shutdown_drains_queued_work() {
    let dir = scratch("drain");
    let (design, map) = write_design(&dir, 23);
    let server = spawn(
        ServeConfig {
            workers: 2,
            queue_cap: 16,
            ..ServeConfig::default()
        },
        Collector::new(),
    )
    .unwrap();
    let addr = server.addr();
    let body = batch_body(&design, &map, 1);
    // Prime, then fire a request and immediately request shutdown: the
    // in-flight request must still be answered (drain, not abort).
    let (status, _) = client::post_json(addr, "/v1/avf", &body).unwrap();
    assert_eq!(status, 200);
    let racer = {
        let body = body.clone();
        std::thread::spawn(move || client::post_json(addr, "/v1/avf", &body))
    };
    server.shutdown();
    if let Ok((status, _)) = racer.join().unwrap() {
        // Accepted before the flag landed: it must have been served.
        assert_eq!(status, 200);
    }
    server.join();
    // After join, the listener is gone.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

/// `POST /v1/design-update` over a real socket patches the resident DAG
/// and surfaces the `sweep.patch.*` counters in `/metrics`.
#[test]
fn design_update_surfaces_patch_counters_in_metrics() {
    use seqavf_serve::api::{DesignUpdateRequest, DesignUpdateResponse};

    let dir = scratch("patch-metrics");
    let (design, map) = write_design(&dir, 31);
    let server = spawn(
        ServeConfig {
            workers: 1,
            queue_cap: 8,
            ..ServeConfig::default()
        },
        Collector::new(),
    )
    .unwrap();
    let addr = server.addr();

    let (status, cold) = client::post_json(addr, "/v1/avf", &batch_body(&design, &map, 1)).unwrap();
    assert_eq!(status, 200, "{cold}");
    let cold: AvfResponse = serde_json::from_str(&cold).unwrap();

    // Edit one gate on disk and push the update.
    let text = std::fs::read_to_string(&design).unwrap();
    let edited = text.replacen(".gate and ", ".gate or ", 1);
    assert_ne!(text, edited);
    std::fs::write(&design, edited).unwrap();
    let upd_req = DesignUpdateRequest {
        design_path: design.display().to_string(),
        prev_ref: Some(cold.design_ref.clone()),
        map_path: None,
        config: None,
        base_inputs: None,
    };
    let (status, body) = client::post_json(
        addr,
        "/v1/design-update",
        &serde_json::to_string(&upd_req).unwrap(),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let upd: DesignUpdateResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(upd.mode, "warm", "reason: {:?}", upd.reason);
    assert_eq!(upd.dag, "patched", "dag_reason: {:?}", upd.dag_reason);
    assert!(upd.slots_relowered > 0);

    let (status, metrics) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("seqavf_sweep_patch_hit 1"), "{metrics}");
    assert!(
        metrics.contains(&format!(
            "seqavf_sweep_patch_slots_relowered {}",
            upd.slots_relowered
        )),
        "{metrics}"
    );
    assert!(
        metrics.contains("seqavf_sweep_patch_ops_added"),
        "{metrics}"
    );
    assert!(
        metrics.contains("seqavf_sweep_patch_nodes_orphaned"),
        "{metrics}"
    );
    server.shutdown();
    server.join();
}
