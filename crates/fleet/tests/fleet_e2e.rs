//! Fleet-level contracts: responses bit-identical to a single server,
//! patient affinity under the hash policy, hot-swap reload (identical,
//! quant, corrupt), and replica kill without client-visible errors.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use cohortnet::infer::ScoreRequest;
use cohortnet::snapshot::{fnv64, load_snapshot, save_snapshot, save_snapshot_quant};
use cohortnet_chaos::{install, ChaosPlan, When};
use cohortnet_fleet::{serve_fleet, DispatchPolicy, FleetConfig};
use cohortnet_serve::demo::{demo_bundle, DemoBundle};
use cohortnet_serve::json::{self, Json};
use cohortnet_serve::{serve, ServerConfig, TransportConfig};

/// Chaos plans are process-global; every test takes this so a plan
/// installed by one cannot steal another's site call indices.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One demo training run shared by every test in this binary.
fn bundle() -> &'static DemoBundle {
    static BUNDLE: OnceLock<DemoBundle> = OnceLock::new();
    BUNDLE.get_or_init(demo_bundle)
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A handler that never answers fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn join(values: &[f32]) -> String {
    values
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn score_body(examples: &[ScoreRequest], patient_id: Option<&str>) -> String {
    let instances: Vec<String> = examples
        .iter()
        .map(|e| format!("{{\"x\":[{}],\"mask\":[{}]}}", join(&e.x), join(&e.mask)))
        .collect();
    match patient_id {
        Some(pid) => format!(
            "{{\"patient_id\":\"{pid}\",\"instances\":[{}]}}",
            instances.join(",")
        ),
        None => format!("{{\"instances\":[{}]}}", instances.join(",")),
    }
}

fn fleet_config(replicas: usize, policy: DispatchPolicy) -> FleetConfig {
    FleetConfig {
        replicas,
        policy,
        transport: TransportConfig {
            port: 0,
            ..TransportConfig::default()
        },
        ..FleetConfig::default()
    }
}

fn healthz(addr: SocketAddr) -> Json {
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    json::parse(&body).expect("healthz parses")
}

fn replica_field(health: &Json, id: usize, field: &str) -> Json {
    health
        .get("replicas")
        .and_then(Json::as_arr)
        .and_then(|rs| rs.get(id))
        .and_then(|r| r.get(field))
        .cloned()
        .unwrap_or_else(|| panic!("replica {id} field {field} missing"))
}

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fleet_e2e_{}_{name}", std::process::id()))
}

#[test]
fn fleet_scores_bit_identical_to_single_server() {
    let _s = serial();
    let b = bundle();
    let single = serve(
        load_snapshot(&b.snapshot).expect("snapshot loads"),
        ServerConfig {
            port: 0,
            ..ServerConfig::default()
        },
    )
    .expect("single server starts");
    let fleet = serve_fleet(&b.snapshot, fleet_config(3, DispatchPolicy::LeastLoaded))
        .expect("fleet starts");

    let body = score_body(&b.examples, None);
    let (status, want) = request(single.addr(), "POST", "/score", &body);
    assert_eq!(status, 200, "{want}");
    for _ in 0..5 {
        let (status, got) = request(fleet.addr(), "POST", "/score", &body);
        assert_eq!(status, 200, "{got}");
        assert_eq!(got, want, "fleet response differs from single server");
    }

    let health = healthz(fleet.addr());
    assert_eq!(health.get("role").and_then(Json::as_str), Some("fleet"));
    assert_eq!(health.get("n_replicas").and_then(Json::as_f64), Some(3.0));
    let want_fp = format!("{:016x}", fnv64(b.snapshot.as_bytes()));
    assert_eq!(
        health.get("snapshot_fingerprint").and_then(Json::as_str),
        Some(want_fp.as_str())
    );
    for id in 0..3 {
        assert_eq!(
            replica_field(&health, id, "state").as_str(),
            Some("healthy")
        );
        assert_eq!(
            replica_field(&health, id, "fingerprint").as_str(),
            Some(want_fp.as_str())
        );
    }

    // The fleet /metrics endpoint carries per-replica labeled families.
    let (status, metrics) = request(fleet.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("replica=\"0\"") && metrics.contains("replica=\"2\""),
        "per-replica labels missing: {}",
        &metrics[..metrics.len().min(800)]
    );

    fleet.shutdown();
    single.shutdown();
}

#[test]
fn hash_policy_pins_a_patient_to_one_replica() {
    let _s = serial();
    let b = bundle();
    let fleet = serve_fleet(&b.snapshot, fleet_config(2, DispatchPolicy::ConsistentHash))
        .expect("fleet starts");

    assert_eq!(
        healthz(fleet.addr()).get("policy").and_then(Json::as_str),
        Some("hash")
    );
    let body = score_body(&b.examples[..1], Some("patient-42"));
    for _ in 0..6 {
        let (status, resp) = request(fleet.addr(), "POST", "/score", &body);
        assert_eq!(status, 200, "{resp}");
    }
    let health = healthz(fleet.addr());
    let served: Vec<f64> = (0..2)
        .map(|id| {
            replica_field(&health, id, "served")
                .as_f64()
                .expect("served")
        })
        .collect();
    assert!(
        served.contains(&6.0) && served.contains(&0.0),
        "one replica must own patient-42 entirely: {served:?}"
    );

    // Distinct patients spread across the ring.
    for i in 0..16 {
        let body = score_body(&b.examples[..1], Some(&format!("patient-{i}")));
        let (status, resp) = request(fleet.addr(), "POST", "/score", &body);
        assert_eq!(status, 200, "{resp}");
    }
    let health = healthz(fleet.addr());
    for id in 0..2 {
        let served = replica_field(&health, id, "served")
            .as_f64()
            .expect("served");
        assert!(served > 0.0, "replica {id} never served: {health:?}");
    }

    fleet.shutdown();
}

#[test]
fn hot_swap_reload_identical_quant_and_corrupt() {
    let _s = serial();
    let b = bundle();
    let fleet = serve_fleet(&b.snapshot, fleet_config(2, DispatchPolicy::LeastLoaded))
        .expect("fleet starts");
    let addr = fleet.addr();
    let body = score_body(&b.examples, None);

    // Prime canaries and take the pre-swap reference.
    let (status, want_f32) = request(addr, "POST", "/score", &body);
    assert_eq!(status, 200, "{want_f32}");

    // Reload the very same artifact with bit-identity required.
    let same_path = scratch_path("same.cns");
    std::fs::write(&same_path, &b.snapshot).expect("write snapshot");
    let reload = format!(
        "{{\"path\":\"{}\",\"require_identical\":true}}",
        same_path.display()
    );
    let (status, resp) = request(addr, "POST", "/admin/reload", &reload);
    assert_eq!(status, 200, "{resp}");
    let report = json::parse(&resp).expect("reload report parses");
    assert!(
        report.get("canary_requests").and_then(Json::as_f64) >= Some(1.0),
        "canaries must have been captured: {resp}"
    );
    assert_eq!(
        report.get("replicas_swapped").and_then(Json::as_f64),
        Some(2.0)
    );
    let (status, got) = request(addr, "POST", "/score", &body);
    assert_eq!(status, 200);
    assert_eq!(got, want_f32, "identical reload must not change scores");

    // A corrupted artifact is rejected; the old model keeps serving.
    let mut corrupt = b.snapshot.clone();
    let mid = corrupt.len() / 2;
    // Replace one byte mid-file with a different digit to break a section
    // checksum without invalidating UTF-8.
    let original = corrupt.as_bytes()[mid];
    let replacement = if original == b'7' { b'8' } else { b'7' };
    // SAFETY-free byte edit via Vec round trip.
    let mut raw = corrupt.into_bytes();
    raw[mid] = replacement;
    corrupt = String::from_utf8(raw).expect("still utf8");
    let corrupt_path = scratch_path("corrupt.cns");
    std::fs::write(&corrupt_path, &corrupt).expect("write corrupt snapshot");
    let reload = format!("{{\"path\":\"{}\"}}", corrupt_path.display());
    let (status, resp) = request(addr, "POST", "/admin/reload", &reload);
    assert_eq!(status, 422, "corrupt artifact must be rejected: {resp}");
    let (status, got) = request(addr, "POST", "/score", &body);
    assert_eq!(status, 200);
    assert_eq!(
        got, want_f32,
        "failed reload must leave the old model serving"
    );

    // Missing path field and unreadable path are client errors.
    let (status, _) = request(addr, "POST", "/admin/reload", "{}");
    assert_eq!(status, 400);
    let (status, _) = request(
        addr,
        "POST",
        "/admin/reload",
        "{\"path\":\"/nonexistent/x.cns\"}",
    );
    assert_eq!(status, 400);

    // Swap to the quantized artifact; post-swap scores must be
    // bit-identical to a cold single server on the same artifact.
    let lm = load_snapshot(&b.snapshot).expect("snapshot loads");
    let quant_text = save_snapshot_quant(&lm.model, &lm.params, &lm.scaler, lm.time_steps);
    let quant_path = scratch_path("quant.cns");
    std::fs::write(&quant_path, &quant_text).expect("write quant snapshot");
    let reload = format!("{{\"path\":\"{}\",\"quant\":true}}", quant_path.display());
    let (status, resp) = request(addr, "POST", "/admin/reload", &reload);
    assert_eq!(status, 200, "{resp}");
    let health = healthz(addr);
    assert_eq!(health.get("quant").and_then(Json::as_bool), Some(true));
    assert_eq!(
        health.get("snapshot_fingerprint").and_then(Json::as_str),
        Some(format!("{:016x}", fnv64(quant_text.as_bytes())).as_str())
    );
    let (status, got_quant) = request(addr, "POST", "/score", &body);
    assert_eq!(status, 200);
    let cold = serve(
        load_snapshot(&quant_text).expect("quant snapshot loads"),
        ServerConfig {
            port: 0,
            quant: true,
            ..ServerConfig::default()
        },
    )
    .expect("cold quant server starts");
    let (status, want_quant) = request(cold.addr(), "POST", "/score", &body);
    assert_eq!(status, 200);
    assert_eq!(
        got_quant, want_quant,
        "post-swap scores must match a cold server on the new artifact"
    );

    cold.shutdown();
    fleet.shutdown();
    for p in [same_path, corrupt_path, quant_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn malformed_score_is_not_kept_as_a_canary() {
    let _s = serial();
    let b = bundle();
    let fleet = serve_fleet(&b.snapshot, fleet_config(2, DispatchPolicy::LeastLoaded))
        .expect("fleet starts");
    let addr = fleet.addr();

    // An instance one value short is rejected by the engine.
    let mut bad = b.examples[0].clone();
    bad.x.pop();
    let (status, resp) = request(addr, "POST", "/score", &score_body(&[bad], None));
    assert_eq!(status, 400, "{resp}");
    let body = score_body(&b.examples, None);
    let (status, want) = request(addr, "POST", "/score", &body);
    assert_eq!(status, 200, "{want}");

    // Reloading the same artifact checks only the rows that scored, and a
    // second reload finds the reload lock free.
    let path = scratch_path("canary_same.cns");
    std::fs::write(&path, &b.snapshot).expect("write snapshot");
    let reload = format!(
        "{{\"path\":\"{}\",\"require_identical\":true}}",
        path.display()
    );
    for _ in 0..2 {
        let (status, resp) = request(addr, "POST", "/admin/reload", &reload);
        assert_eq!(status, 200, "{resp}");
    }
    let (status, got) = request(addr, "POST", "/score", &body);
    assert_eq!(status, 200);
    assert_eq!(got, want, "identical reloads must not change scores");

    fleet.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn reload_to_a_different_grid_is_a_typed_422() {
    let _s = serial();
    let b = bundle();
    let fleet = serve_fleet(&b.snapshot, fleet_config(2, DispatchPolicy::LeastLoaded))
        .expect("fleet starts");
    let addr = fleet.addr();
    let body = score_body(&b.examples, None);
    let (status, want) = request(addr, "POST", "/score", &body);
    assert_eq!(status, 200, "{want}");

    // The same model saved for a longer grid: the captured canaries no
    // longer fit it.
    let lm = load_snapshot(&b.snapshot).expect("snapshot loads");
    let longer = save_snapshot(&lm.model, &lm.params, &lm.scaler, lm.time_steps + 2);
    let path = scratch_path("longer.cns");
    std::fs::write(&path, &longer).expect("write snapshot");
    let reload = format!("{{\"path\":\"{}\"}}", path.display());
    let (status, resp) = request(addr, "POST", "/admin/reload", &reload);
    assert_eq!(status, 422, "{resp}");
    assert!(resp.contains("canary shape mismatch"), "{resp}");

    // The old model keeps serving, byte for byte, and reloads still work.
    let (status, got) = request(addr, "POST", "/score", &body);
    assert_eq!(status, 200);
    assert_eq!(
        got, want,
        "a rejected reload must leave the old model serving"
    );
    let (status, resp) = request(addr, "POST", "/admin/reload", &reload);
    assert_eq!(status, 422, "the reload lock must be free again: {resp}");

    fleet.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn chaos_kill_reroutes_without_client_visible_errors() {
    let _s = serial();
    let b = bundle();
    // Kill replica 1 on the 3rd /score dispatch.
    let _guard = install(ChaosPlan::new(42).site("fleet.replica.kill", When::At(vec![3]), 1));
    let fleet = serve_fleet(&b.snapshot, fleet_config(3, DispatchPolicy::LeastLoaded))
        .expect("fleet starts");
    let addr = fleet.addr();
    let body = score_body(&b.examples, None);

    let (status, want) = request(addr, "POST", "/score", &body);
    assert_eq!(status, 200, "{want}");
    for i in 0..10 {
        let (status, got) = request(addr, "POST", "/score", &body);
        assert_eq!(status, 200, "request {i} failed around the kill: {got}");
        assert_eq!(
            got, want,
            "request {i}: response must stay bit-identical across the kill"
        );
    }

    let health = healthz(addr);
    assert_eq!(replica_field(&health, 1, "state").as_str(), Some("dead"));
    for id in [0, 2] {
        assert_eq!(
            replica_field(&health, id, "state").as_str(),
            Some("healthy"),
            "{health:?}"
        );
    }

    fleet.shutdown();
}

#[test]
fn debug_requests_attributes_the_serving_replica() {
    let _s = serial();
    let b = bundle();
    let fleet = serve_fleet(&b.snapshot, fleet_config(2, DispatchPolicy::LeastLoaded))
        .expect("fleet starts");
    let addr = fleet.addr();
    let body = score_body(&b.examples, None);
    for _ in 0..4 {
        let (status, resp) = request(addr, "POST", "/score", &body);
        assert_eq!(status, 200, "{resp}");
    }

    let (status, resp) = request(addr, "GET", "/debug/requests", "");
    assert_eq!(status, 200, "{resp}");
    let parsed = json::parse(&resp).expect("debug requests parses");
    let replicas: Vec<f64> = parsed
        .get("requests")
        .and_then(Json::as_arr)
        .expect("requests array")
        .iter()
        .filter(|r| {
            r.get("route").and_then(Json::as_str) == Some("/score")
                && r.get("status").and_then(Json::as_f64) == Some(200.0)
        })
        .filter_map(|r| r.get("replica").and_then(Json::as_f64))
        .collect();
    assert!(replicas.len() >= 4, "scored requests missing: {resp}");
    assert!(
        replicas.iter().all(|&r| (0.0..2.0).contains(&r)),
        "every routed /score must name its replica: {replicas:?}"
    );

    // The router's /debug/config resolves fleet-level flags.
    let (status, resp) = request(addr, "GET", "/debug/config", "");
    assert_eq!(status, 200, "{resp}");
    let cfg = json::parse(&resp).expect("debug config parses");
    assert_eq!(cfg.get("role").and_then(Json::as_str), Some("fleet"));
    assert_eq!(cfg.get("n_replicas").and_then(Json::as_f64), Some(2.0));
    let want_fp = format!("{:016x}", fnv64(b.snapshot.as_bytes()));
    assert_eq!(
        cfg.get("snapshot_fingerprint").and_then(Json::as_str),
        Some(want_fp.as_str())
    );

    fleet.shutdown();
}
