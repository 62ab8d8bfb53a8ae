//! Daemon end-to-end tests: the determinism contract, the plan-cache
//! `apply_delta` path, pause/resume bit-identity, restart persistence,
//! the HTTP round trip, and grid and tree guests over HTTP.

use overlap_core::{EngineKind, ScenarioSpec, Strategy};
use overlap_daemon::{
    Client, Daemon, DaemonConfig, Event, JsonlStore, MemStore, RunRecord, Status,
};
use overlap_model::{GuestSpec, ProgramKind};
use overlap_net::topology::{linear_array, mesh2d};
use overlap_net::{DelayModel, HostGraph};
use overlap_sim::faults::FaultPlan;
use overlap_sim::Jitter;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);

fn spec(cells: u32, steps: u32) -> ScenarioSpec {
    let mut s = ScenarioSpec::new(
        GuestSpec::array(cells, ProgramKind::KvWorkload, 3, steps),
        linear_array(8, DelayModel::uniform(1, 6), 7),
    );
    s.strategy = Strategy::Overlap { c: 4.0 };
    s
}

/// Blocked placement on a host split into two 4-processor lines.
fn split_host_spec() -> ScenarioSpec {
    let mut host = HostGraph::new("split", 8);
    for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)] {
        host.add_link(a, b, 2);
    }
    let mut s = spec(16, 16);
    s.host = host;
    s.strategy = Strategy::Blocked;
    s
}

/// Send `head` (request line and headers, no trailing blank line) plus
/// `body` over a raw socket and return `(status, full response text)`.
fn raw_http(addr: std::net::SocketAddr, head: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(stream, "{head}\r\nConnection: close\r\n\r\n{body}").unwrap();
    stream.flush().unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {text:?}"));
    (status, text)
}

/// Long-poll a session's event stream over HTTP to its `Done` record.
fn done_record(client: &Client, id: u64) -> RunRecord {
    let mut next = 0;
    loop {
        let resp = client.events(id, next, 5_000).expect("events");
        next = resp.next;
        for e in resp.events {
            match e {
                Event::Done { record } => return record,
                Event::Failed { error } => panic!("session {id} failed: {error}"),
                _ => {}
            }
        }
    }
}

/// The stats of an uninterrupted in-process run, as canonical JSON bytes.
fn sequential_bytes(spec: &ScenarioSpec) -> String {
    let ready = spec.ready().expect("valid spec");
    let outcome = ready.run_raw().expect("sequential run");
    serde_json::to_string(&outcome.stats).expect("stats serialize")
}

#[test]
fn eight_concurrent_submissions_are_bit_identical_to_sequential() {
    let spec = spec(16, 64);
    let baseline = sequential_bytes(&spec);
    let daemon = Daemon::start(DaemonConfig {
        workers: 4,
        store: Box::new(MemStore::new()),
    });
    let ids: Vec<u64> = (0..8)
        .map(|_| daemon.submit(spec.clone()).expect("submit"))
        .collect();
    for &id in &ids {
        assert_eq!(daemon.wait(id, WAIT), Some(Status::Done), "session {id}");
    }
    let runs = daemon.runs(None).unwrap();
    assert_eq!(runs.len(), 8);
    for r in &runs {
        let bytes = serde_json::to_string(&r.stats).unwrap();
        assert_eq!(bytes, baseline, "run {} diverged from sequential", r.run_id);
    }
    // Exactly one lowering; the other seven sessions hit the cache.
    let c = daemon.cache_stats();
    assert_eq!((c.misses, c.hits, c.entries), (1, 7, 1));
    assert_eq!(runs.iter().filter(|r| r.cache_hit).count(), 7);
    daemon.shutdown();
}

#[test]
fn pause_resume_mid_run_lands_on_the_same_result() {
    // Big enough to cross many 4096-unit checkpoints.
    let spec = spec(16, 4000);
    let baseline = sequential_bytes(&spec);
    let daemon = Daemon::start(DaemonConfig::default());
    let id = daemon.submit(spec).unwrap();
    // Pause before the run starts: the engine holds at its first
    // checkpoint with all simulation state intact.
    assert!(daemon.pause(id));
    let deadline = std::time::Instant::now() + WAIT;
    let paused_at = loop {
        let v = daemon.status(id).unwrap();
        assert!(!v.status.is_terminal(), "run must not finish while paused");
        if v.progress > 0 {
            break v.progress;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never reached a checkpoint"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    // Held: progress must not advance while paused.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(daemon.status(id).unwrap().progress, paused_at);
    assert!(daemon.resume(id));
    assert_eq!(daemon.wait(id, WAIT), Some(Status::Done));
    let runs = daemon.runs(None).unwrap();
    assert_eq!(runs.len(), 1);
    assert_eq!(
        serde_json::to_string(&runs[0].stats).unwrap(),
        baseline,
        "paused-and-resumed run must be bit-identical to uninterrupted"
    );
    let events = daemon.events_since(id, 0, Duration::ZERO).unwrap();
    assert!(events.contains(&Event::Paused));
    assert!(events.contains(&Event::Resumed));
    daemon.shutdown();
}

#[test]
fn cancelled_runs_persist_nothing() {
    let spec = spec(16, 4000);
    let daemon = Daemon::start(DaemonConfig::default());
    let id = daemon.submit(spec).unwrap();
    daemon.pause(id);
    // Wait for the engine to hold at a checkpoint, then cancel.
    let deadline = std::time::Instant::now() + WAIT;
    while daemon.status(id).unwrap().progress == 0 {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(daemon.cancel(id));
    assert_eq!(daemon.wait(id, WAIT), Some(Status::Cancelled));
    assert_eq!(daemon.runs(None).unwrap().len(), 0);
    daemon.shutdown();
}

/// The cache-hit path applies fault/cost deltas to the cached base plan
/// (never re-lowers); differential check against a fresh lowering that
/// bakes the same faults in.
#[test]
fn cache_hit_apply_delta_matches_fresh_lowering() {
    let base = spec(16, 64);
    let mut faulted = base.clone();
    faulted.faults = Some(FaultPlan::new().link_down(2, 3, 40, 160));
    let fresh_faulted = sequential_bytes(&faulted);
    let fresh_base = sequential_bytes(&base);

    let daemon = Daemon::start(DaemonConfig::default());
    // 1: populate the cache with the base plan.
    let a = daemon.submit(base.clone()).unwrap();
    assert_eq!(daemon.wait(a, WAIT), Some(Status::Done));
    // 2: same plan key, faults applied via apply_delta on the cached plan.
    let b = daemon.submit(faulted.clone()).unwrap();
    assert_eq!(daemon.wait(b, WAIT), Some(Status::Done));
    // 3: base again — the inverse delta must have restored the plan.
    let c = daemon.submit(base).unwrap();
    assert_eq!(daemon.wait(c, WAIT), Some(Status::Done));

    let cache = daemon.cache_stats();
    assert_eq!(
        (cache.misses, cache.hits, cache.entries),
        (1, 2, 1),
        "fault variants must share the base plan's cache entry"
    );
    let runs = daemon.runs(None).unwrap();
    assert_eq!(runs.len(), 3);
    assert!(!runs[0].cache_hit);
    assert!(runs[1].cache_hit, "faulted run must ride the cached plan");
    assert_eq!(serde_json::to_string(&runs[0].stats).unwrap(), fresh_base);
    assert_eq!(
        serde_json::to_string(&runs[1].stats).unwrap(),
        fresh_faulted,
        "apply_delta on a cache hit must match a fresh lowering with faults"
    );
    assert_eq!(
        serde_json::to_string(&runs[2].stats).unwrap(),
        fresh_base,
        "inverse delta must restore the base plan exactly"
    );
    assert!(runs[1].stats.faults.retries > 0, "faults must have fired");
    daemon.shutdown();
}

#[test]
fn every_engine_matches_its_in_process_result() {
    let daemon = Daemon::start(DaemonConfig::default());
    for engine in [EngineKind::Event, EngineKind::Stepped, EngineKind::Lockstep] {
        let mut s = spec(16, 64);
        s.engine = engine;
        let baseline = sequential_bytes(&s);
        let id = daemon.submit(s).unwrap();
        assert_eq!(daemon.wait(id, WAIT), Some(Status::Done), "{engine:?}");
        let run = daemon.runs(None).unwrap().pop().unwrap();
        assert_eq!(
            serde_json::to_string(&run.stats).unwrap(),
            baseline,
            "{engine:?} daemon run must match in-process"
        );
    }
    // One guest/host/config ⇒ one plan shared by all three engines.
    assert_eq!(daemon.cache_stats().entries, 1);
    daemon.shutdown();
}

#[test]
fn invalid_scenarios_are_rejected_at_submission() {
    let daemon = Daemon::start(DaemonConfig::default());
    let mut traced_lockstep = spec(16, 16);
    traced_lockstep.trace = true;
    traced_lockstep.engine = EngineKind::Lockstep;
    assert!(matches!(
        daemon.submit(traced_lockstep),
        Err(overlap_core::Error::Unsupported {
            engine: "lockstep",
            feature: "stall-attribution tracing"
        })
    ));
    // Lockstep's closed form cannot time jitter, so the spec is refused
    // rather than run as if the delays were fixed.
    let mut jittered_lockstep = spec(16, 16);
    jittered_lockstep.engine = EngineKind::Lockstep;
    jittered_lockstep.config.jitter = Jitter::Periodic {
        amplitude_pct: 90,
        period: 2,
    };
    assert!(matches!(
        daemon.submit(jittered_lockstep),
        Err(overlap_core::Error::Unsupported {
            engine: "lockstep",
            feature: "delay jitter"
        })
    ));
    assert!(matches!(
        daemon.submit(split_host_spec()),
        Err(overlap_core::Error::InvalidConfig { option: "host", .. })
    ));
    daemon.shutdown();
}

#[test]
fn persisted_runs_are_queryable_after_restart() {
    let path =
        std::env::temp_dir().join(format!("overlap-daemon-e2e-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let hash;
    {
        let daemon = Daemon::start(DaemonConfig {
            workers: 2,
            store: Box::new(JsonlStore::open(&path).unwrap()),
        });
        let id = daemon.submit(spec(16, 32)).unwrap();
        assert_eq!(daemon.wait(id, WAIT), Some(Status::Done));
        hash = daemon.status(id).unwrap().plan_hash;
        daemon.shutdown();
    }
    // A new daemon process over the same store sees the old run.
    let daemon = Daemon::start(DaemonConfig {
        workers: 2,
        store: Box::new(JsonlStore::open(&path).unwrap()),
    });
    let old = daemon.runs(Some(hash)).unwrap();
    assert_eq!(old.len(), 1, "pre-restart run must be queryable");
    assert_eq!(old[0].plan_hash, hash);
    // And new runs of the same scenario append to the same history.
    let id = daemon.submit(spec(16, 32)).unwrap();
    assert_eq!(daemon.wait(id, WAIT), Some(Status::Done));
    assert_eq!(daemon.runs(Some(hash)).unwrap().len(), 2);
    assert_eq!(daemon.runs(Some(hash ^ 1)).unwrap().len(), 0);
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn http_round_trip() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let client = Client::new(server.addr().to_string());

    let spec16 = spec(16, 64);
    let baseline = sequential_bytes(&spec16);
    let id = client.submit(&spec16).expect("submit over HTTP");
    let record = done_record(&client, id);
    assert_eq!(serde_json::to_string(&record.stats).unwrap(), baseline);
    let view = client.status(id).unwrap();
    assert_eq!(view.status, Status::Done);
    assert_eq!(view.plan_hash, record.plan_hash);
    assert_eq!(client.runs(Some(record.plan_hash)).unwrap().len(), 1);
    assert_eq!(client.cache().unwrap().misses, 1);
    // Typed validation errors surface as HTTP 400 with the message.
    let mut bad = spec(16, 16);
    bad.trace = true;
    bad.engine = EngineKind::Lockstep;
    match client.submit(&bad) {
        Err(overlap_daemon::ClientError::Api { status, message }) => {
            assert_eq!(status, 400);
            assert!(message.contains("lockstep"), "{message}");
        }
        other => panic!("expected 400, got {other:?}"),
    }
    // A disconnected host used to panic the connection thread inside
    // placement; it is a typed 400 naming the host, and the daemon stays up.
    match client.submit(&split_host_spec()) {
        Err(overlap_daemon::ClientError::Api { status, message }) => {
            assert_eq!(status, 400);
            assert!(message.contains("host"), "{message}");
            assert!(message.contains("disconnected"), "{message}");
        }
        other => panic!("expected 400, got {other:?}"),
    }
    assert_eq!(client.cache().unwrap().misses, 1);
    client.shutdown().expect("shutdown");
    // The server answers first and shuts the daemon down after, so the
    // flag may trail the response by a moment.
    let deadline = std::time::Instant::now() + WAIT;
    while !daemon.is_shut_down() {
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never shut down"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.stop();
}

/// Mesh, torus and tree guests enter through the same admission as line
/// guests: over HTTP they finish `Done` with the stats of an in-process
/// run, and a grid guest under a line strategy is a typed 400.
#[test]
fn grid_and_tree_guests_run_over_http() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let client = Client::new(server.addr().to_string());
    let host = mesh2d(3, 3, DelayModel::uniform(1, 6), 7);
    let pk = ProgramKind::Relaxation;
    for guest in [
        GuestSpec::mesh(6, 6, pk, 3, 16),
        GuestSpec::torus(6, 4, pk, 3, 16),
        GuestSpec::tree(5, pk, 3, 16),
    ] {
        let spec = ScenarioSpec::new(guest, host.clone());
        let baseline = spec.ready().unwrap().run().unwrap();
        let id = client.submit(&spec).expect("submit over HTTP");
        let record = done_record(&client, id);
        assert_eq!(client.status(id).unwrap().status, Status::Done);
        assert!(record.validated, "{:?}", spec.guest.topology);
        assert_eq!(record.stats, baseline.stats, "{:?}", spec.guest.topology);
    }
    let mut halo = ScenarioSpec::new(GuestSpec::mesh(6, 6, pk, 3, 16), host);
    halo.strategy = Strategy::Halo { halo: 1 };
    match client.submit(&halo) {
        Err(overlap_daemon::ClientError::Api { status, message }) => {
            assert_eq!(status, 400);
            assert!(
                message.contains("mesh, torus and 3-D mesh guests accept auto"),
                "{message}"
            );
        }
        other => panic!("expected 400, got {other:?}"),
    }
    assert_eq!(client.cache().unwrap().misses, 3);
    client.shutdown().expect("shutdown");
    server.stop();
}

#[test]
fn http_refuses_oversized_bodies_and_keeps_serving() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let client = Client::new(server.addr().to_string());
    // A declared body of 1 TiB is refused before anything is allocated.
    let (status, text) = raw_http(
        server.addr(),
        "POST /v1/scenarios HTTP/1.1\r\nContent-Length: 1099511627776",
        "",
    );
    assert_eq!(status, 413, "{text}");
    assert!(text.contains("Payload Too Large"), "{text}");
    assert!(text.contains("payload too large"), "{text}");
    assert_eq!(client.cache().unwrap().misses, 0);
    client.shutdown().expect("shutdown");
    server.stop();
}

/// A request line or header past 8 KiB, or more than 100 headers, is a
/// 431 naming the limit; the server drains the rest of the request, so
/// the client reads the answer, and keeps serving.
#[test]
fn http_bounds_header_reads_and_keeps_serving() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let client = Client::new(server.addr().to_string());
    let body = serde_json::to_string(&spec(16, 16)).unwrap();
    let head = format!(
        "POST /v1/scenarios HTTP/1.1\r\nContent-Length: {}",
        body.len()
    );
    let long = format!("{head}\r\nX-Pad: {}", "a".repeat(64 << 10));
    let many: String = (0..1000).map(|i| format!("\r\nX-H{i}: v")).collect();
    for (padded, limit) in [
        (long, "exceeds 8192 bytes"),
        (format!("{head}{many}"), "more than 100 headers"),
    ] {
        let (status, text) = raw_http(server.addr(), &padded, &body);
        assert_eq!(status, 431, "{text}");
        assert!(text.contains("\"error\""), "{text}");
        assert!(text.contains(limit), "{text}");
    }
    assert_eq!(client.cache().unwrap().misses, 0);
    let id = client.submit(&spec(16, 16)).expect("submit after 431s");
    assert!(done_record(&client, id).validated);
    assert_eq!(client.status(id).unwrap().status, Status::Done);
    client.shutdown().expect("shutdown");
    server.stop();
}

/// A spec written before timing left the engine config still carries
/// the removed timing switch: the daemon decodes it and runs it exactly
/// like the same spec in process.
#[test]
fn legacy_timing_field_runs_over_http() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let client = Client::new(server.addr().to_string());
    let spec = spec(16, 16);
    let good = serde_json::to_string(&spec).unwrap();
    let legacy = good.replace("\"config\":{", "\"config\":{\"record_timing\":true,");
    assert_ne!(legacy, good, "spec JSON must carry a config object");
    let (status, text) = raw_http(
        server.addr(),
        &format!(
            "POST /v1/scenarios HTTP/1.1\r\nContent-Length: {}",
            legacy.len()
        ),
        &legacy,
    );
    assert_eq!(status, 200, "{text}");
    let body = text.split("\r\n\r\n").nth(1).expect("response body");
    let id = serde_json::from_str::<overlap_daemon::wire::SubmitResponse>(body)
        .unwrap()
        .session;
    let record = done_record(&client, id);
    assert_eq!(client.status(id).unwrap().status, Status::Done);
    assert_eq!(record.stats, spec.ready().unwrap().run().unwrap().stats);
    client.shutdown().expect("shutdown");
    server.stop();
}

#[test]
fn http_rejects_the_removed_sharded_engine_as_malformed() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    // A pre-removal client asking for the deleted sharded engine gets a
    // plain decode error, not a silent fallback.
    let good = serde_json::to_string(&spec(16, 16)).unwrap();
    let legacy = good.replace(
        "\"engine\":\"Event\"",
        "\"engine\":{\"Sharded\":{\"threads\":2}}",
    );
    assert_ne!(legacy, good, "spec JSON must name its engine");
    let (status, text) = raw_http(
        server.addr(),
        &format!(
            "POST /v1/scenarios HTTP/1.1\r\nContent-Length: {}",
            legacy.len()
        ),
        &legacy,
    );
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("malformed scenario"), "{text}");
    assert_eq!(daemon.cache_stats().misses, 0);
    daemon.shutdown();
    server.stop();
}
