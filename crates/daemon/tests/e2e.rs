//! Daemon end-to-end tests: the determinism contract, fault variants on
//! shared cached plans, pause/resume bit-identity, a paused run that
//! blocks no one, restart persistence, the HTTP round trip, grid and tree
//! guests over HTTP, stale `engine` keys ignored, and malformed guests,
//! hosts, query parameters and over-deep JSON answered with 400.

use overlap_core::{ScenarioSpec, Strategy};
use overlap_daemon::{
    Client, Daemon, DaemonConfig, Event, JsonlStore, MemStore, RunRecord, Status,
};
use overlap_model::{GuestSpec, GuestTopology, ProgramKind, TaskGraph};
use overlap_net::topology::{linear_array, mesh2d};
use overlap_net::{DelayModel, HostGraph};
use overlap_sim::engine::MemBudget;
use overlap_sim::faults::FaultPlan;
use overlap_sim::StallBreakdown;
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

/// Wait until a paused session holds at a checkpoint; returns its
/// progress there.
fn held_progress(daemon: &Daemon, id: u64) -> u64 {
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        let v = daemon.status(id).unwrap();
        assert!(!v.status.is_terminal(), "run must not finish while paused");
        if v.progress > 0 {
            return v.progress;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never reached a checkpoint"
        );
        std::thread::sleep(Duration::from_millis(5));
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
    let paused_at = held_progress(&daemon, id);
    // Held: progress must not advance while paused, and the session says
    // so although it was paused before a worker took it.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(daemon.status(id).unwrap().progress, paused_at);
    assert_eq!(daemon.status(id).unwrap().status, Status::Paused);
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
    held_progress(&daemon, id);
    assert!(daemon.cancel(id));
    assert_eq!(daemon.wait(id, WAIT), Some(Status::Cancelled));
    assert_eq!(daemon.runs(None).unwrap().len(), 0);
    daemon.shutdown();
}

/// A cache hit runs its fault variant on a shared view of the cached
/// base plan (never re-lowers, never edits it); differential check
/// against a fresh lowering that bakes the same faults in.
#[test]
fn cache_hit_fault_variant_matches_fresh_lowering() {
    let base = spec(16, 64);
    let mut faulted = base.clone();
    faulted.faults = Some(FaultPlan::new().link_down(2, 3, 40, 160));
    let fresh_faulted = sequential_bytes(&faulted);
    let fresh_base = sequential_bytes(&base);

    let daemon = Daemon::start(DaemonConfig::default());
    // 1: populate the cache with the base plan.
    let a = daemon.submit(base.clone()).unwrap();
    assert_eq!(daemon.wait(a, WAIT), Some(Status::Done));
    // 2: same plan key, faults attached to a view of the cached plan.
    let b = daemon.submit(faulted.clone()).unwrap();
    assert_eq!(daemon.wait(b, WAIT), Some(Status::Done));
    // 3: base again — the faulted run must have left the plan untouched.
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
        "a fault variant on a cache hit must match a fresh lowering with faults"
    );
    assert_eq!(
        serde_json::to_string(&runs[2].stats).unwrap(),
        fresh_base,
        "a variant run must leave the cached base plan exactly as it was"
    );
    assert!(runs[1].stats.faults.retries > 0, "faults must have fired");
    daemon.shutdown();
}

/// A paused run holds no cache lock: with two workers and one session
/// paused mid-run, a fault variant of the same key (a cache hit) and a
/// scenario of another key both finish while it stays held, and the
/// paused session then resumes to the uninterrupted result.
#[test]
fn a_paused_run_blocks_neither_its_plan_nor_other_sessions() {
    let a_spec = spec(16, 4000);
    let mut b_spec = a_spec.clone();
    b_spec.faults = Some(FaultPlan::new().link_down(2, 3, 40, 160));
    let (a_fresh, b_fresh) = (sequential_bytes(&a_spec), sequential_bytes(&b_spec));
    let daemon = Daemon::start(DaemonConfig {
        workers: 2,
        store: Box::new(MemStore::new()),
    });
    let a = daemon.submit(a_spec).unwrap();
    assert!(daemon.pause(a));
    let held = held_progress(&daemon, a);
    let b = daemon.submit(b_spec).unwrap();
    let c = daemon.submit(spec(16, 64)).unwrap();
    assert_eq!(daemon.wait(b, WAIT), Some(Status::Done), "same key");
    assert_eq!(daemon.wait(c, WAIT), Some(Status::Done), "other key");
    let view = daemon.status(a).unwrap();
    assert_eq!((view.status, view.progress), (Status::Paused, held));
    let run_of = |id| {
        let runs = daemon.runs(None).unwrap();
        let run = runs.into_iter().find(|r| r.session == id).unwrap();
        (run.cache_hit, serde_json::to_string(&run.stats).unwrap())
    };
    assert_eq!(run_of(b), (true, b_fresh));
    assert!(daemon.resume(a));
    assert_eq!(daemon.wait(a, WAIT), Some(Status::Done));
    assert_eq!(run_of(a), (false, a_fresh));
    let cache = daemon.cache_stats();
    assert_eq!((cache.misses, cache.hits), (2, 1));
    daemon.shutdown();
}

/// A traced spec under a memory budget tight enough to force reloads.
fn traced_with_budget() -> ScenarioSpec {
    let mut s = spec(16, 16);
    s.trace = true;
    s.config.mem = Some(MemBudget {
        budget: 1,
        reload_cost: 2,
    });
    s
}

#[test]
fn plain_and_traced_runs_match_their_in_process_results() {
    let daemon = Daemon::start(DaemonConfig::default());
    for trace in [false, true] {
        let mut s = spec(16, 64);
        s.trace = trace;
        let baseline = sequential_bytes(&s);
        let id = daemon.submit(s).unwrap();
        assert_eq!(daemon.wait(id, WAIT), Some(Status::Done), "trace {trace}");
        let run = daemon.runs(None).unwrap().pop().unwrap();
        assert_eq!(run.engine, "event");
        assert_eq!(
            serde_json::to_string(&run.stats).unwrap(),
            baseline,
            "trace {trace}: daemon run must match in-process"
        );
    }
    // One guest/host/config ⇒ one plan, traced or not.
    assert_eq!(daemon.cache_stats().entries, 1);
    daemon.shutdown();
}

/// The stall totals of `spec`'s in-process run (`run_traced`: it sets
/// `trace`).
fn traced_stalls(spec: &ScenarioSpec) -> Option<StallBreakdown> {
    assert!(spec.trace);
    spec.ready().unwrap().run_raw().unwrap().stats.stalls
}

#[test]
fn invalid_scenarios_are_rejected_at_submission() {
    let daemon = Daemon::start(DaemonConfig::default());
    // A traced run under a memory budget is no longer refused: it runs,
    // and its stalls (reloads included) are the in-process traced run's.
    let traced = traced_with_budget();
    let id = daemon.submit(traced.clone()).unwrap();
    assert_eq!(daemon.wait(id, WAIT), Some(Status::Done));
    let run = daemon.runs(None).unwrap().pop().unwrap();
    assert_eq!(run.stalls, traced_stalls(&traced));
    assert!(run.stalls.unwrap().stall_mem_reload > 0);
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
    // A traced run under a memory budget runs over HTTP too, with the
    // stalls of the in-process traced run.
    let traced = traced_with_budget();
    let record = done_record(&client, client.submit(&traced).expect("submit"));
    assert_eq!(record.stalls, traced_stalls(&traced));
    // A key the spec does not know is a 400 naming it, not dropped.
    let json = serde_json::to_string(&spec16).unwrap();
    let typo = json.replacen("\"trace\":", "\"traced\":true,\"trace\":", 1);
    let head = format!(
        "POST /v1/scenarios HTTP/1.1\r\nContent-Length: {}",
        typo.len()
    );
    let (status, text) = raw_http(server.addr(), &head, &typo);
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("unknown field `traced`"), "{text}");
    // Typed validation errors surface as HTTP 400 with the message.
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
    assert_eq!(client.cache().unwrap().misses, 2);
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

/// A body nested past the JSON reader's 128 levels is a 400 naming the
/// limit, not a stack overflow that aborts the daemon: the next
/// submission runs and validates.
#[test]
fn http_refuses_deeply_nested_json_and_keeps_serving() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let client = Client::new(server.addr().to_string());
    let body = "[".repeat(200_000);
    let (status, text) = raw_http(
        server.addr(),
        &format!(
            "POST /v1/scenarios HTTP/1.1\r\nContent-Length: {}",
            body.len()
        ),
        &body,
    );
    assert_eq!(status, 400, "{text}");
    assert!(
        text.contains("malformed scenario: nesting deeper than 128 levels"),
        "{text}"
    );
    assert_eq!(client.cache().unwrap().misses, 0);
    let id = client.submit(&spec(16, 16)).expect("submit after the 400");
    assert!(done_record(&client, id).validated);
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

/// Specs written while the wire named an engine carry an `engine` key,
/// whichever engine it named. It is a retired key, ignored where any
/// other unknown key is refused: each runs on the event engine, keyed to
/// the spec's one plan, with
/// the stats of the same spec in process.
#[test]
fn http_ignores_stale_engine_keys() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let client = Client::new(server.addr().to_string());
    let spec = spec(16, 16);
    let baseline = spec.ready().unwrap().run().unwrap().stats;
    let good = serde_json::to_string(&spec).unwrap();
    let engines = [
        "\"Event\"",
        "\"Stepped\"",
        "\"Lockstep\"",
        "{\"Sharded\":{\"threads\":2}}",
    ];
    let mut hashes = Vec::new();
    for engine in engines {
        let legacy = good.replace(
            "\"config\":{",
            &format!("\"engine\":{engine},\"config\":{{"),
        );
        assert_ne!(legacy, good, "spec JSON must carry a config object");
        let (status, text) = raw_http(
            server.addr(),
            &format!(
                "POST /v1/scenarios HTTP/1.1\r\nContent-Length: {}",
                legacy.len()
            ),
            &legacy,
        );
        assert_eq!(status, 200, "{engine}: {text}");
        let body = text.split("\r\n\r\n").nth(1).expect("response body");
        let id = serde_json::from_str::<overlap_daemon::wire::SubmitResponse>(body)
            .unwrap()
            .session;
        let record = done_record(&client, id);
        assert_eq!(record.engine, "event", "{engine}");
        assert!(record.validated, "{engine}");
        assert_eq!(record.stats, baseline, "{engine}");
        hashes.push(record.plan_hash);
    }
    assert!(hashes.iter().all(|&h| h == hashes[0]), "{hashes:?}");
    let cache = client.cache().unwrap();
    assert_eq!((cache.misses, cache.hits), (1, engines.len() as u64 - 1));
    client.shutdown().expect("shutdown");
    server.stop();
}

/// A `hash`, `since` or `wait_ms` that is present but not a `u64` is a
/// 400 naming the parameter, never read as an absent one: a mistyped hash
/// filter must not return every stored run, nor a mistyped `since` replay
/// from event 0.
#[test]
fn http_rejects_malformed_query_parameters() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let client = Client::new(server.addr().to_string());
    let id = client.submit(&spec(16, 16)).expect("submit");
    let record = done_record(&client, id);
    for (path, name) in [
        ("/v1/runs?hash=zz".to_string(), "hash"),
        (format!("/v1/sessions/{id}/events?since=x"), "since"),
        (
            format!("/v1/sessions/{id}/events?since=0&wait_ms=soon"),
            "wait_ms",
        ),
    ] {
        let (status, text) = raw_http(server.addr(), &format!("GET {path} HTTP/1.1"), "");
        assert_eq!(status, 400, "{path}: {text}");
        assert!(
            text.contains(&format!("bad query parameter {name}")),
            "{path}: {text}"
        );
    }
    // Valid and absent parameters keep working.
    let hash = record.plan_hash;
    for path in [
        format!("/v1/runs?hash={hash}"),
        "/v1/runs".to_string(),
        format!("/v1/sessions/{id}/events?since=1&wait_ms=0"),
        format!("/v1/sessions/{id}/events"),
    ] {
        let (status, text) = raw_http(server.addr(), &format!("GET {path} HTTP/1.1"), "");
        assert_eq!(status, 200, "{path}: {text}");
    }
    assert_eq!(client.runs(Some(hash)).unwrap().len(), 1);
    client.shutdown().expect("shutdown");
    server.stop();
}

/// A guest whose topology marker, step count and task graph disagree, a
/// grid shape placement cannot fold or whose cell count wraps, a strategy
/// parameter placement would assert on, or a host whose links and
/// adjacency lists break `add_link`'s invariants, is a typed 400 at
/// admission naming its field: none reaches a worker or a connection
/// thread's placement, and the daemon keeps serving.
#[test]
fn malformed_guests_and_hosts_are_400s() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let client = Client::new(server.addr().to_string());
    let pk = ProgramKind::KvWorkload;
    let dag = GuestSpec::dag(TaskGraph::wavefront(16, 16), pk, 3);
    let mut no_graph = spec(16, 16);
    no_graph.guest.topology = GuestTopology::Dag {
        dbs: 16,
        layers: 16,
    };
    let mut line_with_graph = spec(16, 16);
    line_with_graph.guest.graph = dag.graph.clone();
    let mut wrong_dbs = spec(16, 16);
    wrong_dbs.guest = dag;
    wrong_dbs.guest.topology = GuestTopology::Dag {
        dbs: 12,
        layers: 16,
    };
    let mut bad = vec![
        (no_graph, "guest"),
        (line_with_graph, "guest"),
        (wrong_dbs, "guest"),
    ];
    for guest in [
        GuestSpec::ring(1, pk, 3, 16),
        GuestSpec::torus(1, 4, pk, 3, 16),
        GuestSpec::torus(4, 0, pk, 3, 16),
        GuestSpec::tree(0, pk, 3, 16),
        GuestSpec::tree(33, pk, 3, 16),
        GuestSpec::mesh3(2048, 2048, 1024, pk, 3, 16),
    ] {
        let mut s = spec(16, 16);
        s.guest = guest;
        bad.push((s, "guest"));
    }
    for strategy in [
        Strategy::Overlap { c: 0.0 },
        Strategy::Combined {
            c: 4.0,
            expansion: 0,
        },
    ] {
        let mut s = spec(16, 16);
        s.strategy = strategy;
        bad.push((s, "strategy"));
    }
    for (spec, field) in bad {
        match client.submit(&spec) {
            Err(overlap_daemon::ClientError::Api { status, message }) => {
                assert_eq!(status, 400, "{message}");
                assert!(message.contains(field), "{field}: {message}");
            }
            other => panic!("{field}: expected 400, got {other:?}"),
        }
    }
    // Hosts go over raw HTTP: `HostGraph`'s tables cannot be built
    // inconsistent through its API. On an 8-node line with delay-2 links,
    // node 0's adjacency names node 99 in one, and link 0-1 has delay 0
    // (in its link and both adjacency entries) in the other.
    let mut host = HostGraph::new("line8", 8);
    for v in 0..7 {
        host.add_link(v, v + 1, 2);
    }
    let mut line8 = spec(16, 16);
    line8.host = host;
    let good = serde_json::to_string(&line8).unwrap();
    let adj_99: &[(&str, &str)] = &[("\"adj\":[[[1,2]]", "\"adj\":[[[99,2]]")];
    let delay_0: &[(&str, &str)] = &[
        (
            "{\"a\":0,\"b\":1,\"delay\":2}",
            "{\"a\":0,\"b\":1,\"delay\":0}",
        ),
        ("\"adj\":[[[1,2]],[[0,2]", "\"adj\":[[[1,0]],[[0,0]"),
    ];
    for (edits, reason) in [
        (adj_99, "adjacency lists disagree with the links"),
        (delay_0, "link 0-1 has delay 0"),
    ] {
        let mut bad = good.clone();
        for (from, to) in edits {
            let edited = bad.replacen(from, to, 1);
            assert_ne!(edited, bad, "spec JSON must contain {from}");
            bad = edited;
        }
        let (status, text) = raw_http(
            server.addr(),
            &format!(
                "POST /v1/scenarios HTTP/1.1\r\nContent-Length: {}",
                bad.len()
            ),
            &bad,
        );
        assert_eq!(status, 400, "{text}");
        assert!(text.contains(reason), "{text}");
    }
    assert_eq!(client.cache().unwrap().misses, 0);
    let id = client
        .submit(&line8)
        .expect("a valid submission after the 400s");
    assert!(done_record(&client, id).validated);
    assert_eq!(client.status(id).unwrap().status, Status::Done);
    client.shutdown().expect("shutdown");
    server.stop();
}
