//! A minimal HTTP/1.1 front end over `std::net` (the toolchain is
//! offline — no async runtime; one short-lived thread per connection,
//! `Connection: close` semantics).
//!
//! Routes (all request/response bodies are JSON):
//!
//! | method | path | body → response |
//! |---|---|---|
//! | POST | `/v1/scenarios` | `ScenarioSpec` → `{"session": id}` |
//! | GET  | `/v1/sessions/{id}` | → `SessionView` |
//! | POST | `/v1/sessions/{id}/pause` | → `{"ok": true}` |
//! | POST | `/v1/sessions/{id}/resume` | → `{"ok": true}` |
//! | POST | `/v1/sessions/{id}/cancel` | → `{"ok": true}` |
//! | GET  | `/v1/sessions/{id}/events?since=N&wait_ms=M` | → `{"events": […], "next": n}` (long-poll) |
//! | GET  | `/v1/runs?hash=H` | → `{"runs": […]}` |
//! | GET  | `/v1/cache` | → `CacheStats` |
//! | POST | `/v1/shutdown` | → `{"ok": true}`, then the daemon and server stop |
//!
//! Invalid scenarios come back as HTTP 400 with `{"error": …}` carrying
//! the typed builder error's message; unknown sessions are 404; a body
//! declared larger than [`MAX_BODY_BYTES`] is refused with 413 before any
//! of it is read.

use crate::daemon::Daemon;
use crate::wire::{ErrorResponse, EventsResponse, OkResponse, RunsResponse, SubmitResponse};
use overlap_core::ScenarioSpec;
use serde::Serialize;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest long-poll wait a client may request.
const MAX_WAIT_MS: u64 = 30_000;

/// Largest request body the server will allocate for. Far above any real
/// scenario; a larger `Content-Length` is answered with 413 unread.
pub const MAX_BODY_BYTES: usize = 16 << 20;

/// Why a request could not be read.
enum BadRequest {
    /// The declared `Content-Length` exceeds [`MAX_BODY_BYTES`].
    TooLarge(usize),
    /// Malformed request line, header, or body.
    Malformed(io::Error),
}

impl From<io::Error> for BadRequest {
    fn from(e: io::Error) -> Self {
        BadRequest::Malformed(e)
    }
}

/// A running HTTP server. Stops when [`stop`](Server::stop) is called,
/// a client POSTs `/v1/shutdown`, or the value is dropped.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept loop. The daemon
    /// itself keeps running (shut it down separately). Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` and serve `daemon` until stopped.
pub fn serve(daemon: Arc<Daemon>, addr: &str) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = Arc::clone(&stop);
    let accept = std::thread::Builder::new()
        .name("overlap-daemon-http".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if loop_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let daemon = Arc::clone(&daemon);
                let stop = Arc::clone(&loop_stop);
                let _ = std::thread::Builder::new()
                    .name("overlap-daemon-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &daemon, &stop);
                    });
            }
        })?;
    Ok(Server {
        addr,
        stop,
        accept: Some(accept),
    })
}

fn handle_connection(mut stream: TcpStream, daemon: &Daemon, stop: &AtomicBool) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let (method, path, body) = match read_request(&mut stream) {
        Ok(req) => req,
        Err(BadRequest::TooLarge(len)) => {
            return respond(
                &mut stream,
                413,
                &ErrorResponse {
                    error: format!("payload too large: {len} bytes (limit {MAX_BODY_BYTES})"),
                },
            );
        }
        Err(BadRequest::Malformed(e)) => {
            return respond(
                &mut stream,
                400,
                &ErrorResponse {
                    error: format!("bad request: {e}"),
                },
            );
        }
    };
    let (raw_path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path.as_str(), ""),
    };
    let parts: Vec<&str> = raw_path.trim_matches('/').split('/').collect();
    match (method.as_str(), parts.as_slice()) {
        ("POST", ["v1", "scenarios"]) => match serde_json::from_str::<ScenarioSpec>(&body) {
            Ok(spec) => match daemon.submit(spec) {
                Ok(session) => respond(&mut stream, 200, &SubmitResponse { session }),
                Err(e) => respond(
                    &mut stream,
                    400,
                    &ErrorResponse {
                        error: e.to_string(),
                    },
                ),
            },
            Err(e) => respond(
                &mut stream,
                400,
                &ErrorResponse {
                    error: format!("malformed scenario: {e}"),
                },
            ),
        },
        ("GET", ["v1", "sessions", id]) => {
            match id.parse::<u64>().ok().and_then(|i| daemon.status(i)) {
                Some(view) => respond(&mut stream, 200, &view),
                None => not_found(&mut stream),
            }
        }
        ("POST", ["v1", "sessions", id, verb @ ("pause" | "resume" | "cancel")]) => {
            let ok = id.parse::<u64>().is_ok_and(|i| match *verb {
                "pause" => daemon.pause(i),
                "resume" => daemon.resume(i),
                _ => daemon.cancel(i),
            });
            if ok {
                respond(&mut stream, 200, &OkResponse { ok: true })
            } else {
                not_found(&mut stream)
            }
        }
        ("GET", ["v1", "sessions", id, "events"]) => {
            let since = query_u64(query, "since").unwrap_or(0) as usize;
            let wait =
                Duration::from_millis(query_u64(query, "wait_ms").unwrap_or(0).min(MAX_WAIT_MS));
            match id
                .parse::<u64>()
                .ok()
                .and_then(|i| daemon.events_since(i, since, wait))
            {
                Some(events) => {
                    let next = since as u64 + events.len() as u64;
                    respond(&mut stream, 200, &EventsResponse { events, next })
                }
                None => not_found(&mut stream),
            }
        }
        ("GET", ["v1", "runs"]) => match daemon.runs(query_u64(query, "hash")) {
            Ok(runs) => respond(&mut stream, 200, &RunsResponse { runs }),
            Err(e) => respond(
                &mut stream,
                500,
                &ErrorResponse {
                    error: format!("store: {e}"),
                },
            ),
        },
        ("GET", ["v1", "cache"]) => respond(&mut stream, 200, &daemon.cache_stats()),
        ("POST", ["v1", "shutdown"]) => {
            let r = respond(&mut stream, 200, &OkResponse { ok: true });
            stop.store(true, Ordering::SeqCst);
            daemon.shutdown();
            // Unblock our own accept loop.
            if let Ok(addr) = stream.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            r
        }
        _ => not_found(&mut stream),
    }
}

/// Parse one request: `(method, path-with-query, body)`. The body is
/// allocated only once its declared length is known to be in bounds.
fn read_request(stream: &mut TcpStream) -> Result<(String, String, String), BadRequest> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut head = line.split_whitespace();
    let (method, path) = match (head.next(), head.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "malformed request line").into())
        }
    };
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(BadRequest::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
    Ok((method, path, body))
}

fn query_u64(query: &str, name: &str) -> Option<u64> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then(|| v.parse().ok()).flatten()
    })
}

fn respond<T: Serialize>(stream: &mut TcpStream, status: u16, body: &T) -> io::Result<()> {
    let body = serde_json::to_string(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn not_found(stream: &mut TcpStream) -> io::Result<()> {
    respond(
        stream,
        404,
        &ErrorResponse {
            error: "not found".into(),
        },
    )
}
