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
//! the typed builder error's message, or naming a key the scenario does
//! not know ([`ScenarioSpec::from_json`]), and so does a `since`, `wait_ms`
//! or `hash` query parameter that is present but not an unsigned integer
//! (an absent one takes its default); unknown sessions are 404; a body
//! declared larger than [`MAX_BODY_BYTES`] is refused with 413 before any
//! of it is read; a request line or header longer than 8 KiB, or more
//! than 100 headers, is refused with 431 as soon as the limit is crossed;
//! a request not fully read within 30 s of its connection's accept gets
//! 408, however steadily its bytes trickle in.

use crate::daemon::Daemon;
use crate::wire::{ErrorResponse, EventsResponse, OkResponse, RunsResponse, SubmitResponse};
use overlap_core::ScenarioSpec;
use serde::Serialize;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest long-poll wait a client may request.
const MAX_WAIT_MS: u64 = 30_000;

/// Largest request body the server will allocate for. Far above any real
/// scenario; a larger `Content-Length` is answered with 413 unread.
pub const MAX_BODY_BYTES: usize = 16 << 20;

/// Longest request line or header line the server reads, line ending
/// included.
const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines one request may carry.
const MAX_HEADERS: usize = 100;

/// Time from accept within which the whole request must have been read.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// Why a request could not be read.
enum BadRequest {
    /// The declared `Content-Length` exceeds [`MAX_BODY_BYTES`].
    TooLarge(usize),
    /// A line or the header count crossed its limit (the message names it).
    HeadersTooLarge(String),
    /// The request was not complete by its deadline.
    TimedOut,
    /// Malformed request line, header, or body.
    Malformed(io::Error),
}

impl From<io::Error> for BadRequest {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            // What a socket read past its timeout reports, by platform.
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => BadRequest::TimedOut,
            _ => BadRequest::Malformed(e),
        }
    }
}

/// A connection read under one overall deadline: each read may wait only
/// for the time left, so a client cannot stretch a request by trickling
/// bytes.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
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
                let deadline = Instant::now() + REQUEST_DEADLINE;
                let daemon = Arc::clone(&daemon);
                let stop = Arc::clone(&loop_stop);
                let _ = std::thread::Builder::new()
                    .name("overlap-daemon-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, deadline, &daemon, &stop);
                    });
            }
        })?;
    Ok(Server {
        addr,
        stop,
        accept: Some(accept),
    })
}

fn handle_connection(
    mut stream: TcpStream,
    deadline: Instant,
    daemon: &Daemon,
    stop: &AtomicBool,
) -> io::Result<()> {
    let (method, path, body) = match read_request(&stream, deadline) {
        Ok(req) => req,
        Err(BadRequest::TimedOut) => {
            let secs = REQUEST_DEADLINE.as_secs();
            let error = format!("request timeout: not read within {secs} s");
            return fail(&mut stream, 408, error);
        }
        Err(BadRequest::TooLarge(len)) => {
            let error = format!("payload too large: {len} bytes (limit {MAX_BODY_BYTES})");
            return fail(&mut stream, 413, error);
        }
        Err(BadRequest::HeadersTooLarge(error)) => {
            fail(&mut stream, 431, error)?;
            // Drain what the client is still sending (for at most a
            // second), so closing with unread bytes does not reset the
            // connection before the client has read the answer.
            stream.shutdown(std::net::Shutdown::Write)?;
            let rest = DeadlineReader {
                stream: &stream,
                deadline: Instant::now() + Duration::from_secs(1),
            };
            let _ = io::copy(&mut rest.take(MAX_BODY_BYTES as u64), &mut io::sink());
            return Ok(());
        }
        Err(BadRequest::Malformed(e)) => {
            return fail(&mut stream, 400, format!("bad request: {e}"))
        }
    };
    let (raw_path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path.as_str(), ""),
    };
    let parts: Vec<&str> = raw_path.trim_matches('/').split('/').collect();
    match (method.as_str(), parts.as_slice()) {
        ("POST", ["v1", "scenarios"]) => match ScenarioSpec::from_json(&body) {
            Ok(spec) => match daemon.submit(spec) {
                Ok(session) => respond(&mut stream, 200, &SubmitResponse { session }),
                Err(e) => fail(&mut stream, 400, e.to_string()),
            },
            Err(e) => fail(&mut stream, 400, format!("malformed scenario: {e}")),
        },
        ("GET", ["v1", "sessions", id]) => {
            match id.parse::<u64>().ok().and_then(|i| daemon.status(i)) {
                Some(view) => respond(&mut stream, 200, &view),
                None => fail(&mut stream, 404, "not found".into()),
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
                fail(&mut stream, 404, "not found".into())
            }
        }
        ("GET", ["v1", "sessions", id, "events"]) => {
            let (since, wait_ms) = match (query_u64(query, "since"), query_u64(query, "wait_ms")) {
                (Ok(since), Ok(wait_ms)) => (since.unwrap_or(0) as usize, wait_ms.unwrap_or(0)),
                (Err(error), _) | (_, Err(error)) => return fail(&mut stream, 400, error),
            };
            let wait = Duration::from_millis(wait_ms.min(MAX_WAIT_MS));
            match id
                .parse::<u64>()
                .ok()
                .and_then(|i| daemon.events_since(i, since, wait))
            {
                Some(events) => {
                    let next = since as u64 + events.len() as u64;
                    respond(&mut stream, 200, &EventsResponse { events, next })
                }
                None => fail(&mut stream, 404, "not found".into()),
            }
        }
        ("GET", ["v1", "runs"]) => match query_u64(query, "hash") {
            Err(error) => fail(&mut stream, 400, error),
            Ok(hash) => match daemon.runs(hash) {
                Ok(runs) => respond(&mut stream, 200, &RunsResponse { runs }),
                Err(e) => fail(&mut stream, 500, format!("store: {e}")),
            },
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
        _ => fail(&mut stream, 404, "not found".into()),
    }
}

/// Read one line of at most [`MAX_LINE_BYTES`] into `line`.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut String) -> Result<(), BadRequest> {
    let n = reader.take(MAX_LINE_BYTES as u64).read_line(line)?;
    if n == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(BadRequest::HeadersTooLarge(format!(
            "request header fields too large: a line exceeds {MAX_LINE_BYTES} bytes"
        )));
    }
    Ok(())
}

/// Parse one request, all of it read by `deadline`: `(method,
/// path-with-query, body)`. Lines and the header count are bounded as
/// they are read, and the body is allocated only once its declared length
/// is known to be in bounds.
fn read_request(
    stream: &TcpStream,
    deadline: Instant,
) -> Result<(String, String, String), BadRequest> {
    let mut reader = BufReader::new(DeadlineReader { stream, deadline });
    let mut line = String::new();
    read_bounded_line(&mut reader, &mut line)?;
    let mut head = line.split_whitespace();
    let (method, path) = match (head.next(), head.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "malformed request line").into())
        }
    };
    let mut content_length = 0usize;
    for count in 0.. {
        let mut header = String::new();
        read_bounded_line(&mut reader, &mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if count == MAX_HEADERS {
            return Err(BadRequest::HeadersTooLarge(format!(
                "request header fields too large: more than {MAX_HEADERS} headers"
            )));
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

/// Query parameter `name`: `Ok(None)` when absent, and an error naming
/// it when present (with or without `=`) but not a `u64`, so a mistyped
/// filter is refused rather than read as no filter.
fn query_u64(query: &str, name: &str) -> Result<Option<u64>, String> {
    let Some(value) = query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == name).then_some(v)
    }) else {
        return Ok(None);
    };
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("bad query parameter {name}: '{value}' is not an unsigned integer"))
}

fn respond<T: Serialize>(stream: &mut TcpStream, status: u16, body: &T) -> io::Result<()> {
    let body = serde_json::to_string(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Answer `status` with `{"error": error}`.
fn fail(stream: &mut TcpStream, status: u16, error: String) -> io::Result<()> {
    respond(stream, status, &ErrorResponse { error })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected `(client, server)` socket pair on loopback.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    /// A client that trickles one byte every 20 ms never lets a single
    /// read wait long, and one that sends a few bytes and then goes silent
    /// blocks a read; either way the request as a whole runs out of time
    /// at its deadline.
    #[test]
    fn a_trickled_or_stalled_request_times_out_at_its_deadline() {
        let request = b"GET /v1/cache HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
        // All of it still trickling at the deadline, or 5 bytes and silence.
        for sent in [request.len(), 5] {
            let (mut client, server) = pair();
            let (done, wait_done) = std::sync::mpsc::channel::<()>();
            let trickle = std::thread::spawn(move || {
                for b in &request[..sent] {
                    if client.write_all(&[*b]).is_err() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                // Hold the connection open, silent, until the server gives up.
                let _ = wait_done.recv();
            });
            let start = Instant::now();
            let read = read_request(&server, start + Duration::from_millis(200));
            let took = start.elapsed();
            assert!(
                matches!(read, Err(BadRequest::TimedOut)),
                "{sent} bytes sent"
            );
            assert!(
                took >= Duration::from_millis(200) && took < Duration::from_secs(2),
                "{sent} bytes sent: timed out after {took:?}"
            );
            drop(server);
            let _ = done.send(());
            trickle.join().unwrap();
        }
    }

    #[test]
    fn query_parameters_are_u64_or_absent() {
        assert_eq!(query_u64("", "hash"), Ok(None));
        assert_eq!(query_u64("since=3&wait_ms=50", "hash"), Ok(None));
        assert_eq!(query_u64("since=3&wait_ms=50", "since"), Ok(Some(3)));
        assert_eq!(query_u64("since=3&wait_ms=50", "wait_ms"), Ok(Some(50)));
        assert_eq!(
            query_u64("hash=18446744073709551615", "hash"),
            Ok(Some(u64::MAX))
        );
        for (query, name) in [
            ("hash=zz", "hash"),
            ("hash=", "hash"),
            ("hash", "hash"),
            ("hash=-1", "hash"),
            ("since=x", "since"),
            ("since=1&wait_ms=1.5", "wait_ms"),
        ] {
            let err = query_u64(query, name).unwrap_err();
            assert!(
                err.contains(&format!("bad query parameter {name}")),
                "{query}: {err}"
            );
        }
    }

    #[test]
    fn a_request_complete_before_its_deadline_is_read() {
        let (mut client, server) = pair();
        client
            .write_all(b"POST /v1/scenarios HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap();
        let Ok((method, path, body)) =
            read_request(&server, Instant::now() + Duration::from_secs(10))
        else {
            panic!("a complete request must parse");
        };
        assert_eq!(
            (method.as_str(), path.as_str(), body.as_str()),
            ("POST", "/v1/scenarios", "{}")
        );
    }
}
