//! Open-loop HTTP load generator: one thread, a few pipelined keep-alive
//! connections, sends on a fixed schedule whether or not earlier answers
//! arrived.
//!
//! Request `i` is due at `start + i / rate` and goes out on connection
//! `i % CONNS`. Its latency is charged from that scheduled time, so a
//! server stall also delays every request scheduled behind it instead of
//! silently slowing the generator down. How late the generator itself
//! handed each request to the socket is recorded as well: a rate point
//! whose generator fell behind is not a valid measurement of the server.

use crate::stats::Samples;
use crate::ANSWER_K;
use openea_runtime::json::{self, Json};
use openea_serve::Answer;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Sends per latency window: the fewest that give a p99 with ten samples
/// beyond it.
pub const WINDOW: usize = 1000;

/// Lateness (µs, p99) above which a rate point is invalid: a tenth of the
/// knee's p99 limit.
pub const MAX_LATE_P99_US: f64 = 5_000.0;

/// One request's fate.
#[derive(Clone, Debug)]
pub struct Record {
    pub entity: u32,
    /// Scheduled send time, µs after the run's epoch.
    pub due_us: u64,
    /// When the generator queued it on the socket, µs after the epoch.
    pub sent_us: u64,
    /// When its full response arrived; `None` if it never did.
    pub done_us: Option<u64>,
    /// HTTP status; 0 when unanswered.
    pub status: u16,
    /// The `generation` the answer carries, if any.
    pub generation: Option<u64>,
    /// The raw response body, kept only for requests the caller samples.
    pub body: Option<Vec<u8>>,
}

impl Record {
    /// Latency charged from the scheduled send time.
    pub fn latency_us(&self) -> Option<u64> {
        self.done_us.map(|d| d.saturating_sub(self.due_us))
    }

    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// Keep-alive connections per run: one per core of a 2-core host, and
/// never more than `nproc` on the hosts this benchmark targets.
pub const CONNS: usize = 2;

/// Shape of one open-loop run.
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    pub rate_qps: f64,
    /// Upper bound on the sending window.
    pub duration: Duration,
    /// How long to wait for outstanding answers after sending stops.
    pub grace: Duration,
}

pub struct LoadResult {
    pub records: Vec<Record>,
    /// Connections that failed (reset, refused, closed early).
    pub conn_errors: usize,
}

impl LoadResult {
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.ok()).count()
    }

    /// Requests that got no 200: shed, errored or unanswered at grace.
    pub fn failed(&self) -> usize {
        self.records.len() - self.completed()
    }

    /// Latencies (µs) of the answered 200s.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.ok())
            .filter_map(Record::latency_us)
            .map(|v| v as f64)
            .collect()
    }

    /// Latencies of back-to-back windows of `size` sends each (a partial
    /// last window is dropped), for medians over windows.
    pub fn windows(&self, size: usize) -> Vec<Samples> {
        self.records
            .chunks(size)
            .filter(|w| w.len() == size)
            .map(|w| {
                Samples::new(
                    w.iter()
                        .filter(|r| r.ok())
                        .filter_map(Record::latency_us)
                        .map(|v| v as f64)
                        .collect(),
                )
            })
            .collect()
    }

    /// Generator lateness (µs) of every request sent.
    pub fn lateness_us(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.sent_us.saturating_sub(r.due_us) as f64)
            .collect()
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    /// Indices into the record list, in send order.
    inflight: VecDeque<usize>,
    dead: bool,
}

/// Drives `spec` against `addr`. `entity(i)` picks request `i`'s query
/// entity; `keep_body(i)` says whether to keep its raw body; `on_answer`
/// sees every record as its response completes; the run stops sending
/// early once `stop()` returns true. Times are µs after `epoch`.
pub fn run(
    addr: SocketAddr,
    spec: &LoadSpec,
    epoch: Instant,
    mut entity: impl FnMut(u64) -> u32,
    keep_body: impl Fn(u64) -> bool,
    mut on_answer: impl FnMut(&Record),
    stop: impl Fn() -> bool,
) -> LoadResult {
    let now_us = || epoch.elapsed().as_micros() as u64;
    let mut pool: Vec<Conn> = Vec::with_capacity(CONNS);
    let mut conn_errors = 0usize;
    for _ in 0..CONNS {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                stream
                    .set_nonblocking(true)
                    .expect("set a connected socket nonblocking");
                pool.push(Conn {
                    stream,
                    out: Vec::new(),
                    written: 0,
                    inbuf: Vec::new(),
                    inflight: VecDeque::new(),
                    dead: false,
                });
            }
            Err(_) => conn_errors += 1,
        }
    }
    let mut records: Vec<Record> = Vec::new();
    if pool.is_empty() {
        return LoadResult {
            records,
            conn_errors,
        };
    }
    let interval_us = 1e6 / spec.rate_qps.max(1e-3);
    let start_us = now_us();
    let end_us = start_us + spec.duration.as_micros() as u64;
    let mut sending_until = end_us;
    let mut next: u64 = 0;
    let mut chunk = vec![0u8; 64 * 1024];

    loop {
        let now = now_us();
        if sending_until > now && stop() {
            sending_until = now;
        }
        let mut busy = false;
        // Every request scheduled before the window closes goes out, late
        // if the generator fell behind.
        loop {
            let due = start_us + (next as f64 * interval_us) as u64;
            if due > now || due >= sending_until {
                break;
            }
            let c = (next as usize) % pool.len();
            let e = entity(next);
            let conn = &mut pool[c];
            let idx = records.len();
            records.push(Record {
                entity: e,
                due_us: due,
                sent_us: now_us(),
                done_us: None,
                status: 0,
                generation: None,
                body: keep_body(next).then(Vec::new),
            });
            next += 1;
            if conn.dead {
                continue;
            }
            conn.out.extend_from_slice(
                format!("GET /align?entity={e}&k={ANSWER_K} HTTP/1.1\r\nHost: eabench\r\n\r\n")
                    .as_bytes(),
            );
            conn.inflight.push_back(idx);
            busy = true;
        }
        let next_due = start_us + (next as f64 * interval_us) as u64;
        let sending = next_due < sending_until;
        for conn in pool.iter_mut().filter(|c| !c.dead) {
            if flush(conn).is_err() {
                kill(conn, &mut conn_errors);
                continue;
            }
            match read_some(conn, &mut chunk) {
                Ok(n) => busy |= n > 0,
                Err(()) => {
                    kill(conn, &mut conn_errors);
                    continue;
                }
            }
            let done = now_us();
            while let Some(resp) = pop_response(&mut conn.inbuf) {
                let Some(idx) = conn.inflight.pop_front() else {
                    // An answer nobody asked for: the stream is corrupt.
                    kill(conn, &mut conn_errors);
                    break;
                };
                let rec = &mut records[idx];
                rec.done_us = Some(done);
                rec.status = resp.status;
                rec.generation = find_generation(&resp.body);
                if rec.body.is_some() {
                    rec.body = Some(resp.body);
                }
                on_answer(rec);
            }
        }
        let outstanding: usize = pool.iter().map(|c| c.inflight.len()).sum();
        let now = now_us();
        if !sending && (outstanding == 0 || now >= sending_until + spec.grace.as_micros() as u64) {
            break;
        }
        if !busy {
            let wait = if sending {
                next_due.saturating_sub(now).min(200)
            } else {
                200
            };
            if wait > 0 {
                std::thread::sleep(Duration::from_micros(wait));
            }
        }
    }
    LoadResult {
        records,
        conn_errors,
    }
}

fn kill(conn: &mut Conn, errors: &mut usize) {
    if !conn.dead {
        conn.dead = true;
        conn.inflight.clear();
        *errors += 1;
    }
}

fn flush(conn: &mut Conn) -> Result<(), ()> {
    while conn.written < conn.out.len() {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => return Err(()),
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    conn.out.clear();
    conn.written = 0;
    Ok(())
}

/// Reads what is available; the byte count, or `Err` on EOF or error.
fn read_some(conn: &mut Conn, chunk: &mut [u8]) -> Result<usize, ()> {
    let mut total = 0;
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => return Err(()),
            Ok(n) => {
                conn.inbuf.extend_from_slice(&chunk[..n]);
                total += n;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(total),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
}

/// A complete response popped off a connection's input buffer.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Pops one complete `head + Content-Length body` response, if buffered.
pub fn pop_response(buf: &mut Vec<u8>) -> Option<Response> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()?
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body_len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    let total = head_end + 4 + body_len;
    if buf.len() < total {
        return None;
    }
    let body = buf[head_end + 4..total].to_vec();
    buf.drain(..total);
    Some(Response { status, body })
}

/// The `"generation": "0x…"` field of an answer body, without a full
/// JSON parse (the generator must stay cheap per response).
pub fn find_generation(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"generation\"";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let rest = &body[at..];
    let hex_at = rest.windows(2).position(|w| w == b"0x")? + 2;
    let hex: Vec<u8> = rest[hex_at..]
        .iter()
        .copied()
        .take_while(u8::is_ascii_hexdigit)
        .collect();
    u64::from_str_radix(std::str::from_utf8(&hex).ok()?, 16).ok()
}

/// One blocking keep-alive GET, for control-plane calls (`/stats`).
pub fn get(stream: &mut TcpStream, path: &str) -> Result<Response, String> {
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: eabench\r\n\r\n").as_bytes())
        .map_err(|e| format!("write {path}: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(r) = pop_response(&mut buf) {
            return Ok(r);
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read {path}: {e}"))?;
        if n == 0 {
            return Err(format!("{path}: connection closed"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// The server's `/stats` document, over a fresh connection.
pub fn fetch_stats(addr: SocketAddr) -> Result<Json, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect /stats: {e}"))?;
    let resp = get(&mut stream, "/stats")?;
    if resp.status != 200 {
        return Err(format!("/stats answered {}", resp.status));
    }
    let text = String::from_utf8(resp.body).map_err(|_| "/stats body is not utf-8")?;
    json::parse(&text).map_err(|e| format!("/stats json: {e}"))
}

/// A numeric `/stats` field by path, 0 when absent.
pub fn stat(doc: &Json, path: &[&str]) -> f64 {
    let mut at = doc;
    for key in path {
        match at.get(key) {
            Some(v) => at = v,
            None => return 0.0,
        }
    }
    at.as_f64().unwrap_or(0.0)
}

/// The `(target, score)` rows of an `/align` answer body.
pub fn answer_rows(body: &[u8]) -> Option<Answer> {
    let doc = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get("results")?
        .as_array()?
        .iter()
        .map(|r| {
            let target = r.get("target")?.as_f64()? as u32;
            let score = r.get("score")?.as_f64()? as f32;
            Some((target, score))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_responses_pop_in_order() {
        let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nab\
HTTP/1.1 503 Service Unavailable\r\ncontent-length: 3\r\n\r\nxy"
            .to_vec();
        let a = pop_response(&mut buf).unwrap();
        assert_eq!((a.status, a.body.as_slice()), (200, &b"ab"[..]));
        assert!(pop_response(&mut buf).is_none(), "second body incomplete");
        buf.push(b'z');
        let b = pop_response(&mut buf).unwrap();
        assert_eq!((b.status, b.body.as_slice()), (503, &b"xyz"[..]));
        assert!(buf.is_empty());
    }

    #[test]
    fn generation_is_read_from_a_pretty_body() {
        let body = b"{\n  \"entity\": 3,\n  \"generation\": \"0x00000000000000ff\",\n}";
        assert_eq!(find_generation(body), Some(255));
        assert_eq!(find_generation(b"{\"k\": 1}"), None);
    }
}
