//! In-repo load generator: keep-alive client connections hammering the
//! query API, with latency percentiles and throughput.
//!
//! Two modes:
//!
//! * [`run_load`] — the closed-loop sweep: one thread per connection,
//!   each issuing a fixed request count. Right for small connection
//!   counts (the bench's latency sweeps).
//! * [`run_hold_load`] — the keep-alive *hold* mode: a bounded worker
//!   pool opens `connections` sockets, each worker its own share, and
//!   drives them, **holding every one of them open while it runs**.
//!   That separates "how many connections does the server hold" from
//!   "how many client threads exist", so a single machine can hold
//!   thousands of keep-alive connections against the reactor engine
//!   without spawning thousands of threads. The bench's `connections`
//!   axis in `BENCH_serve.json` is measured this way.
//!
//! The `serve_load` bench boots a real server and records this
//! generator's report to `BENCH_serve.json`; the CI smoke job and the
//! e2e tests use single requests instead. std-only, like the server.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::http::read_response;

/// What to throw at the server.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub requests_per_connection: usize,
    /// Target paths, cycled per request.
    pub targets: Vec<String>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 4,
            requests_per_connection: 250,
            targets: vec!["/v1/ixps".into(), "/healthz".into()],
        }
    }
}

/// Aggregate results of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests attempted.
    pub requests: usize,
    /// 2xx responses.
    pub ok: usize,
    /// 304 revalidations.
    pub not_modified: usize,
    /// Everything else (including transport errors).
    pub errors: usize,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Per-request latencies, sorted ascending (microseconds).
    pub latencies_us: Vec<u64>,
}

impl LoadReport {
    /// Requests per second over the run.
    pub fn rps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Latency at quantile `q` (0..=1), microseconds.
    pub fn latency_us(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let idx = ((self.latencies_us.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.latencies_us[idx]
    }
}

/// One keep-alive client: issue `n` requests cycling through `targets`,
/// recording per-request latency and status class. Every configured
/// request is accounted: whatever could not be attempted (failed
/// connect, broken connection mid-run) counts as both a request and an
/// error, so the merged report always sums to the configured load.
fn client(addr: SocketAddr, targets: &[String], n: usize, report: &mut LoadReport) {
    // Charge all requests from `from` onward as errors.
    let abort = |report: &mut LoadReport, from: usize| {
        report.requests += n - from;
        report.errors += n - from;
    };
    let Ok(stream) = TcpStream::connect(addr) else {
        return abort(report, 0);
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return abort(report, 0),
    };
    let mut reader = BufReader::new(stream);
    for i in 0..n {
        let target = &targets[i % targets.len()];
        let t0 = Instant::now();
        if write!(writer, "GET {target} HTTP/1.1\r\nHost: loadgen\r\n\r\n").is_err() {
            return abort(report, i);
        }
        match read_response(&mut reader) {
            Ok(parts) => {
                report.requests += 1;
                report.latencies_us.push(t0.elapsed().as_micros() as u64);
                match parts.status {
                    200..=299 => report.ok += 1,
                    304 => report.not_modified += 1,
                    _ => report.errors += 1,
                }
            }
            Err(_) => return abort(report, i),
        }
    }
}

/// Run the load: `connections` client threads in parallel, merged
/// report with sorted latencies.
pub fn run_load(addr: SocketAddr, cfg: &LoadConfig) -> LoadReport {
    let t0 = Instant::now();
    let reports: Vec<LoadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut r = LoadReport::default();
                    client(addr, &cfg.targets, cfg.requests_per_connection, &mut r);
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen client panicked"))
            .collect()
    });
    let mut merged = LoadReport {
        elapsed: t0.elapsed(),
        ..LoadReport::default()
    };
    for r in reports {
        merged.requests += r.requests;
        merged.ok += r.ok;
        merged.not_modified += r.not_modified;
        merged.errors += r.errors;
        merged.latencies_us.extend(r.latencies_us);
    }
    merged.latencies_us.sort_unstable();
    merged
}

/// What the keep-alive hold mode throws at the server.
#[derive(Debug, Clone)]
pub struct HoldConfig {
    /// Keep-alive connections held open while the workers run; each
    /// worker opens its share before its first request.
    pub connections: usize,
    /// Worker threads driving requests across the held connections.
    pub client_threads: usize,
    /// Total requests across the run (spread over the connections).
    pub requests_total: usize,
    /// Target paths, cycled per request.
    pub targets: Vec<String>,
}

impl Default for HoldConfig {
    fn default() -> Self {
        HoldConfig {
            connections: 256,
            client_threads: 8,
            requests_total: 20_000,
            targets: vec!["/v1/ixps".into(), "/healthz".into()],
        }
    }
}

/// Open one held connection, retrying briefly: under thousands of
/// near-simultaneous connects the kernel may transiently refuse.
fn connect_held(addr: SocketAddr) -> Option<TcpStream> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
                return Some(s);
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return None,
        }
    }
}

/// A held keep-alive connection: the write half and the buffered read
/// half of one socket.
type Held = (TcpStream, BufReader<TcpStream>);

/// One GET on a held connection: the response status, or `None` on a
/// transport error.
fn get_held(conn: &mut Held, target: &str) -> Option<u16> {
    let (writer, reader) = conn;
    write!(writer, "GET {target} HTTP/1.1\r\nHost: loadgen\r\n\r\n").ok()?;
    read_response(reader).ok().map(|parts| parts.status)
}

/// Open one held connection and confirm it with one request to
/// `target`, so the server has accepted it before the caller connects
/// again. A burst of unanswered connects overflows the listener's
/// accept queue while the server is busy, and the dropped ones stall
/// for a SYN retransmit (a second or more).
fn open_held(addr: SocketAddr, target: &str) -> Option<Held> {
    let s = connect_held(addr)?;
    let mut conn = (s.try_clone().ok()?, BufReader::new(s));
    matches!(get_held(&mut conn, target)?, 200..=299 | 304).then_some(conn)
}

/// Hold-mode run: `cfg.client_threads` workers each open their share
/// of `cfg.connections` keep-alive sockets, then round-robin requests
/// over that share. A worker holds every connection it opened until its
/// last response, so the server holds the full population while the
/// workers run — the point of the `connections` scaling axis.
///
/// A worker starts its requests as soon as its own share is open, so
/// no connection idles through the other workers' connects (a slow
/// connect phase would otherwise outlast the server's idle deadline).
/// Opening a connection includes one confirming request, which the
/// report does not count: it proves the server accepted the connection
/// before the worker connects again. The wall clock runs from the first
/// counted request to the last response: the report measures
/// keep-alive throughput, not connect storms.
pub fn run_hold_load(addr: SocketAddr, cfg: &HoldConfig) -> LoadReport {
    let connections = cfg.connections.max(1);
    let threads = cfg.client_threads.max(1).min(connections);
    // Room for held sockets on the client side too (the soft NOFILE
    // default of 1024 is below the interesting sweep points).
    #[cfg(target_os = "linux")]
    let _ = polling::os::raise_nofile_limit(connections as u64 * 2 + 64);

    // One contiguous share of the connections per worker; each worker
    // cycles its share so every connection sees traffic.
    let per_thread = connections.div_ceil(threads);
    let requests_each = cfg.requests_total / threads;
    let workers: Vec<(LoadReport, Option<(Instant, Instant)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .step_by(per_thread)
            .map(|start| {
                let share = per_thread.min(connections - start);
                let targets = &cfg.targets;
                scope.spawn(move || {
                    let mut report = LoadReport::default();
                    let mut chunk: Vec<Held> = Vec::with_capacity(share);
                    for _ in 0..share {
                        match open_held(addr, &targets[0]) {
                            Some(conn) => chunk.push(conn),
                            None => {
                                report.requests += 1;
                                report.errors += 1;
                            }
                        }
                    }
                    if chunk.is_empty() {
                        return (report, None);
                    }
                    let first = Instant::now();
                    for i in 0..requests_each {
                        let slot = i % chunk.len();
                        let target = &targets[i % targets.len()];
                        let t0 = Instant::now();
                        report.requests += 1;
                        match get_held(&mut chunk[slot], target) {
                            Some(status) => {
                                report.latencies_us.push(t0.elapsed().as_micros() as u64);
                                match status {
                                    200..=299 => report.ok += 1,
                                    304 => report.not_modified += 1,
                                    _ => report.errors += 1,
                                }
                            }
                            None => report.errors += 1,
                        }
                    }
                    // `chunk` drops here: connections stay open (held)
                    // until this worker's last response.
                    (report, Some((first, Instant::now())))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hold-load worker panicked"))
            .collect()
    });
    let first = workers
        .iter()
        .filter_map(|(_, span)| span.map(|s| s.0))
        .min();
    let last = workers
        .iter()
        .filter_map(|(_, span)| span.map(|s| s.1))
        .max();
    let mut merged = LoadReport {
        elapsed: first.zip(last).map_or(Duration::ZERO, |(f, l)| l - f),
        ..LoadReport::default()
    };
    for (r, _) in workers {
        merged.requests += r.requests;
        merged.ok += r.ok;
        merged.not_modified += r.not_modified;
        merged.errors += r.errors;
        merged.latencies_us.extend(r.latencies_us);
    }
    merged.latencies_us.sort_unstable();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_empty_and_sorted_reports() {
        let mut r = LoadReport::default();
        assert_eq!(r.latency_us(0.5), 0);
        r.latencies_us = vec![10, 20, 30, 40, 50];
        r.requests = 5;
        r.elapsed = Duration::from_secs(1);
        assert_eq!(r.latency_us(0.0), 10);
        assert_eq!(r.latency_us(0.5), 30);
        assert_eq!(r.latency_us(1.0), 50);
        assert!((r.rps() - 5.0).abs() < 1e-9);
    }
}
