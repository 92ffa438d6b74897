//! The handle and shared counters of a running server.
//!
//! [`crate::reactor::spawn_reactor`] starts the serve thread and
//! returns a [`ServerHandle`]: the bound address, the [`ServerStats`]
//! and [`crate::reactor::ReactorStats`] counters that `/v1/stats`
//! reports, and the stop, drain and join controls.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shared server counters, surfaced by `/v1/stats` and `/healthz`.
#[derive(Debug)]
pub struct ServerStats {
    requests: AtomicU64,
    not_modified: AtomicU64,
    client_errors: AtomicU64,
    started: Instant,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            requests: AtomicU64::new(0),
            not_modified: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            started: Instant::now(),
        }
    }
}

impl ServerStats {
    /// Requests routed since boot.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// 304 revalidations served.
    pub fn not_modified(&self) -> u64 {
        self.not_modified.load(Ordering::Relaxed)
    }

    /// 4xx responses served.
    pub fn client_errors(&self) -> u64 {
        self.client_errors.load(Ordering::Relaxed)
    }

    /// Milliseconds since boot.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Count one routed request (called right after a head parses,
    /// before routing).
    pub(crate) fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one malformed request (the parse-failure 400 path).
    pub(crate) fn record_client_error(&self) {
        self.client_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running server with its bound address, stats, and a shutdown
/// handle.
pub struct ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub addr: SocketAddr,
    /// Shared counters.
    pub stats: Arc<ServerStats>,
    /// Reactor counters: connections, wakeups, admission.
    pub reactor_stats: Arc<crate::reactor::ReactorStats>,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// The served store's health registry — the drain flag lives here
    /// so `/readyz` and the reactor see the same state.
    pub(crate) health: Arc<crate::health::HealthState>,
    /// The reactor thread, until joined.
    pub(crate) thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Ask the serve thread to exit and join it. Idempotent.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Wake the poller with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.join();
    }

    /// Graceful drain: flip the health registry's drain flag (so
    /// `/readyz` answers `draining` and the listeners stop accepting),
    /// let in-flight requests finish — the reactor pushes a terminal
    /// `shutdown` SSE event, completes parked long-polls and closes
    /// idle keep-alive connections; grace is bounded by
    /// [`crate::reactor::ReactorConfig::drain_grace`] — and join the
    /// serve thread. Idempotent.
    pub fn drain(&mut self) {
        self.health.set_draining();
        // Wake the poller.
        let _ = TcpStream::connect(self.addr);
        self.join();
    }

    /// True once the serve thread has exited — lets a supervisor poll
    /// for liveness without consuming the handle.
    pub fn is_finished(&self) -> bool {
        self.thread.as_ref().is_none_or(|t| t.is_finished())
    }

    /// Block until the server exits (Ctrl-C for the binary).
    pub fn join(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bump the post-route counters for one response, so `/v1/stats`'s
/// server section counts every status class.
pub(crate) fn count_response(stats: &ServerStats, status: u16) {
    match status {
        304 => {
            stats.not_modified.fetch_add(1, Ordering::Relaxed);
        }
        400..=499 => {
            stats.client_errors.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{spawn_reactor, ReactorConfig};
    use crate::snapshot::Snapshot;
    use std::io::{BufReader, Write};

    fn tiny_snapshot(members: u32) -> Snapshot {
        crate::testutil::snapshot_with(members, u64::from(members))
    }

    #[test]
    fn refresh_is_visible_between_requests_on_one_connection() {
        let store = crate::store::SnapshotStore::new(tiny_snapshot(2));
        let mut server =
            spawn_reactor(Arc::clone(&store), "127.0.0.1:0", ReactorConfig::default()).unwrap();
        let s = TcpStream::connect(server.addr).unwrap();
        let mut writer = s.try_clone().unwrap();
        let mut reader = BufReader::new(s);
        let read_one = |reader: &mut BufReader<TcpStream>| {
            let parts = crate::http::read_response(reader).unwrap();
            String::from_utf8(parts.body).unwrap()
        };
        write!(writer, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let first = read_one(&mut reader);
        assert!(first.contains("\"epoch\": 0"));
        store.publish(tiny_snapshot(4));
        write!(writer, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let second = read_one(&mut reader);
        assert!(
            second.contains("\"epoch\": 1"),
            "same connection sees the new epoch: {second}"
        );
        server.stop();
    }
}
