//! The nonblocking reactor serve front end: one epoll event loop,
//! per-connection state machines, zero-copy vectored writes.
//!
//! A single thread drives thousands of nonblocking connections through
//! a [`polling::Poller`] (epoll on Linux, `poll(2)` fallback), and a
//! connection costs only its buffers while idle, so idle keep-alive
//! connections pin no thread.
//!
//! Per-connection state machine (one `Conn` per socket):
//!
//! ```text
//!            ┌────────────────────────────────────────────┐
//!            v                                            │
//! accept → Http ──parse head──> route ──queue──> flush ───┘ (keep-alive)
//!            │                    │                │
//!            │ idle deadline      │ /v1/changes    │ partial write:
//!            v                    v                v WRITE interest,
//!          408 + close      LongPoll / Sse      resume on writable
//!                                 │
//!                  publish_with_delta wakes (self-pipe)
//!                                 v
//!                  long-poll: respond + back to Http
//!                  SSE: push `changes` frame (or `resync` + close)
//! ```
//!
//! **Zero-copy hot path:** responses are written with
//! `write_vectored` (`writev`) as two slices — the rendered head and
//! the body. A cache-hit body is a [`crate::cache::CacheSlice`] pinned
//! by its `Arc<Snapshot>`, so cached 200s go from the publish-time
//! render straight to the socket without ever being copied, including
//! across partial-write continuations.
//!
//! **Push delivery:** `GET /v1/changes?since=N` gains two variants.
//! With `Accept: text/event-stream` the connection becomes an SSE
//! stream: an immediate catch-up `changes` event, then one event per
//! published epoch (or a terminal `resync` event when `since` fell off
//! the delta ring). With `&wait=1` the request long-polls: it answers
//! immediately when `since` is behind, otherwise parks until the next
//! publish (or answers an empty delta at the idle deadline). The
//! store's publish hook writes one byte down the loop's self-pipe;
//! the delta JSON is rendered **once per distinct `since`** and fanned
//! out to every subscriber as a shared slice.
//!
//! **Robustness:** per-connection read deadline (idle keep-alive
//! connections draw a 408 and close, so a slowloris client cannot pin
//! memory) and a connection cap with accept backpressure (the
//! listener is deregistered at the cap and re-registered when a slot
//! frees; excess clients wait in the kernel backlog).
//!
//! Counters are surfaced under `/v1/stats` (see [`ReactorStats`]).

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polling::{Event, Interest, Poller};

use crate::api;
use crate::delta::ChangeLog;
use crate::durable::DurableStore;
use crate::http::{parse_head, Body, Request, Response, MAX_HEAD};
use crate::server::{count_response, ServerHandle, ServerStats};
use crate::snapshot::Snapshot;
use crate::store::SnapshotStore;

pub use polling::BackendKind;

/// Poller key of the listener.
const KEY_LISTENER: usize = 0;
/// Poller key of the publish-wake pipe.
const KEY_WAKE: usize = 1;
/// First poller key used for connections (`slab index + KEY_CONN0`).
const KEY_CONN0: usize = 2;

/// How long a poller wait may block before the loop re-checks shutdown
/// and deadlines.
const WAIT_TIMEOUT: Duration = Duration::from_millis(250);

/// How often the deadline scan walks the connection slab.
const SCAN_INTERVAL: Duration = Duration::from_millis(100);

/// The head of an SSE stream response (no `Content-Length`: the stream
/// frames itself and lives until either side closes).
const SSE_HEAD: &[u8] = b"HTTP/1.1 200 OK\r\n\
Content-Type: text/event-stream\r\n\
Cache-Control: no-cache\r\n\
Connection: keep-alive\r\n\r\n";

/// Reactor engine knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Maximum open connections; beyond it the listener is paused and
    /// new clients wait in the kernel backlog.
    pub max_conns: usize,
    /// Read deadline for idle keep-alive connections (408 + close) and
    /// the wait cap for parked long-polls (empty delta).
    pub idle: Duration,
    /// Which poller backend to run on (epoll on Linux by default; the
    /// `poll(2)` fallback is selectable for tests and portability).
    pub backend: BackendKind,
    /// Test hook: shrink accepted sockets' send buffers to force
    /// partial writes deterministically.
    pub sndbuf: Option<usize>,
    /// In-flight response cap. At the cap a new request is shed with a
    /// pre-rendered 503 + `Retry-After` instead of being routed —
    /// overload control that keeps latency bounded for the requests
    /// already admitted.
    pub admission: usize,
    /// How long a graceful drain lets in-flight work finish before the
    /// event loop exits anyway (`--drain-ms`).
    pub drain_grace: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_conns: 8192,
            idle: Duration::from_secs(10),
            #[cfg(target_os = "linux")]
            backend: BackendKind::Epoll,
            #[cfg(not(target_os = "linux"))]
            backend: BackendKind::Poll,
            sndbuf: None,
            admission: 65_536,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// Reactor counters (all monotone except `open` and
/// `sse_subscribers`, which track current population), surfaced under
/// `/v1/stats` next to the server and body-cache counters.
#[derive(Debug, Default)]
pub struct ReactorStats {
    accepted: AtomicU64,
    open: AtomicU64,
    wakeups: AtomicU64,
    writev_continuations: AtomicU64,
    sse_subscribers: AtomicU64,
    idle_timeouts: AtomicU64,
    /// Admitted responses queued but not yet fully on the wire — what
    /// the admission cap counts.
    inflight: AtomicU64,
    shed: AtomicU64,
}

impl ReactorStats {
    /// Connections accepted since boot.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    pub fn open(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Poller wait returns (readiness or timeout) since boot.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// Partial writes left pending for a writability continuation.
    pub fn writev_continuations(&self) -> u64 {
        self.writev_continuations.load(Ordering::Relaxed)
    }

    /// SSE subscriber connections currently parked.
    pub fn sse_subscribers(&self) -> u64 {
        self.sse_subscribers.load(Ordering::Relaxed)
    }

    /// Idle keep-alive connections closed with a 408.
    pub fn idle_timeouts(&self) -> u64 {
        self.idle_timeouts.load(Ordering::Relaxed)
    }

    /// Admitted responses currently in flight (queued, not yet fully
    /// written).
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Requests shed with a 503 at the admission cap.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// What a connection is currently doing.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Plain HTTP request/response keep-alive.
    Http,
    /// Parked `GET /v1/changes?since=N&wait=1`: responds on the next
    /// publish or at the idle deadline.
    LongPoll { since: u64, keep_alive: bool },
    /// An SSE subscriber; `last_epoch` is the newest epoch already
    /// pushed to it.
    Sse { last_epoch: u64 },
}

/// One queued response segment: rendered head bytes plus a body that
/// may be a shared (zero-copy) slice. `written` counts bytes of
/// `head + body` already on the wire — the partial-write continuation
/// state.
struct OutBuf {
    head: Vec<u8>,
    body: Body,
    written: usize,
    /// Does this segment hold an in-flight admission slot? Set for
    /// routed responses (see [`Shard::queue_response`]); the slot is
    /// released when the segment fully flushes or its connection dies.
    counted: bool,
}

impl OutBuf {
    fn response(resp: Response, keep_alive: bool) -> OutBuf {
        OutBuf {
            head: resp.head_bytes(keep_alive),
            body: resp.body,
            written: 0,
            counted: false,
        }
    }

    fn raw(bytes: Vec<u8>) -> OutBuf {
        OutBuf {
            head: bytes,
            body: Body::Owned(Vec::new()),
            written: 0,
            counted: false,
        }
    }

    fn shared(bytes: &Arc<Vec<u8>>) -> OutBuf {
        OutBuf {
            head: Vec::new(),
            body: Body::Shared(Arc::clone(bytes) as Arc<dyn AsRef<[u8]> + Send + Sync>),
            written: 0,
            counted: false,
        }
    }
}

/// One nonblocking connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes (bounded by [`MAX_HEAD`]).
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched for the blank line that
    /// ends a head, so each read scans only what it added.
    scanned: usize,
    /// Responses queued for the wire, in request order.
    out: VecDeque<OutBuf>,
    last_activity: Instant,
    /// When the first byte of a *partial* request head arrived — the
    /// slowloris deadline. `read_into` refreshes `last_activity` on
    /// every byte, so a client trickling one header byte per second
    /// would never look idle; this clock only resets when a complete
    /// head parses.
    head_started: Option<Instant>,
    close_after_flush: bool,
    /// Registered for write readiness right now?
    want_write: bool,
    mode: Mode,
}

enum FlushOutcome {
    /// Everything queued is on the wire (and the conn stays open).
    Drained,
    /// The socket would block; write interest continues the job.
    Pending,
    /// The connection is done (error, peer gone, or flushed-and-close).
    Closed,
}

enum ReadOutcome {
    Progress,
    Eof,
    Error,
}

/// Spawn the reactor engine on `addr`: one event-loop thread serving
/// the store. Returns once the listener is bound (use port 0 for an
/// ephemeral test port).
pub fn spawn_reactor(
    store: Arc<SnapshotStore>,
    addr: &str,
    cfg: ReactorConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;

    // Best effort: make room for the configured connection count under
    // environments whose default soft NOFILE limit is 1024, and size
    // the accept queue from it too (std binds with a backlog of 128; a
    // burst of connects past a full queue stalls for a second or more).
    #[cfg(target_os = "linux")]
    {
        let _ = polling::os::raise_nofile_limit(cfg.max_conns as u64 * 2 + 64);
        let _ = polling::os::listen(listener.as_raw_fd(), cfg.max_conns);
    }

    let stats = Arc::new(ServerStats::default());
    let rstats = Arc::new(ReactorStats::default());
    let shutdown = Arc::new(AtomicBool::new(false));
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let shard = Shard::new(
        listener,
        wake_rx,
        Arc::clone(&store),
        Arc::clone(&stats),
        Arc::clone(&rstats),
        cfg,
        Arc::clone(&shutdown),
    )?;
    let thread = std::thread::Builder::new()
        .name("mlpeer-serve-reactor".into())
        .spawn(move || shard.run())?;
    // A publish wakes the loop: a byte down the self-pipe turns it into
    // a poller event, which delivers to every parked subscriber.
    store.on_publish(move |_epoch| {
        // A full pipe already holds a pending wake; ignore it.
        let _ = (&mut &wake_tx).write(&[1]);
    });
    Ok(ServerHandle {
        addr,
        stats,
        reactor_stats: rstats,
        shutdown,
        health: Arc::clone(store.health()),
        thread: Some(thread),
    })
}

/// The event loop: a poller, its listener, and the connection slab.
struct Shard {
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    store: Arc<SnapshotStore>,
    stats: Arc<ServerStats>,
    rstats: Arc<ReactorStats>,
    cfg: ReactorConfig,
    shutdown: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    listener_paused: bool,
    last_scan: Instant,
    /// `Some` once a graceful drain started: the moment in-flight work
    /// is abandoned and the loop exits anyway.
    drain_deadline: Option<Instant>,
}

impl Shard {
    fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        store: Arc<SnapshotStore>,
        stats: Arc<ServerStats>,
        rstats: Arc<ReactorStats>,
        cfg: ReactorConfig,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<Shard> {
        listener.set_nonblocking(true)?;
        let poller = Poller::with_backend(cfg.backend)?;
        poller.add(listener.as_raw_fd(), KEY_LISTENER, Interest::READ)?;
        poller.add(wake_rx.as_raw_fd(), KEY_WAKE, Interest::READ)?;
        Ok(Shard {
            poller,
            listener,
            wake_rx,
            store,
            stats,
            rstats,
            cfg,
            shutdown,
            conns: Vec::new(),
            free: Vec::new(),
            open: 0,
            listener_paused: false,
            last_scan: Instant::now(),
            drain_deadline: None,
        })
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        loop {
            events.clear();
            let _ = self.poller.wait(&mut events, Some(WAIT_TIMEOUT));
            self.rstats.wakeups.fetch_add(1, Ordering::Relaxed);
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            // A graceful drain: stop accepting, tell subscribers,
            // finish what is in flight, exit when the loop is empty
            // (or the grace deadline passes).
            if self.drain_deadline.is_none() && self.store.health().is_draining() {
                self.begin_drain();
            }
            if let Some(deadline) = self.drain_deadline {
                if self.open == 0 || Instant::now() >= deadline {
                    return;
                }
            }
            // Accepts are deferred to the end of the batch so a slab
            // slot freed mid-batch is never reused while stale events
            // for its old occupant are still queued.
            let mut accept_ready = false;
            let mut publish_wake = false;
            for &ev in &events {
                match ev.key {
                    KEY_LISTENER => accept_ready = true,
                    KEY_WAKE => publish_wake = true,
                    key => {
                        let idx = key - KEY_CONN0;
                        // Closed earlier in this batch: stale event.
                        if self.conns.get(idx).is_none_or(Option::is_none) {
                            continue;
                        }
                        if ev.writable {
                            self.flush(idx);
                        }
                        if ev.readable {
                            self.read_conn(idx);
                        }
                    }
                }
            }
            if publish_wake {
                self.drain_wake_pipe();
                self.fan_out();
            }
            if accept_ready {
                self.accept_ready();
            }
            if self.last_scan.elapsed() >= SCAN_INTERVAL {
                self.scan_deadlines();
                self.last_scan = Instant::now();
            }
        }
    }

    // ---- accept path ----

    fn accept_ready(&mut self) {
        if self.drain_deadline.is_some() {
            return; // draining: the listener is already deregistered
        }
        loop {
            if self.open >= self.cfg.max_conns {
                self.pause_listener();
                return;
            }
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            #[cfg(target_os = "linux")]
            if let Some(bytes) = self.cfg.sndbuf {
                let _ = polling::os::set_sndbuf(stream.as_raw_fd(), bytes);
            }
            let idx = match self.free.pop() {
                Some(idx) => idx,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            if self
                .poller
                .add(stream.as_raw_fd(), idx + KEY_CONN0, Interest::READ)
                .is_err()
            {
                self.free.push(idx);
                continue;
            }
            self.conns[idx] = Some(Conn {
                stream,
                buf: Vec::new(),
                scanned: 0,
                out: VecDeque::new(),
                last_activity: Instant::now(),
                head_started: None,
                close_after_flush: false,
                want_write: false,
                mode: Mode::Http,
            });
            self.open += 1;
            self.rstats.accepted.fetch_add(1, Ordering::Relaxed);
            self.rstats.open.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accept backpressure: at the connection cap the listener leaves
    /// the poller, so the kernel backlog (not reactor memory) holds the
    /// excess.
    fn pause_listener(&mut self) {
        if !self.listener_paused && self.poller.delete(self.listener.as_raw_fd()).is_ok() {
            self.listener_paused = true;
        }
    }

    fn resume_listener(&mut self) {
        if self.listener_paused
            && self
                .poller
                .add(self.listener.as_raw_fd(), KEY_LISTENER, Interest::READ)
                .is_ok()
        {
            self.listener_paused = false;
        }
    }

    // ---- graceful drain ----

    /// Enter drain mode: deregister the listener (new clients are
    /// refused once the process exits; until then they wait in the
    /// backlog), push a terminal `shutdown` event to every SSE
    /// subscriber, complete parked long-polls with the current delta,
    /// and let plain keep-alive connections finish their buffered
    /// requests before closing. The loop then runs on until every
    /// connection has flushed and closed, or the grace deadline
    /// passes.
    fn begin_drain(&mut self) {
        self.drain_deadline = Some(Instant::now() + self.cfg.drain_grace);
        self.pause_listener();
        let snap = self.store.load();
        for idx in 0..self.conns.len() {
            let mode = match self.conns[idx].as_ref() {
                Some(conn) => conn.mode,
                None => continue,
            };
            match mode {
                Mode::Sse { .. } => {
                    if let Some(conn) = self.conns[idx].as_mut() {
                        conn.out.push_back(OutBuf::raw(sse_frame(
                            snap.epoch,
                            "shutdown",
                            b"{\"status\": \"draining\"}",
                        )));
                        conn.close_after_flush = true;
                    }
                    self.flush(idx);
                }
                Mode::LongPoll { since, .. } => {
                    // Answer now, exactly as the idle deadline would,
                    // then close: the client re-polls the next replica.
                    let resp = api::render_changes(
                        &snap,
                        self.store.changes(),
                        self.store.durable(),
                        since,
                    );
                    count_response(&self.stats, resp.status);
                    if let Some(conn) = self.conns[idx].as_mut() {
                        conn.mode = Mode::Http;
                    }
                    self.queue_response(idx, resp, false);
                    self.flush(idx);
                }
                Mode::Http => {
                    // Answer whatever the client already sent, then
                    // close once the responses are on the wire.
                    self.process_requests(idx);
                    if let Some(conn) = self.conns[idx].as_mut() {
                        conn.close_after_flush = true;
                    }
                    self.flush(idx);
                }
            }
        }
    }

    // ---- read path ----

    fn read_conn(&mut self, idx: usize) {
        let outcome = {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            let outcome = read_into(conn);
            if matches!(conn.mode, Mode::Sse { .. }) {
                // Subscribers have nothing more to say; drop stray
                // bytes so a chatty client cannot grow the buffer.
                conn.buf.clear();
            }
            if !conn.buf.is_empty() && conn.head_started.is_none() {
                // The slowloris clock starts at the first byte of a
                // (so far incomplete) head.
                conn.head_started = Some(Instant::now());
            }
            outcome
        };
        if matches!(outcome, ReadOutcome::Error) {
            self.close(idx);
            return;
        }
        // Parse and answer whatever is buffered — including requests
        // that arrived in the same segment as a FIN.
        self.process_requests(idx);
        if matches!(outcome, ReadOutcome::Eof) {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.close_after_flush = true;
            }
        }
        self.flush(idx);
    }

    /// Parse every complete pipelined head in the buffer and queue its
    /// response, until the buffer runs dry or the connection leaves
    /// plain HTTP mode (push upgrade, queued close).
    fn process_requests(&mut self, idx: usize) {
        loop {
            let req = {
                let Some(conn) = self.conns[idx].as_mut() else {
                    return;
                };
                if !matches!(conn.mode, Mode::Http) || conn.close_after_flush {
                    return;
                }
                match parse_head(&conn.buf, conn.scanned) {
                    Ok(Some((req, consumed))) => {
                        conn.buf.drain(..consumed);
                        conn.scanned = 0;
                        conn.last_activity = Instant::now();
                        // A complete head arrived: the slowloris clock
                        // restarts (leftover pipelined bytes are the
                        // start of the next head).
                        conn.head_started = (!conn.buf.is_empty()).then(Instant::now);
                        req
                    }
                    Ok(None) => {
                        conn.scanned = conn.buf.len();
                        return;
                    }
                    Err(_) => {
                        // A malformed head draws a 400 and the
                        // connection closes.
                        self.stats.record_client_error();
                        conn.out.push_back(OutBuf::response(
                            api::error(400, "malformed request"),
                            false,
                        ));
                        conn.close_after_flush = true;
                        return;
                    }
                }
            };
            self.handle_request(idx, req);
        }
    }

    fn handle_request(&mut self, idx: usize, req: Request) {
        self.stats.record_request();
        // Overload control: at the global in-flight cap the request is
        // shed with a pre-rendered 503 before any routing or snapshot
        // work — the cost of a shed must stay far below the cost of
        // the work being refused, or shedding would not shed load.
        if self.rstats.inflight.load(Ordering::Relaxed) >= self.cfg.admission as u64 {
            self.rstats.shed.fetch_add(1, Ordering::Relaxed);
            count_response(&self.stats, 503);
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.out.push_back(OutBuf::shared(shed_response()));
                conn.close_after_flush = true;
            }
            return;
        }
        let snap = self.store.load();
        let keep_alive = !req.wants_close();
        let path = req.path.trim_end_matches('/');
        if path == "/v1/changes" {
            let wants_sse = req
                .header("accept")
                .is_some_and(|a| a.contains("text/event-stream"));
            if wants_sse {
                match api::changes_since_param(&req, &snap) {
                    Ok(since) => self.subscribe_sse(idx, &snap, since),
                    Err(resp) => {
                        count_response(&self.stats, resp.status);
                        self.queue_response(idx, resp, keep_alive);
                    }
                }
                return;
            }
            if api::query_param(&req.query, "wait").is_some() {
                match api::changes_since_param(&req, &snap) {
                    Ok(since) if since >= snap.epoch => {
                        // Nothing to report yet: park until a publish
                        // or the idle deadline.
                        if let Some(conn) = self.conns[idx].as_mut() {
                            conn.mode = Mode::LongPoll { since, keep_alive };
                            conn.last_activity = Instant::now();
                        }
                    }
                    Ok(since) => {
                        let resp = api::render_changes(
                            &snap,
                            self.store.changes(),
                            self.store.durable(),
                            since,
                        );
                        count_response(&self.stats, resp.status);
                        self.queue_response(idx, resp, keep_alive);
                    }
                    Err(resp) => {
                        count_response(&self.stats, resp.status);
                        self.queue_response(idx, resp, keep_alive);
                    }
                }
                return;
            }
        }
        let resp = api::route(
            &req,
            &snap,
            &self.stats,
            self.store.changes(),
            self.store.durable(),
            self.store.live_stats(),
            Some(&self.rstats),
            self.store.dist_stats(),
            Some(self.store.health().as_ref()),
        );
        count_response(&self.stats, resp.status);
        self.queue_response(idx, resp, keep_alive);
    }

    /// Switch a connection into SSE mode: stream head, immediate
    /// catch-up event, then one pushed event per publish. A `since`
    /// that already fell off the ring draws a terminal `resync` event.
    fn subscribe_sse(&mut self, idx: usize, snap: &Arc<Snapshot>, since: u64) {
        let (status, frame) =
            changes_frame(snap, self.store.changes(), self.store.durable(), since);
        count_response(&self.stats, status);
        let resync = status != 200;
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        conn.out.push_back(OutBuf::raw(SSE_HEAD.to_vec()));
        conn.out.push_back(OutBuf::raw(frame));
        conn.buf.clear(); // the stream owns the connection now
        if resync {
            conn.close_after_flush = true;
        } else {
            conn.mode = Mode::Sse {
                last_epoch: snap.epoch,
            };
            self.rstats.sse_subscribers.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn queue_response(&mut self, idx: usize, resp: Response, keep_alive: bool) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let mut out = OutBuf::response(resp, keep_alive);
        // Every routed response holds an admission slot until it is
        // fully on the wire (shed 503s bypass this path, so shedding
        // cannot consume the capacity it protects).
        out.counted = true;
        self.rstats.inflight.fetch_add(1, Ordering::Relaxed);
        conn.out.push_back(out);
        if !keep_alive {
            conn.close_after_flush = true;
        }
    }

    // ---- push delivery ----

    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 64];
        while matches!((&mut &self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    /// A publish landed: complete parked long-polls and push an SSE
    /// frame to every subscriber. Delta JSON is rendered once per
    /// distinct `since` epoch and shared across subscribers.
    fn fan_out(&mut self) {
        let snap = self.store.load();
        let epoch = snap.epoch;
        // status + body per from-epoch for long-polls; full frame
        // bytes per from-epoch for SSE.
        let mut rendered: HashMap<u64, (u16, Arc<Vec<u8>>)> = HashMap::new();
        let mut frames: HashMap<u64, (bool, Arc<Vec<u8>>)> = HashMap::new();
        for idx in 0..self.conns.len() {
            let mode = match self.conns[idx].as_ref() {
                Some(conn) => conn.mode,
                None => continue,
            };
            match mode {
                Mode::Sse { last_epoch } if last_epoch < epoch => {
                    let (resync, frame) = {
                        let (resync, frame) = frames.entry(last_epoch).or_insert_with(|| {
                            // The publish rendered the frame from the
                            // previous epoch; any other `since` renders
                            // here.
                            if last_epoch + 1 == epoch {
                                if let Some(frame) = self.store.newest_frame(epoch) {
                                    return (false, frame);
                                }
                            }
                            let (status, frame) = changes_frame(
                                &snap,
                                self.store.changes(),
                                self.store.durable(),
                                last_epoch,
                            );
                            (status != 200, Arc::new(frame))
                        });
                        (*resync, Arc::clone(frame))
                    };
                    let Some(conn) = self.conns[idx].as_mut() else {
                        continue;
                    };
                    conn.out.push_back(OutBuf::shared(&frame));
                    if resync {
                        // The ring cannot carry this subscriber any
                        // further: tell it to resync and hang up.
                        conn.close_after_flush = true;
                    } else {
                        conn.mode = Mode::Sse { last_epoch: epoch };
                    }
                    self.flush(idx);
                }
                Mode::LongPoll { since, keep_alive } if since < epoch => {
                    let (status, body) = {
                        let (status, body) = rendered.entry(since).or_insert_with(|| {
                            let r = api::render_changes(
                                &snap,
                                self.store.changes(),
                                self.store.durable(),
                                since,
                            );
                            (r.status, Arc::new(r.body.to_vec()))
                        });
                        (*status, Arc::clone(body))
                    };
                    count_response(&self.stats, status);
                    let resp = Response {
                        status,
                        body: Body::Shared(body as Arc<dyn AsRef<[u8]> + Send + Sync>),
                        headers: Vec::new(),
                    };
                    if let Some(conn) = self.conns[idx].as_mut() {
                        conn.mode = Mode::Http;
                        conn.last_activity = Instant::now();
                    }
                    self.queue_response(idx, resp, keep_alive);
                    // Pipelined requests buffered while parked run now.
                    self.process_requests(idx);
                    self.flush(idx);
                }
                _ => {}
            }
        }
    }

    // ---- deadlines ----

    fn scan_deadlines(&mut self) {
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            enum Due {
                Idle,
                SlowHead,
                PollTimeout { since: u64, keep_alive: bool },
            }
            let due = {
                let Some(conn) = self.conns[idx].as_ref() else {
                    continue;
                };
                // Slowloris: `read_into` refreshes `last_activity` on
                // every byte, so a client trickling one header byte at
                // a time never looks idle — the head clock catches it:
                // a head must complete within one idle window of its
                // first byte no matter how steadily bytes arrive.
                let head_overdue = matches!(conn.mode, Mode::Http)
                    && conn.out.is_empty()
                    && !conn.close_after_flush
                    && conn
                        .head_started
                        .is_some_and(|t| now.duration_since(t) >= self.cfg.idle);
                if head_overdue {
                    Due::SlowHead
                } else if now.duration_since(conn.last_activity) < self.cfg.idle {
                    continue;
                } else {
                    match conn.mode {
                        // Only a connection we owe nothing is idle; a slow
                        // reader with queued output is still in flight, and
                        // SSE subscribers are parked by design.
                        Mode::Http if conn.out.is_empty() && !conn.close_after_flush => Due::Idle,
                        Mode::LongPoll { since, keep_alive } => {
                            Due::PollTimeout { since, keep_alive }
                        }
                        _ => continue,
                    }
                }
            };
            match due {
                Due::Idle => {
                    self.rstats.idle_timeouts.fetch_add(1, Ordering::Relaxed);
                    let resp = api::error(408, "idle keep-alive connection timed out");
                    count_response(&self.stats, resp.status);
                    self.queue_response(idx, resp, false);
                    self.flush(idx);
                }
                Due::SlowHead => {
                    self.rstats.idle_timeouts.fetch_add(1, Ordering::Relaxed);
                    let resp = api::error(408, "request header read timed out");
                    count_response(&self.stats, resp.status);
                    self.queue_response(idx, resp, false);
                    self.flush(idx);
                }
                Due::PollTimeout { since, keep_alive } => {
                    // The wait cap passed with no publish: answer the
                    // (empty) delta now, exactly as a plain poll would.
                    let snap = self.store.load();
                    let resp = api::render_changes(
                        &snap,
                        self.store.changes(),
                        self.store.durable(),
                        since,
                    );
                    count_response(&self.stats, resp.status);
                    if let Some(conn) = self.conns[idx].as_mut() {
                        conn.mode = Mode::Http;
                        conn.last_activity = now;
                    }
                    self.queue_response(idx, resp, keep_alive);
                    self.process_requests(idx);
                    self.flush(idx);
                }
            }
        }
    }

    // ---- write path ----

    /// Push queued output to the wire, then reconcile poller interest
    /// (write interest only while output is pending) and close when
    /// the connection is finished.
    fn flush(&mut self, idx: usize) {
        let outcome = {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            try_flush(conn, &self.rstats)
        };
        match outcome {
            FlushOutcome::Closed => self.close(idx),
            FlushOutcome::Pending => self.set_write_interest(idx, true),
            FlushOutcome::Drained => self.set_write_interest(idx, false),
        }
    }

    fn set_write_interest(&mut self, idx: usize, want: bool) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if conn.want_write == want {
            return;
        }
        let interest = if want { Interest::BOTH } else { Interest::READ };
        if self
            .poller
            .modify(conn.stream.as_raw_fd(), idx + KEY_CONN0, interest)
            .is_ok()
        {
            conn.want_write = want;
        }
    }

    fn close(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        if matches!(conn.mode, Mode::Sse { .. }) {
            self.rstats.sse_subscribers.fetch_sub(1, Ordering::Relaxed);
        }
        // Release admission slots still held by unflushed responses,
        // or a burst of dying connections would pin the cap forever.
        for out in &conn.out {
            if out.counted {
                self.rstats.inflight.fetch_sub(1, Ordering::Relaxed);
            }
        }
        drop(conn);
        self.free.push(idx);
        self.open -= 1;
        self.rstats.open.fetch_sub(1, Ordering::Relaxed);
        if self.listener_paused && self.open < self.cfg.max_conns && self.drain_deadline.is_none() {
            self.resume_listener();
        }
    }
}

/// Drain the socket into the connection's parse buffer.
fn read_into(conn: &mut Conn) -> ReadOutcome {
    let mut scratch = [0u8; 8 * 1024];
    loop {
        match (&mut &conn.stream).read(&mut scratch) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => {
                conn.buf.extend_from_slice(&scratch[..n]);
                conn.last_activity = Instant::now();
                // A parked connection buffers without parsing; bound it
                // the same way the parser bounds a head.
                if conn.buf.len() > MAX_HEAD && !matches!(conn.mode, Mode::Http) {
                    return ReadOutcome::Error;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Progress,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Error,
        }
    }
}

/// Write the front of the queue with `writev`: one syscall covers the
/// rendered head and the (possibly shared, zero-copy) body slice.
fn try_flush(conn: &mut Conn, rstats: &ReactorStats) -> FlushOutcome {
    let release = |out: &OutBuf| {
        if out.counted {
            rstats.inflight.fetch_sub(1, Ordering::Relaxed);
        }
    };
    while let Some(front) = conn.out.front() {
        let total = front.head.len() + front.body.len();
        if front.written >= total {
            release(front);
            conn.out.pop_front();
            continue;
        }
        let written = {
            let head_off = front.written.min(front.head.len());
            let body_off = front.written.saturating_sub(front.head.len());
            let body = front.body.as_slice();
            let slices = [
                IoSlice::new(&front.head[head_off..]),
                IoSlice::new(&body[body_off..]),
            ];
            match (&mut &conn.stream).write_vectored(&slices) {
                Ok(0) => return FlushOutcome::Closed,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // The socket buffer is full mid-response: leave the
                    // continuation state and resume on writability.
                    rstats.writev_continuations.fetch_add(1, Ordering::Relaxed);
                    return FlushOutcome::Pending;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return FlushOutcome::Closed,
            }
        };
        let front = conn.out.front_mut().expect("front still queued");
        front.written += written;
        if front.written >= total {
            release(front);
            conn.out.pop_front();
        }
    }
    if conn.close_after_flush {
        FlushOutcome::Closed
    } else {
        FlushOutcome::Drained
    }
}

/// The pre-rendered overload response (503 + `Retry-After`, framed
/// with `Connection: close`): rendered once per process and shared, so
/// shedding a request costs a counter check and a queue push — far
/// below the routing and rendering work it refuses.
fn shed_response() -> &'static Arc<Vec<u8>> {
    static SHED: std::sync::OnceLock<Arc<Vec<u8>>> = std::sync::OnceLock::new();
    SHED.get_or_init(|| {
        let resp =
            api::error(503, "server overloaded; retry shortly").with_header("Retry-After", "1");
        let mut bytes = resp.head_bytes(false);
        bytes.extend_from_slice(resp.body.as_slice());
        Arc::new(bytes)
    })
}

/// The SSE frame that carries `/v1/changes?since=<since>` at `snap`'s
/// epoch, with the status a poll would get: anything but 200 makes it
/// a terminal `resync` event.
pub(crate) fn changes_frame(
    snap: &Snapshot,
    changes: &ChangeLog,
    history: Option<&DurableStore>,
    since: u64,
) -> (u16, Vec<u8>) {
    let r = api::render_changes(snap, changes, history, since);
    let event = if r.status == 200 { "changes" } else { "resync" };
    (r.status, sse_frame(snap.epoch, event, r.body.as_slice()))
}

/// One SSE frame. JSON bodies may be pretty-printed across lines, so
/// the payload is emitted as one `data:` field per line (receivers
/// re-join them with `\n`, per the SSE spec).
fn sse_frame(epoch: u64, event: &str, data: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(data.len() + 64);
    let _ = write!(frame, "id: {epoch}\nevent: {event}\n");
    for line in data.split(|&b| b == b'\n') {
        let line = match line.last() {
            Some(b'\r') => &line[..line.len() - 1],
            _ => line,
        };
        frame.extend_from_slice(b"data: ");
        frame.extend_from_slice(line);
        frame.push(b'\n');
    }
    frame.push(b'\n');
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_response;
    use std::io::BufReader;
    use std::net::SocketAddr;

    fn boot(members: u32, cfg: ReactorConfig) -> (Arc<SnapshotStore>, ServerHandle) {
        let store = SnapshotStore::new(crate::testutil::snapshot_with(members, 7));
        let server = spawn_reactor(Arc::clone(&store), "127.0.0.1:0", cfg).expect("bind");
        (store, server)
    }

    /// One request on a fresh connection (Connection: close).
    fn raw_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let parts = read_response(&mut BufReader::new(s)).unwrap();
        (parts.status, String::from_utf8(parts.body).unwrap())
    }

    /// Read raw bytes until `pat` shows up (or panic at the deadline).
    fn read_until(s: &mut TcpStream, collected: &mut Vec<u8>, pat: &[u8]) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut scratch = [0u8; 4096];
        while !collected.windows(pat.len().max(1)).any(|w| w == pat) {
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {:?} in {:?}",
                String::from_utf8_lossy(pat),
                String::from_utf8_lossy(collected)
            );
            match s.read(&mut scratch) {
                Ok(0) => panic!(
                    "peer closed before {:?} arrived",
                    String::from_utf8_lossy(pat)
                ),
                Ok(n) => collected.extend_from_slice(&scratch[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    /// Poll a condition until it holds (or panic at the deadline).
    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn serves_keep_alive_and_pipelined_requests() {
        let (_store, mut server) = boot(3, ReactorConfig::default());
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Three pipelined requests in a single segment, answered in
        // order on one connection.
        write!(
            s,
            "GET /v1/ixps HTTP/1.1\r\nHost: t\r\n\r\n\
             GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
             GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .unwrap();
        let mut reader = BufReader::new(s);
        let first = read_response(&mut reader).unwrap();
        let second = read_response(&mut reader).unwrap();
        let third = read_response(&mut reader).unwrap();
        assert_eq!(first.status, 200);
        assert!(String::from_utf8(first.body).unwrap().contains("DE-CIX"));
        assert_eq!(second.status, 200);
        assert_eq!(third.status, 404);
        assert!(server.stats.requests() >= 3);
        assert!(server.stats.client_errors() >= 1);
        assert!(server.reactor_stats.accepted() >= 1);
        server.stop();
        server.stop(); // idempotent
    }

    #[test]
    fn head_split_across_many_reads_parses() {
        let (_store, server) = boot(2, ReactorConfig::default());
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Dribble the head a few bytes at a time across many segments,
        // short of its blank line; then send the blank line together
        // with a whole, shorter pipelined second head. The blank-line
        // search resumes mid-head, then starts over at the second head.
        let first = format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n", "p".repeat(64));
        for chunk in first.as_bytes().chunks(3) {
            s.write_all(chunk).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(20));
        s.write_all(b"\r\nGET /v1/ixps HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(s);
        assert_eq!(read_response(&mut reader).unwrap().status, 200);
        let second = read_response(&mut reader).unwrap();
        assert_eq!(second.status, 200);
        assert!(String::from_utf8(second.body).unwrap().contains("\"ixps\""));
    }

    #[test]
    fn poll_backend_serves_and_reports_kind() {
        let cfg = ReactorConfig {
            backend: BackendKind::Poll,
            ..ReactorConfig::default()
        };
        let (_store, server) = boot(2, cfg);
        let (status, body) = raw_get(server.addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\": \"ok\""));
    }

    #[test]
    fn malformed_head_draws_400_and_close() {
        let (_store, server) = boot(2, ReactorConfig::default());
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut reader = BufReader::new(s);
        let parts = read_response(&mut reader).unwrap();
        assert_eq!(parts.status, 400);
        // The connection closes after the 400.
        let mut one = [0u8; 1];
        assert_eq!(reader.get_mut().read(&mut one).unwrap(), 0);
        assert!(server.stats.client_errors() >= 1);
    }

    #[test]
    fn etag_revalidation_304_through_reactor() {
        let (store, server) = boot(3, ReactorConfig::default());
        let etag = store.load().etag.clone();
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(
            s,
            "GET /v1/ixps HTTP/1.1\r\nHost: t\r\n\
             If-None-Match: \"{etag}\"\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let parts = read_response(&mut BufReader::new(s)).unwrap();
        assert_eq!(parts.status, 304);
        assert!(parts.body.is_empty());
        assert_eq!(server.stats.not_modified(), 1);
    }

    /// Satellite (d): a response far larger than the socket's send
    /// buffer completes intact across partial-write continuations.
    #[test]
    fn partial_writes_continue_until_the_body_completes() {
        // 120 members → full mesh → a /v1/ixp/0/links body far larger
        // than the shrunken send buffer below.
        let cfg = ReactorConfig {
            sndbuf: Some(1), // kernel clamps to its floor (~4 KiB)
            ..ReactorConfig::default()
        };
        let (_store, server) = boot(120, cfg);
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(
            s,
            "GET /v1/ixp/0/links HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        // Let the server hit WouldBlock before we drain anything.
        std::thread::sleep(Duration::from_millis(300));
        let parts = read_response(&mut BufReader::new(s)).unwrap();
        assert_eq!(parts.status, 200);
        let body = String::from_utf8(parts.body).unwrap();
        assert!(body.trim_end().ends_with('}'), "body complete");
        assert!(
            body.len() > 64 * 1024,
            "body big enough to fragment: {}",
            body.len()
        );
        assert!(
            server.reactor_stats.writev_continuations() > 0,
            "tiny SNDBUF must force at least one continuation"
        );
    }

    /// Satellite (b): idle keep-alive connections draw a 408 and close.
    #[test]
    fn idle_keep_alive_times_out_with_408() {
        let cfg = ReactorConfig {
            idle: Duration::from_millis(150),
            ..ReactorConfig::default()
        };
        let (_store, server) = boot(2, cfg);
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // One successful request keeps the connection alive…
        write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut reader = BufReader::new(s);
        assert_eq!(read_response(&mut reader).unwrap().status, 200);
        // …then we go quiet past the deadline.
        let parts = read_response(&mut reader).unwrap();
        assert_eq!(parts.status, 408);
        let mut one = [0u8; 1];
        assert_eq!(
            reader.get_mut().read(&mut one).unwrap(),
            0,
            "closed after 408"
        );
        assert_eq!(server.reactor_stats.idle_timeouts(), 1);
    }

    /// Satellite (b): the connection cap pauses the accept path; the
    /// excess client waits in the kernel backlog and is served once a
    /// slot frees.
    #[test]
    fn max_conns_cap_applies_accept_backpressure() {
        let cfg = ReactorConfig {
            max_conns: 2,
            ..ReactorConfig::default()
        };
        let (_store, server) = boot(2, cfg);
        let hold = |addr| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut r = BufReader::new(s);
            assert_eq!(read_response(&mut r).unwrap().status, 200);
            r
        };
        let first = hold(server.addr);
        let second = hold(server.addr);
        assert_eq!(server.reactor_stats.open(), 2);
        // The third connect lands in the kernel backlog: the reactor
        // must not accept it while at the cap.
        let mut third = TcpStream::connect(server.addr).unwrap();
        third
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(third, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(server.reactor_stats.open(), 2, "cap held");
        // Freeing a slot lets the parked client through.
        drop(first);
        let parts = read_response(&mut BufReader::new(third)).unwrap();
        assert_eq!(parts.status, 200);
        drop(second);
        wait_for("connections to close", || server.reactor_stats.open() == 0);
    }

    /// Satellite (d): a parked long-poll wakes on publish_with_delta
    /// and answers with exactly the published delta.
    #[test]
    fn long_poll_wakes_on_publish() {
        use mlpeer::live::LinkDelta;
        use mlpeer_bgp::Asn;
        use mlpeer_ixp::ixp::IxpId;

        let (store, server) = boot(3, ReactorConfig::default());
        let publisher = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                store.publish_with_delta(
                    crate::testutil::snapshot_with(4, 8),
                    LinkDelta {
                        added: vec![(IxpId(0), Asn(31), Asn(32))],
                        removed: vec![],
                    },
                )
            })
        };
        let t0 = Instant::now();
        let (status, body) = raw_get(server.addr, "/v1/changes?since=0&wait=1");
        publisher.join().unwrap();
        assert_eq!(status, 200);
        assert!(
            t0.elapsed() >= Duration::from_millis(100),
            "the long-poll must actually wait for the publish"
        );
        assert!(body.contains("\"epoch\": 1"), "{body}");
        assert!(body.contains("31"), "delta visible: {body}");
    }

    /// A long-poll with no publish answers an empty delta at the idle
    /// deadline instead of hanging forever.
    #[test]
    fn long_poll_times_out_with_empty_delta() {
        let cfg = ReactorConfig {
            idle: Duration::from_millis(150),
            ..ReactorConfig::default()
        };
        let (_store, server) = boot(2, cfg);
        let (status, body) = raw_get(server.addr, "/v1/changes?since=0&wait=1");
        assert_eq!(status, 200);
        assert!(body.contains("\"added\": []"), "{body}");
        assert!(body.contains("\"removed\": []"), "{body}");
    }

    /// Satellite (d): SSE subscribers get an immediate catch-up event,
    /// then one pushed event per publish — without polling.
    #[test]
    fn sse_stream_pushes_changes_events() {
        use mlpeer::live::LinkDelta;
        use mlpeer_bgp::Asn;
        use mlpeer_ixp::ixp::IxpId;

        let (store, server) = boot(3, ReactorConfig::default());
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        write!(
            s,
            "GET /v1/changes?since=0 HTTP/1.1\r\nHost: t\r\n\
             Accept: text/event-stream\r\n\r\n"
        )
        .unwrap();
        let mut collected = Vec::new();
        // Stream head + the immediate catch-up event.
        read_until(&mut s, &mut collected, b"text/event-stream");
        read_until(&mut s, &mut collected, b"event: changes\n");
        read_until(&mut s, &mut collected, b"\n\n");
        wait_for("subscriber registration", || {
            server.reactor_stats.sse_subscribers() == 1
        });
        // A publish pushes the delta to the parked stream.
        store.publish_with_delta(
            crate::testutil::snapshot_with(4, 8),
            LinkDelta {
                added: vec![(IxpId(0), Asn(77), Asn(78))],
                removed: vec![],
            },
        );
        read_until(&mut s, &mut collected, b"id: 1\n");
        read_until(&mut s, &mut collected, b"\n\n");
        let text = String::from_utf8_lossy(&collected);
        assert!(text.contains("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("77"), "pushed delta visible: {text}");
        drop(s);
        wait_for("subscriber deregistration", || {
            server.reactor_stats.sse_subscribers() == 0
        });
    }

    /// The frame a publish renders for subscribers one epoch behind is
    /// byte for byte what `render_changes` plus `sse_frame` give for the
    /// same store and epoch, and only the newest epoch keeps one.
    #[test]
    fn publish_renders_the_pushed_frame_byte_identically() {
        use mlpeer::live::LinkDelta;
        use mlpeer_bgp::Asn;
        use mlpeer_ixp::ixp::IxpId;

        let store = SnapshotStore::new(crate::testutil::snapshot_with(3, 7));
        for members in [4, 5] {
            let epoch = store.publish_with_delta(
                crate::testutil::snapshot_with(members, 8),
                LinkDelta {
                    added: vec![(IxpId(0), Asn(70 + members), Asn(90))],
                    removed: vec![(IxpId(0), Asn(1), Asn(2))],
                },
            );
            let r = api::render_changes(&store.load(), store.changes(), None, epoch - 1);
            assert_eq!(r.status, 200);
            let expected = sse_frame(epoch, "changes", r.body.as_slice());
            assert_eq!(store.newest_frame(epoch).as_deref(), Some(&expected));
            assert!(store.newest_frame(epoch - 1).is_none());
        }
        // A plain publish resets the ring: no frame to push.
        let epoch = store.publish(crate::testutil::snapshot_with(2, 9));
        assert!(store.newest_frame(epoch).is_none());
    }

    /// Satellite (d): a `since` that fell off the delta ring draws a
    /// terminal `resync` event and the stream closes.
    #[test]
    fn sse_stale_since_resyncs_and_closes() {
        use mlpeer::live::LinkDelta;

        let snapshot = crate::testutil::snapshot_with(2, 7);
        let store = SnapshotStore::with_change_capacity(snapshot, 1);
        // Two delta publishes with a ring of depth 1: since=0 is gone.
        store.publish_with_delta(crate::testutil::snapshot_with(3, 8), LinkDelta::default());
        store.publish_with_delta(crate::testutil::snapshot_with(4, 9), LinkDelta::default());
        let server = spawn_reactor(Arc::clone(&store), "127.0.0.1:0", ReactorConfig::default())
            .expect("bind");
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        write!(
            s,
            "GET /v1/changes?since=0 HTTP/1.1\r\nHost: t\r\n\
             Accept: text/event-stream\r\n\r\n"
        )
        .unwrap();
        let mut collected = Vec::new();
        read_until(&mut s, &mut collected, b"event: resync\n");
        read_until(&mut s, &mut collected, b"\n\n");
        let text = String::from_utf8_lossy(&collected);
        assert!(text.contains("\"resync\": true"), "{text}");
        // Terminal: the server closes after the resync event.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match s.read(&mut [0u8; 64]) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    assert!(Instant::now() < deadline, "stream must close after resync");
                }
                Err(_) => break,
            }
        }
        assert_eq!(server.reactor_stats.sse_subscribers(), 0);
    }

    /// Satellite (c): the reactor counters move under load and surface
    /// under /v1/stats.
    #[test]
    fn counters_move_and_surface_in_stats() {
        let (_store, server) = boot(3, ReactorConfig::default());
        let report = crate::loadgen::run_load(
            server.addr,
            &crate::loadgen::LoadConfig {
                connections: 4,
                requests_per_connection: 50,
                targets: vec!["/v1/ixps".into(), "/healthz".into()],
            },
        );
        assert_eq!(report.errors, 0, "{report:?}");
        let r = &server.reactor_stats;
        assert!(r.accepted() >= 4, "accepted {}", r.accepted());
        assert!(r.wakeups() > 0);
        wait_for("loadgen connections to close", || r.open() == 0);
        let (status, body) = raw_get(server.addr, "/v1/stats");
        assert_eq!(status, 200);
        assert!(body.contains("\"reactor\""), "{body}");
        assert!(body.contains("\"accepted\""), "{body}");
        assert!(body.contains("\"writev_continuations\""), "{body}");
        assert!(body.contains("\"sse_subscribers\""), "{body}");
    }

    /// A client dribbling header bytes forever cannot hold a
    /// connection open past the idle window: per-byte activity keeps
    /// `last_activity` fresh, but the head-read clock starts at the
    /// first partial byte and only resets when a full head parses, so
    /// the dribbler draws a 408 and a close.
    #[test]
    fn slowloris_header_dribble_draws_408() {
        let cfg = ReactorConfig {
            idle: Duration::from_millis(200),
            ..ReactorConfig::default()
        };
        let (_store, server) = boot(2, cfg);
        let s = TcpStream::connect(server.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut writer = s.try_clone().unwrap();
        let dribbler = std::thread::spawn(move || {
            // A header line that keeps growing and never terminates —
            // one byte every 60ms, well inside the 200ms idle window.
            let _ = writer.write_all(b"GET /healthz HTTP/1.1\r\nX-Pad: ");
            let _ = writer.flush();
            for _ in 0..100 {
                if writer.write_all(b"a").is_err() || writer.flush().is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(60));
            }
        });
        let parts = read_response(&mut BufReader::new(s)).unwrap();
        assert_eq!(parts.status, 408, "slow header read must time out");
        assert!(server.reactor_stats.idle_timeouts() >= 1);
        dribbler.join().unwrap();
    }

    /// With the admission cap at zero every routed request is shed with
    /// the pre-rendered 503 + Retry-After before touching a snapshot,
    /// the shed counter moves, and no in-flight slot leaks.
    #[test]
    fn admission_cap_sheds_with_503_retry_after() {
        let cfg = ReactorConfig {
            admission: 0,
            ..ReactorConfig::default()
        };
        let (_store, server) = boot(2, cfg);
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET /v1/ixps HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let parts = read_response(&mut BufReader::new(s)).unwrap();
        assert_eq!(parts.status, 503);
        assert_eq!(parts.header("retry-after"), Some("1"));
        assert!(String::from_utf8(parts.body)
            .unwrap()
            .contains("overloaded"));
        assert!(server.reactor_stats.shed() >= 1);
        assert_eq!(
            server.reactor_stats.inflight(),
            0,
            "shed responses must not hold admission slots"
        );
    }

    /// Draining completes in-flight work: the SSE subscriber gets a
    /// terminal `shutdown` event and a close, the idle keep-alive
    /// connection closes, and the reactor thread exits well before the
    /// grace deadline.
    #[test]
    fn drain_notifies_sse_and_exits_before_grace() {
        let cfg = ReactorConfig {
            drain_grace: Duration::from_secs(10),
            ..ReactorConfig::default()
        };
        let (store, mut server) = boot(3, cfg);
        // Park an SSE subscriber…
        let mut sse = TcpStream::connect(server.addr).unwrap();
        sse.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        write!(
            sse,
            "GET /v1/changes?since=0 HTTP/1.1\r\nHost: t\r\n\
             Accept: text/event-stream\r\n\r\n"
        )
        .unwrap();
        let mut collected = Vec::new();
        read_until(&mut sse, &mut collected, b"event: changes\n");
        wait_for("subscriber registration", || {
            server.reactor_stats.sse_subscribers() == 1
        });
        // …and an idle keep-alive connection.
        let mut idle = TcpStream::connect(server.addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(idle, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let first = read_response(&mut BufReader::new(idle.try_clone().unwrap())).unwrap();
        assert_eq!(first.status, 200);
        let t0 = Instant::now();
        server.drain();
        assert!(
            t0.elapsed() < Duration::from_secs(8),
            "drain must finish on connection count, not the grace deadline"
        );
        assert!(store.health().is_draining());
        // The parked stream got the terminal event, then EOF.
        read_until(&mut sse, &mut collected, b"event: shutdown\n");
        read_until(&mut sse, &mut collected, b"\"draining\"");
        let mut scratch = [0u8; 256];
        sse.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        loop {
            match sse.read(&mut scratch) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => panic!("stream must close after shutdown event: {e}"),
            }
        }
        // The idle keep-alive connection was simply closed.
        assert_eq!(idle.read(&mut scratch).unwrap(), 0);
    }
}
