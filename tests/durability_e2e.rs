//! End-to-end durability: boot the live stack with a durable store
//! attached, let churn publish a few epochs, then simulate a crash
//! (drop everything without ceremony) and reboot from the same data
//! directory — asserting the recovered service is byte-identical over
//! real HTTP: same epoch, same content ETag, same `?at=` time-travel
//! bodies, and the same `/v1/changes?since=0` diff even though the
//! in-memory delta ring died with the process (the durable fold serves
//! it). A second test tears the log's tail mid-record and checks
//! recovery truncates to the last valid epoch and keeps serving —
//! with the torn epoch drawing the documented 410.
//!
//! The real `mlpeer-serve` binary then covers the batch boot: a data
//! dir written at another `(scale, seed)` is history, not the answer
//! (the new run publishes a bridge epoch over it), and a SIGTERM that
//! arrives once `/readyz` answers drains cleanly with exit status 0.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlpeer::live::LinkDelta;
use mlpeer::pipeline::Scale;
use mlpeer_data::churn::ChurnConfig;
use mlpeer_ixp::{Ecosystem, EcosystemConfig};
use mlpeer_serve::{
    bootstrap, spawn_live_refresher, spawn_server, DurableStore, LiveConfig, LiveStats, Snapshot,
    SnapshotStore,
};

/// One request on a fresh connection; returns (status, headers, body).
fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let parts = mlpeer_serve::http::read_response(&mut std::io::BufReader::new(s)).unwrap();
    let head: String = parts
        .headers
        .iter()
        .map(|(n, v)| format!("{n}: {v}\r\n"))
        .collect();
    (parts.status, head, String::from_utf8(parts.body).unwrap())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mlpeer-durability-e2e-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Boot the live stack over `dir` and run churn until `min_epoch`
/// epochs have been published, then stop the churn loop (leaving the
/// store and durable log attached and quiescent).
fn churn_to_epoch(dir: &PathBuf, min_epoch: u64) -> Arc<SnapshotStore> {
    let eco = Ecosystem::generate(EcosystemConfig::tiny(11));
    let (inferencer, snapshot) = bootstrap(&eco, "tiny", 11);
    let store = SnapshotStore::with_change_capacity(snapshot, 64);
    let durable = Arc::new(DurableStore::open(dir).unwrap());
    store.attach_durable(durable).unwrap();

    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(LiveStats::default());
    let refresher = spawn_live_refresher(
        Arc::clone(&store),
        eco,
        inferencer,
        LiveConfig {
            interval: Duration::from_millis(20),
            events_per_tick: 25,
            churn: ChurnConfig {
                seed: 5,
                ..ChurnConfig::default()
            },
            scale: "tiny".into(),
            seed: 11,
        },
        stats,
        Arc::clone(&shutdown),
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while store.load().epoch < min_epoch && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    shutdown.store(true, Ordering::Relaxed);
    refresher.join().unwrap();
    assert!(
        store.load().epoch >= min_epoch,
        "churn loop must publish at least {min_epoch} epochs"
    );
    store
}

#[test]
fn crash_and_reboot_serve_byte_identical_history() {
    let dir = temp_dir("reboot");
    let store = churn_to_epoch(&dir, 3);
    let final_epoch = store.load().epoch;

    // ---- Capture the pre-crash service, over real TCP. ----
    let mut server = spawn_server(store, "127.0.0.1:0", 2).unwrap();
    let addr = server.addr;
    let mut paths = vec!["/v1/ixps".to_string(), "/v1/changes?since=0".to_string()];
    paths.push(format!("/v1/changes?since={final_epoch}"));
    for epoch in 0..=final_epoch {
        paths.push(format!("/v1/ixps?at={epoch}"));
    }
    let before: Vec<(u16, String, String)> = paths.iter().map(|p| get(addr, p)).collect();
    for (p, (status, _, _)) in paths.iter().zip(&before) {
        assert_eq!(*status, 200, "{p} must answer pre-crash");
    }
    server.stop();
    // ---- Crash: everything in memory dies. No flush, no farewell. ----
    // (Every append already hit disk synchronously at publish time.)

    // ---- Reboot from the same data directory. ----
    let durable = Arc::new(DurableStore::open(&dir).unwrap());
    let recovered = durable.latest().expect("log must hold the final epoch");
    assert_eq!(
        recovered.epoch, final_epoch,
        "recovery finds the last epoch"
    );
    let store = SnapshotStore::resume(recovered, 64);
    store.attach_durable(durable).unwrap();
    let mut server = spawn_server(store, "127.0.0.1:0", 2).unwrap();
    let addr = server.addr;

    for (p, (status, head, body)) in paths.iter().zip(&before) {
        let (status2, head2, body2) = get(addr, p);
        assert_eq!(status2, *status, "{p}: status must survive the reboot");
        assert_eq!(
            &body2, body,
            "{p}: body must be byte-identical after reboot"
        );
        let etag = |h: &str| {
            h.lines()
                .find(|l| l.starts_with("etag:"))
                .map(str::to_string)
        };
        assert_eq!(
            etag(&head2),
            etag(head),
            "{p}: ETag must survive the reboot"
        );
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_log_tail_recovers_to_last_valid_epoch() {
    let dir = temp_dir("torn");
    let store = churn_to_epoch(&dir, 2);
    let final_epoch = store.load().epoch;
    let prev_etag = store
        .durable()
        .unwrap()
        .snapshot_at(final_epoch - 1)
        .expect("previous epoch on disk")
        .etag;
    drop(store);

    // ---- Tear the tail: chop into the last record's bytes. ----
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .max()
        .expect("a segment file");
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 7).unwrap(); // mid-trailer: checksum cannot verify

    // ---- Recovery truncates to the last valid record and serves. ----
    let durable = Arc::new(DurableStore::open(&dir).unwrap());
    assert_eq!(
        durable.latest_epoch(),
        Some(final_epoch - 1),
        "torn final record must be discarded, not misread"
    );
    let recovered = durable.latest().unwrap();
    assert_eq!(
        recovered.etag, prev_etag,
        "recovered bytes are the old epoch's"
    );
    let store = SnapshotStore::resume(recovered, 64);
    store.attach_durable(Arc::clone(&durable)).unwrap();
    let mut server = spawn_server(Arc::clone(&store), "127.0.0.1:0", 2).unwrap();
    let addr = server.addr;

    let (status, head, _) = get(addr, "/v1/ixps");
    assert_eq!(status, 200);
    assert!(
        head.contains(&format!("etag: \"{prev_etag}\"")),
        "service resumes at the surviving epoch: {head}"
    );
    // The torn epoch rewound history: it is the *future* again from
    // the recovered epoch's point of view, so `?at=` draws 400 (the
    // 410 is reserved for retained-range epochs compacted away).
    let (status, _, body) = get(addr, &format!("/v1/ixps?at={final_epoch}"));
    assert_eq!(status, 400, "torn epoch is ahead of the clock: {body}");

    // And the log is append-able again: a fresh publish lands as the
    // next epoch and persists.
    let eco = Ecosystem::generate(EcosystemConfig::tiny(23));
    let epoch = store.publish(Snapshot::of_pipeline(&eco, Scale::Tiny, 23));
    assert_eq!(epoch, final_epoch, "epoch counter resumes past the tear");
    assert_eq!(durable.latest_epoch(), Some(final_epoch));
    let (status, _, _) = get(addr, &format!("/v1/ixps?at={epoch}"));
    assert_eq!(status, 200, "the re-published epoch is served from disk");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- The real binary below. ----

/// Locate the `mlpeer-serve` binary cargo built alongside the tests
/// (`target/<profile>/deps/this_test` → `target/<profile>/mlpeer-serve`).
fn serve_bin() -> PathBuf {
    if let Ok(path) = std::env::var("MLPEER_SERVE_BIN") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("test exe path");
    let mut dir = exe.parent().expect("deps dir").to_path_buf();
    dir.pop();
    let candidate = dir.join("mlpeer-serve");
    assert!(
        candidate.is_file(),
        "mlpeer-serve binary built alongside tests (run the whole workspace \
         test suite, or set MLPEER_SERVE_BIN)"
    );
    candidate
}

/// A spawned server process, killed and reaped when dropped, so a
/// failing assertion leaves no server running.
struct Running(Child);

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Boot `mlpeer-serve tiny --seed=<seed>` over `data_dir` and block
/// until it announces its bound address on stderr; a drain thread keeps
/// the pipe from backpressuring the server.
fn spawn_batch(data_dir: &Path, seed: u64) -> (Running, SocketAddr) {
    let mut child = Command::new(serve_bin())
        .args([
            "tiny".to_string(),
            format!("--seed={seed}"),
            "--addr=127.0.0.1:0".to_string(),
            format!("--data-dir={}", data_dir.display()),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mlpeer-serve");
    let mut lines = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if lines.read_line(&mut line).expect("read server stderr") == 0 {
            panic!("mlpeer-serve exited before announcing its address");
        }
        if let Some(rest) = line.trim().strip_prefix("# serving on http://") {
            let host = rest.split_whitespace().next().expect("addr token");
            break host.parse::<SocketAddr>().expect("bound address");
        }
    };
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut lines, &mut std::io::sink());
    });
    (Running(child), addr)
}

/// The value token of the first `"name":` field in a JSON body.
fn field<'b>(body: &'b str, name: &str) -> &'b str {
    let key = format!("\"{name}\":");
    let start = body
        .find(&key)
        .unwrap_or_else(|| panic!("{name} in {body}"))
        + key.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().trim_matches('"')
}

#[test]
fn batch_boot_over_another_seed_publishes_a_bridge_epoch() {
    let dir = temp_dir("reseed");
    let snap = |seed| {
        Snapshot::of_pipeline(
            &Ecosystem::generate(Scale::Tiny.config(seed)),
            Scale::Tiny,
            seed,
        )
    };
    let (seven, forty_two) = (snap(7), snap(42));

    // ---- First life: seed 7 publishes epoch 0. ----
    let (child, addr) = spawn_batch(&dir, 7);
    let (_, _, health) = get(addr, "/healthz");
    assert_eq!(field(&health, "etag"), seven.etag, "{health}");
    let (_, _, ixps_seven) = get(addr, "/v1/ixps");
    drop(child);

    // ---- Second life: seed 42 over the same dir. The seed-7 epoch is
    //      history: the pipeline runs and bridges to it. ----
    let (child, addr) = spawn_batch(&dir, 42);
    let (_, _, health) = get(addr, "/healthz");
    assert_eq!(field(&health, "etag"), forty_two.etag, "{health}");
    assert_eq!(field(&health, "epoch"), "1", "{health}");
    assert_eq!(field(&health, "scale"), "tiny", "{health}");
    let (status, _, at0) = get(addr, "/v1/ixps?at=0");
    assert_eq!(status, 200);
    assert_eq!(at0, ixps_seven, "epoch 0 still serves the seed-7 bodies");
    let (status, _, changes) = get(addr, "/v1/changes?since=0");
    assert_eq!(status, 200, "{changes}");
    let bridge = LinkDelta::between(&seven.links, &forty_two.links);
    assert!(!bridge.added.is_empty() && !bridge.removed.is_empty());
    assert_eq!(field(&changes, "epoch"), "1");
    assert_eq!(
        changes.matches("\"name\":").count(),
        bridge.added.len() + bridge.removed.len(),
        "/v1/changes?since=0 lists the bridge delta"
    );
    drop(child);

    // ---- Third life: seed 42 again serves the recovered epoch 1. ----
    let (child, addr) = spawn_batch(&dir, 42);
    let (_, _, health) = get(addr, "/healthz");
    assert_eq!(field(&health, "epoch"), "1", "{health}");
    assert_eq!(field(&health, "etag"), forty_two.etag);
    drop(child);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The signal mask a process catches, from `/proc/<pid>/status`.
#[cfg(target_os = "linux")]
fn caught_signals(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    let mask = status
        .lines()
        .find_map(|l| l.strip_prefix("SigCgt:"))
        .expect("SigCgt line");
    u64::from_str_radix(mask.trim(), 16).expect("hex mask")
}

#[cfg(target_os = "linux")]
#[test]
fn sigterm_at_first_readyz_drains_with_exit_zero() {
    const SIGTERM_BIT: u64 = 1 << (15 - 1);
    let dir = temp_dir("sigterm");
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .port();
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    let mut server = Running(
        Command::new(serve_bin())
            .args([
                "tiny".to_string(),
                format!("--addr={addr}"),
                format!("--data-dir={}", dir.display()),
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mlpeer-serve"),
    );
    let child = &mut server.0;

    // Poll /readyz from spawn on; act on the very first 200.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "/readyz never answered 200");
        assert!(child.try_wait().unwrap().is_none(), "server died");
        if TcpStream::connect(addr).is_ok() && get(addr, "/readyz").0 == 200 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_ne!(
        caught_signals(child.id()) & SIGTERM_BIT,
        0,
        "SIGTERM must be caught once /readyz answers"
    );
    let sent = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(sent.success());
    let status = child.wait().expect("reap");
    assert_eq!(status.code(), Some(0), "drain exits 0: {status}");
    // The drained log reopens with the boot epoch.
    assert_eq!(DurableStore::open(&dir).unwrap().latest_epoch(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
