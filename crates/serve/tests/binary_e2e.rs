//! The real `mlpeer-serve` binary, as cargo builds it for this
//! package's tests: its batch boot over a data directory, its option
//! checks and its signal handling.
//!
//! * A data dir written at another `(scale, seed)` is history, not the
//!   answer: the new run publishes a bridge epoch over it, and a third
//!   boot at the same pair serves the recovered epoch.
//! * The validation report rides the durable log (record version 3),
//!   so its verdicts are byte-stable across `kill -9` and a reboot
//!   from the same `--data-dir`.
//! * `--workers` applies to batch boots only: `--live --workers=2` is
//!   refused with exit status 2 before anything is generated or bound.
//! * A SIGTERM that arrives once `/readyz` answers drains cleanly with
//!   exit status 0.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mlpeer::live::LinkDelta;
use mlpeer::pipeline::Scale;
use mlpeer_ixp::Ecosystem;
use mlpeer_serve::{DurableStore, Snapshot};

/// The binary under test.
const SERVE_BIN: &str = env!("CARGO_BIN_EXE_mlpeer-serve");

/// One request on a fresh connection; returns (status, headers, body).
fn get(addr: SocketAddr, path: &str, extra_header: Option<&str>) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    let extra = extra_header.map(|h| format!("{h}\r\n")).unwrap_or_default();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: e2e\r\n{extra}Connection: close\r\n\r\n"
    )
    .unwrap();
    let parts = mlpeer_serve::http::read_response(&mut BufReader::new(s)).unwrap();
    let head: String = parts
        .headers
        .iter()
        .map(|(n, v)| format!("{n}: {v}\r\n"))
        .collect();
    (parts.status, head, String::from_utf8(parts.body).unwrap())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlpeer-binary-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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
    let mut child = Command::new(SERVE_BIN)
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

fn etag_of(head: &str) -> String {
    head.lines()
        .find_map(|l| l.strip_prefix("etag: "))
        .expect("response carries an ETag")
        .trim()
        .to_string()
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
    let (_, _, health) = get(addr, "/healthz", None);
    assert_eq!(field(&health, "etag"), seven.etag, "{health}");
    let (_, _, ixps_seven) = get(addr, "/v1/ixps", None);
    drop(child);

    // ---- Second life: seed 42 over the same dir. The seed-7 epoch is
    //      history: the pipeline runs and bridges to it. ----
    let (child, addr) = spawn_batch(&dir, 42);
    let (_, _, health) = get(addr, "/healthz", None);
    assert_eq!(field(&health, "etag"), forty_two.etag, "{health}");
    assert_eq!(field(&health, "epoch"), "1", "{health}");
    assert_eq!(field(&health, "scale"), "tiny", "{health}");
    let (status, _, at0) = get(addr, "/v1/ixps?at=0", None);
    assert_eq!(status, 200);
    assert_eq!(at0, ixps_seven, "epoch 0 still serves the seed-7 bodies");
    let (status, _, changes) = get(addr, "/v1/changes?since=0", None);
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
    let (_, _, health) = get(addr, "/healthz", None);
    assert_eq!(field(&health, "epoch"), "1", "{health}");
    assert_eq!(field(&health, "etag"), forty_two.etag);
    drop(child);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_nine_and_data_dir_recovery_keep_verdicts_byte_stable() {
    let dir = temp_dir("validate");

    // ---- First life: boot, capture the validation story. ----
    let (child, addr) = spawn_batch(&dir, 7);
    let (status, head, before) = get(addr, "/v1/validate", None);
    assert_eq!(status, 200, "{before}");
    let etag = etag_of(&head);
    assert!(
        before.contains("\"confirmed\""),
        "live report must carry verdicts: {before:.>60}"
    );

    // ---- kill -9: no drain, no flush, no farewell. ----
    drop(child);

    // ---- Second life: same --data-dir. The binary recovers the
    //      epoch from the durable log (validation included, record
    //      version 3) instead of re-running the pipeline. ----
    let (child, addr) = spawn_batch(&dir, 7);
    let (status, head, after) = get(addr, "/v1/validate", None);
    assert_eq!(status, 200, "{after}");
    assert_eq!(
        after, before,
        "verdicts must be byte-stable across kill -9 + recovery"
    );
    assert_eq!(etag_of(&head), etag, "content ETag survives the crash");

    // The first life's ETag still revalidates against the second life.
    let inm = format!("If-None-Match: {etag}");
    let (status, _, body) = get(addr, "/v1/validate", Some(&inm));
    assert_eq!(status, 304, "{body}");

    drop(child);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_with_workers_is_refused_before_boot() {
    let mut child = Running(
        Command::new(SERVE_BIN)
            .args(["tiny", "--live", "--workers=2", "--addr=127.0.0.1:0"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn mlpeer-serve"),
    );
    let mut lines = BufReader::new(child.0.stderr.take().expect("stderr piped"));
    let mut stderr = String::new();
    let mut line = String::new();
    while lines.read_line(&mut line).expect("read server stderr") > 0 {
        assert!(
            !line.starts_with("# serving on"),
            "--live --workers=2 booted and served:\n{stderr}{line}"
        );
        stderr.push_str(&line);
        line.clear();
    }
    let status = child.0.wait().expect("reap");
    assert_eq!(status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.contains("--live") && l.contains("--workers")),
        "the refusal must name both flags:\n{stderr}"
    );
    assert!(
        !stderr.contains("# generating ecosystem"),
        "refused only after generating:\n{stderr}"
    );
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
        Command::new(SERVE_BIN)
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
        if TcpStream::connect(addr).is_ok() && get(addr, "/readyz", None).0 == 200 {
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
