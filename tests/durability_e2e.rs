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
//! The real `mlpeer-serve` binary's batch boot and drain are covered by
//! `crates/serve/tests/binary_e2e.rs`.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mlpeer::pipeline::Scale;
use mlpeer_data::churn::ChurnConfig;
use mlpeer_ixp::{Ecosystem, EcosystemConfig};
use mlpeer_serve::{
    bootstrap, spawn_live_refresher, spawn_reactor, DurableStore, LiveConfig, LiveStats,
    ReactorConfig, Snapshot, SnapshotStore,
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
    let mut server = spawn_reactor(store, "127.0.0.1:0", ReactorConfig::default()).unwrap();
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
    let mut server = spawn_reactor(store, "127.0.0.1:0", ReactorConfig::default()).unwrap();
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
    let mut server =
        spawn_reactor(Arc::clone(&store), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let addr = server.addr;

    let (status, head, _) = get(addr, "/v1/ixps");
    assert_eq!(status, 200);
    assert!(
        head.contains(&format!("etag: \"{prev_etag}\"")),
        "service resumes at the surviving epoch: {head}"
    );
    // The torn epoch rewound history: it is the *future* again from
    // the recovered epoch's point of view, so `?at=` draws 400 (the
    // 410 is reserved for past epochs that are not in the log).
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
