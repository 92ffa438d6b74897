//! The durable-store bench, recorded to `BENCH_store.json` at the repo
//! root with a scale axis (`Scale::Small` and `Scale::Medium`):
//!
//! 1. **append throughput** — publish a run of epochs through
//!    [`DurableStore::append_epoch`] and record epochs/s and MB/s of
//!    persisted segment bytes (each append frames, checksums, and
//!    flushes one full snapshot plus its delta);
//! 2. **recovery time vs epoch count** — close and reopen the log at
//!    growing epoch counts, timing `open` (the full scan + checksum
//!    validation pass) plus `latest()` (decode + index rebuild of the
//!    newest snapshot), and asserting the recovered ETag matches what
//!    was appended;
//! 3. **`?at=` time travel vs live cache hit** — boot a real server on
//!    the recovered store and compare `GET /v1/ixps` (pre-rendered
//!    body cache) against `GET /v1/ixps?at=<old>` (on-demand revive
//!    from disk), recording the median latency of each.
//!
//! `MLPEER_BENCH_SMOKE=1` runs a reduced pass at `Scale::Tiny` with no
//! JSON rewrite, asserting the same floors — the CI bench-smoke job
//! uses it to keep recovery correctness and the append floor enforced
//! on every PR.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use mlpeer::live::LinkDelta;
use mlpeer_bench::Scale;
use mlpeer_ixp::Ecosystem;
use mlpeer_serve::{spawn_reactor, DurableStore, ReactorConfig, Snapshot, SnapshotStore};

/// Acceptance floor: appends must clear this rate at every scale (an
/// append is an in-memory encode + buffered write + flush; fsync only
/// on segment seal).
const APPEND_EPS_FLOOR: f64 = 20.0;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlpeer-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One GET on a fresh connection; returns (status, elapsed).
fn timed_get(addr: SocketAddr, path: &str) -> (u16, Duration) {
    let t = Instant::now();
    let mut s = TcpStream::connect(addr).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let parts = mlpeer_serve::http::read_response(&mut std::io::BufReader::new(s)).unwrap();
    (parts.status, t.elapsed())
}

/// Median request latency over `n` fresh-connection GETs.
fn median_us(addr: SocketAddr, path: &str, n: usize, expect: u16) -> u64 {
    let mut samples: Vec<u64> = (0..n)
        .map(|_| {
            let (status, d) = timed_get(addr, path);
            assert_eq!(status, expect, "{path}");
            d.as_micros() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A tiny synthetic delta so every appended epoch carries one — the
/// shape `fold_since` works over.
fn nudge_delta(e: u64) -> LinkDelta {
    use mlpeer_bgp::Asn;
    use mlpeer_ixp::ixp::IxpId;
    LinkDelta {
        added: vec![(
            IxpId(0),
            Asn(9_000_000 + e as u32),
            Asn(9_000_001 + e as u32),
        )],
        removed: vec![],
    }
}

struct ScaleResult {
    json: serde_json::Value,
}

fn bench_at(scale: Scale, seed: u64, epochs: u64, checkpoints: &[u64]) -> ScaleResult {
    eprintln!("# generating ecosystem ({scale:?})…");
    let eco = Ecosystem::generate(scale.config(seed));
    let mut snapshot = Snapshot::of_pipeline(&eco, scale, seed);
    let etag = snapshot.etag.clone();
    let dir = temp_dir(scale.word());

    // -------- 1. append throughput --------
    let store = DurableStore::open(&dir).unwrap();
    let t = Instant::now();
    for e in 0..epochs {
        snapshot.epoch = e;
        let delta = (e > 0).then(|| nudge_delta(e));
        store.append_epoch(&snapshot, delta.as_ref()).unwrap();
    }
    let append_elapsed = t.elapsed();
    let stats = store.stats();
    let eps = epochs as f64 / append_elapsed.as_secs_f64();
    let mbps = stats.bytes as f64 / 1e6 / append_elapsed.as_secs_f64();
    eprintln!(
        "# append: {epochs} epochs in {:.1}ms → {eps:.0} epochs/s, {mbps:.1} MB/s \
         ({} segments, {} bytes)",
        append_elapsed.as_secs_f64() * 1e3,
        stats.segments,
        stats.bytes
    );
    assert!(
        eps >= APPEND_EPS_FLOOR,
        "acceptance: appends must clear {APPEND_EPS_FLOOR:.0} epochs/s (got {eps:.1})"
    );
    drop(store);

    // -------- 2. recovery time vs epoch count --------
    // Reopen at growing truncation points by replaying a fresh log; the
    // final point recovers the full history built above.
    let mut recovery = Vec::new();
    for &count in checkpoints.iter().filter(|&&c| c <= epochs) {
        let cdir = temp_dir(&format!("{}-recover-{count}", scale.word()));
        let store = DurableStore::open(&cdir).unwrap();
        for e in 0..count {
            snapshot.epoch = e;
            let delta = (e > 0).then(|| nudge_delta(e));
            store.append_epoch(&snapshot, delta.as_ref()).unwrap();
        }
        drop(store);
        let t = Instant::now();
        let reopened = DurableStore::open(&cdir).unwrap();
        let open_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let latest = reopened.latest().expect("recover latest epoch");
        let latest_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(latest.epoch, count - 1);
        assert_eq!(
            latest.etag, etag,
            "recovered snapshot must be byte-identical"
        );
        eprintln!("# recovery at {count} epochs: open {open_ms:.1}ms, latest() {latest_ms:.1}ms");
        recovery.push(serde_json::json!({
            "epochs": count,
            "open_ms": open_ms,
            "latest_ms": latest_ms,
        }));
        let _ = std::fs::remove_dir_all(&cdir);
    }

    // -------- 3. ?at= revive vs live cache hit --------
    let durable = Arc::new(DurableStore::open(&dir).unwrap());
    let recovered = durable.latest().unwrap();
    let snap_store = SnapshotStore::resume(recovered, 8);
    snap_store.attach_durable(Arc::clone(&durable)).unwrap();
    let mut server = spawn_reactor(snap_store, "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let reps = 12;
    let live_us = median_us(server.addr, "/v1/ixps", reps, 200);
    let at = epochs / 2;
    let travel_us = median_us(server.addr, &format!("/v1/ixps?at={at}"), reps, 200);
    eprintln!("# GET /v1/ixps: live cache hit p50 {live_us}us, ?at={at} revive p50 {travel_us}us");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);

    ScaleResult {
        json: serde_json::json!({
            "scale": scale.word(),
            "append": serde_json::json!({
                "epochs": epochs,
                "elapsed_ms": append_elapsed.as_millis() as u64,
                "epochs_per_sec": eps,
                "mb_per_sec": mbps,
                "segments": stats.segments,
                "bytes": stats.bytes,
            }),
            "recovery": recovery,
            "time_travel": serde_json::json!({
                "requests": reps,
                "live_hit_p50_us": live_us,
                "at_revive_p50_us": travel_us,
            }),
        }),
    }
}

fn bench_store(_c: &mut Criterion) {
    let seed = 20130501u64;
    if std::env::var("MLPEER_BENCH_SMOKE").is_ok() {
        eprintln!("# smoke: durable store pass at Scale::Tiny…");
        bench_at(Scale::Tiny, seed, 8, &[8]);
        return;
    }
    let results: Vec<serde_json::Value> = [
        bench_at(Scale::Small, seed, 64, &[16, 64]),
        bench_at(Scale::Medium, seed, 32, &[8, 32]),
    ]
    .into_iter()
    .map(|r| r.json)
    .collect();
    let report = serde_json::json!({
        "bench": "mlpeer-store durable epoch log",
        "seed": seed,
        "scales": results,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap())
        .expect("write BENCH_store.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
