//! Fault-injection end-to-end suite for the multi-process harvest:
//! workers are crashed (SIGKILL mid-shard and mid-frame), stalled past
//! the deadline, made to corrupt frames, and made to double-deliver
//! results — and in every case the coordinator retries, dedups, or
//! degrades such that the final snapshot's content ETag is
//! byte-identical to the single-process run.
//!
//! The ETag is the content hash over the link set and the observation
//! corpus, and every `/v1/*` body renders from exactly those — so ETag
//! equality here is body equality over HTTP (`tests/serve_e2e.rs`
//! pins that correspondence).

use std::time::Duration;

use mlpeer_bench::Scale;
use mlpeer_dist::{default_worker_cmd, DistConfig, DistStats, Fault};
use mlpeer_ixp::Ecosystem;
use mlpeer_serve::Snapshot;

/// The real worker binary, resolved the way production does (sibling
/// of the test executable's target dir). The workspace `cargo test`
/// builds every bin before running integration tests, so this must
/// resolve — a `None` here is a build-layout regression, not a skip.
fn worker_cmd() -> (std::path::PathBuf, Vec<String>) {
    default_worker_cmd().expect("mlpeer-dist-worker binary must be built alongside the tests")
}

fn dist_cfg(workers: usize, faults: Vec<(usize, u32, Fault)>) -> DistConfig {
    DistConfig {
        workers,
        timeout: Duration::from_secs(120),
        max_retries: 2,
        worker_cmd: Some(worker_cmd()),
        faults,
    }
}

/// Serial and distributed snapshots of the same `(scale, seed)`; the
/// caller asserts on the pair plus the recorded coordinator counters.
fn snapshots(
    scale: Scale,
    seed: u64,
    cfg: &DistConfig,
) -> (Snapshot, Snapshot, mlpeer_dist::DistStatsSnapshot) {
    let eco = Ecosystem::generate(scale.config(seed));
    let serial = Snapshot::of_pipeline(&eco, scale, seed);
    let stats = DistStats::new(cfg.workers as u64);
    let dist = Snapshot::of_pipeline_dist(&eco, scale, seed, cfg, &stats);
    (serial, dist, stats.snapshot())
}

/// Every injected fault class at once — a silent SIGKILL before the
/// reply, a SIGKILL halfway through writing the result frame, a
/// corrupted payload byte, and a double-delivered result — across
/// multiple seeds: the coordinator retries the crashed and corrupt
/// shards, dedups the duplicate, and the ETag never moves.
#[test]
fn injected_crashes_corruption_and_duplicates_keep_etag_identical() {
    for seed in [20130501u64, 777] {
        let cfg = dist_cfg(
            3,
            vec![
                (0, 0, Fault::CrashSilent),
                (0, 1, Fault::CrashMidFrame),
                (1, 0, Fault::Garbage),
                (2, 0, Fault::Duplicate),
            ],
        );
        let (serial, dist, snap) = snapshots(Scale::Tiny, seed, &cfg);
        assert_eq!(
            dist.etag, serial.etag,
            "seed {seed}: ETag must survive fault injection"
        );
        assert_eq!(dist.links, serial.links, "seed {seed}");
        assert_eq!(dist.observation_count, serial.observation_count);
        assert_eq!(dist.passive_stats, serial.passive_stats);
        // Shard 0 failed twice (silent kill, then torn frame), shard 1
        // once (checksum); each failure is one retry.
        assert!(snap.retried >= 3, "seed {seed}: {snap:?}");
        // The double-delivered result folded exactly once.
        assert!(snap.deduped >= 1, "seed {seed}: {snap:?}");
        assert_eq!(snap.degraded, 0, "retries must suffice: {snap:?}");
        assert!(snap.spawned >= 3 + 3, "fresh process per attempt: {snap:?}");
    }
}

/// A worker stalled far past the deadline is killed, counted, and
/// retried — the answer is unchanged, only slower.
#[test]
fn stalled_worker_is_killed_counted_and_retried() {
    let seed = 20130501u64;
    let mut cfg = dist_cfg(2, vec![(1, 0, Fault::StallMs(600_000))]);
    cfg.timeout = Duration::from_secs(10);
    let (serial, dist, snap) = snapshots(Scale::Tiny, seed, &cfg);
    assert_eq!(dist.etag, serial.etag, "ETag must survive a stall");
    assert!(snap.timed_out >= 1, "{snap:?}");
    assert!(snap.retried >= 1, "{snap:?}");
    assert_eq!(snap.degraded, 0, "{snap:?}");
}

/// When the worker binary cannot be spawned at all, every shard
/// degrades to in-process execution — which *is* the serial code path,
/// so the ETag cannot move.
#[test]
fn unspawnable_worker_degrades_to_identical_snapshot() {
    let seed = 4242u64;
    let cfg = DistConfig {
        workers: 3,
        worker_cmd: Some((
            std::path::PathBuf::from("/nonexistent/mlpeer-dist-worker"),
            Vec::new(),
        )),
        ..DistConfig::new(3)
    };
    let (serial, dist, snap) = snapshots(Scale::Tiny, seed, &cfg);
    assert_eq!(dist.etag, serial.etag);
    assert_eq!(snap.spawned, 0, "{snap:?}");
    assert!(snap.degraded >= 1, "every shard must degrade: {snap:?}");
}

/// Scale axis of the acceptance criterion: the equality holds at a
/// second (larger) scale and worker count, fault-free.
#[test]
fn etag_equality_holds_across_scales_and_worker_counts() {
    for (scale, seed, workers) in [(Scale::Tiny, 1u64, 2usize), (Scale::Small, 20130501, 4)] {
        let cfg = dist_cfg(workers, Vec::new());
        let (serial, dist, snap) = snapshots(scale, seed, &cfg);
        assert_eq!(
            dist.etag, serial.etag,
            "{scale:?}/seed {seed}/{workers} workers"
        );
        assert_eq!(snap.degraded, 0, "{snap:?}");
        assert!(snap.spawned >= 1, "{snap:?}");
    }
}
