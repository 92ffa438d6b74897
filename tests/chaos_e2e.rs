//! Chaos end-to-end suite: activate failpoints across the store, dist
//! and serve layers and assert the degradation contract — the server
//! keeps answering **byte-identical** reads while a fault is firing,
//! `/readyz` truthfully names each degraded reason, and clearing the
//! failpoint returns the system to `ready` without a restart.
//!
//! Failpoints are process-global, so every test serializes on one
//! mutex and tears the registry down on entry and exit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mlpeer::index::scan;
use mlpeer::infer::{infer_links, MlpLinkSet};
use mlpeer::live::{full_harvest, LinkDelta};
use mlpeer::passive::PassiveStats;
use mlpeer::report::to_json;
use mlpeer::validate::cross::ValidationReport;
use mlpeer_bench::Scale;
use mlpeer_bgp::Asn;
use mlpeer_data::churn::ChurnConfig;
use mlpeer_dist::{default_worker_cmd, DistConfig, DistStats};
use mlpeer_ixp::{Ecosystem, EcosystemConfig, IxpId};
use mlpeer_serve::{
    bootstrap, spawn_live_refresher, DurableStore, LiveConfig, LiveLoop, LiveStats, SinceAnswer,
    Snapshot, SnapshotStore,
};

/// One registry, one test at a time. A poisoned guard (a failed test)
/// must not cascade, so the lock is recovered rather than unwrapped.
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_guard() -> MutexGuard<'static, ()> {
    let guard = CHAOS.lock().unwrap_or_else(|p| p.into_inner());
    failpoints::teardown();
    guard
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlpeer-chaos-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Poll a condition until it holds (or panic at the deadline).
fn wait_for(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let until = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < until, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Store-layer append failures trip the serve-side durability breaker
/// after three consecutive publishes; memory-path reads stay
/// byte-identical to a fault-free store throughout, `/readyz` names
/// `durable-append`, and once the fault clears the recovery probe
/// persists the pending epoch and closes the breaker — no restart.
#[test]
fn store_append_failure_degrades_then_probe_recovers() {
    let _guard = chaos_guard();
    let seed = 20130501;
    let eco = Ecosystem::generate(Scale::Tiny.config(seed));
    // The pipeline is deterministic in (scale, seed): every build is
    // byte-identical, which is what makes the faulty/clean comparison
    // meaningful.
    let build = || Snapshot::of_pipeline(&eco, Scale::Tiny, seed);

    let dir = temp_dir("breaker");
    let durable = Arc::new(DurableStore::open(&dir).unwrap());
    let faulty = SnapshotStore::new(build());
    faulty.attach_durable(Arc::clone(&durable)).unwrap();
    let clean = SnapshotStore::new(build());

    failpoints::cfg("store::append", "return(chaos: disk gone)").unwrap();
    for _ in 0..3 {
        faulty.publish(build());
        clean.publish(build());
    }
    let health = faulty.health();
    assert!(health.durable_breaker_open(), "3 failures trip the breaker");
    assert_eq!(health.status(), "degraded");
    assert_eq!(health.reasons(), vec!["durable-append"]);
    assert!(failpoints::hits("store::append") >= 3);

    // The memory path never noticed: same epoch, same content ETag,
    // byte-identical snapshot-addressed renders as the fault-free run.
    let (f, c) = (faulty.load(), clean.load());
    assert_eq!(f.epoch, c.epoch);
    assert_eq!(f.etag, c.etag, "ETag must not move under store faults");
    let req = mlpeer_serve::http::Request {
        method: "GET".into(),
        path: "/v1/ixps".into(),
        ..Default::default()
    };
    let stats = mlpeer_serve::ServerStats::default();
    let render = |store: &SnapshotStore, snap: &Arc<Snapshot>| {
        mlpeer_serve::api::route(
            &req,
            snap,
            &stats,
            store.changes(),
            None,
            None,
            None,
            None,
            Some(store.health().as_ref()),
        )
        .body
        .as_slice()
        .to_vec()
    };
    assert_eq!(
        render(&faulty, &f),
        render(&clean, &c),
        "reads are byte-identical while the breaker is open"
    );

    // Clear the fault: the probe (50 ms → 2 s backoff) lands the
    // pending epoch and closes the breaker without another publish.
    failpoints::remove("store::append");
    wait_for("durability probe recovery", Duration::from_secs(10), || {
        !faulty.health().durable_breaker_open()
    });
    wait_for("log catches up", Duration::from_secs(10), || {
        durable.latest_epoch() == Some(faulty.load().epoch)
    });
    assert_eq!(faulty.health().status(), "ready");
    assert!(faulty.health().durable_recoveries() >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The snapshot published as epoch `e` in
/// [`intermittent_append_failures_leave_no_gap_in_the_log`]: links
/// `(k, 1000 + k)` for `k` in `1..=e` at one IXP, so every epoch has
/// its own ETag and epoch `e`'s delta adds exactly link `e`.
fn epoch_snapshot(e: u64) -> Snapshot {
    let mut links = MlpLinkSet::default();
    let pairs = (1..=e as u32).map(|k| (Asn(k), Asn(1000 + k))).collect();
    links.per_ixp.insert(IxpId(0), pairs);
    Snapshot::build_uncached_validated(
        "tiny",
        e,
        [(IxpId(0), "IX".to_string())].into(),
        links,
        &[],
        PassiveStats::default(),
        ValidationReport::default(),
    )
}

/// The delta that turns [`epoch_snapshot`]`(e - 1)` into `epoch_snapshot(e)`.
fn epoch_delta(e: u64) -> LinkDelta {
    LinkDelta {
        added: vec![(IxpId(0), Asn(e as u32), Asn(1000 + e as u32))],
        removed: vec![],
    }
}

/// Every other durable append failing never trips the breaker (a
/// success always follows a failure), so only the publish path can
/// land the failed epochs: it appends them, oldest first, before its
/// own. Every epoch but possibly the newest revives from the log, and
/// the stored deltas fold from genesis to the newest landed epoch.
#[test]
fn intermittent_append_failures_leave_no_gap_in_the_log() {
    let _guard = chaos_guard();
    let dir = temp_dir("intermittent");
    let durable = Arc::new(DurableStore::open(&dir).unwrap());
    let store = SnapshotStore::new(epoch_snapshot(0));
    store.attach_durable(Arc::clone(&durable)).unwrap();
    assert_eq!(durable.latest_epoch(), Some(0), "boot epoch lands");

    failpoints::cfg("serve::durable_append", "1in(2)").unwrap();
    let mut etags = vec![store.load().etag.clone()];
    for e in 1..=20u64 {
        assert_eq!(
            store.publish_with_delta(epoch_snapshot(e), epoch_delta(e)),
            e
        );
        etags.push(store.load().etag.clone());
    }
    assert!(failpoints::hits("serve::durable_append") >= 20);
    failpoints::remove("serve::durable_append");

    let newest = durable.latest_epoch().expect("log has epochs");
    assert!(newest >= 19, "newest landed epoch {newest}");
    for (e, etag) in etags.iter().enumerate() {
        match durable.snapshot_at(e as u64) {
            Some(revived) => assert_eq!(&revived.etag, etag, "epoch {e} revives"),
            None => assert!(
                e == 20 && newest == 19,
                "epoch {e} is missing from the log (newest landed {newest})"
            ),
        }
    }
    let (added, removed) = durable
        .fold_since(0, newest)
        .expect("stored deltas cover every epoch from genesis");
    assert_eq!(added.len() as u64, newest, "one added link per epoch");
    assert!(removed.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The graceful drain lands what the publish path parked. When only
/// the newest publish's append fails, no later publish lands it and one
/// failure is too few to start the probe; the drain's landing routine,
/// run before the final sync, puts it in the log, so the reopened log's
/// latest epoch and ETag are the ones last served.
#[test]
fn drain_lands_the_newest_parked_epoch() {
    let _guard = chaos_guard();
    let dir = temp_dir("drain-parked");
    let durable = Arc::new(DurableStore::open(&dir).unwrap());
    let store = SnapshotStore::new(epoch_snapshot(0));
    store.attach_durable(Arc::clone(&durable)).unwrap();
    for e in 1..=4u64 {
        store.publish_with_delta(epoch_snapshot(e), epoch_delta(e));
    }
    failpoints::cfg("serve::durable_append", "return(chaos: disk full)").unwrap();
    assert_eq!(
        store.publish_with_delta(epoch_snapshot(5), epoch_delta(5)),
        5
    );
    failpoints::remove("serve::durable_append");
    assert_eq!(durable.latest_epoch(), Some(4), "epoch 5 is parked");
    assert!(!store.health().durable_breaker_open());
    let served = store.load();

    // The drain: land the parked epochs, then sync.
    store.land_parked().expect("the parked epoch lands");
    durable.sync().unwrap();
    drop((store, durable));

    let reopened = DurableStore::open(&dir).unwrap();
    let latest = reopened.latest().expect("the log has epochs");
    assert_eq!(
        (latest.epoch, &latest.etag),
        (served.epoch, &served.etag),
        "the reopened log ends at the served epoch"
    );
    let (added, _) = reopened.fold_since(4, 5).expect("epoch 5 kept its delta");
    assert_eq!(added.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Readers never wait on the disk: a publish holds the snapshot lock
/// only for the pointer swap, so a `load()` made while the publish's
/// durable append stalls for 300 ms returns at once, already seeing
/// the new epoch.
#[test]
fn load_does_not_wait_for_a_stalled_durable_append() {
    let _guard = chaos_guard();
    let dir = temp_dir("stalled-append");
    let durable = Arc::new(DurableStore::open(&dir).unwrap());
    let store = SnapshotStore::new(epoch_snapshot(0));
    store.attach_durable(Arc::clone(&durable)).unwrap();

    failpoints::cfg("serve::durable_append", "delay(300)").unwrap();
    std::thread::scope(|scope| {
        let publisher = scope.spawn(|| store.publish_with_delta(epoch_snapshot(1), epoch_delta(1)));
        wait_for(
            "the publish to reach its append",
            Duration::from_secs(10),
            || failpoints::hits("serve::durable_append") >= 1,
        );
        let started = Instant::now();
        let loaded = store.load();
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_millis(100),
            "load() waited {waited:?} behind a durable append"
        );
        assert_eq!(loaded.epoch, 1, "the swap precedes the append");
        assert_eq!(publisher.join().unwrap(), 1);
    });
    failpoints::remove("serve::durable_append");
    assert_eq!(durable.latest_epoch(), Some(1), "the stalled append lands");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A boot-time attach whose catch-up append fails must not abort the
/// process: availability wins. The breaker opens immediately (there is
/// no append history to smooth over), reads serve from memory, and the
/// recovery probe lands the boot epoch once the disk answers.
#[test]
fn boot_attach_failure_degrades_and_probe_lands_epoch_zero() {
    let _guard = chaos_guard();
    let seed = 20130501;
    let eco = Ecosystem::generate(Scale::Tiny.config(seed));
    let dir = temp_dir("boot-attach");
    let durable = Arc::new(DurableStore::open(&dir).unwrap());
    let store = SnapshotStore::new(Snapshot::of_pipeline(&eco, Scale::Tiny, seed));

    failpoints::cfg("store::append", "return(chaos: disk gone)").unwrap();
    store
        .attach_durable(Arc::clone(&durable))
        .expect("attach survives a failing disk");
    assert!(
        store.health().durable_breaker_open(),
        "breaker opens at boot"
    );
    assert_eq!(store.health().status(), "degraded");
    assert_eq!(store.health().reasons(), vec!["durable-append"]);
    assert!(durable.latest_epoch().is_none(), "nothing landed yet");

    failpoints::remove("store::append");
    wait_for(
        "probe lands the boot epoch",
        Duration::from_secs(10),
        || durable.latest_epoch() == Some(store.load().epoch),
    );
    wait_for("breaker closes", Duration::from_secs(10), || {
        store.health().status() == "ready"
    });
    assert!(store.health().durable_recoveries() >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An fsync failpoint surfaces as an error from the explicit sync path
/// (what the drain sequence calls) and clears with the failpoint.
#[test]
fn fsync_failpoint_fails_explicit_sync_then_clears() {
    let _guard = chaos_guard();
    let dir = temp_dir("fsync");
    let durable = DurableStore::open(&dir).unwrap();
    failpoints::cfg("store::fsync", "return(chaos: EIO)").unwrap();
    let err = durable.sync().expect_err("injected fsync failure");
    assert!(err.to_string().contains("chaos: EIO"), "{err}");
    failpoints::remove("store::fsync");
    durable.sync().expect("sync succeeds once the fault clears");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failing record read (the `store::read` failpoint) makes the log's
/// reads answer nothing: `snapshot_at` and `latest()` return `None`,
/// `?at=` a past epoch draws a 410, and the live epoch keeps serving
/// from memory. Once the failpoint is removed, both reads return the
/// stored epochs with their ETags again.
#[test]
fn read_failpoint_hides_the_log_but_not_the_live_epoch() {
    let _guard = chaos_guard();
    let dir = temp_dir("read");
    let durable = Arc::new(DurableStore::open(&dir).unwrap());
    let store = SnapshotStore::new(epoch_snapshot(0));
    store.attach_durable(Arc::clone(&durable)).unwrap();
    for e in 1..=2u64 {
        store.publish_with_delta(epoch_snapshot(e), epoch_delta(e));
    }
    let live = store.load();
    assert_eq!(durable.latest_epoch(), Some(live.epoch));
    let past = epoch_snapshot(1);
    let stats = mlpeer_serve::ServerStats::default();
    let get = |query: &str| {
        let req = mlpeer_serve::http::Request {
            method: "GET".into(),
            path: "/v1/ixps".into(),
            query: query.into(),
            ..Default::default()
        };
        mlpeer_serve::api::route(
            &req,
            &store.load(),
            &stats,
            store.changes(),
            Some(durable.as_ref()),
            None,
            None,
            None,
            Some(store.health().as_ref()),
        )
    };
    let etag_of = |r: &mlpeer_serve::http::Response| {
        r.headers
            .iter()
            .find(|(name, _)| name == "ETag")
            .map(|(_, value)| value.clone())
    };

    failpoints::cfg("store::read", "return(chaos: EIO)").unwrap();
    assert!(durable.snapshot_at(1).is_none(), "armed reads return None");
    assert!(durable.latest().is_none(), "armed reads return None");
    assert!(failpoints::hits("store::read") >= 2);
    let r = get("");
    assert_eq!(r.status, 200, "the live epoch keeps serving");
    assert_eq!(etag_of(&r), Some(format!("\"{}\"", live.etag)));
    assert_eq!(get("at=1").status, 410, "a past epoch cannot be read");

    failpoints::remove("store::read");
    let revived = durable.snapshot_at(1).expect("epoch 1 reads again");
    assert_eq!((revived.epoch, &revived.etag), (1, &past.etag));
    let latest = durable.latest().expect("the newest epoch reads again");
    assert_eq!((latest.epoch, &latest.etag), (live.epoch, &live.etag));
    let r = get("at=1");
    assert_eq!(r.status, 200);
    assert_eq!(etag_of(&r), Some(format!("\"{}\"", past.etag)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panicking live tick is caught and restarted with backoff: the
/// restart counter moves, `/readyz` reports `live-refresher`, and once
/// the failpoint clears the loop publishes again and health returns to
/// `ready` — the same thread, never respawned externally.
#[test]
fn refresher_panic_restarts_with_backoff_and_recovers() {
    let _guard = chaos_guard();
    let eco = Ecosystem::generate(EcosystemConfig::tiny(77));
    let (inferencer, snapshot) = bootstrap(&eco, "tiny", 77);
    let store = SnapshotStore::new(snapshot);
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(LiveStats::default());

    failpoints::cfg("serve::live_tick", "panic(chaos tick)").unwrap();
    let refresher = spawn_live_refresher(
        Arc::clone(&store),
        eco,
        inferencer,
        LiveConfig {
            interval: Duration::from_millis(10),
            events_per_tick: 25,
            churn: ChurnConfig {
                seed: 3,
                ..ChurnConfig::default()
            },
            scale: "tiny".into(),
            seed: 77,
        },
        Arc::clone(&stats),
        Arc::clone(&shutdown),
    );
    wait_for("two supervised restarts", Duration::from_secs(10), || {
        stats.restarts.load(Ordering::Relaxed) >= 2
    });
    assert_eq!(store.health().status(), "degraded");
    assert_eq!(store.health().reasons(), vec!["live-refresher"]);
    let stale_epoch = store.load().epoch;

    failpoints::remove("serve::live_tick");
    wait_for("publishes resume", Duration::from_secs(15), || {
        store.load().epoch > stale_epoch
    });
    wait_for("health clears", Duration::from_secs(15), || {
        store.health().status() == "ready"
    });
    shutdown.store(true, Ordering::Relaxed);
    refresher.join().unwrap();
}

/// A tick that panics between applying a churn event and decoding it
/// leaves the ecosystem ahead of the inferencer. The next tick rebuilds
/// the inferencer from the ecosystem and publishes the difference, so
/// the served links and announcements equal a fresh harvest and
/// inference over the loop's ecosystem, and the change chain from epoch 0 still
/// composes to the served links.
#[test]
fn panicking_decode_resyncs_the_inferencer_and_the_change_chain() {
    let _guard = chaos_guard();
    let eco = Ecosystem::generate(EcosystemConfig::tiny(77));
    let (inferencer, snapshot) = bootstrap(&eco, "tiny", 77);
    let triples = |links: &MlpLinkSet| -> std::collections::BTreeSet<(IxpId, Asn, Asn)> {
        links
            .per_ixp
            .iter()
            .flat_map(|(ixp, s)| s.iter().map(move |&(a, b)| (*ixp, a, b)))
            .collect()
    };
    let initial = triples(&snapshot.links);
    let store = SnapshotStore::new(snapshot);
    let stats = LiveStats::default();
    let mut live = LiveLoop::new(
        eco,
        inferencer,
        LiveConfig {
            interval: Duration::from_millis(10),
            events_per_tick: 25,
            churn: ChurnConfig {
                seed: 3,
                ..ChurnConfig::default()
            },
            scale: "tiny".into(),
            seed: 77,
        },
    );
    live.tick(&store, &stats);

    failpoints::cfg("serve::live_decode", "panic(chaos decode)").unwrap();
    for _ in 0..5 {
        let tick =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| live.tick(&store, &stats)));
        assert!(tick.is_err(), "the decode failpoint panics the tick");
    }
    assert_eq!(failpoints::hits("serve::live_decode"), 5);
    failpoints::remove("serve::live_decode");
    for _ in 0..3 {
        live.tick(&store, &stats);
    }

    let served = store.load();
    let (conn, observations) = full_harvest(live.ecosystem());
    let fresh = infer_links(&conn, &observations);
    assert_eq!(
        to_json(&served.links),
        to_json(&fresh),
        "served links must equal a fresh inference over the churned ecosystem"
    );
    assert_eq!(
        served.index.announcements(),
        scan::announcements(&fresh, &observations),
        "served announcements must equal the fresh harvest's"
    );
    match store.changes().since(0, served.epoch) {
        SinceAnswer::Delta { added, removed } => {
            let mut composed = initial;
            for l in &removed {
                assert!(composed.remove(l), "removed link {l:?} was never present");
            }
            for l in &added {
                assert!(composed.insert(*l), "added link {l:?} already present");
            }
            assert_eq!(
                composed,
                triples(&served.links),
                "the change chain must compose to the served links"
            );
        }
        SinceAnswer::Truncated { .. } => panic!("the ring covers every epoch of a short run"),
    }
}

/// Worker spawn failures degrade the distributed harvest to in-process
/// execution — counted, and byte-identical to the serial pipeline.
#[test]
fn worker_spawn_failure_degrades_but_keeps_etag() {
    let _guard = chaos_guard();
    let seed = 20130501;
    let eco = Ecosystem::generate(Scale::Tiny.config(seed));
    let serial = Snapshot::of_pipeline(&eco, Scale::Tiny, seed);

    failpoints::cfg("dist::worker_spawn", "return").unwrap();
    let cfg = DistConfig {
        worker_cmd: Some(default_worker_cmd().expect("worker binary is built alongside the tests")),
        ..DistConfig::new(2)
    };
    let stats = DistStats::new(2);
    let dist = Snapshot::of_pipeline_dist(&eco, Scale::Tiny, seed, &cfg, &stats);
    let snap = stats.snapshot();
    assert!(snap.degraded >= 1, "spawn failures must degrade: {snap:?}");
    assert_eq!(dist.etag, serial.etag, "degraded run stays byte-identical");
    assert_eq!(dist.links, serial.links);
    assert_eq!(dist.passive_stats, serial.passive_stats);
    failpoints::remove("dist::worker_spawn");
}
