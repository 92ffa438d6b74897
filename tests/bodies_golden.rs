//! Golden fixture for the served JSON bodies.
//!
//! The committed fixture (`tests/golden/bodies_golden.txt`) pins, per
//! case and body kind, the number of bodies, their total bytes and one
//! FxHash over all of them, as `api::route` answers them:
//!
//! * batch snapshots (`Snapshot::of_pipeline`) at (tiny, 7),
//!   (tiny, 42) and (small, 20130501): `/v1/ixps`, `/v1/validate`,
//!   every `/v1/ixp/{id}/links`, every linked `/v1/member/{asn}`, every
//!   announced `/v1/prefix/{p}` (publish-time cache hits) and each
//!   distinct /16 of the announced prefixes (a live render through the
//!   link index's prefix lookups);
//! * a Tiny live run — bootstrap, then five 20-event churn ticks — over
//!   the uncached tick snapshot the last publish left (every body a
//!   live render), plus its `/v1/changes?since=0` delta;
//! * the bodies that carry no snapshot content: `/healthz`, `/readyz`,
//!   `/v1/stats` (server uptime masked to 0) and the error bodies.
//!
//! A renderer change that moves one byte of one body fails here.
//! Deliberate format changes regenerate the fixture with
//! `MLPEER_REGEN_GOLDEN=1 cargo test --test bodies_golden`.

use std::collections::BTreeSet;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Duration;

use mlpeer::hash::FxHasher;
use mlpeer::pipeline::Scale;
use mlpeer_bgp::Prefix;
use mlpeer_data::churn::ChurnConfig;
use mlpeer_dist::DistStats;
use mlpeer_ixp::Ecosystem;
use mlpeer_serve::http::{Request, Response};
use mlpeer_serve::{
    api, bootstrap, ChangeLog, HealthState, LiveConfig, LiveLoop, LiveStats, ReactorStats,
    ServerStats, Snapshot, SnapshotStore,
};

const GOLDEN: &str = include_str!("golden/bodies_golden.txt");

/// The batch `(scale, seed)` cases.
const BATCH: [(Scale, u64); 3] = [
    (Scale::Tiny, 7),
    (Scale::Tiny, 42),
    (Scale::Small, 20130501),
];

/// Count, total bytes and one FxHash over a run of bodies.
#[derive(Default)]
struct Tally {
    count: usize,
    bytes: usize,
    hash: FxHasher,
}

impl Tally {
    fn add(&mut self, status: u16, body: &[u8]) {
        self.count += 1;
        self.bytes += body.len();
        self.hash.write_u16(status);
        self.hash.write(body);
    }

    fn line(&self, case: &str, kind: &str) -> String {
        format!(
            "{case} {kind} {} {} {:016x}",
            self.count,
            self.bytes,
            self.hash.finish()
        )
    }
}

fn get(path: &str, query: &str) -> Request {
    Request {
        method: "GET".into(),
        path: path.into(),
        query: query.into(),
        ..Request::default()
    }
}

fn route(snap: &Arc<Snapshot>, changes: &ChangeLog, path: &str, query: &str) -> Response {
    api::route(
        &get(path, query),
        snap,
        &ServerStats::default(),
        changes,
        None,
        None,
        None,
        None,
        None,
    )
}

/// The `/16` covering a prefix's network address.
fn slash16(p: &Prefix) -> Prefix {
    Prefix::new(p.network(), 16).expect("valid length")
}

/// One fixture line per body kind over every snapshot-addressed body.
fn snapshot_lines(case: &str, snap: &Arc<Snapshot>) -> Vec<String> {
    let ring = ChangeLog::new(8);
    let mut lines = Vec::new();
    let mut tally_of = |kind: &str, paths: Vec<String>| {
        let mut t = Tally::default();
        for path in paths {
            let r = route(snap, &ring, &path, "");
            assert_eq!(r.status, 200, "{case} {path}");
            t.add(r.status, r.body.as_slice());
        }
        lines.push(t.line(case, kind));
    };
    tally_of("ixps", vec!["/v1/ixps".into()]);
    tally_of("validate", vec!["/v1/validate".into()]);
    tally_of(
        "ixp_links",
        snap.names
            .keys()
            .map(|id| format!("/v1/ixp/{}/links", id.0))
            .collect(),
    );
    tally_of(
        "members",
        snap.index
            .members()
            .iter()
            .map(|asn| format!("/v1/member/{}", asn.value()))
            .collect(),
    );
    let announced = snap.index.announced_prefixes();
    tally_of(
        "prefixes",
        announced
            .iter()
            .map(|p| format!("/v1/prefix/{p}"))
            .collect(),
    );
    let slash16s: BTreeSet<Prefix> = announced.iter().map(slash16).collect();
    tally_of(
        "prefix_slash16",
        slash16s.iter().map(|p| format!("/v1/prefix/{p}")).collect(),
    );
    lines
}

/// A Tiny live run: bootstrap, then `TICKS` ticks of `EVENTS` churn
/// events, each publishing an uncached snapshot when it moved anything
/// (the live refresher's tick, run synchronously).
fn live_lines() -> Vec<String> {
    const SEED: u64 = 7;
    const TICKS: usize = 5;
    const EVENTS: usize = 20;
    let eco = Ecosystem::generate(Scale::Tiny.config(SEED));
    let (inferencer, initial) = bootstrap(&eco, "tiny", SEED);
    let store = SnapshotStore::new(initial);
    let mut live = LiveLoop::new(
        eco,
        inferencer,
        LiveConfig {
            interval: Duration::ZERO,
            events_per_tick: EVENTS,
            churn: ChurnConfig {
                seed: 20131007,
                ..ChurnConfig::default()
            },
            scale: "tiny".into(),
            seed: SEED,
        },
    );
    let stats = LiveStats::default();
    for _ in 0..TICKS {
        live.tick(&store, &stats);
    }
    let snap = store.load();
    assert!(snap.epoch > 0, "the live run must publish");
    assert_eq!(snap.cache.body_count(), 0, "tick snapshots stay uncached");
    let case = format!("live-tiny-{SEED}@{}", snap.epoch);
    let mut lines = snapshot_lines(&case, &snap);
    let mut t = Tally::default();
    let r = route(&snap, store.changes(), "/v1/changes", "since=0");
    assert_eq!(r.status, 200);
    t.add(r.status, r.body.as_slice());
    lines.push(t.line(&case, "changes_since0"));
    lines
}

/// Replace the digits after every `"uptime_ms": ` with `0`: the one
/// field of these bodies that depends on the clock.
fn mask_uptime(body: &[u8]) -> Vec<u8> {
    const KEY: &[u8] = b"\"uptime_ms\": ";
    let mut out = Vec::with_capacity(body.len());
    let mut i = 0;
    while i < body.len() {
        if body[i..].starts_with(KEY) {
            out.extend_from_slice(KEY);
            i += KEY.len();
            while i < body.len() && body[i].is_ascii_digit() {
                i += 1;
            }
            out.push(b'0');
        } else {
            out.push(body[i]);
            i += 1;
        }
    }
    out
}

/// The bodies that carry no snapshot content: health, stats (null and
/// populated subsystem counters) and the error shapes.
fn misc_lines() -> Vec<String> {
    let mut snap =
        Snapshot::of_pipeline(&Ecosystem::generate(Scale::Tiny.config(7)), Scale::Tiny, 7);
    snap.epoch = 3;
    let snap = Arc::new(snap);
    let stats = ServerStats::default();
    let ring = ChangeLog::new(8);
    let (live, reactor, dist) = (
        LiveStats::default(),
        ReactorStats::default(),
        DistStats::default(),
    );
    let health = HealthState::new();
    health.set_live_restarting(true);
    let mut t = Tally::default();
    let mut add = |r: Response| t.add(r.status, &mask_uptime(r.body.as_slice()));
    for (path, query) in [
        ("/healthz", ""),
        ("/readyz", ""),
        ("/v1/stats", ""),
        ("/v1/nope", ""),
        ("/v1/member/xyz", ""),
        ("/v1/ixp/999/links", ""),
        ("/v1/ixps", "at=9"),
        ("/v1/ixps", "at=1"),
        ("/v1/changes", "since=1"),
        ("/v1/changes", "since=banana"),
    ] {
        add(api::route(
            &get(path, query),
            &snap,
            &stats,
            &ring,
            None,
            None,
            None,
            None,
            None,
        ));
    }
    for path in ["/readyz", "/v1/stats"] {
        add(api::route(
            &get(path, ""),
            &snap,
            &stats,
            &ring,
            None,
            Some(&live),
            Some(&reactor),
            Some(&dist),
            Some(health.as_ref()),
        ));
    }
    // A method other than GET, and an escape-bearing message.
    let mut post = get("/v1/ixps", "");
    post.method = "POST".into();
    add(api::route(
        &post, &snap, &stats, &ring, None, None, None, None, None,
    ));
    add(api::error(400, "tab\there \"quoted\" back\\slash\nnewline"));
    vec![t.line("misc-tiny-7", "health_stats_errors")]
}

fn actual_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (scale, seed) in BATCH {
        let eco = Ecosystem::generate(scale.config(seed));
        let snap = Arc::new(Snapshot::of_pipeline(&eco, scale, seed));
        lines.extend(snapshot_lines(&format!("{}-{seed}", scale.word()), &snap));
    }
    lines.extend(live_lines());
    lines.extend(misc_lines());
    lines
}

#[test]
fn served_bodies_are_pinned() {
    let actual = actual_lines();
    if std::env::var("MLPEER_REGEN_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/bodies_golden.txt"
        );
        let mut out = String::from("# case kind bodies bytes fxhash\n");
        for line in &actual {
            out.push_str(line);
            out.push('\n');
        }
        std::fs::write(path, out).expect("write golden fixture");
        eprintln!("regenerated {path}");
    }
    let committed: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert_eq!(
        committed.len(),
        actual.len(),
        "fixture must cover every case"
    );
    for (want, got) in committed.iter().zip(&actual) {
        assert_eq!(
            want, got,
            "golden mismatch — if the change is deliberate, regenerate with \
             MLPEER_REGEN_GOLDEN=1 cargo test --test bodies_golden"
        );
    }
}
