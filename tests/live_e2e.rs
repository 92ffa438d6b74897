//! End-to-end live mode: boot the live stack on a tiny ecosystem, let
//! churn publish a few epochs, and follow `/v1/changes` over real HTTP
//! like a delta-syncing client would — checking a recent diff is
//! consistent with the served link state, that an up-to-date `since`
//! answers an empty diff, and that stale/malformed `since` values draw
//! the documented 410 full-resync signal and 400 errors.
//!
//! (The vendored `serde_json` has no deserializer, so bodies are
//! checked with string scanning over the deterministic pretty JSON.)

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mlpeer_data::churn::ChurnConfig;
use mlpeer_ixp::{Ecosystem, EcosystemConfig};
use mlpeer_serve::{
    bootstrap, spawn_live_refresher, spawn_reactor, LiveConfig, LiveStats, ReactorConfig,
    SnapshotStore,
};

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" || line.is_empty() {
            break;
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).unwrap();
    (status, body)
}

/// The integer value of `"key": N` in a rendered JSON body.
fn field_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = body.find(&needle)? + needle.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The bracketed array following `"key": [`, including nesting.
fn array_of<'a>(body: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\": [");
    let start = body.find(&needle).map(|i| i + needle.len() - 1).unwrap();
    let bytes = body.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return &body[start..=i];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated array for {key}");
}

/// Every `{ixp, a, b}` triple in a `/v1/changes` added/removed array.
fn change_triples(array: &str) -> Vec<(u64, u64, u64)> {
    array
        .split('{')
        .skip(1)
        .map(|obj| {
            (
                field_u64(obj, "ixp").expect("ixp"),
                field_u64(obj, "a").expect("a"),
                field_u64(obj, "b").expect("b"),
            )
        })
        .collect()
}

/// All integers of a `links: [[a, b], …]` array, paired in order.
fn link_pairs(array: &str) -> Vec<(u64, u64)> {
    let mut nums = Vec::new();
    let mut cur = String::new();
    for c in array.chars() {
        if c.is_ascii_digit() {
            cur.push(c);
        } else if !cur.is_empty() {
            nums.push(cur.parse::<u64>().unwrap());
            cur.clear();
        }
    }
    nums.chunks_exact(2).map(|c| (c[0], c[1])).collect()
}

#[test]
fn live_stack_serves_composable_deltas_and_resync_signal() {
    let eco = Ecosystem::generate(EcosystemConfig::tiny(77));
    let n_ixps = eco.ixps.len();
    let (inferencer, snapshot) = bootstrap(&eco, "tiny", 77);
    // A deliberately shallow ring so the truncation path is reachable.
    let store = SnapshotStore::with_change_capacity(snapshot, 4);
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(LiveStats::default());
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
    let mut server =
        spawn_reactor(Arc::clone(&store), "127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let addr = server.addr;

    // Let the live loop publish several epochs, then quiesce it so the
    // HTTP walk below sees a frozen state.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while store.load().epoch < 6 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    shutdown.store(true, Ordering::Relaxed);
    refresher.join().unwrap();
    let final_epoch = store.load().epoch;
    assert!(final_epoch >= 6, "live loop must publish epochs");

    // The full link state, walked over HTTP.
    let mut final_links = std::collections::BTreeSet::new();
    for id in 0..n_ixps {
        let (status, body) = get(addr, &format!("/v1/ixp/{id}/links"));
        assert_eq!(status, 200);
        for (a, b) in link_pairs(array_of(&body, "links")) {
            final_links.insert((id as u64, a, b));
        }
    }
    assert!(!final_links.is_empty());

    // Up-to-date client: empty diff, resync false.
    let (status, body) = get(addr, &format!("/v1/changes?since={final_epoch}"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"resync\": false"), "{body}");
    assert_eq!(field_u64(&body, "epoch"), Some(final_epoch));
    assert!(change_triples(array_of(&body, "added")).is_empty());
    assert!(change_triples(array_of(&body, "removed")).is_empty());

    // One-epoch-behind client: the diff must be consistent with the
    // final state (every added link present, every removed link gone).
    let (status, body) = get(addr, &format!("/v1/changes?since={}", final_epoch - 1));
    assert_eq!(status, 200, "{body}");
    let added = change_triples(array_of(&body, "added"));
    let removed = change_triples(array_of(&body, "removed"));
    // (The delta may legitimately be empty: an epoch can be published
    // for prefix/policy changes that moved no link.)
    for l in &added {
        assert!(final_links.contains(l), "added {l:?} missing from state");
    }
    for l in &removed {
        assert!(!final_links.contains(l), "removed {l:?} still in state");
    }

    // A client older than the 4-deep ring: 410 + the resync signal.
    let (status, body) = get(addr, "/v1/changes?since=0");
    assert_eq!(status, 410, "{body}");
    assert!(body.contains("\"resync\": true"), "{body}");
    assert!(body.contains("\"oldest_since\""), "{body}");

    // Malformed / future / missing since.
    for q in ["since=banana", &format!("since={}", final_epoch + 10), ""] {
        let path = if q.is_empty() {
            "/v1/changes".to_string()
        } else {
            format!("/v1/changes?{q}")
        };
        let (status, body) = get(addr, &path);
        assert_eq!(status, 400, "{path}: {body}");
    }

    server.stop();
}
