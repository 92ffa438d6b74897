//! Wire equivalence: the epoll reactor must put exactly the router's
//! answer on the wire.
//!
//! A corpus covering every endpoint — success, revalidation, all error
//! classes, `/v1/changes` in delta and 410-resync states, and a
//! malformed request — is replayed against a reactor, and each raw
//! response is compared with [`api::route`]'s answer to the same
//! request over the same store, framed by `head_bytes(false)` (every
//! corpus request asks for `Connection: close`). The reactor emits no
//! `Date` header, so byte equality is well-defined; only `/healthz` and
//! `/v1/stats` are masked down to the status line, since their bodies
//! carry live counters and uptime. A malformed head must draw exactly
//! `api::error(400, "malformed request")`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use mlpeer::live::LinkDelta;
use mlpeer_bench::Scale;
use mlpeer_bgp::Asn;
use mlpeer_ixp::ixp::IxpId;
use mlpeer_ixp::Ecosystem;
use mlpeer_serve::http::{Request, Response};
use mlpeer_serve::{
    api, spawn_reactor, ReactorConfig, ServerHandle, ServerStats, Snapshot, SnapshotStore,
};

/// Send raw request bytes on a fresh connection and read to EOF.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(raw).unwrap();
    let mut out = Vec::new();
    s.read_to_end(&mut out).unwrap();
    out
}

fn get(path: &str, extra: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: eq\r\n{extra}Connection: close\r\n\r\n").into_bytes()
}

/// The request a well-formed corpus head spells out: its request line
/// split into method, path and query, its headers with lowercased
/// names (corpus paths carry no percent escapes).
fn request_of(raw: &[u8]) -> Request {
    let text = std::str::from_utf8(raw).unwrap();
    let mut lines = text.split("\r\n");
    let mut words = lines.next().unwrap().split(' ');
    let (method, target) = (words.next().unwrap(), words.next().unwrap());
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: method.into(),
        path: path.into(),
        query: query.into(),
        headers: lines
            .take_while(|l| !l.is_empty())
            .map(|l| {
                let (name, value) = l.split_once(':').unwrap();
                (name.to_ascii_lowercase(), value.trim().into())
            })
            .collect(),
    }
}

/// A response as the reactor frames it on a `Connection: close`
/// exchange.
fn framed(resp: &Response) -> Vec<u8> {
    let mut out = resp.head_bytes(false);
    out.extend_from_slice(resp.body.as_slice());
    out
}

/// The first CRLF-terminated line of a raw response.
fn status_line(raw: &[u8]) -> &[u8] {
    let end = raw
        .windows(2)
        .position(|w| w == b"\r\n")
        .unwrap_or(raw.len());
    &raw[..end]
}

#[test]
fn reactor_serves_the_routers_bytes() {
    let seed = 20130501u64;
    let build = || {
        let eco = Ecosystem::generate(Scale::Tiny.config(seed));
        Snapshot::of_pipeline(&eco, Scale::Tiny, seed)
    };
    let store = SnapshotStore::with_change_capacity(build(), 1);
    let snap = store.load();
    let member = *snap
        .links
        .unique_links()
        .iter()
        .next()
        .map(|(a, _)| a)
        .unwrap();
    let etag = snap.etag.clone();

    let mut reactor =
        spawn_reactor(Arc::clone(&store), "127.0.0.1:0", ReactorConfig::default()).unwrap();

    let inm = format!("If-None-Match: \"{etag}\"\r\n");
    let member_path = format!("/v1/member/{}", member.value());
    let mut corpus: Vec<(String, Vec<u8>, bool)> = vec![
        // (label, raw request, masked-to-status-line?)
        ("healthz".into(), get("/healthz", ""), true),
        ("stats".into(), get("/v1/stats", ""), true),
        ("ixps".into(), get("/v1/ixps", ""), false),
        ("ixp links".into(), get("/v1/ixp/0/links", ""), false),
        ("member".into(), get(&member_path, ""), false),
        (
            "prefix exact".into(),
            get("/v1/prefix/10.0.0.0/8", ""),
            false,
        ),
        ("member 404".into(), get("/v1/member/64999", ""), false),
        ("unknown path".into(), get("/bogus", ""), false),
        ("ixp 404".into(), get("/v1/ixp/99/links", ""), false),
        (
            "method 405".into(),
            b"POST /v1/ixps HTTP/1.1\r\nHost: eq\r\nConnection: close\r\n\r\n".to_vec(),
            false,
        ),
        ("revalidate 304".into(), get("/v1/ixps", &inm), false),
        (
            "changes current".into(),
            get("/v1/changes?since=0", ""),
            false,
        ),
        (
            "changes bad since".into(),
            get("/v1/changes?since=banana", ""),
            false,
        ),
        (
            "changes future since".into(),
            get("/v1/changes?since=99", ""),
            false,
        ),
        (
            "changes missing since".into(),
            get("/v1/changes", ""),
            false,
        ),
        (
            "malformed head".into(),
            b"THIS IS NOT HTTP\r\n\r\n".to_vec(),
            false,
        ),
    ];
    let compare = |reactor: &ServerHandle, label: &str, req: &[u8], masked: bool| {
        let wire = exchange(reactor.addr, req);
        let expected = if label == "malformed head" {
            framed(&api::error(400, "malformed request"))
        } else {
            framed(&api::route(
                &request_of(req),
                &store.load(),
                &ServerStats::default(),
                store.changes(),
                store.durable(),
                store.live_stats(),
                Some(&reactor.reactor_stats),
                store.dist_stats(),
                Some(store.health().as_ref()),
            ))
        };
        if masked {
            assert_eq!(
                String::from_utf8_lossy(status_line(&wire)),
                String::from_utf8_lossy(status_line(&expected)),
                "{label}: status lines differ"
            );
        } else {
            assert_eq!(
                String::from_utf8_lossy(&wire),
                String::from_utf8_lossy(&expected),
                "{label}: raw bytes differ"
            );
            assert!(!wire.is_empty(), "{label}: empty response");
        }
    };
    for (label, req, masked) in &corpus {
        compare(&reactor, label, req, *masked);
    }

    // Publish a delta-carrying epoch and compare the /v1/changes delta
    // answer.
    let delta = LinkDelta {
        added: vec![(IxpId(0), Asn(64901), Asn(64902))],
        removed: vec![],
    };
    store.publish_with_delta(build(), delta);
    corpus.clear();
    corpus.push((
        "changes delta".into(),
        get("/v1/changes?since=0", ""),
        false,
    ));
    for (label, req, masked) in &corpus {
        compare(&reactor, label, req, *masked);
    }
    // A second delta publish overflows the depth-1 ring: since=0 now
    // answers 410 + resync.
    store.publish_with_delta(build(), LinkDelta::default());
    corpus.clear();
    corpus.push((
        "changes 410 resync".into(),
        get("/v1/changes?since=0", ""),
        false,
    ));
    corpus.push(("ixps after publishes".into(), get("/v1/ixps", ""), false));
    for (label, req, masked) in &corpus {
        compare(&reactor, label, req, *masked);
    }
    let resync = exchange(reactor.addr, &get("/v1/changes?since=0", ""));
    assert!(status_line(&resync).starts_with(b"HTTP/1.1 410"));

    reactor.stop();
}
