//! End-to-end serving test: generate an ecosystem, run the inference
//! pipeline, boot the real HTTP server on an ephemeral port, and query
//! every endpoint over actual TCP — asserting status codes, ETag
//! revalidation, agreement with a direct (in-process) render of the
//! same snapshot, and that a snapshot refresh is visible to new
//! requests without disturbing the old epoch's readers.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use mlpeer_bench::{run_pipeline, Scale};
use mlpeer_ixp::Ecosystem;
use mlpeer_serve::http::{Request, Response};
use mlpeer_serve::{api, Snapshot, SnapshotStore};
use mlpeer_serve::{run_load, spawn_reactor, LoadConfig, ReactorConfig, ServerStats};

fn build_snapshot(eco: &Ecosystem, seed: u64) -> Snapshot {
    Snapshot::of_pipeline(eco, Scale::Tiny, seed)
}

/// One request on a fresh connection via the shared client-side parser;
/// returns (status, rendered headers, body).
fn get(addr: SocketAddr, path: &str, extra_header: Option<&str>) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    let extra = extra_header.map(|h| format!("{h}\r\n")).unwrap_or_default();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: e2e\r\n{extra}Connection: close\r\n\r\n"
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

/// Minimal JSON well-formedness check: balanced braces/brackets outside
/// strings, non-empty object. (The vendored serde_json only serializes,
/// so the test validates shape rather than re-parsing; CI's smoke job
/// additionally runs the bodies through `jq`.)
fn assert_valid_json_object(body: &str, ctx: &str) {
    let body = body.trim();
    assert!(
        body.starts_with('{') && body.ends_with('}'),
        "{ctx}: not an object: {body:.>40}"
    );
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in body.chars() {
        if in_str {
            match (esc, c) {
                (true, _) => esc = false,
                (false, '\\') => esc = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "{ctx}: unbalanced nesting");
    }
    assert_eq!(depth, 0, "{ctx}: unbalanced nesting");
    assert!(!in_str, "{ctx}: unterminated string");
}

#[test]
fn boot_query_refresh_over_real_tcp() {
    let seed = 20130501u64;
    let eco = Ecosystem::generate(Scale::Tiny.config(seed));
    let snapshot = build_snapshot(&eco, seed);
    let etag = snapshot.etag.clone();
    let store = SnapshotStore::new(snapshot);
    let mut server =
        spawn_reactor(Arc::clone(&store), "127.0.0.1:0", ReactorConfig::default()).expect("bind");

    // A member and a prefix that certainly exist in the snapshot.
    let snap = store.load();
    let member = *snap
        .links
        .unique_links()
        .iter()
        .next()
        .map(|(a, _)| a)
        .unwrap();
    let prefix_q = "10.0.0.0/8";

    // -- every endpoint answers 200 with a well-formed JSON object and
    //    the snapshot ETag --
    let member_path = format!("/v1/member/{}", member.value());
    for path in [
        "/healthz",
        "/v1/ixps",
        "/v1/ixp/0/links",
        member_path.as_str(),
        &format!("/v1/prefix/{prefix_q}"),
        "/v1/stats",
    ] {
        let (status, head, body) = get(server.addr, path, None);
        assert_eq!(status, 200, "{path}: {body}");
        assert_valid_json_object(&body, path);
        // Snapshot-addressed endpoints carry the content ETag;
        // /healthz and /v1/stats (live counters) deliberately don't.
        if path.starts_with("/v1/") && path != "/v1/stats" {
            assert!(
                head.contains(&format!("etag: \"{etag}\"")),
                "{path} carries the snapshot ETag"
            );
        }
    }

    // -- the wire body is byte-identical to an in-process render of the
    //    same snapshot --
    let (_, _, wire_body) = get(server.addr, &member_path, None);
    let direct: Response = api::route(
        &Request {
            method: "GET".into(),
            path: member_path.clone(),
            ..Request::default()
        },
        &snap,
        &ServerStats::default(),
        &mlpeer_serve::ChangeLog::new(8),
        None,
        None,
        None,
        None,
        None,
    );
    assert_eq!(
        wire_body.as_bytes(),
        direct.body.as_slice(),
        "wire == direct render"
    );

    // -- conditional GET revalidates to an empty 304 --
    let inm = format!("If-None-Match: \"{etag}\"");
    let (status, head, body) = get(server.addr, "/v1/ixps", Some(&inm));
    assert_eq!(status, 304);
    assert!(body.is_empty());
    assert!(head.contains("etag:"));

    // -- 404/400 shapes --
    assert_eq!(get(server.addr, "/nope", None).0, 404);
    assert_eq!(get(server.addr, "/v1/member/0", None).0, 404);
    assert_eq!(get(server.addr, "/v1/prefix/banana", None).0, 400);

    // -- a small load runs clean through the reactor --
    let report = run_load(
        server.addr,
        &LoadConfig {
            connections: 3,
            requests_per_connection: 50,
            targets: vec!["/v1/ixps".into(), member_path.clone(), "/healthz".into()],
        },
    );
    assert_eq!(report.errors, 0, "load errors");
    assert_eq!(report.requests, 150);
    assert!(report.latency_us(0.5) > 0);

    // -- refresh: publish a rebuilt snapshot; new requests see the new
    //    epoch and the same content keeps the same ETag, while the Arc
    //    loaded before the swap is untouched --
    let pre_swap = store.load();
    let epoch = store.publish(build_snapshot(&eco, seed));
    assert_eq!(epoch, 1);
    let (_, head, body) = get(server.addr, "/healthz", None);
    assert!(body.contains("\"epoch\": 1"), "{body}");
    let (status, _, _) = get(server.addr, "/v1/ixps", Some(&inm));
    assert_eq!(
        status, 304,
        "identical re-harvest keeps the ETag valid across epochs"
    );
    assert_eq!(pre_swap.epoch, 0, "held reader view survives the swap");
    assert_eq!(pre_swap.etag, etag);
    let _ = head;

    // -- server statistics moved --
    let (_, _, stats_body) = get(server.addr, "/v1/stats", None);
    assert!(stats_body.contains("\"requests\""));
    assert!(server.stats.requests() > 150);
    assert!(server.stats.not_modified() >= 2);
    server.stop();
}

/// Indexed answers on a real pipeline snapshot are byte-identical to
/// the linear-scan reference — the serving-layer acceptance check at
/// test scale (the Medium-scale speedup assertion lives in the
/// `serve_load` bench).
#[test]
fn indexed_lookups_match_linear_scan_on_pipeline_output() {
    let seed = 4242u64;
    let eco = Ecosystem::generate(Scale::Tiny.config(seed));
    let p = run_pipeline(&eco, seed);
    let index = mlpeer::index::LinkIndex::build(&p.links, &p.observations);
    for asn in p.links.distinct_asns() {
        let fast = index.member_links_owned(asn);
        let slow = mlpeer::index::scan::member_links(&p.links, asn);
        assert_eq!(
            format!("{fast:?}"),
            format!("{slow:?}"),
            "AS{}",
            asn.value()
        );
    }
    let mut checked = 0;
    for (prefix, _, _) in mlpeer::index::scan::announcements(&p.links, &p.observations) {
        for q in [
            Some(prefix),
            prefix.parent(),
            prefix.split().map(|(l, _)| l),
        ]
        .into_iter()
        .flatten()
        {
            let fast = index.prefix_matches(&q);
            let slow = mlpeer::index::scan::prefix_matches(&p.links, &p.observations, &q);
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{q}");
            checked += 1;
        }
        if checked > 300 {
            break;
        }
    }
    assert!(
        checked > 10,
        "the pipeline must announce enough prefixes to test"
    );
}
