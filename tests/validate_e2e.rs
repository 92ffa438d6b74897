//! End-to-end test for the `/v1/validate` endpoint: the in-process
//! server must put the exact `render_validate` bytes on the wire, with
//! the snapshot's content ETag and a working 304 revalidation. That the
//! real `mlpeer-serve` binary keeps every verdict byte-stable across a
//! `kill -9` + `--data-dir` recovery is checked in
//! `crates/serve/tests/binary_e2e.rs`.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use mlpeer_bench::Scale;
use mlpeer_ixp::Ecosystem;
use mlpeer_serve::http::{Request, Response};
use mlpeer_serve::{api, spawn_reactor, ReactorConfig, ServerStats, Snapshot, SnapshotStore};

/// One request on a fresh connection; returns (status, headers, body).
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

#[test]
fn validate_endpoint_serves_wire_identical_bytes_with_revalidation() {
    let seed = 7u64;
    let eco = Ecosystem::generate(Scale::Tiny.config(seed));
    let snapshot = Snapshot::of_pipeline(&eco, Scale::Tiny, seed);
    assert!(
        snapshot.validation.totals.confirmed > 0,
        "pipeline snapshot must carry a non-trivial validation report"
    );
    let etag = snapshot.etag.clone();
    let store = SnapshotStore::new(snapshot);
    let mut server =
        spawn_reactor(Arc::clone(&store), "127.0.0.1:0", ReactorConfig::default()).unwrap();

    let (status, head, wire_body) = get(server.addr, "/v1/validate", None);
    assert_eq!(status, 200, "{wire_body}");
    assert!(
        head.contains(&format!("etag: \"{etag}\"")),
        "/v1/validate is snapshot-addressed: {head}"
    );

    // The wire body is byte-identical to an in-process render of the
    // same snapshot — no serving-layer reserialization drift.
    let snap = store.load();
    let direct: Response = api::route(
        &Request {
            method: "GET".into(),
            path: "/v1/validate".into(),
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

    // Conditional GET revalidates to an empty 304.
    let inm = format!("If-None-Match: \"{etag}\"");
    let (status, _, body) = get(server.addr, "/v1/validate", Some(&inm));
    assert_eq!(status, 304);
    assert!(body.is_empty());

    // The stats endpoint tells the same totals (CI's smoke job asserts
    // the full numeric equality through jq; here: presence + verdicts).
    let (_, _, stats_body) = get(server.addr, "/v1/stats", None);
    assert!(
        stats_body.contains("\"validation\""),
        "stats must summarize validation: {stats_body}"
    );
    for verdict in ["confirmed", "unknown", "contradicted"] {
        assert!(wire_body.contains(verdict), "{verdict} in {wire_body:.>60}");
        assert!(stats_body.contains(verdict));
    }
    server.stop();
}
