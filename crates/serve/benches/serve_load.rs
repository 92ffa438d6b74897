//! The serving bench, recorded to `BENCH_serve.json` at the repo root
//! with a scale axis (`Scale::Medium` and `Scale::Large`):
//!
//! 1. **index vs linear scan** — member and prefix lookups through
//!    [`LinkIndex`] against the [`scan`] reference implementations,
//!    after asserting byte-identical results (the acceptance criterion
//!    asks for ≥ 10× on indexed lookups);
//! 2. **HTTP load** — boot the reactor on an ephemeral port and run
//!    the in-repo load generator over the query endpoints, recording
//!    throughput and latency percentiles, plus a 304-revalidation run.
//!    Since the pre-rendered body cache landed, the 200 hot path is a
//!    lookup + memcpy — the recorded latencies measure that path.
//! 3. **keep-alive concurrency sweep** (Medium only) — boot a fresh
//!    reactor and hold 64 / 256 / 1024 / 4096 keep-alive connections
//!    open while a bounded worker pool drives requests across them (the
//!    loadgen *hold* mode). The `connections` axis in
//!    `BENCH_serve.json` records throughput per population; the bench
//!    asserts the ≥ 15k rps floor at 1024 held connections.
//!
//! `MLPEER_BENCH_SMOKE=1` skips the scales and the JSON rewrite and
//! runs only the 1024-connection reactor hold at `Scale::Small`,
//! still asserting the rps floor — the CI bench-smoke job uses it to
//! keep the floor enforced on every PR.

use std::collections::BTreeSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use mlpeer::index::{scan, LinkIndex};
use mlpeer::validate::cross::ValidationReport;
use mlpeer_bench::{run_pipeline, Scale};
use mlpeer_bgp::{Asn, Prefix};
use mlpeer_ixp::Ecosystem;
use mlpeer_serve::{
    run_hold_load, run_load, spawn_reactor, HoldConfig, LoadConfig, ReactorConfig, ServerHandle,
    Snapshot, SnapshotStore,
};

/// Acceptance floor: held keep-alive population of 1024 must still
/// clear this throughput on the reactor.
const HOLD_RPS_FLOOR: f64 = 15_000.0;

/// Hold-mode run at one connection count; returns the JSON record.
fn hold_point(server: &ServerHandle, connections: usize, targets: &[String]) -> serde_json::Value {
    let cfg = HoldConfig {
        connections,
        client_threads: 8,
        requests_total: 20_000,
        targets: targets.to_vec(),
    };
    let r = run_hold_load(server.addr, &cfg);
    assert_eq!(r.errors, 0, "hold run must be error-free at {connections}");
    let open = server.reactor_stats.accepted();
    eprintln!(
        "# hold {connections} conns: {:.0} rps, p50 {}us p99 {}us ({} accepted so far)",
        r.rps(),
        r.latency_us(0.5),
        r.latency_us(0.99),
        open
    );
    if connections == 1024 {
        assert!(
            r.rps() >= HOLD_RPS_FLOOR,
            "acceptance: >=1024 held keep-alive connections must clear \
             {HOLD_RPS_FLOOR:.0} rps (got {:.0})",
            r.rps()
        );
    }
    serde_json::json!({
        "connections": connections,
        "requests": r.requests,
        "errors": r.errors,
        "elapsed_ms": r.elapsed.as_millis() as u64,
        "rps": r.rps(),
        "latency_p50_us": r.latency_us(0.5),
        "latency_p90_us": r.latency_us(0.9),
        "latency_p99_us": r.latency_us(0.99),
    })
}

fn bench_at(c: &mut Criterion, scale: Scale, seed: u64) -> serde_json::Value {
    eprintln!("# generating ecosystem ({scale:?})…");
    let eco = Ecosystem::generate(scale.config(seed));
    eprintln!("# running pipeline…");
    let p = run_pipeline(&eco, seed);
    let links = p.links.clone();
    let observations = p.observations.clone();
    let index = LinkIndex::build(&links, &observations);

    // Query corpus: every linked ASN and a spread of announced,
    // aggregated, and absent prefixes.
    let members: Vec<Asn> = links.distinct_asns().into_iter().collect();
    let announced: BTreeSet<Prefix> = scan::announcements(&links, &observations)
        .into_iter()
        .map(|(p, _, _)| p)
        .collect();
    let mut prefixes: Vec<Prefix> = announced.iter().copied().take(64).collect();
    prefixes.extend(announced.iter().filter_map(|p| p.parent()).take(32));
    prefixes.push("203.0.113.0/24".parse().unwrap());
    assert!(!members.is_empty() && prefixes.len() > 32);

    // The bench must compare identical work: byte-identical answers.
    for &m in &members {
        assert_eq!(
            index.member_links_owned(m),
            scan::member_links(&links, m),
            "index diverged from linear scan for AS{}",
            m.value()
        );
    }
    for q in &prefixes {
        assert_eq!(
            format!("{:?}", index.prefix_matches(q)),
            format!("{:?}", scan::prefix_matches(&links, &observations, q)),
            "index diverged from linear scan for {q}"
        );
    }
    eprintln!(
        "# corpus: {} members, {} prefixes, {} per-IXP links, {} announcements",
        members.len(),
        prefixes.len(),
        links.per_ixp_total(),
        index.announcement_count()
    );

    // -------- 1. indexed vs scan lookups --------
    let group_name = format!("serve_index_{}", scale.word());
    let bench_pair =
        |c: &mut Criterion, name: &str, fast: &dyn Fn() -> usize, slow: &dyn Fn() -> usize| {
            let mut group = c.benchmark_group(&group_name);
            group.sample_size(10);
            group.bench_function(&format!("{name}_indexed"), |b| {
                b.iter(|| std::hint::black_box(fast()))
            });
            group.finish();
            let fast_ns = c.last_estimate_ns().expect("bench ran");
            let mut group = c.benchmark_group(&group_name);
            group.sample_size(10);
            group.bench_function(&format!("{name}_scan"), |b| {
                b.iter(|| std::hint::black_box(slow()))
            });
            group.finish();
            let slow_ns = c.last_estimate_ns().expect("bench ran");
            (fast_ns, slow_ns)
        };

    let sample_members: Vec<Asn> = members
        .iter()
        .step_by(7.max(members.len() / 64))
        .copied()
        .collect();
    // Both sides count the member's `(ixp, peer)` entries.
    let member_fast = || {
        sample_members
            .iter()
            .map(|&m| index.member_links(m).map_or(0, <[_]>::len))
            .sum::<usize>()
    };
    let member_slow = || {
        sample_members
            .iter()
            .map(|&m| {
                scan::member_links(&links, m)
                    .values()
                    .map(BTreeSet::len)
                    .sum::<usize>()
            })
            .sum::<usize>()
    };
    let (member_fast_ns, member_slow_ns) =
        bench_pair(c, "member_lookup", &member_fast, &member_slow);

    let prefix_fast = || {
        prefixes
            .iter()
            .map(|q| index.prefix_matches(q).total())
            .sum::<usize>()
    };
    let prefix_slow = || {
        prefixes
            .iter()
            .map(|q| scan::prefix_matches(&links, &observations, q).total())
            .sum::<usize>()
    };
    let (prefix_fast_ns, prefix_slow_ns) =
        bench_pair(c, "prefix_lookup", &prefix_fast, &prefix_slow);

    let member_speedup = member_slow_ns / member_fast_ns;
    let prefix_speedup = prefix_slow_ns / prefix_fast_ns;
    eprintln!("# member lookup speedup: {member_speedup:.1}x, prefix: {prefix_speedup:.1}x");
    assert!(
        member_speedup >= 10.0 && prefix_speedup >= 10.0,
        "acceptance: indexed lookups must be >=10x the linear scan \
         (member {member_speedup:.1}x, prefix {prefix_speedup:.1}x)"
    );

    // -------- 2. HTTP load over a real server --------
    let snapshot = Snapshot::build_validated(
        scale.word(),
        seed,
        Snapshot::names_of(&eco),
        links.clone(),
        &observations,
        p.passive_stats.clone(),
        ValidationReport::default(),
    );
    let cache_bodies = snapshot.cache.body_count();
    let cache_bytes = snapshot.cache.byte_len();
    let etag = snapshot.etag.clone();
    let store = SnapshotStore::new(snapshot);
    let mut server = spawn_reactor(Arc::clone(&store), "127.0.0.1:0", ReactorConfig::default())
        .expect("bind ephemeral port");
    let sample_asn = members[members.len() / 2].value();
    let sample_prefix = announced.iter().next().copied().unwrap();
    let cfg = LoadConfig {
        connections: 4,
        requests_per_connection: 500,
        targets: vec![
            "/v1/ixps".to_string(),
            format!("/v1/member/{sample_asn}"),
            format!("/v1/prefix/{sample_prefix}"),
            "/v1/stats".to_string(),
            "/healthz".to_string(),
        ],
    };
    let load = run_load(server.addr, &cfg);
    assert_eq!(load.errors, 0, "load run must be error-free");
    assert_eq!(load.ok, load.requests);
    eprintln!(
        "# load: {} requests, {:.0} rps, p50 {}us p99 {}us (cache: {cache_bodies} bodies, {cache_bytes} bytes)",
        load.requests,
        load.rps(),
        load.latency_us(0.5),
        load.latency_us(0.99)
    );

    // Revalidation run: every request carries the ETag → all 304s.
    let mut s = std::net::TcpStream::connect(server.addr).expect("connect");
    use std::io::{Read, Write};
    write!(
        s,
        "GET /v1/ixps HTTP/1.1\r\nHost: b\r\nIf-None-Match: \"{etag}\"\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 304"), "revalidation hit: {text}");
    server.stop();

    // -------- 3. keep-alive concurrency sweep (Medium) --------
    let connections_axis = if scale == Scale::Medium {
        let mut reactor = spawn_reactor(store, "127.0.0.1:0", ReactorConfig::default())
            .expect("bind reactor port");
        let points: Vec<serde_json::Value> = [64usize, 256, 1024, 4096]
            .iter()
            .map(|&n| hold_point(&reactor, n, &cfg.targets))
            .collect();
        reactor.stop();
        serde_json::Value::Array(points)
    } else {
        serde_json::Value::Null
    };

    serde_json::json!({
        "scale": scale.word(),
        "corpus": serde_json::json!({
            "members": members.len(),
            "sampled_members": sample_members.len(),
            "prefixes": prefixes.len(),
            "per_ixp_links": links.per_ixp_total(),
            "announcements": index.announcement_count(),
        }),
        "index": serde_json::json!({
            "member_lookup_indexed_us": member_fast_ns / 1e3,
            "member_lookup_scan_us": member_slow_ns / 1e3,
            "member_speedup": member_speedup,
            "prefix_lookup_indexed_us": prefix_fast_ns / 1e3,
            "prefix_lookup_scan_us": prefix_slow_ns / 1e3,
            "prefix_speedup": prefix_speedup,
        }),
        "body_cache": serde_json::json!({
            "bodies": cache_bodies,
            "bytes": cache_bytes,
        }),
        "load": serde_json::json!({
            "connections": cfg.connections,
            "requests": load.requests,
            "errors": load.errors,
            "elapsed_ms": load.elapsed.as_millis() as u64,
            "rps": load.rps(),
            "latency_p50_us": load.latency_us(0.5),
            "latency_p90_us": load.latency_us(0.9),
            "latency_p99_us": load.latency_us(0.99),
        }),
        "connections": connections_axis,
    })
}

/// Smoke mode: one reactor boot at `Scale::Small`, one 1024-connection
/// hold run, floor asserted, nothing written.
fn smoke(seed: u64) {
    eprintln!("# smoke: reactor hold run at Scale::Small…");
    let eco = Ecosystem::generate(Scale::Small.config(seed));
    let snapshot = Snapshot::of_pipeline(&eco, Scale::Small, seed);
    let store = SnapshotStore::new(snapshot);
    let mut reactor =
        spawn_reactor(store, "127.0.0.1:0", ReactorConfig::default()).expect("bind reactor port");
    let targets = vec!["/v1/ixps".to_string(), "/healthz".to_string()];
    let point = hold_point(&reactor, 1024, &targets);
    reactor.stop();
    eprintln!(
        "# smoke point: {}",
        serde_json::to_string(&point).unwrap_or_default()
    );
}

fn bench_serve(c: &mut Criterion) {
    let seed = 20130501u64;
    if std::env::var("MLPEER_BENCH_SMOKE").is_ok() {
        smoke(seed);
        return;
    }
    let results: Vec<serde_json::Value> = [Scale::Medium, Scale::Large]
        .iter()
        .map(|&s| bench_at(c, s, seed))
        .collect();
    let report = serde_json::json!({
        "bench": "mlpeer-serve index + HTTP load",
        "seed": seed,
        "threads": rayon::current_num_threads(),
        "cpus": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "scales": results,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap())
        .expect("write BENCH_serve.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
