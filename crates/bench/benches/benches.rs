//! Criterion benchmarks: the route-server engine, route propagation,
//! the community dictionary, the §4.3 query planner, and the end-to-end
//! pipeline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use mlpeer::active::{query_rs_lg, ActiveConfig};
use mlpeer::connectivity::gather_connectivity;
use mlpeer::dict::dictionary_from_connectivity;
use mlpeer_bench::run_pipeline;
use mlpeer_bgp::Asn;
use mlpeer_data::irr::{build_irr, IrrConfig};
use mlpeer_data::lg::{build_lg_roster, LgTarget};
use mlpeer_data::Sim;
use mlpeer_ixp::{Ecosystem, EcosystemConfig};
use mlpeer_topo::gen::{Internet, InternetConfig};
use mlpeer_topo::propagate::Propagator;

fn bench_route_server(c: &mut Criterion) {
    let eco = Ecosystem::generate(EcosystemConfig::tiny(1));
    let decix = eco.ixp_by_name("DE-CIX").unwrap();
    c.bench_function("route_server/build_rib_decix_tiny", |b| {
        b.iter(|| std::hint::black_box(decix.rs_rib().path_count()))
    });
    c.bench_function("route_server/directed_flows_decix_tiny", |b| {
        b.iter(|| std::hint::black_box(decix.directed_flows().len()))
    });
}

fn bench_propagation(c: &mut Criterion) {
    let net = Internet::generate(InternetConfig::tiny(2));
    let prop = Propagator::new(&net.graph);
    let origin = *net.prefixes.keys().next().unwrap();
    c.bench_function("propagate/routes_to_tiny", |b| {
        b.iter(|| std::hint::black_box(prop.routes_to(origin).reachable_count()))
    });
    let eco = Ecosystem::generate(EcosystemConfig::tiny(2));
    let prop2 = Propagator::with_extra_peers(&eco.internet.graph, eco.extra_peer_edges());
    c.bench_function("propagate/routes_to_tiny_with_ixps", |b| {
        b.iter(|| std::hint::black_box(prop2.routes_to(origin).reachable_count()))
    });
}

fn bench_dictionary(c: &mut Criterion) {
    let eco = Ecosystem::generate(EcosystemConfig::tiny(3));
    let sim = Sim::new(&eco);
    let irr = build_irr(&eco, &IrrConfig::default());
    let lgs = build_lg_roster(&sim, 3, 0, 0.0);
    let conn = gather_connectivity(&sim, &lgs, &irr);
    let dict = dictionary_from_connectivity(&eco, &conn);
    let set: mlpeer_bgp::CommunitySet = "0:6695 6695:1000 6695:1013".parse().unwrap();
    c.bench_function("dict/identify_pinned", |b| {
        b.iter(|| std::hint::black_box(dict.identify(&set)))
    });
    let bare: mlpeer_bgp::CommunitySet = "0:1000 0:1013".parse().unwrap();
    c.bench_function("dict/identify_bare_exclude", |b| {
        b.iter(|| std::hint::black_box(dict.identify(&bare)))
    });
}

fn bench_query_planner(c: &mut Criterion) {
    let eco = Ecosystem::generate(EcosystemConfig::tiny(4));
    let sim = Sim::new(&eco);
    let irr = build_irr(&eco, &IrrConfig::default());
    let lgs = build_lg_roster(&sim, 4, 0, 0.0);
    let conn = gather_connectivity(&sim, &lgs, &irr);
    let dict = dictionary_from_connectivity(&eco, &conn);
    let decix = eco.ixp_by_name("DE-CIX").unwrap();
    let lg = lgs
        .iter()
        .find(|l| matches!(l.target, LgTarget::RouteServer(id) if id == decix.id))
        .unwrap();
    c.bench_function("active/query_rs_lg_decix_tiny", |b| {
        b.iter_batched(
            std::collections::BTreeSet::<Asn>::new,
            |skip| {
                let mut sink = mlpeer::CountingSink::default();
                std::hint::black_box(
                    query_rs_lg(
                        &sim,
                        lg,
                        decix.id,
                        &dict,
                        &skip,
                        &ActiveConfig::default(),
                        &mut sink,
                    )
                    .cost(),
                )
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let eco = Ecosystem::generate(EcosystemConfig::tiny(5));
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("end_to_end_tiny", |b| {
        b.iter(|| std::hint::black_box(run_pipeline(&eco, 5).links.unique_links().len()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_route_server,
    bench_propagation,
    bench_dictionary,
    bench_query_planner,
    bench_pipeline
);
criterion_main!(benches);
