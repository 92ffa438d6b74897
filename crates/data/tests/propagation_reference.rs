//! The dense propagator against the textbook one.
//!
//! `reference_routes` below is the `HashMap` formulation the dense
//! [`Propagator`] replaced: a level-synchronized uphill BFS over
//! `BTreeMap` frontiers, peer candidates in a `BTreeMap`, and a binary
//! heap for the downhill phase, each AS holding a full copy of its path.
//! It stays here as test code only (like `mlpeer::index::scan` for the
//! serving index), and every test asserts that both select the same
//! class, path and edge kinds for every `(origin, AS)` pair.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use mlpeer_bgp::Asn;
use mlpeer_ixp::{Ecosystem, EcosystemConfig};
use mlpeer_topo::graph::{AsGraph, AsInfo, GeoScope, Region, Tier};
use mlpeer_topo::propagate::{BestRoute, EdgeKind, ExtraPeerEdge, Propagator};
use mlpeer_topo::relationship::{LearnedFrom, Relationship};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every AS's best route toward `origin`, the heap way.
fn reference_routes(
    graph: &AsGraph,
    extra_in: &HashMap<Asn, Vec<(Asn, u32)>>,
    origin: Asn,
) -> HashMap<Asn, BestRoute> {
    let mut best: HashMap<Asn, BestRoute> = HashMap::new();
    if !graph.contains(origin) {
        return best;
    }
    best.insert(
        origin,
        BestRoute {
            class: LearnedFrom::Origin,
            path: vec![origin],
            via: Vec::new(),
        },
    );
    let extend = |parent: &BestRoute, v: Asn, kind: EdgeKind, class: LearnedFrom| {
        let mut path = vec![v];
        path.extend_from_slice(&parent.path);
        let mut via = vec![kind];
        via.extend_from_slice(&parent.via);
        BestRoute { class, path, via }
    };

    // Phase 1: uphill, smallest-ASN parent per level.
    let mut frontier: Vec<Asn> = vec![origin];
    while !frontier.is_empty() {
        let mut next: BTreeMap<Asn, (Asn, EdgeKind)> = BTreeMap::new();
        for &u in &frontier {
            for &(v, rel) in graph.neighbors(u) {
                let kind = match rel {
                    Relationship::C2p => EdgeKind::Transit,
                    Relationship::Sibling => EdgeKind::Sibling,
                    _ => continue,
                };
                if best.contains_key(&v) {
                    continue;
                }
                match next.get(&v) {
                    Some(&(p, _)) if p <= u => {}
                    _ => {
                        next.insert(v, (u, kind));
                    }
                }
            }
        }
        frontier = Vec::with_capacity(next.len());
        for (v, (u, kind)) in next {
            let class = if kind == EdgeKind::Sibling {
                LearnedFrom::Sibling
            } else {
                LearnedFrom::Customer
            };
            let route = extend(&best[&u], v, kind, class);
            best.insert(v, route);
            frontier.push(v);
        }
    }

    // Phase 2: peer candidates against the phase-1 state; on a tie the
    // first considered wins (graph peers before IXP edges, lower tag
    // first).
    let mut cands: BTreeMap<Asn, (usize, Asn, EdgeKind)> = BTreeMap::new();
    let consider = |cands: &mut BTreeMap<Asn, (usize, Asn, EdgeKind)>,
                    v: Asn,
                    u: Asn,
                    kind: EdgeKind,
                    len: usize| {
        match cands.get(&v) {
            Some(&(l, p, _)) if (l, p) <= (len, u) => {}
            _ => {
                cands.insert(v, (len, u, kind));
            }
        }
    };
    for (&u, route) in &best {
        for &(v, rel) in graph.neighbors(u) {
            if rel == Relationship::P2p && !best.contains_key(&v) {
                consider(&mut cands, v, u, EdgeKind::GraphPeer, route.path.len());
            }
        }
    }
    for (&v, inlist) in extra_in {
        if best.contains_key(&v) {
            continue;
        }
        for &(u, tag) in inlist {
            if let Some(route) = best.get(&u) {
                consider(&mut cands, v, u, EdgeKind::ExtraPeer(tag), route.path.len());
            }
        }
    }
    for (v, (_, u, kind)) in cands {
        let route = extend(&best[&u], v, kind, LearnedFrom::Peer);
        best.insert(v, route);
    }

    // Phase 3: downhill, best-first over a heap keyed (length, ASN).
    let mut heap: BinaryHeap<Reverse<(usize, Asn)>> = best
        .iter()
        .map(|(&u, r)| Reverse((r.path.len(), u)))
        .collect();
    while let Some(Reverse((len, u))) = heap.pop() {
        let route_u = best[&u].clone();
        if route_u.path.len() != len {
            continue;
        }
        for &(v, rel) in graph.neighbors(u) {
            let kind = match rel {
                Relationship::P2c => EdgeKind::Transit,
                Relationship::Sibling => EdgeKind::Sibling,
                _ => continue,
            };
            let better = match best.get(&v) {
                None => true,
                Some(r) => {
                    r.class == LearnedFrom::Provider
                        && (r.path.len() > len + 1 || (r.path.len() == len + 1 && r.path[1] > u))
                }
            };
            if better {
                best.insert(v, extend(&route_u, v, kind, LearnedFrom::Provider));
                heap.push(Reverse((len + 1, v)));
            }
        }
    }
    best
}

/// Assert the dense propagator and the reference agree on every
/// `(origin, AS)` pair; returns the number of pairs compared.
fn assert_same_routes(graph: &AsGraph, edges: &[ExtraPeerEdge]) -> usize {
    let mut extra_in: HashMap<Asn, Vec<(Asn, u32)>> = HashMap::new();
    for e in edges {
        extra_in
            .entry(e.receiver)
            .or_default()
            .push((e.exporter, e.tag));
    }
    for v in extra_in.values_mut() {
        v.sort_unstable();
        v.dedup();
    }
    let prop = Propagator::with_extra_peers(graph, edges.iter().copied());
    assert_eq!(
        prop.extra_edge_count(),
        extra_in.values().map(Vec::len).sum::<usize>()
    );
    let mut everyone: Vec<Asn> = graph.asns();
    everyone.extend(edges.iter().flat_map(|e| [e.exporter, e.receiver]));
    everyone.push(Asn(4_000_000_000)); // known to neither
    everyone.sort_unstable();
    everyone.dedup();

    let mut sweep = prop.sweeper();
    let mut route = BestRoute::default();
    let mut pairs = 0;
    for &origin in &everyone {
        let want = reference_routes(graph, &extra_in, origin);
        let got = sweep.routes_to(origin);
        assert_eq!(got.reachable_count(), want.len(), "origin {origin}");
        for &asn in &everyone {
            let found = got.best_into(asn, &mut route);
            match want.get(&asn) {
                Some(r) => {
                    assert!(found, "origin {origin}: {asn} unreached");
                    assert_eq!(&route, r, "origin {origin}, at {asn}");
                    assert_eq!(got.class(asn), Some(r.class));
                    pairs += 1;
                }
                None => assert!(!found, "origin {origin}: {asn} reached"),
            }
        }
    }
    pairs
}

fn node(asn: u32, tier: Tier) -> AsInfo {
    AsInfo {
        asn: Asn(asn),
        tier,
        region: Region::WesternEurope,
        scope: GeoScope::Global,
    }
}

#[test]
fn teaching_graph_with_ixp_edges() {
    // 1 -p2p- 2 at the top; 3, 4 customers of 1; 5 of 2; 6 of 3; 7 of
    // 4 and 5; 4 -p2p- 5; 3 and 4 siblings.
    let mut g = AsGraph::new();
    for (asn, tier) in [
        (1, Tier::Tier1),
        (2, Tier::Tier1),
        (3, Tier::Tier2),
        (4, Tier::Tier2),
        (5, Tier::Tier2),
        (6, Tier::Stub),
        (7, Tier::Stub),
    ] {
        g.add_node(node(asn, tier));
    }
    for (a, b, rel) in [
        (1, 2, Relationship::P2p),
        (3, 1, Relationship::C2p),
        (4, 1, Relationship::C2p),
        (5, 2, Relationship::C2p),
        (6, 3, Relationship::C2p),
        (7, 4, Relationship::C2p),
        (7, 5, Relationship::C2p),
        (4, 5, Relationship::P2p),
    ] {
        g.add_edge(Asn(a), Asn(b), rel);
    }
    assert_eq!(assert_same_routes(&g, &[]), 49);
    let edge = |exporter: u32, receiver: u32, tag: u32| ExtraPeerEdge {
        exporter: Asn(exporter),
        receiver: Asn(receiver),
        tag,
    };
    let edges = [edge(6, 7, 42), edge(5, 4, 8), edge(5, 4, 3), edge(6, 9, 1)];
    assert!(assert_same_routes(&g, &edges) > 49);
    g.add_edge(Asn(3), Asn(4), Relationship::Sibling);
    assert!(assert_same_routes(&g, &edges) > 49);
}

/// A seeded random graph: a provider hierarchy over shuffled ASNs,
/// graph peers and siblings, and IXP edges that include a graph peer
/// also exporting over the IXP, several tags on one pair, and receivers
/// outside the graph (reachable only over IXP edges).
fn random_case(seed: u64) -> (AsGraph, Vec<ExtraPeerEdge>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(12..48usize);
    // ASNs are not in hierarchy order, so id order ≠ level order.
    let mut asns: Vec<u32> = (0..n).map(|i| 100 + (i as u32 * 7919) % 1000).collect();
    asns.sort_unstable();
    asns.dedup();
    for i in (1..asns.len()).rev() {
        let j = rng.gen_range(0..=i);
        asns.swap(i, j);
    }
    let mut g = AsGraph::new();
    for &a in &asns {
        g.add_node(node(a, Tier::Tier2));
    }
    // Node i buys transit from one to three earlier nodes.
    for i in 1..asns.len() {
        for _ in 0..rng.gen_range(1..=3) {
            let p = asns[rng.gen_range(0..i)];
            g.add_edge(Asn(asns[i]), Asn(p), Relationship::C2p);
        }
    }
    let pick = |rng: &mut StdRng| Asn(asns[rng.gen_range(0..asns.len())]);
    for _ in 0..asns.len() / 2 {
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        if a != b && g.relationship(a, b).is_none() {
            let rel = if rng.gen_range(0..4) == 0 {
                Relationship::Sibling
            } else {
                Relationship::P2p
            };
            g.add_edge(a, b, rel);
        }
    }
    let mut edges = Vec::new();
    for _ in 0..asns.len() {
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        if a != b {
            edges.push(ExtraPeerEdge {
                exporter: a,
                receiver: b,
                tag: rng.gen_range(0..6),
            });
        }
    }
    // A graph peer that also exports over the IXP to the same receiver.
    if let Some((a, b, _)) = g
        .edges()
        .into_iter()
        .find(|&(_, _, r)| r == Relationship::P2p)
    {
        edges.push(ExtraPeerEdge {
            exporter: a,
            receiver: b,
            tag: 5,
        });
    }
    // Several tags on one (exporter, receiver) pair, out of order.
    let (a, b) = (Asn(asns[0]), Asn(asns[asns.len() - 1]));
    for tag in [9, 2, 7, 2] {
        edges.push(ExtraPeerEdge {
            exporter: a,
            receiver: b,
            tag,
        });
    }
    // Receivers outside the graph, one with a smaller ASN than any node.
    for (i, r) in [7u32, 5_000].into_iter().enumerate() {
        edges.push(ExtraPeerEdge {
            exporter: Asn(asns[i]),
            receiver: Asn(r),
            tag: 1,
        });
    }
    (g, edges)
}

#[test]
fn seeded_random_graphs() {
    for seed in 0..40 {
        let (g, edges) = random_case(seed);
        assert!(assert_same_routes(&g, &edges) > 0, "seed {seed}");
    }
}

#[test]
fn tiny_ecosystems() {
    for seed in [7u64, 42, 2024] {
        let eco = Ecosystem::generate(EcosystemConfig::tiny(seed));
        let pairs = assert_same_routes(&eco.internet.graph, &eco.extra_peer_edges());
        assert!(pairs > 10_000, "seed {seed}: {pairs} pairs");
    }
}
