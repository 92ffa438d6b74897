//! Gao-Rexford route propagation.
//!
//! Computes, for one origin AS, the best route every other AS selects
//! under the valley-free export rule (§2.1) with the standard economic
//! preference (customer ≻ peer ≻ provider, then shortest path, then a
//! deterministic tie-break). This is the machinery that decides *what a
//! vantage point can see* — and therefore why most p2p links are
//! invisible in public BGP (§2.3): a peer-learned route is only exported
//! downhill, so only the peers' customer cones ever observe the link.
//!
//! The IXP layer grafts route-server and bilateral peering sessions onto
//! the graph as *extra peer edges*, directed `exporter → receiver` and
//! carrying an opaque tag (which IXP, route server or bilateral). The
//! returned paths record, hop by hop, which kind of edge was used, so
//! the data layer can attach RS communities exactly where a real route
//! would carry them.
//!
//! The three-phase algorithm is the standard one for policy routing:
//!
//! 1. **uphill** — customer routes climb provider (and sibling) edges
//!    from the origin, level by level; a new AS takes the smallest-ASN
//!    parent of the previous level;
//! 2. **peer** — one peer edge may follow: every AS with an uphill
//!    route exports it over its graph p2p edges and its IXP edges; a
//!    receiver without an uphill route keeps the smallest
//!    `(path length, exporter ASN)`, and for one exporter a graph peer
//!    before an IXP edge, the lower tag first;
//! 3. **downhill** — routes descend provider→customer (and sibling)
//!    edges in `(path length, ASN)` order; the first offer an AS gets is
//!    final.
//!
//! ASes are numbered densely in ASN order, so comparing ids is
//! comparing ASNs in every tie-break. A route is stored as one parent
//! pointer and one edge kind per AS; paths are materialized only when a
//! caller asks for one ([`RouteState::best`]). Downhill runs over
//! per-length buckets instead of a heap: an offer at length `L + 1`
//! comes only from bucket `L`, so the smallest parent of the bucket
//! wins whatever order the bucket is walked in. Every rule is a strict
//! minimum, so each AS's route — and through the parent pointers its
//! whole path — is the one the textbook heap formulation selects.

use std::sync::Arc;

use mlpeer_bgp::Asn;

use crate::graph::AsGraph;
use crate::relationship::{LearnedFrom, Relationship};

/// How a hop of a path was traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A provider/customer edge of the relationship graph.
    Transit,
    /// A settlement-free p2p edge of the relationship graph (private
    /// peering or direct cross-connect).
    GraphPeer,
    /// A sibling edge.
    Sibling,
    /// An IXP-layer peer edge; the tag is assigned by the IXP layer
    /// (which IXP, route-server vs bilateral) and is opaque here.
    ExtraPeer(u32),
}

/// The route one AS selected toward the origin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BestRoute {
    /// Preference class the route was learned in.
    pub class: LearnedFrom,
    /// Full AS path `[self, ..., origin]`; for the origin itself this is
    /// `[origin]`.
    pub path: Vec<Asn>,
    /// Edge kinds between consecutive path hops (`path.len() - 1`
    /// entries).
    pub via: Vec<EdgeKind>,
}

impl BestRoute {
    /// Path length in AS hops (edges).
    pub fn hops(&self) -> usize {
        self.via.len()
    }

    /// Does any hop traverse an IXP-layer (extra) peer edge? Returns the
    /// first such hop as `(index, tag)`.
    pub fn first_extra_peer_hop(&self) -> Option<(usize, u32)> {
        self.via.iter().enumerate().find_map(|(i, k)| match k {
            EdgeKind::ExtraPeer(tag) => Some((i, *tag)),
            _ => None,
        })
    }
}

/// Directed extra peer edge: `exporter` announces its customer routes to
/// `receiver` (who treats them as peer-learned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtraPeerEdge {
    /// The announcing side.
    pub exporter: Asn,
    /// The listening side.
    pub receiver: Asn,
    /// Opaque tag assigned by the IXP layer.
    pub tag: u32,
}

/// Compressed adjacency: the items of node `u` are
/// `items[start[u]..start[u + 1]]`.
#[derive(Debug)]
struct Adjacency<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Adjacency<T> {
    /// Build from `(node, item)` pairs over `n` nodes; items keep their
    /// input order within a node.
    fn build(n: usize, mut pairs: Vec<(u32, T)>) -> Self {
        pairs.sort_by_key(|&(u, _)| u);
        let mut start = vec![0u32; n + 1];
        for &(u, _) in &pairs {
            start[u as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        Adjacency {
            start,
            items: pairs.into_iter().map(|(_, item)| item).collect(),
        }
    }

    fn of(&self, u: u32) -> &[T] {
        &self.items[self.start[u as usize] as usize..self.start[u as usize + 1] as usize]
    }
}

/// Route propagation engine over a graph plus extra peer edges.
///
/// Immutable once built; safe to share across threads for parallel
/// per-origin sweeps.
#[derive(Debug)]
pub struct Propagator<'g> {
    graph: &'g AsGraph,
    /// Dense id → ASN, ascending: graph nodes plus extra-edge endpoints.
    asns: Arc<[Asn]>,
    /// Providers (`Transit`) and siblings of each AS: the uphill edges.
    up: Adjacency<(u32, EdgeKind)>,
    /// Customers (`Transit`) and siblings of each AS: the downhill edges.
    down: Adjacency<(u32, EdgeKind)>,
    /// Graph p2p neighbors of each AS.
    peers: Adjacency<u32>,
    /// IXP edges out of each exporter as `(receiver, tag)`, deduplicated.
    extra_out: Adjacency<(u32, u32)>,
}

impl<'g> Propagator<'g> {
    /// Engine over the bare relationship graph.
    pub fn new(graph: &'g AsGraph) -> Self {
        Self::with_extra_peers(graph, [])
    }

    /// Engine with IXP-layer peer edges grafted on.
    pub fn with_extra_peers<I>(graph: &'g AsGraph, edges: I) -> Self
    where
        I: IntoIterator<Item = ExtraPeerEdge>,
    {
        let mut extra: Vec<ExtraPeerEdge> = edges.into_iter().collect();
        let mut asns: Vec<Asn> = graph.nodes().map(|n| n.asn).collect();
        asns.extend(extra.iter().flat_map(|e| [e.exporter, e.receiver]));
        asns.sort_unstable();
        asns.dedup();
        let id = |a: Asn| asns.binary_search(&a).expect("numbered") as u32;

        let (mut up, mut down, mut peers) = (Vec::new(), Vec::new(), Vec::new());
        for (u, &a) in asns.iter().enumerate() {
            let u = u as u32;
            for &(b, rel) in graph.neighbors(a) {
                let v = id(b);
                match rel {
                    Relationship::C2p => up.push((u, (v, EdgeKind::Transit))),
                    Relationship::P2c => down.push((u, (v, EdgeKind::Transit))),
                    Relationship::Sibling => {
                        up.push((u, (v, EdgeKind::Sibling)));
                        down.push((u, (v, EdgeKind::Sibling)));
                    }
                    Relationship::P2p => peers.push((u, v)),
                }
            }
        }
        extra.sort_unstable_by_key(|e| (e.exporter, e.receiver, e.tag));
        extra.dedup();
        let extra_out: Vec<(u32, (u32, u32))> = extra
            .iter()
            .map(|e| (id(e.exporter), (id(e.receiver), e.tag)))
            .collect();
        let n = asns.len();
        Propagator {
            graph,
            up: Adjacency::build(n, up),
            down: Adjacency::build(n, down),
            peers: Adjacency::build(n, peers),
            extra_out: Adjacency::build(n, extra_out),
            asns: asns.into(),
        }
    }

    /// Number of directed extra edges.
    pub fn extra_edge_count(&self) -> usize {
        self.extra_out.items.len()
    }

    /// Compute every AS's best route toward `origin`.
    pub fn routes_to(&self, origin: Asn) -> RouteState {
        self.sweeper().routes_to(origin).clone()
    }

    /// A reusable per-origin workspace: a sweep over many origins
    /// computes each one in place, allocating nothing per origin or per
    /// AS once the first origin has sized the buffers.
    pub fn sweeper(&self) -> Sweeper<'_, 'g> {
        Sweeper {
            prop: self,
            state: RouteState {
                origin: Asn(0),
                asns: Arc::clone(&self.asns),
                hops: Vec::new(),
                reached: 0,
            },
            len: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            uphill: Vec::new(),
            buckets: Vec::new(),
        }
    }
}

/// Parent of the origin (and of unreached ASes).
const NO_PARENT: u32 = u32::MAX;

/// One AS's selected route: the neighbor it came from, over which kind
/// of edge, in which preference class (`None`: unreached).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hop {
    via: EdgeKind,
    parent: u32,
    class: Option<LearnedFrom>,
}

const UNREACHED: Hop = Hop {
    via: EdgeKind::Transit,
    parent: NO_PARENT,
    class: None,
};

/// Tie-break among one exporter's peer edges to one receiver: a graph
/// peer first, then IXP edges by tag.
fn peer_rank(kind: EdgeKind) -> (u8, u32) {
    match kind {
        EdgeKind::ExtraPeer(tag) => (1, tag),
        _ => (0, 0),
    }
}

/// Workspace for per-origin propagation; see [`Propagator::sweeper`].
#[derive(Debug)]
pub struct Sweeper<'p, 'g> {
    prop: &'p Propagator<'g>,
    state: RouteState,
    /// Path length in ASes per id (`0`: unreached).
    len: Vec<u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    /// Every AS holding an uphill (origin/customer/sibling) route.
    uphill: Vec<u32>,
    /// Downhill work lists by path length.
    buckets: Vec<Vec<u32>>,
}

impl Sweeper<'_, '_> {
    /// Compute every AS's best route toward `origin`, replacing the
    /// previous origin's state.
    pub fn routes_to(&mut self, origin: Asn) -> &RouteState {
        let prop = self.prop;
        let n = prop.asns.len();
        let hops = &mut self.state.hops;
        hops.clear();
        hops.resize(n, UNREACHED);
        self.state.origin = origin;
        self.state.reached = 0;
        let o = match prop.asns.binary_search(&origin) {
            Ok(o) if prop.graph.contains(origin) => o as u32,
            _ => return &self.state,
        };
        let len = &mut self.len;
        len.clear();
        len.resize(n, 0);
        hops[o as usize].class = Some(LearnedFrom::Origin);
        len[o as usize] = 1;

        // ---- Phase 1: uphill, level by level. ----
        self.uphill.clear();
        self.uphill.push(o);
        self.frontier.clear();
        self.frontier.push(o);
        let mut level = 1;
        while !self.frontier.is_empty() {
            self.next.clear();
            for &u in &self.frontier {
                for &(v, kind) in prop.up.of(u) {
                    let (h, l) = (&mut hops[v as usize], &mut len[v as usize]);
                    if *l == 0 {
                        *l = level + 1;
                        *h = Hop {
                            via: kind,
                            parent: u,
                            class: None,
                        };
                        self.next.push(v);
                    } else if *l == level + 1 && u < h.parent {
                        h.via = kind;
                        h.parent = u;
                    }
                }
            }
            for &v in &self.next {
                let h = &mut hops[v as usize];
                h.class = Some(if h.via == EdgeKind::Sibling {
                    LearnedFrom::Sibling
                } else {
                    LearnedFrom::Customer
                });
            }
            self.uphill.extend_from_slice(&self.next);
            std::mem::swap(&mut self.frontier, &mut self.next);
            level += 1;
        }

        // ---- Phase 2: one peer edge after the uphill part. ----
        // Offers come only from uphill routes and a peer route is never
        // re-exported to peers, so this is one pass over the uphill set.
        let mut peer_routes = 0;
        for &u in &self.uphill {
            let lu = len[u as usize];
            let graph_peers = prop.peers.of(u).iter().map(|&v| (v, EdgeKind::GraphPeer));
            let ixp_peers = prop
                .extra_out
                .of(u)
                .iter()
                .map(|&(v, tag)| (v, EdgeKind::ExtraPeer(tag)));
            for (v, kind) in graph_peers.chain(ixp_peers) {
                let (h, l) = (&mut hops[v as usize], &mut len[v as usize]);
                let take = match h.class {
                    None => {
                        peer_routes += 1;
                        true
                    }
                    Some(LearnedFrom::Peer) => {
                        (lu + 1, u) < (*l, h.parent)
                            || (u == h.parent && peer_rank(kind) < peer_rank(h.via))
                    }
                    Some(_) => false,
                };
                if take {
                    *l = lu + 1;
                    *h = Hop {
                        via: kind,
                        parent: u,
                        class: Some(LearnedFrom::Peer),
                    };
                }
            }
        }

        // ---- Phase 3: downhill over per-length buckets. ----
        for b in &mut self.buckets {
            b.clear();
        }
        let mut reached = 0;
        for (v, &l) in len.iter().enumerate() {
            if l > 0 {
                let l = l as usize;
                if self.buckets.len() <= l + 1 {
                    self.buckets.resize_with(l + 2, Vec::new);
                }
                self.buckets[l].push(v as u32);
                reached += 1;
            }
        }
        debug_assert_eq!(reached, self.uphill.len() + peer_routes);
        let mut l = 1;
        while l < self.buckets.len() {
            let bucket = std::mem::take(&mut self.buckets[l]);
            for &u in &bucket {
                for &(v, kind) in prop.down.of(u) {
                    let h = &mut hops[v as usize];
                    if len[v as usize] == 0 {
                        len[v as usize] = l as u32 + 1;
                        *h = Hop {
                            via: kind,
                            parent: u,
                            class: Some(LearnedFrom::Provider),
                        };
                        if self.buckets.len() <= l + 1 {
                            self.buckets.resize_with(l + 2, Vec::new);
                        }
                        self.buckets[l + 1].push(v);
                        reached += 1;
                    } else if len[v as usize] == l as u32 + 1
                        && h.class == Some(LearnedFrom::Provider)
                        && u < h.parent
                    {
                        h.via = kind;
                        h.parent = u;
                    }
                }
            }
            self.buckets[l] = bucket;
            l += 1;
        }
        self.state.reached = reached;
        &self.state
    }
}

/// The full routing state for one origin: each AS's selected route, as
/// one parent pointer per AS.
#[derive(Debug, Clone)]
pub struct RouteState {
    /// The origin all routes lead to.
    pub origin: Asn,
    asns: Arc<[Asn]>,
    hops: Vec<Hop>,
    reached: usize,
}

impl RouteState {
    fn hop(&self, asn: Asn) -> Option<(u32, &Hop)> {
        let id = self.asns.binary_search(&asn).ok()?;
        let hop = self.hops.get(id)?;
        hop.class.map(|_| (id as u32, hop))
    }

    /// The best route `asn` selected, if it reaches the origin at all.
    pub fn best(&self, asn: Asn) -> Option<BestRoute> {
        let mut route = BestRoute::default();
        self.best_into(asn, &mut route).then_some(route)
    }

    /// [`best`](RouteState::best) into a caller-owned route, reusing its
    /// buffers; returns `false` (leaving `out` unspecified) when `asn`
    /// does not reach the origin.
    pub fn best_into(&self, asn: Asn, out: &mut BestRoute) -> bool {
        let Some((mut id, hop)) = self.hop(asn) else {
            return false;
        };
        out.class = hop.class.expect("reached");
        out.path.clear();
        out.via.clear();
        loop {
            let h = &self.hops[id as usize];
            out.path.push(self.asns[id as usize]);
            if h.parent == NO_PARENT {
                return true;
            }
            out.via.push(h.via);
            id = h.parent;
        }
    }

    /// The preference class of `asn`'s selected route.
    pub fn class(&self, asn: Asn) -> Option<LearnedFrom> {
        self.hop(asn).and_then(|(_, h)| h.class)
    }

    /// Number of ASes that can reach the origin.
    pub fn reachable_count(&self) -> usize {
        self.reached
    }

    /// Iterate `(asn, best)` in ASN order, materializing each route.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, BestRoute)> + '_ {
        self.asns
            .iter()
            .filter_map(|&a| self.best(a).map(|r| (a, r)))
    }

    /// Would `asn` export its best route to a neighbor related by `rel`
    /// (from `asn`'s perspective)? Encodes valley-free export of the
    /// *selected* route — an AS whose best is peer-learned advertises
    /// nothing for this origin to peers or providers.
    pub fn exports_to(&self, asn: Asn, rel: Relationship) -> bool {
        self.class(asn).is_some_and(|c| c.may_export_to(rel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AsInfo, GeoScope, Region, Tier};

    fn node(asn: u32, tier: Tier) -> AsInfo {
        AsInfo {
            asn: Asn(asn),
            tier,
            region: Region::WesternEurope,
            scope: GeoScope::Global,
        }
    }

    /// Classic Gao-Rexford teaching topology:
    ///
    /// ```text
    ///        1 ----- 2        (tier-1 clique, p2p)
    ///       / \       \
    ///      3   4       5      (customers of 1 / 1 / 2)
    ///      |  p2p\    /
    ///      6      \  /
    ///              7          (customer of 4 and 5; 4 p2p 7? no)
    /// ```
    /// Edges: 3 c2p 1, 4 c2p 1, 5 c2p 2, 6 c2p 3, 7 c2p 4, 7 c2p 5,
    ///        4 p2p 5 (a peer edge below the clique).
    fn teaching_graph() -> AsGraph {
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
        g.add_edge(Asn(1), Asn(2), Relationship::P2p);
        g.add_edge(Asn(3), Asn(1), Relationship::C2p);
        g.add_edge(Asn(4), Asn(1), Relationship::C2p);
        g.add_edge(Asn(5), Asn(2), Relationship::C2p);
        g.add_edge(Asn(6), Asn(3), Relationship::C2p);
        g.add_edge(Asn(7), Asn(4), Relationship::C2p);
        g.add_edge(Asn(7), Asn(5), Relationship::C2p);
        g.add_edge(Asn(4), Asn(5), Relationship::P2p);
        g
    }

    #[test]
    fn origin_route_is_trivial() {
        let g = teaching_graph();
        let state = Propagator::new(&g).routes_to(Asn(7));
        let r = state.best(Asn(7)).unwrap();
        assert_eq!(r.class, LearnedFrom::Origin);
        assert_eq!(r.path, vec![Asn(7)]);
        assert!(r.via.is_empty());
    }

    #[test]
    fn providers_learn_customer_routes_uphill() {
        let g = teaching_graph();
        let state = Propagator::new(&g).routes_to(Asn(7));
        // 4 and 5 learn directly from their customer 7.
        for p in [4u32, 5] {
            let r = state.best(Asn(p)).unwrap();
            assert_eq!(r.class, LearnedFrom::Customer, "AS{p}");
            assert_eq!(r.path, vec![Asn(p), Asn(7)]);
            assert_eq!(r.via, vec![EdgeKind::Transit]);
        }
        // 1 learns via its customer 4 (uphill, 2 hops).
        let r1 = state.best(Asn(1)).unwrap();
        assert_eq!(r1.class, LearnedFrom::Customer);
        assert_eq!(r1.path, vec![Asn(1), Asn(4), Asn(7)]);
    }

    #[test]
    fn peers_learn_customer_routes_one_hop() {
        let g = teaching_graph();
        let state = Propagator::new(&g).routes_to(Asn(6));
        // Origin 6 → customer route at 3 → at 1; 2 learns over the
        // clique p2p edge, class Peer.
        let r2 = state.best(Asn(2)).unwrap();
        assert_eq!(r2.class, LearnedFrom::Peer);
        assert_eq!(r2.path, vec![Asn(2), Asn(1), Asn(3), Asn(6)]);
        assert_eq!(r2.via[0], EdgeKind::GraphPeer);
    }

    #[test]
    fn provider_routes_descend_and_prefer_customer_first() {
        let g = teaching_graph();
        let state = Propagator::new(&g).routes_to(Asn(6));
        // 7 can reach 6 only downhill (via provider 4 → 1 → 3 → 6 or
        // 5 → 2 → 1 → 3 → 6); 4's route to 6 is provider-learned
        // (4 → 1 → 3 → 6), so 7 gets it downhill.
        let r7 = state.best(Asn(7)).unwrap();
        assert_eq!(r7.class, LearnedFrom::Provider);
        assert_eq!(r7.path, vec![Asn(7), Asn(4), Asn(1), Asn(3), Asn(6)]);
        // Everyone is reachable in a connected valley-free internet.
        assert_eq!(state.reachable_count(), 7);
    }

    #[test]
    fn peer_route_not_reexported_to_peers() {
        // 5's route to 6: 5's provider 2 has a peer route (2-1-3-6);
        // 2 exports it to its customer 5 (provider-learned at 5). But 4,
        // peering with 5, must NOT receive 5's provider route. 4's own
        // route is provider-learned via 1. Check class/via.
        let g = teaching_graph();
        let state = Propagator::new(&g).routes_to(Asn(6));
        let r4 = state.best(Asn(4)).unwrap();
        assert_eq!(r4.class, LearnedFrom::Provider);
        assert_eq!(r4.path, vec![Asn(4), Asn(1), Asn(3), Asn(6)]);
        assert_ne!(r4.via[0], EdgeKind::GraphPeer, "valley through 5 forbidden");
        // And the export predicate says 4 would only pass it downhill.
        assert!(state.exports_to(Asn(4), Relationship::P2c));
        assert!(!state.exports_to(Asn(4), Relationship::P2p));
        assert!(!state.exports_to(Asn(4), Relationship::C2p));
    }

    #[test]
    fn extra_peer_edges_create_visibility() {
        // Without extra edges, 6's routes reach 7 only via providers.
        // Add an IXP-style peer session 6 → 7 (6 exports to 7): 7 now
        // learns 6's origin route directly, tagged.
        let g = teaching_graph();
        let prop = Propagator::with_extra_peers(
            &g,
            [ExtraPeerEdge {
                exporter: Asn(6),
                receiver: Asn(7),
                tag: 42,
            }],
        );
        let state = prop.routes_to(Asn(6));
        let r7 = state.best(Asn(7)).unwrap();
        assert_eq!(r7.class, LearnedFrom::Peer);
        assert_eq!(r7.path, vec![Asn(7), Asn(6)]);
        assert_eq!(r7.via, vec![EdgeKind::ExtraPeer(42)]);
        assert_eq!(r7.first_extra_peer_hop(), Some((0, 42)));
        assert_eq!(prop.extra_edge_count(), 1);
    }

    #[test]
    fn extra_peer_edges_are_directed() {
        // Only 6 → 7 exists; routes toward 7 must NOT use the session in
        // reverse.
        let g = teaching_graph();
        let prop = Propagator::with_extra_peers(
            &g,
            [ExtraPeerEdge {
                exporter: Asn(6),
                receiver: Asn(7),
                tag: 42,
            }],
        );
        let state = prop.routes_to(Asn(7));
        let r6 = state.best(Asn(6)).unwrap();
        assert_eq!(
            r6.class,
            LearnedFrom::Provider,
            "6 must go via its provider 3"
        );
        assert!(r6.via.iter().all(|k| !matches!(k, EdgeKind::ExtraPeer(_))));
    }

    #[test]
    fn customer_route_preferred_over_shorter_peer_route() {
        // 5's route to 7: customer route (5-7, 1 hop) even though a peer
        // route via 4 would also be 2 hops; and 2 prefers its customer
        // route 2-5-7 over the peer route 2-1-4-7.
        let g = teaching_graph();
        let state = Propagator::new(&g).routes_to(Asn(7));
        let r2 = state.best(Asn(2)).unwrap();
        assert_eq!(r2.class, LearnedFrom::Customer);
        assert_eq!(r2.path, vec![Asn(2), Asn(5), Asn(7)]);
    }

    #[test]
    fn sibling_edges_relay_routes() {
        // Make 3 and 4 siblings; then 4 reaches 6 through the sibling
        // link as a sibling route (exportable onward).
        let mut g = teaching_graph();
        g.add_edge(Asn(3), Asn(4), Relationship::Sibling);
        let state = Propagator::new(&g).routes_to(Asn(6));
        let r4 = state.best(Asn(4)).unwrap();
        assert_eq!(r4.path, vec![Asn(4), Asn(3), Asn(6)]);
        assert_eq!(r4.class, LearnedFrom::Sibling);
        assert_eq!(r4.via[0], EdgeKind::Sibling);
        // And 7 now hears it from 4 (customer-of-4 side).
        let r7 = state.best(Asn(7)).unwrap();
        assert_eq!(r7.path, vec![Asn(7), Asn(4), Asn(3), Asn(6)]);
    }

    #[test]
    fn unknown_origin_reaches_nobody() {
        let g = teaching_graph();
        let state = Propagator::new(&g).routes_to(Asn(999));
        assert_eq!(state.reachable_count(), 0);
        assert!(state.best(Asn(1)).is_none());
    }

    #[test]
    fn paths_are_valley_free() {
        use crate::relationship::is_valley_free;
        let g = teaching_graph();
        for origin in [1u32, 2, 3, 4, 5, 6, 7] {
            let state = Propagator::new(&g).routes_to(Asn(origin));
            for (asn, route) in state.iter() {
                // Reconstruct the relationship sequence along the path
                // (observer → origin) and check valley-freedom.
                let rels: Vec<Relationship> = route
                    .path
                    .windows(2)
                    .map(|w| g.relationship(w[0], w[1]).expect("edge exists"))
                    .collect();
                assert!(
                    is_valley_free(&rels),
                    "valley in path {:?} (origin {origin}, at {asn})",
                    route.path
                );
            }
        }
    }
}
