//! The shared routing simulation.
//!
//! One [`Sim`] wraps an [`Ecosystem`] and answers the questions every
//! data-source simulator asks:
//!
//! * *"what is AS X's best route toward origin O?"* — Gao-Rexford
//!   propagation over the AS graph with every IXP's route-server flows
//!   and bilateral sessions grafted on (memoized per origin);
//! * *"which communities does that route carry when X re-announces
//!   it?"* — RS communities are attached by the RS *setter* (the member
//!   that announced across the route server) and survive only until the
//!   first community-stripping AS on the way to the observer;
//!   relationship/ingress-tagging communities (§5.6) are attached by the
//!   ASes that document them;
//! * *"what does AS X's Adj-RIB-In for prefix P look like?"* — every
//!   route X's neighbors (transit, sibling, route server, bilateral)
//!   would export to it, with X's local-preference applied — the table a
//!   looking glass on X displays (§5.1).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use mlpeer_bgp::rib::RibEntry;
use mlpeer_bgp::route::RouteAttrs;
use mlpeer_bgp::{AsPath, Asn, Community, CommunitySet, Prefix};
use mlpeer_ixp::ixp::{Ixp, IxpId};
use mlpeer_ixp::route_server::RouteServer;
use mlpeer_ixp::Ecosystem;
use mlpeer_topo::graph::Region;
use mlpeer_topo::propagate::{BestRoute, EdgeKind, Propagator, RouteState, Sweeper};
use mlpeer_topo::relationship::{LearnedFrom, Relationship};

/// Local-preference conventions applied by simulated routers: customers
/// above peers above providers, matching the economics of §2.1 (and the
/// §5.1 observation that customer routes hide peer routes in best-path
/// looking glasses).
pub mod local_pref {
    /// Routes learned from customers.
    pub const CUSTOMER: u32 = 300;
    /// Routes learned from bilateral IXP peers (default).
    pub const BILATERAL: u32 = 150;
    /// Routes learned from route servers (default).
    pub const RS: u32 = 100;
    /// Routes learned from transit providers.
    pub const PROVIDER: u32 = 80;
}

/// The shared simulation context.
pub struct Sim<'e> {
    /// The ecosystem being simulated.
    pub eco: &'e Ecosystem,
    prop: Propagator<'e>,
    /// ASes that strip communities when re-exporting routes.
    strippers: BTreeSet<Asn>,
    /// ASes that attach relationship/ingress tag communities (§5.6).
    taggers: BTreeSet<Asn>,
    /// Per-origin propagation memo.
    memo: RefCell<HashMap<Asn, Rc<RouteState>>>,
    /// Per-IXP prefix → announcing members index (all members).
    announcers: Vec<BTreeMap<Prefix, Vec<Asn>>>,
    /// Prefix → owning origin AS.
    origin_of: BTreeMap<Prefix, Asn>,
}

impl<'e> Sim<'e> {
    /// Build the simulation for an ecosystem.
    pub fn new(eco: &'e Ecosystem) -> Self {
        let prop = Propagator::with_extra_peers(&eco.internet.graph, eco.extra_peer_edges());
        let mut strippers = BTreeSet::new();
        for ixp in &eco.ixps {
            for m in ixp.members.values() {
                if m.strips_communities {
                    strippers.insert(m.asn);
                }
            }
        }
        let taggers = eco.defines_rel_tags.clone();
        let mut announcers: Vec<BTreeMap<Prefix, Vec<Asn>>> = Vec::with_capacity(eco.ixps.len());
        for ixp in &eco.ixps {
            let mut idx: BTreeMap<Prefix, Vec<Asn>> = BTreeMap::new();
            for m in ixp.members.values() {
                for ann in &m.announcements {
                    idx.entry(ann.prefix).or_default().push(m.asn);
                }
            }
            for v in idx.values_mut() {
                v.sort_unstable();
                v.dedup();
            }
            announcers.push(idx);
        }
        let mut origin_of = BTreeMap::new();
        for (asn, prefixes) in &eco.internet.prefixes {
            for p in prefixes {
                origin_of.insert(*p, *asn);
            }
        }
        Sim {
            eco,
            prop,
            strippers,
            taggers,
            memo: RefCell::new(HashMap::new()),
            announcers,
            origin_of,
        }
    }

    /// The propagation state toward `origin` (memoized; cloneable Rc).
    /// The memo pays for ad-hoc queries that revisit an origin (one
    /// looking-glass query per neighbor session); a sweep over every
    /// origin goes through [`Sim::sweeper`] instead.
    pub fn routes_to(&self, origin: Asn) -> Rc<RouteState> {
        if let Some(s) = self.memo.borrow().get(&origin) {
            return Rc::clone(s);
        }
        let state = Rc::new(self.prop.routes_to(origin));
        let mut memo = self.memo.borrow_mut();
        // Bound the memo so full-ecosystem sweeps don't hold every
        // origin's state at once.
        if memo.len() >= 512 {
            memo.clear();
        }
        memo.insert(origin, Rc::clone(&state));
        state
    }

    /// One reusable propagation workspace for a sweep over many
    /// origins: each origin is computed in place, bypassing the memo.
    pub fn sweeper(&self) -> Sweeper<'_, 'e> {
        self.prop.sweeper()
    }

    /// The origin AS that owns `prefix`.
    pub fn origin_of(&self, prefix: &Prefix) -> Option<Asn> {
        self.origin_of.get(prefix).copied()
    }

    /// Members of `ixp` announcing `prefix` (the multiplicity `m_p` the
    /// §4.3 query planner sorts by, and the Fig. 5 distribution).
    pub fn announcers_at(&self, ixp: IxpId, prefix: &Prefix) -> &[Asn] {
        self.announcers[ixp.0 as usize]
            .get(prefix)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Does any AS on `path[1..=upto]` strip communities? (`path[0]` is
    /// the receiver whose view we are computing; its own stripping
    /// applies only when it re-exports.)
    fn stripped_before(&self, path: &[Asn], upto: usize) -> bool {
        path.iter()
            .take(upto + 1)
            .skip(1)
            .any(|a| self.strippers.contains(a))
    }

    fn region_code(region: Region) -> u16 {
        match region {
            Region::WesternEurope => 101,
            Region::EasternEurope => 102,
            Region::NorthernEurope => 103,
            Region::SouthernEurope => 104,
            Region::NorthAmerica => 105,
            Region::AsiaPacific => 106,
            Region::LatinAmerica => 107,
            Region::Africa => 108,
        }
    }

    /// Relationship-tag community codes (§5.6): what an AS that
    /// documents tagging communities attaches at ingress.
    pub fn rel_tag_code(kind: &EdgeKind, rel: Option<Relationship>) -> u16 {
        match kind {
            EdgeKind::Transit => match rel {
                Some(Relationship::P2c) => 901, // learned from a customer
                _ => 903,                       // learned from a provider
            },
            EdgeKind::GraphPeer | EdgeKind::ExtraPeer(_) => 902,
            EdgeKind::Sibling => 904,
        }
    }

    /// The communities visible on `route` (a path `[observer, …,
    /// origin]`) for `prefix`, as received by the observer: the RS
    /// setter's communities if the path crossed a route server and no
    /// intermediate AS stripped them, plus any relationship/ingress tags
    /// attached by documenting ASes along the way.
    pub fn communities_on(&self, route: &BestRoute, prefix: &Prefix) -> CommunitySet {
        let mut out: Vec<Community> = Vec::new();
        for (i, kind) in route.via.iter().enumerate() {
            if let EdgeKind::ExtraPeer(tag) = kind {
                let (ixp_id, bilateral) = Ixp::decode_tag(*tag);
                if bilateral {
                    continue;
                }
                let ixp = self.eco.ixp(ixp_id);
                if ixp.route_server.strips_communities || ixp.filter_portal {
                    continue;
                }
                let setter = route.path[i + 1];
                if self.stripped_before(&route.path, i) {
                    continue;
                }
                if let Some(m) = ixp.member(setter) {
                    out.extend(RouteServer::communities_for(m, prefix, &ixp.scheme).iter());
                }
            }
            // Relationship/ingress tags attached by path[i] about the AS
            // it learned the route from (path[i+1]).
            let tagger = route.path[i];
            if i >= 1
                && self.taggers.contains(&tagger)
                && tagger.is_16bit()
                && !self.stripped_before(&route.path, i - 1)
            {
                let rel = self
                    .eco
                    .internet
                    .graph
                    .relationship(tagger, route.path[i + 1]);
                let code = Self::rel_tag_code(kind, rel);
                let t16 = tagger.value() as u16;
                out.push(Community::new(t16, code));
                if let Some(info) = self.eco.internet.graph.node(route.path[i + 1]) {
                    out.push(Community::new(t16, Self::region_code(info.region)));
                }
            }
        }
        CommunitySet::from_iter(out)
    }

    /// The full Adj-RIB-In of `observer` for `prefix`: one entry per
    /// neighbor session that would export the route, with the observer's
    /// local-preference conventions applied. This is what a looking
    /// glass on `observer` renders (§5.1).
    pub fn adj_rib_in(&self, observer: Asn, prefix: &Prefix) -> Vec<RibEntry> {
        let Some(origin) = self.origin_of(prefix) else {
            return Vec::new();
        };
        let state = self.routes_to(origin);
        let mut out: Vec<RibEntry> = Vec::new();
        let mut seen_sessions: BTreeSet<(Asn, u8)> = BTreeSet::new();

        // ---- Transit / sibling / private-peer neighbors. ----
        for &(n, rel) in self.eco.internet.graph.neighbors(observer) {
            let Some(route) = state.best(n) else { continue };
            if route.path.contains(&observer) {
                continue; // split horizon
            }
            // Would n export its best route to observer?
            let rel_from_n = rel.invert();
            if !route.class.may_export_to(rel_from_n) {
                continue;
            }
            let lp = match rel {
                Relationship::P2c => local_pref::CUSTOMER,
                Relationship::C2p => local_pref::PROVIDER,
                Relationship::P2p => local_pref::BILATERAL,
                Relationship::Sibling => local_pref::CUSTOMER,
            };
            if !seen_sessions.insert((n, 0)) {
                continue;
            }
            let attrs = RouteAttrs::new(
                AsPath::from_seq(route.path.iter().copied()),
                std::net::Ipv4Addr::from(0x0A00_0000 | (n.value() & 0xFFFF)),
            )
            .with_communities(self.communities_on(&route, prefix))
            .with_local_pref(lp);
            out.push(RibEntry {
                peer: n,
                peer_addr: attrs.next_hop,
                attrs,
                learned_at: 0,
            });
        }

        // ---- IXP sessions. ----
        for ixp in &self.eco.ixps {
            let Some(me) = ixp.member(observer) else {
                continue;
            };
            // Route-server session: one entry per member whose
            // announcement of `prefix` the RS delivers to us.
            if me.rs_member {
                for &a in self.announcers_at(ixp.id, prefix) {
                    if a == observer {
                        continue;
                    }
                    let Some(am) = ixp.member(a) else { continue };
                    if !RouteServer::delivers(am, me, prefix) {
                        continue;
                    }
                    let ann = am
                        .announcements
                        .iter()
                        .find(|x| &x.prefix == prefix)
                        .expect("announcer index consistent");
                    if ann.as_path.contains(observer) {
                        continue;
                    }
                    if !seen_sessions.insert((a, 1)) {
                        continue;
                    }
                    let path = if ixp.route_server.inserts_own_asn {
                        ann.as_path.prepended(ixp.route_server.asn)
                    } else {
                        ann.as_path.clone()
                    };
                    let communities = if ixp.route_server.strips_communities || ixp.filter_portal {
                        CommunitySet::new()
                    } else {
                        RouteServer::communities_for(am, prefix, &ixp.scheme)
                    };
                    let attrs = RouteAttrs::new(path, am.lan_addr)
                        .with_communities(communities)
                        .with_local_pref(me.rs_local_pref);
                    out.push(RibEntry {
                        peer: a,
                        peer_addr: am.lan_addr,
                        attrs,
                        learned_at: 0,
                    });
                }
            }
            // Bilateral sessions across the fabric.
            for &b in &me.bilateral_peers {
                let Some(bm) = ixp.member(b) else { continue };
                let Some(ann) = bm.announcements.iter().find(|x| &x.prefix == prefix) else {
                    continue;
                };
                if ann.as_path.contains(observer) {
                    continue;
                }
                if !seen_sessions.insert((b, 2)) {
                    continue;
                }
                let attrs = RouteAttrs::new(ann.as_path.clone(), bm.lan_addr)
                    .with_local_pref(me.bilateral_local_pref.max(local_pref::BILATERAL));
                out.push(RibEntry {
                    peer: b,
                    peer_addr: bm.lan_addr,
                    attrs,
                    learned_at: 0,
                });
            }
        }
        out
    }

    /// The observer's *selected* best entry among its Adj-RIB-In for
    /// `prefix` (highest local-pref, then shortest path, deterministic
    /// tie-breaks) — what a best-path-only looking glass shows.
    pub fn best_of(&self, observer: Asn, prefix: &Prefix) -> Option<RibEntry> {
        let mut rib = mlpeer_bgp::rib::Rib::new();
        for e in self.adj_rib_in(observer, prefix) {
            rib.insert(*prefix, e);
        }
        rib.best(prefix).cloned()
    }

    /// Is `asn` a community stripper?
    pub fn strips(&self, asn: Asn) -> bool {
        self.strippers.contains(&asn)
    }

    /// The ASes documenting relationship-tag communities.
    pub fn taggers(&self) -> &BTreeSet<Asn> {
        &self.taggers
    }

    /// Number of directed extra (IXP) peer edges grafted onto the graph.
    pub fn extra_edge_count(&self) -> usize {
        self.prop.extra_edge_count()
    }

    /// The classification of `observer`'s best route toward `origin`
    /// (None if unreachable).
    pub fn route_class(&self, observer: Asn, origin: Asn) -> Option<LearnedFrom> {
        self.routes_to(origin).class(observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpeer_ixp::EcosystemConfig;

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig::tiny(11))
    }

    #[test]
    fn rs_crossing_attaches_setter_communities() {
        let eco = eco();
        let sim = Sim::new(&eco);
        // Find an RS flow (a → b) at DE-CIX and check b's route to one
        // of a's own prefixes carries a's communities.
        let decix = eco.ixp_by_name("DE-CIX").unwrap();
        let flows = decix.directed_flows();
        let mut checked = 0;
        for (a, b) in flows.into_iter().take(400) {
            let Some(own_prefix) = eco.internet.prefixes_of(a).first().copied() else {
                continue;
            };
            let state = sim.routes_to(a);
            let Some(route) = state.best(b) else { continue };
            // Only meaningful when b's best actually crosses an RS edge
            // directly to a.
            if route.path.len() == 2 {
                if let Some((0, tag)) = route.first_extra_peer_hop() {
                    let (ixp_id, bilateral) = Ixp::decode_tag(tag);
                    if !bilateral {
                        let ixp = eco.ixp(ixp_id);
                        let cs = sim.communities_on(&route, &own_prefix);
                        let member = ixp.member(a).unwrap();
                        let expected =
                            RouteServer::communities_for(member, &own_prefix, &ixp.scheme);
                        for c in expected.iter() {
                            assert!(cs.contains(c), "missing {c} on {a}→{b}");
                        }
                        checked += 1;
                        if checked > 10 {
                            break;
                        }
                    }
                }
            }
        }
        assert!(checked > 0, "no direct RS crossings found to check");
    }

    #[test]
    fn adj_rib_in_contains_rs_and_transit_routes() {
        let eco = eco();
        let sim = Sim::new(&eco);
        let decix = eco.ixp_by_name("DE-CIX").unwrap();
        // Pick an RS member pair with a flow and inspect the receiver's
        // Adj-RIB-In for the announcer's own prefix.
        let (a, b) = decix
            .directed_flows()
            .into_iter()
            .next()
            .expect("flows exist");
        let p = eco.internet.prefixes_of(a)[0];
        let rib = sim.adj_rib_in(b, &p);
        assert!(!rib.is_empty(), "receiver has routes for {p}");
        // At least one entry must come straight from the announcer
        // (first hop a).
        assert!(
            rib.iter().any(|e| e.attrs.as_path.first_hop() == Some(a)),
            "no direct session entry from {a} in {b}'s RIB"
        );
        // Best-of returns one of the entries.
        let best = sim.best_of(b, &p).unwrap();
        assert!(rib
            .iter()
            .any(|e| e.peer == best.peer && e.attrs.as_path == best.attrs.as_path));
    }

    #[test]
    fn origin_and_announcer_indexes() {
        let eco = eco();
        let sim = Sim::new(&eco);
        let decix = eco.ixp_by_name("DE-CIX").unwrap();
        for m in decix.members.values().take(10) {
            for ann in m.announcements.iter().take(3) {
                assert!(sim.announcers_at(decix.id, &ann.prefix).contains(&m.asn));
                let origin = sim.origin_of(&ann.prefix).expect("prefix owned");
                assert_eq!(ann.as_path.origin(), Some(origin));
            }
        }
    }

    #[test]
    fn memoization_returns_same_state() {
        let eco = eco();
        let sim = Sim::new(&eco);
        let origin = *eco.all_member_asns().iter().next().unwrap();
        let a = sim.routes_to(origin);
        let b = sim.routes_to(origin);
        assert!(Rc::ptr_eq(&a, &b));
        assert!(sim.extra_edge_count() > 0);
    }
}
