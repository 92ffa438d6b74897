//! Traceroute-derived AS links (Ark / DIMES).
//!
//! Active topology projects run traceroutes from distributed monitors
//! and map router IPs to ASNs. Two properties matter for Fig. 6:
//!
//! * the data plane follows BGP best paths, so traceroute sees the same
//!   links BGP selected — plus nothing hidden;
//! * crossings of an IXP peering LAN resolve to the route server's ASN,
//!   so "both Ark and DIMES do not infer links across IXP Route Servers,
//!   but report them as links between the RS members and the Route
//!   Servers" (§5) — the artifact that keeps RS links out of
//!   traceroute-derived topologies.

use std::collections::BTreeSet;

use mlpeer_bgp::Asn;
use mlpeer_ixp::ixp::Ixp;
use mlpeer_topo::propagate::{BestRoute, EdgeKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::sim::Sim;

/// A traceroute-derived link dataset.
#[derive(Debug, Clone)]
pub struct TracerouteDataset {
    /// Monitor ASes the traceroutes originate from.
    pub monitors: Vec<Asn>,
    /// Undirected AS links, `a < b`.
    pub links: BTreeSet<(Asn, Asn)>,
}

impl TracerouteDataset {
    /// Does the dataset contain the (undirected) link?
    pub fn contains(&self, a: Asn, b: Asn) -> bool {
        let key = if a < b { (a, b) } else { (b, a) };
        self.links.contains(&key)
    }
}

/// Build an Ark/DIMES-style dataset: `n_monitors` edge-heavy monitors
/// tracerouting toward every origin, AS-level links extracted with the
/// route-server ASN artifact.
pub fn build_traceroute(sim: &Sim, seed: u64, n_monitors: usize) -> TracerouteDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    // Ark/DIMES monitors live disproportionately at the network edge.
    let mut pool: Vec<Asn> = sim
        .eco
        .internet
        .graph
        .nodes()
        .filter(|n| {
            matches!(
                n.tier,
                mlpeer_topo::graph::Tier::Stub | mlpeer_topo::graph::Tier::Regional
            )
        })
        .map(|n| n.asn)
        .collect();
    pool.shuffle(&mut rng);
    let monitors: Vec<Asn> = pool.into_iter().take(n_monitors).collect();

    let mut links: BTreeSet<(Asn, Asn)> = BTreeSet::new();
    let mut add = |a: Asn, b: Asn| {
        if a != b {
            links.insert(if a < b { (a, b) } else { (b, a) });
        }
    };
    let origins: Vec<Asn> = sim.eco.internet.prefixes.keys().copied().collect();
    let mut sweep = sim.sweeper();
    let mut route = BestRoute::default();
    for origin in origins {
        let state = sweep.routes_to(origin);
        for &mon in &monitors {
            if !state.best_into(mon, &mut route) {
                continue;
            }
            for (i, kind) in route.via.iter().enumerate() {
                let (a, b) = (route.path[i], route.path[i + 1]);
                match kind {
                    EdgeKind::ExtraPeer(tag) => {
                        let (ixp_id, bilateral) = Ixp::decode_tag(*tag);
                        if bilateral {
                            // Bilateral sessions still cross the IXP LAN:
                            // same artifact.
                            let rs = sim.eco.ixp(ixp_id).route_server.asn;
                            add(a, rs);
                            add(rs, b);
                        } else {
                            let rs = sim.eco.ixp(ixp_id).route_server.asn;
                            add(a, rs);
                            add(rs, b);
                        }
                    }
                    _ => add(a, b),
                }
            }
        }
    }
    TracerouteDataset { monitors, links }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpeer_ixp::{Ecosystem, EcosystemConfig};

    #[test]
    fn rs_links_replaced_by_rs_asn_artifact() {
        let eco = Ecosystem::generate(EcosystemConfig::tiny(61));
        let sim = Sim::new(&eco);
        let ds = build_traceroute(&sim, 5, 40);
        assert!(!ds.links.is_empty());
        // No direct member–member RS link may appear *as a consequence
        // of an RS crossing*; instead member–RS-ASN links appear.
        let rs_asns: BTreeSet<Asn> = eco.ixps.iter().map(|x| x.route_server.asn).collect();
        let rs_adjacent = ds
            .links
            .iter()
            .filter(|(a, b)| rs_asns.contains(a) || rs_asns.contains(b))
            .count();
        assert!(rs_adjacent > 0, "the member–RS-ASN artifact must appear");
    }

    #[test]
    fn traceroute_misses_most_mutual_rs_links() {
        let eco = Ecosystem::generate(EcosystemConfig::tiny(61));
        let sim = Sim::new(&eco);
        let ds = build_traceroute(&sim, 5, 40);
        let mutual = eco.all_mutual_links();
        let seen = mutual.iter().filter(|(a, b)| ds.contains(*a, *b)).count();
        // Some pairs may also peer bilaterally or privately, but the
        // overwhelming majority of RS links must be invisible (§5:
        // only 3,927 of 206K overlapped).
        let frac = seen as f64 / mutual.len().max(1) as f64;
        assert!(
            frac < 0.25,
            "traceroute sees {frac:.2} of RS links; should be rare"
        );
    }

    #[test]
    fn deterministic_and_monitor_bounded() {
        let eco = Ecosystem::generate(EcosystemConfig::tiny(61));
        let sim = Sim::new(&eco);
        let a = build_traceroute(&sim, 5, 10);
        let b = build_traceroute(&sim, 5, 10);
        assert_eq!(a.links, b.links);
        assert_eq!(a.monitors, b.monitors);
        assert!(a.monitors.len() <= 10);
    }
}
