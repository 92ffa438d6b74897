//! Route collectors (Route Views / RIPE RIS).
//!
//! A collector passively receives BGP sessions from volunteer vantage
//! points (VPs) and archives RIB dumps plus update streams (§2.2). Two
//! properties matter for the paper:
//!
//! * most VPs treat the collector like a peer and export only customer
//!   routes ("two-thirds of all contributing ASes configure their
//!   connection with the BGP collector as a p2p link", §2.3) — which is
//!   exactly why p2p links are invisible;
//! * an *RS feeder* (§4.2) — an RS member, or a customer of one, with a
//!   full feed — leaks route-server routes *with their RS communities*
//!   to the collector, which is what passive inference mines.
//!
//! The per-IXP feeder plan is calibrated so passive coverage varies the
//! way Table 2's "Pasv" column does: member-feeders give high coverage
//! (AMS-IX-like), customer-of-member feeders moderate coverage
//! (DE-CIX-like), and IXPs without a feeder almost none (MSK-IX-like).

use mlpeer_bgp::mrt::{MrtArchive, MrtRibEntry, MrtUpdate};
use mlpeer_bgp::route::RouteAttrs;
use mlpeer_bgp::update::UpdateMessage;
use mlpeer_bgp::{AsPath, Asn, Community, CommunitySet};
use mlpeer_topo::propagate::BestRoute;
use mlpeer_topo::relationship::LearnedFrom;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::sim::Sim;

/// How a vantage point feeds the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedKind {
    /// Full table (the RS-feeder case).
    Full,
    /// Customer routes only (the common p2p-style session).
    CustomerOnly,
}

/// One vantage point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VantagePoint {
    /// VP ASN.
    pub asn: Asn,
    /// Feed policy toward the collector.
    pub feed: FeedKind,
}

/// What kind of RS feeder (if any) an IXP gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeederKind {
    /// An RS member contributes a full view (high passive coverage).
    Member,
    /// A customer of an RS member contributes (moderate coverage:
    /// only the member's *selected* routes descend to it).
    CustomerOfMember,
    /// No dedicated feeder (coverage only by accident).
    None,
}

/// Collector-construction parameters.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// RNG seed.
    pub seed: u64,
    /// Dedicated RS feeders per IXP name.
    pub feeder_plan: Vec<(String, FeederKind)>,
    /// Additional generic VPs (1/3 full feed, 2/3 customer-only).
    pub generic_vps: usize,
    /// Transient-noise events to inject into the update stream
    /// (misconfigured communities that appear briefly, §5's transient
    /// filtering).
    pub transient_events: usize,
    /// Poisoned/bogon paths to inject (loops, reserved ASNs).
    pub poisoned_paths: usize,
}

impl CollectorConfig {
    /// The default plan approximating Table 2's Pasv column shape.
    pub fn paper_like(seed: u64) -> Self {
        let plan = [
            ("AMS-IX", FeederKind::Member),
            ("LINX", FeederKind::Member),
            ("France-IX", FeederKind::Member),
            ("DE-CIX", FeederKind::CustomerOfMember),
            ("PLIX", FeederKind::CustomerOfMember),
            ("LONAP", FeederKind::CustomerOfMember),
            ("ECIX", FeederKind::CustomerOfMember),
            ("TOP-IX", FeederKind::CustomerOfMember),
            ("MSK-IX", FeederKind::None),
            ("SPB-IX", FeederKind::None),
            ("DTEL-IX", FeederKind::None),
            ("STHIX", FeederKind::None),
            ("BIX.BG", FeederKind::None),
        ];
        CollectorConfig {
            seed,
            feeder_plan: plan.iter().map(|(n, k)| (n.to_string(), *k)).collect(),
            generic_vps: 14,
            transient_events: 6,
            poisoned_paths: 4,
        }
    }
}

/// The archived passive dataset: named collectors with their MRT
/// archives, plus the VP roster.
#[derive(Debug)]
pub struct PassiveDataset {
    /// `(collector name, archive)`.
    pub collectors: Vec<(String, MrtArchive)>,
    /// All vantage points.
    pub vps: Vec<VantagePoint>,
}

impl PassiveDataset {
    /// Iterate all RIB entries across collectors.
    pub fn rib_entries(&self) -> impl Iterator<Item = (&MrtArchive, &MrtRibEntry)> {
        self.collectors
            .iter()
            .flat_map(|(_, a)| a.rib.iter().map(move |e| (a, e)))
    }

    /// Total RIB entry count.
    pub fn rib_len(&self) -> usize {
        self.collectors.iter().map(|(_, a)| a.rib.len()).sum()
    }

    /// Total update count.
    pub fn update_len(&self) -> usize {
        self.collectors.iter().map(|(_, a)| a.updates.len()).sum()
    }
}

/// Pick the feeder VPs according to the plan.
fn pick_feeders(sim: &Sim, cfg: &CollectorConfig, rng: &mut StdRng) -> Vec<VantagePoint> {
    let mut out = Vec::new();
    for (name, kind) in &cfg.feeder_plan {
        let Some(ixp) = sim.eco.ixp_by_name(name) else {
            continue;
        };
        match kind {
            FeederKind::None => {}
            FeederKind::Member => {
                // The best-connected RS member: the one receiving the
                // most flows sees (and re-exports) the most communities.
                let mut indeg: std::collections::BTreeMap<Asn, usize> = Default::default();
                for (_, b) in ixp.directed_flows() {
                    *indeg.entry(b).or_default() += 1;
                }
                if let Some((&best, _)) = indeg
                    .iter()
                    .max_by_key(|(a, n)| (**n, std::cmp::Reverse(a.value())))
                {
                    out.push(VantagePoint {
                        asn: best,
                        feed: FeedKind::Full,
                    });
                }
            }
            FeederKind::CustomerOfMember => {
                // A customer of a well-connected RS member.
                let mut members = ixp.rs_member_asns();
                members.sort_unstable_by_key(|a| {
                    std::cmp::Reverse(sim.eco.internet.graph.customer_degree(*a))
                });
                let cust = members.iter().find_map(|&m| {
                    let cs = sim.eco.internet.graph.customers_of(m);
                    cs.first().copied()
                });
                if let Some(c) = cust {
                    out.push(VantagePoint {
                        asn: c,
                        feed: FeedKind::Full,
                    });
                }
            }
        }
        let _ = rng;
    }
    out
}

/// Build the passive dataset: one sweep of route propagation over every
/// origin, archived from each VP's point of view.
pub fn build_passive(sim: &Sim, cfg: &CollectorConfig) -> PassiveDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut vps = pick_feeders(sim, cfg, &mut rng);

    // Generic VPs: transit networks (they volunteer most feeds).
    let mut pool: Vec<Asn> = sim
        .eco
        .internet
        .graph
        .nodes()
        .filter(|n| {
            matches!(
                n.tier,
                mlpeer_topo::graph::Tier::Tier1 | mlpeer_topo::graph::Tier::Tier2
            )
        })
        .map(|n| n.asn)
        .collect();
    pool.shuffle(&mut rng);
    for (i, asn) in pool.into_iter().take(cfg.generic_vps).enumerate() {
        if vps.iter().any(|v| v.asn == asn) {
            continue;
        }
        let feed = if i % 3 == 0 {
            FeedKind::Full
        } else {
            FeedKind::CustomerOnly
        };
        vps.push(VantagePoint { asn, feed });
    }

    // Two collectors split the VPs, like Route Views vs RIS.
    let mut rv = MrtArchive::new();
    let mut ris = MrtArchive::new();
    let mut vp_index: Vec<(VantagePoint, bool, u16)> = Vec::new();
    for (i, vp) in vps.iter().enumerate() {
        let to_rv = i % 2 == 0;
        let addr = std::net::Ipv4Addr::from(0xC000_0200 + i as u32);
        let idx = if to_rv {
            rv.add_peer(vp.asn, addr)
        } else {
            ris.add_peer(vp.asn, addr)
        };
        vp_index.push((*vp, to_rv, idx));
    }

    // ---- The sweep. ----
    let origins: Vec<Asn> = sim.eco.internet.prefixes.keys().copied().collect();
    let mut sweep = sim.sweeper();
    let mut route = BestRoute::default();
    for origin in origins {
        let state = sweep.routes_to(origin);
        for (vp, to_rv, idx) in &vp_index {
            if !state.best_into(vp.asn, &mut route) {
                continue;
            }
            if vp.feed == FeedKind::CustomerOnly
                && !matches!(
                    route.class,
                    LearnedFrom::Origin | LearnedFrom::Customer | LearnedFrom::Sibling
                )
            {
                continue;
            }
            for prefix in sim.eco.internet.prefixes_of(origin) {
                let attrs = RouteAttrs::new(
                    AsPath::from_seq(route.path.iter().copied()),
                    std::net::Ipv4Addr::new(10, 0, 0, 1),
                )
                .with_communities(sim.communities_on(&route, prefix));
                let entry = MrtRibEntry {
                    peer_index: *idx,
                    originated: 86_400,
                    prefix: *prefix,
                    attrs,
                };
                if *to_rv {
                    rv.rib.push(entry);
                } else {
                    ris.rib.push(entry);
                }
            }
        }
    }

    // ---- Noise injection. ----
    // Transient events: a short-lived announcement with a bogus extra
    // community, withdrawn within the hour (the passive pipeline must
    // filter these as transient).
    let all_members: Vec<Asn> = sim.eco.all_rs_member_asns().into_iter().collect();
    for k in 0..cfg.transient_events {
        if all_members.is_empty() || rv.peers.is_empty() {
            break;
        }
        let m = all_members[rng.gen_range(0..all_members.len())];
        let Some(&prefix) = sim.eco.internet.prefixes_of(m).first() else {
            continue;
        };
        let t0 = 100_000 + (k as u32) * 1_000;
        let mut cs = CommunitySet::new();
        cs.insert(Community::new(0, rng.gen_range(1..64_000) as u16));
        let attrs = RouteAttrs::new(
            AsPath::from_seq([rv.peers[0].asn, m]),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
        )
        .with_communities(cs);
        rv.updates.push(MrtUpdate {
            peer_index: 0,
            timestamp: t0,
            update: UpdateMessage::announce(attrs, vec![prefix]),
        });
        rv.updates.push(MrtUpdate {
            peer_index: 0,
            timestamp: t0 + 1_800,
            update: UpdateMessage::withdraw(vec![prefix]),
        });
    }
    // Poisoned paths: loops and reserved ASNs (the §5 sanitation
    // filters must drop these).
    for k in 0..cfg.poisoned_paths {
        if rv.peers.is_empty() {
            break;
        }
        let vp = rv.peers[0].asn;
        let bad_path = if k % 2 == 0 {
            AsPath::from_seq([vp, Asn(23456), Asn(65_000)])
        } else {
            AsPath::from_seq([vp, Asn(3356), Asn(1299), Asn(3356), Asn(9002)])
        };
        let attrs = RouteAttrs::new(bad_path, std::net::Ipv4Addr::new(10, 0, 0, 3));
        rv.updates.push(MrtUpdate {
            peer_index: 0,
            timestamp: 200_000 + k as u32,
            update: UpdateMessage::announce(
                attrs,
                vec![format!("203.0.{}.0/24", 100 + k).parse().unwrap()],
            ),
        });
    }

    PassiveDataset {
        collectors: vec![
            ("route-views.sim".to_string(), rv),
            ("rrc00.sim".to_string(), ris),
        ],
        vps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpeer_ixp::{Ecosystem, EcosystemConfig};

    fn dataset() -> (Ecosystem, CollectorConfig) {
        (
            Ecosystem::generate(EcosystemConfig::tiny(21)),
            CollectorConfig::paper_like(5),
        )
    }

    #[test]
    fn builds_nonempty_archives_with_vps() {
        let (eco, cfg) = dataset();
        let sim = Sim::new(&eco);
        let ds = build_passive(&sim, &cfg);
        assert_eq!(ds.collectors.len(), 2);
        assert!(ds.rib_len() > 100, "rib entries: {}", ds.rib_len());
        assert!(!ds.vps.is_empty());
        assert!(ds.update_len() >= cfg.transient_events, "noise injected");
    }

    #[test]
    fn some_rib_entries_carry_rs_communities() {
        let (eco, cfg) = dataset();
        let sim = Sim::new(&eco);
        let ds = build_passive(&sim, &cfg);
        // At least one archived route must carry a community mentioning
        // some IXP's RS ASN — the observable §4.2 exploits.
        let mut hits = 0;
        for (_, e) in ds.rib_entries() {
            for c in e.attrs.communities.iter() {
                if eco.ixps.iter().any(|x| x.scheme.mentions_rs(c)) {
                    hits += 1;
                    break;
                }
            }
        }
        assert!(hits > 0, "no RS communities reached any collector");
    }

    #[test]
    fn customer_only_vps_export_no_peer_routes() {
        let (eco, cfg) = dataset();
        let sim = Sim::new(&eco);
        let ds = build_passive(&sim, &cfg);
        // For customer-only VPs, every archived path must start at the
        // VP and the VP's route class was customer-ish, i.e. the origin
        // must be in the VP's customer cone (or the VP itself).
        for (name, archive) in &ds.collectors {
            for e in &archive.rib {
                let vp = archive.peers[e.peer_index as usize].asn;
                assert_eq!(
                    e.attrs.as_path.first_hop(),
                    Some(vp),
                    "{name}: path starts at VP"
                );
            }
        }
    }

    #[test]
    fn feeder_plan_creates_full_feeds() {
        let (eco, cfg) = dataset();
        let sim = Sim::new(&eco);
        let ds = build_passive(&sim, &cfg);
        let full = ds.vps.iter().filter(|v| v.feed == FeedKind::Full).count();
        assert!(full >= 3, "member feeders exist: {full}");
    }
}
