//! The IXP: peering LAN, members, route server, bilateral fabric.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use mlpeer_bgp::rib::Rib;
use mlpeer_bgp::{Announcement, Asn, Prefix};
use mlpeer_topo::graph::Region;
use serde::{Deserialize, Serialize};

use crate::member::IxpMember;
use crate::route_server::RouteServer;
use crate::scheme::CommunityScheme;

/// Identifier of an IXP within an ecosystem (stable index).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct IxpId(pub u16);

/// An Internet exchange point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ixp {
    /// Stable identifier.
    pub id: IxpId,
    /// Human name ("DE-CIX", …).
    pub name: String,
    /// Home region.
    pub region: Region,
    /// The peering LAN prefix; member addresses live inside it.
    pub lan: Prefix,
    /// The documented RS community scheme.
    pub scheme: CommunityScheme,
    /// The (logical) route server.
    pub route_server: RouteServer,
    /// How many physical route servers carry the sessions (Fig. 1's
    /// `c`; purely informational for the session-count economics).
    pub session_redundancy: u8,
    /// Members by ASN.
    pub members: BTreeMap<Asn, IxpMember>,
    /// Does the IXP run a public looking glass onto its route server
    /// (the LG column of Table 2)?
    pub has_lg: bool,
    /// VIX/HKIX-style web-portal filter configuration: export filters
    /// exist but are *not* expressed as communities on routes (§5.8) —
    /// passive inference sees nothing here.
    pub filter_portal: bool,
    /// Does the IXP publish its member list (website / AS-SET)? LINX
    /// does not (Table 2's asterisk), forcing partial connectivity data.
    pub publishes_member_list: bool,
}

impl Ixp {
    /// Member record by ASN.
    pub fn member(&self, asn: Asn) -> Option<&IxpMember> {
        self.members.get(&asn)
    }

    /// Mutable member record.
    pub fn member_mut(&mut self, asn: Asn) -> Option<&mut IxpMember> {
        self.members.get_mut(&asn)
    }

    /// All member ASNs, ascending.
    pub fn member_asns(&self) -> Vec<Asn> {
        self.members.keys().copied().collect()
    }

    /// ASNs connected to the route server (`A_RS` in §4.1), ascending.
    pub fn rs_member_asns(&self) -> Vec<Asn> {
        self.members
            .values()
            .filter(|m| m.rs_member)
            .map(|m| m.asn)
            .collect()
    }

    /// Member count (the "ASes" column of Table 2).
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// RS member count (the "RS" column of Table 2).
    pub fn rs_member_count(&self) -> usize {
        self.members.values().filter(|m| m.rs_member).count()
    }

    /// The route server's Adj-RIB-In. At a web-portal-filter IXP
    /// (VIX/HKIX style, §5.8) the filters exist but are configured out
    /// of band, so no RS communities appear on any route.
    pub fn rs_rib(&self) -> Rib {
        let mut rib = self
            .route_server
            .build_rib(self.members.values(), &self.scheme);
        if self.filter_portal {
            let cleaned: Vec<(Prefix, mlpeer_bgp::rib::RibEntry)> = rib
                .iter()
                .flat_map(|(p, entries)| {
                    entries.iter().map(|e| {
                        let mut e = e.clone();
                        e.attrs.communities.clear();
                        (*p, e)
                    })
                })
                .collect();
            let mut stripped = Rib::new();
            for (p, e) in cleaned {
                stripped.insert(p, e);
            }
            rib = stripped;
        }
        rib
    }

    /// The entries of [`rs_rib`](Ixp::rs_rib) for `prefix` alone, built
    /// from `announcers` (the members announcing it, in ASN order) —
    /// what the IXP looking glass answers `show ip bgp <prefix>` from,
    /// without building the whole table.
    pub fn rs_rib_for(&self, prefix: &Prefix, announcers: &[Asn]) -> Rib {
        let mut rib = Rib::new();
        for m in announcers.iter().filter_map(|a| self.members.get(a)) {
            if !m.rs_member {
                continue;
            }
            for ann in m.announcements.iter().filter(|a| a.prefix == *prefix) {
                let mut entry = RouteServer::rib_entry(m, ann, &self.scheme);
                if self.filter_portal {
                    entry.attrs.communities.clear();
                }
                rib.insert(*prefix, entry);
            }
        }
        rib
    }

    /// What `member` receives from the route server.
    pub fn rs_export_to(&self, member: Asn) -> Vec<Announcement> {
        let mut out = match self.members.get(&member) {
            Some(m) => self
                .route_server
                .export_to(m, self.members.values(), &self.scheme),
            None => Vec::new(),
        };
        if self.filter_portal {
            for ann in &mut out {
                ann.attrs.communities.clear();
            }
        }
        out
    }

    /// Directed ground-truth flows over the route server: `(a, b)` when
    /// at least one of `a`'s prefixes is delivered to `b`. These are the
    /// edges the propagation layer grafts onto the AS graph.
    pub fn directed_flows(&self) -> Vec<(Asn, Asn)> {
        let rs: Vec<&IxpMember> = self.members.values().filter(|m| m.rs_member).collect();
        let mut out = Vec::new();
        for a in &rs {
            for b in &rs {
                if a.asn == b.asn {
                    continue;
                }
                if a.announcements
                    .iter()
                    .any(|ann| RouteServer::delivers(a, b, &ann.prefix))
                {
                    out.push((a.asn, b.asn));
                }
            }
        }
        out
    }

    /// Undirected ground-truth MLP links at this IXP: pairs with traffic
    /// flowing in at least one direction (the paper's inference is the
    /// *mutual* subset; asymmetric pairs are the links §4.4 says the
    /// reciprocity assumption will miss).
    pub fn ground_truth_links(&self) -> BTreeSet<(Asn, Asn)> {
        let mut set = BTreeSet::new();
        for (a, b) in self.directed_flows() {
            set.insert(if a < b { (a, b) } else { (b, a) });
        }
        set
    }

    /// Undirected pairs with flow in *both* directions — what a sound
    /// reciprocal inference can hope to find.
    pub fn mutual_links(&self) -> BTreeSet<(Asn, Asn)> {
        let flows: BTreeSet<(Asn, Asn)> = self.directed_flows().into_iter().collect();
        flows
            .iter()
            .filter(|&&(a, b)| a < b && flows.contains(&(b, a)))
            .copied()
            .collect()
    }

    /// Bilateral peering links across the fabric (undirected, deduped).
    pub fn bilateral_links(&self) -> BTreeSet<(Asn, Asn)> {
        let mut set = BTreeSet::new();
        for m in self.members.values() {
            for &p in &m.bilateral_peers {
                if self.members.contains_key(&p) {
                    set.insert(if m.asn < p { (m.asn, p) } else { (p, m.asn) });
                }
            }
        }
        set
    }

    /// The LAN address of a member.
    pub fn lan_addr_of(&self, asn: Asn) -> Option<Ipv4Addr> {
        self.members.get(&asn).map(|m| m.lan_addr)
    }

    /// Propagation tag for RS-mediated edges at this IXP.
    pub fn rs_tag(&self) -> u32 {
        (self.id.0 as u32) << 1
    }

    /// Propagation tag for bilateral edges at this IXP.
    pub fn bilateral_tag(&self) -> u32 {
        ((self.id.0 as u32) << 1) | 1
    }

    /// Decode a propagation tag back to `(ixp id, is_bilateral)`.
    pub fn decode_tag(tag: u32) -> (IxpId, bool) {
        (IxpId((tag >> 1) as u16), tag & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::MemberAnnouncement;
    use crate::policy::ExportPolicy;
    use mlpeer_bgp::AsPath;

    fn small_ixp() -> Ixp {
        let mut members = BTreeMap::new();
        for (i, asn) in [1001u32, 1002, 1003].into_iter().enumerate() {
            let mut m = IxpMember::new(Asn(asn), Ipv4Addr::new(80, 81, 192, (i + 1) as u8));
            m.announcements = vec![MemberAnnouncement {
                prefix: Prefix::from_u32((100 << 24) | (asn << 8), 24).unwrap(),
                as_path: AsPath::from_seq([Asn(asn)]),
            }];
            members.insert(Asn(asn), m);
        }
        // 1001 blocks 1003.
        members.get_mut(&Asn(1001)).unwrap().export =
            ExportPolicy::AllExcept([Asn(1003)].into_iter().collect());
        Ixp {
            id: IxpId(3),
            name: "TEST-IX".into(),
            region: Region::WesternEurope,
            lan: "80.81.192.0/22".parse().unwrap(),
            scheme: CommunityScheme::decix(),
            route_server: RouteServer::new(Asn(6695), "80.81.192.253".parse().unwrap()),
            session_redundancy: 2,
            members,
            has_lg: true,
            filter_portal: false,
            publishes_member_list: true,
        }
    }

    #[test]
    fn counts_and_membership() {
        let mut ixp = small_ixp();
        assert_eq!(ixp.member_count(), 3);
        assert_eq!(ixp.rs_member_count(), 3);
        ixp.member_mut(Asn(1003)).unwrap().rs_member = false;
        assert_eq!(ixp.rs_member_count(), 2);
        assert_eq!(ixp.member_asns(), vec![Asn(1001), Asn(1002), Asn(1003)]);
        assert_eq!(ixp.rs_member_asns(), vec![Asn(1001), Asn(1002)]);
        assert_eq!(
            ixp.lan_addr_of(Asn(1001)),
            Some("80.81.192.1".parse().unwrap())
        );
        assert_eq!(ixp.lan_addr_of(Asn(9999)), None);
    }

    #[test]
    fn directed_flows_respect_one_sided_block() {
        let ixp = small_ixp();
        let flows: BTreeSet<(Asn, Asn)> = ixp.directed_flows().into_iter().collect();
        // 1001 → 1002 yes, 1001 → 1003 no (export filter), all others yes.
        assert!(flows.contains(&(Asn(1001), Asn(1002))));
        assert!(!flows.contains(&(Asn(1001), Asn(1003))));
        assert!(
            flows.contains(&(Asn(1003), Asn(1001))),
            "1003 is open toward 1001"
        );
        assert!(flows.contains(&(Asn(1002), Asn(1003))));
    }

    #[test]
    fn ground_truth_vs_mutual_links() {
        let ixp = small_ixp();
        // Ground truth counts the asymmetric 1001–1003 pair (one-way
        // flow); the mutual set drops it.
        let gt = ixp.ground_truth_links();
        assert_eq!(gt.len(), 3);
        let mutual = ixp.mutual_links();
        assert_eq!(mutual.len(), 2);
        assert!(!mutual.contains(&(Asn(1001), Asn(1003))));
    }

    #[test]
    fn rs_rib_and_export() {
        let ixp = small_ixp();
        let rib = ixp.rs_rib();
        assert_eq!(rib.prefix_count(), 3);
        let to_1003 = ixp.rs_export_to(Asn(1003));
        let from: Vec<Asn> = to_1003
            .iter()
            .filter_map(|a| a.attrs.as_path.first_hop())
            .collect();
        assert_eq!(from, vec![Asn(1002)], "only 1002's route reaches 1003");
        assert!(ixp.rs_export_to(Asn(4040)).is_empty(), "unknown member");
    }

    #[test]
    fn rs_rib_for_one_prefix_matches_the_whole_table() {
        let mut ixp = small_ixp();
        // 1002 also announces 1001's prefix: two entries for one prefix.
        let shared = ixp.members[&Asn(1001)].announcements[0].clone();
        ixp.member_mut(Asn(1002))
            .unwrap()
            .announcements
            .push(shared);
        for filter_portal in [false, true] {
            ixp.filter_portal = filter_portal;
            let whole = ixp.rs_rib();
            let mut members: Vec<Asn> = ixp.members.keys().copied().collect();
            members.push(Asn(4040)); // not a member: ignored
            for (prefix, entries) in whole.iter() {
                let one = ixp.rs_rib_for(prefix, &members);
                assert_eq!(one.prefix_count(), 1);
                assert_eq!(one.paths(prefix), entries, "{prefix}");
            }
        }
    }

    #[test]
    fn bilateral_links_dedupe_and_ignore_outsiders() {
        let mut ixp = small_ixp();
        ixp.member_mut(Asn(1001))
            .unwrap()
            .bilateral_peers
            .insert(Asn(1002));
        ixp.member_mut(Asn(1002))
            .unwrap()
            .bilateral_peers
            .insert(Asn(1001));
        ixp.member_mut(Asn(1002))
            .unwrap()
            .bilateral_peers
            .insert(Asn(7777)); // not a member
        let links = ixp.bilateral_links();
        assert_eq!(links.len(), 1);
        assert!(links.contains(&(Asn(1001), Asn(1002))));
    }

    #[test]
    fn tags_roundtrip() {
        let ixp = small_ixp();
        assert_eq!(Ixp::decode_tag(ixp.rs_tag()), (IxpId(3), false));
        assert_eq!(Ixp::decode_tag(ixp.bilateral_tag()), (IxpId(3), true));
    }
}
