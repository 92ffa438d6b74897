//! The route-server engine.
//!
//! A route server (§3, and RFC 7947 in spirit) maintains a BGP session
//! with each participating member, collects their announcements into an
//! Adj-RIB-In, evaluates each announcing member's export filter
//! (expressed through RS communities), and re-advertises routes to the
//! other members *transparently*: the next hop still points at the
//! announcing member's LAN address and — normally — the RS ASN does not
//! appear in the AS path. Two documented deviations are modeled because
//! the paper's experiments depend on them:
//!
//! * `strips_communities` (Netnod, §5.8): all community values are
//!   removed before propagation, defeating passive inference;
//! * `inserts_own_asn` (§5.1 found 3 such cases): the RS ASN is left in
//!   the path, making paths look artificially longer during validation.

use std::net::Ipv4Addr;

use mlpeer_bgp::rib::{Rib, RibEntry};
use mlpeer_bgp::route::RouteAttrs;
use mlpeer_bgp::{Announcement, Asn, CommunitySet};
use serde::{Deserialize, Serialize};

use crate::member::{IxpMember, MemberAnnouncement};
use crate::scheme::CommunityScheme;

/// A route server (one logical instance; IXPs usually run a redundant
/// pair with the same ASN, see [`crate::ixp::Ixp::session_redundancy`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteServer {
    /// The route server's ASN (appears in the community scheme).
    pub asn: Asn,
    /// The route server's address on the peering LAN.
    pub addr: Ipv4Addr,
    /// Netnod-style community stripping on egress.
    pub strips_communities: bool,
    /// Leaves its own ASN in propagated paths (validation artifact).
    pub inserts_own_asn: bool,
}

impl RouteServer {
    /// A standard transparent route server.
    pub fn new(asn: Asn, addr: Ipv4Addr) -> Self {
        RouteServer {
            asn,
            addr,
            strips_communities: false,
            inserts_own_asn: false,
        }
    }

    /// The community set member `m` attaches when announcing `prefix`,
    /// under the IXP's scheme. This is the *reachability data* the whole
    /// paper mines.
    pub fn communities_for(
        member: &IxpMember,
        prefix: &mlpeer_bgp::Prefix,
        scheme: &CommunityScheme,
    ) -> CommunitySet {
        let policy = member.effective_export(prefix);
        if member.explicit_all {
            policy.to_communities(scheme)
        } else {
            policy.to_communities_implicit(scheme)
        }
    }

    /// Build the route server's Adj-RIB-In from the member set: every
    /// RS member's announcements, with the communities they tag.
    ///
    /// This is what an IXP looking glass exposes via `show ip bgp`
    /// (§4.1 steps 1–3 query exactly this table).
    pub fn build_rib<'a, I>(&self, members: I, scheme: &CommunityScheme) -> Rib
    where
        I: IntoIterator<Item = &'a IxpMember>,
    {
        let mut rib = Rib::new();
        for m in members {
            if !m.rs_member {
                continue;
            }
            for ann in &m.announcements {
                rib.insert(ann.prefix, Self::rib_entry(m, ann, scheme));
            }
        }
        rib
    }

    /// The Adj-RIB-In entry for RS member `m`'s announcement `ann`,
    /// tagged with the communities `m` attaches.
    pub fn rib_entry(
        m: &IxpMember,
        ann: &MemberAnnouncement,
        scheme: &CommunityScheme,
    ) -> RibEntry {
        let attrs = RouteAttrs::new(ann.as_path.clone(), m.lan_addr)
            .with_communities(Self::communities_for(m, &ann.prefix, scheme));
        RibEntry {
            peer: m.asn,
            peer_addr: m.lan_addr,
            attrs,
            learned_at: 0,
        }
    }

    /// Would announcer `a`'s route for `prefix` be delivered to receiver
    /// `b`? Connectivity (both RS members), `a`'s (effective) export
    /// filter, and `b`'s import filter must all agree.
    pub fn delivers(a: &IxpMember, b: &IxpMember, prefix: &mlpeer_bgp::Prefix) -> bool {
        b.rs_member && a.exports_prefix_to(prefix, b.asn) && b.import.accepts(a.asn)
    }

    /// Compute the announcements member `to` receives from the route
    /// server — its Adj-RIB-In on the RS session. Communities are
    /// stripped if the RS is a stripping RS; the RS ASN is prepended if
    /// the RS is a path-inserting RS.
    pub fn export_to<'a, I>(
        &self,
        to: &IxpMember,
        members: I,
        scheme: &CommunityScheme,
    ) -> Vec<Announcement>
    where
        I: IntoIterator<Item = &'a IxpMember>,
    {
        let mut out = Vec::new();
        if !to.rs_member {
            return out;
        }
        for a in members {
            if a.asn == to.asn || !a.rs_member {
                continue;
            }
            for ann in &a.announcements {
                if !Self::delivers(a, to, &ann.prefix) {
                    continue;
                }
                let path = if self.inserts_own_asn {
                    ann.as_path.prepended(self.asn)
                } else {
                    ann.as_path.clone()
                };
                let communities = if self.strips_communities {
                    CommunitySet::new()
                } else {
                    Self::communities_for(a, &ann.prefix, scheme)
                };
                // Transparent next hop: the announcing member's address.
                let attrs = RouteAttrs::new(path, a.lan_addr)
                    .with_communities(communities)
                    .with_local_pref(to.rs_local_pref);
                out.push(Announcement::new(ann.prefix, attrs));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::MemberAnnouncement;
    use crate::policy::ExportPolicy;
    use mlpeer_bgp::AsPath;
    use std::collections::BTreeSet;

    fn scheme() -> CommunityScheme {
        CommunityScheme::decix()
    }

    fn rs() -> RouteServer {
        RouteServer::new(Asn(6695), "80.81.192.253".parse().unwrap())
    }

    fn member(asn: u32, last_octet: u8) -> IxpMember {
        let mut m = IxpMember::new(Asn(asn), Ipv4Addr::new(80, 81, 192, last_octet));
        m.announcements = vec![MemberAnnouncement {
            prefix: format!("19{}.34.0.0/22", (asn % 5) + 3).parse().unwrap(),
            as_path: AsPath::from_seq([Asn(asn)]),
        }];
        m
    }

    /// The Figure 3 scenario: A, B, C, D on a DE-CIX-style RS. A uses
    /// NONE+INCLUDE allowing B and D (excluding C); the rest allow all.
    fn fig3_members() -> Vec<IxpMember> {
        let (a, b, c, d) = (1001u32, 1002, 1003, 1004);
        let mut ma = member(a, 1);
        ma.export = ExportPolicy::OnlyTo([Asn(b), Asn(d)].into_iter().collect::<BTreeSet<_>>());
        let mb = member(b, 2);
        let mc = member(c, 3);
        let md = member(d, 4);
        vec![ma, mb, mc, md]
    }

    #[test]
    fn rib_carries_member_communities() {
        let members = fig3_members();
        let rib = rs().build_rib(&members, &scheme());
        assert_eq!(rib.path_count(), 4);
        let pfx = members[0].announcements[0].prefix;
        let entry = rib.path_from(&pfx, Asn(1001)).unwrap();
        // NONE + INCLUDE(B) + INCLUDE(D): 0:6695 6695:1002 6695:1004.
        assert_eq!(
            entry.attrs.communities.to_string(),
            "0:6695 6695:1002 6695:1004"
        );
    }

    #[test]
    fn fig3_delivery_matrix() {
        let members = fig3_members();
        let by_asn = |x: u32| members.iter().find(|m| m.asn == Asn(x)).unwrap();
        let (a, b, c, d) = (by_asn(1001), by_asn(1002), by_asn(1003), by_asn(1004));
        let p = &a.announcements[0].prefix;
        // A's route reaches B and D but not C.
        assert!(RouteServer::delivers(a, b, p));
        assert!(RouteServer::delivers(a, d, p));
        assert!(!RouteServer::delivers(a, c, p));
        // C's route reaches A (C allows all) — the asymmetry of Fig. 3:
        // "C's routes are received by A, but C blocks A from receiving
        // its routes" is the inverse case; here A blocks C.
        let pc = &c.announcements[0].prefix;
        assert!(RouteServer::delivers(c, a, pc));
        // Nobody delivers to itself.
        assert!(!RouteServer::delivers(a, a, p));
    }

    #[test]
    fn export_to_respects_filters_and_is_transparent() {
        let members = fig3_members();
        let c = members.iter().find(|m| m.asn == Asn(1003)).unwrap();
        let got = rs().export_to(c, &members, &scheme());
        // C receives from B and D (open) but not from A (excluded).
        let from: BTreeSet<Asn> = got
            .iter()
            .filter_map(|ann| ann.attrs.as_path.first_hop())
            .collect();
        assert!(from.contains(&Asn(1002)) && from.contains(&Asn(1004)));
        assert!(!from.contains(&Asn(1001)), "A's export filter blocks C");
        // Transparency: next hop is the announcer's LAN address, and the
        // RS ASN is absent from paths.
        for ann in &got {
            assert_ne!(ann.attrs.next_hop, rs().addr);
            assert!(!ann.attrs.as_path.contains(Asn(6695)));
        }
    }

    #[test]
    fn import_filter_blocks_on_ingress() {
        let mut members = fig3_members();
        // D refuses routes from B.
        let d_idx = members.iter().position(|m| m.asn == Asn(1004)).unwrap();
        members[d_idx].import.blocked.insert(Asn(1002));
        let d = &members[d_idx];
        let got = rs().export_to(d, &members, &scheme());
        let from: BTreeSet<Asn> = got
            .iter()
            .filter_map(|ann| ann.attrs.as_path.first_hop())
            .collect();
        assert!(!from.contains(&Asn(1002)), "import filter dropped B");
        assert!(from.contains(&Asn(1001)), "A includes D");
    }

    #[test]
    fn stripping_rs_removes_communities() {
        let members = fig3_members();
        let mut server = rs();
        server.strips_communities = true;
        let b = members.iter().find(|m| m.asn == Asn(1002)).unwrap();
        let got = server.export_to(b, &members, &scheme());
        assert!(!got.is_empty());
        for ann in got {
            assert!(
                ann.attrs.communities.is_empty(),
                "Netnod-style RS strips communities"
            );
        }
    }

    #[test]
    fn inserting_rs_lengthens_paths() {
        let members = fig3_members();
        let mut server = rs();
        server.inserts_own_asn = true;
        let b = members.iter().find(|m| m.asn == Asn(1002)).unwrap();
        let got = server.export_to(b, &members, &scheme());
        for ann in got {
            assert_eq!(
                ann.attrs.as_path.first_hop(),
                Some(Asn(6695)),
                "RS ASN prepended"
            );
        }
    }

    #[test]
    fn per_prefix_override_changes_communities_and_delivery() {
        let mut members = fig3_members();
        // B normally allows everyone, but for one prefix excludes D.
        let b_idx = members.iter().position(|m| m.asn == Asn(1002)).unwrap();
        let pfx = members[b_idx].announcements[0].prefix;
        members[b_idx].per_prefix_overrides.insert(
            pfx,
            ExportPolicy::AllExcept([Asn(1004)].into_iter().collect::<BTreeSet<_>>()),
        );
        let b = &members[b_idx];
        let d = members.iter().find(|m| m.asn == Asn(1004)).unwrap();
        assert!(!RouteServer::delivers(b, d, &pfx));
        let cs = RouteServer::communities_for(b, &pfx, &scheme());
        assert_eq!(cs.to_string(), "0:1004 6695:6695");
    }

    #[test]
    fn implicit_all_member_tags_only_excludes() {
        let mut m = member(1002, 2);
        m.explicit_all = false;
        m.export = ExportPolicy::AllExcept([Asn(1004)].into_iter().collect::<BTreeSet<_>>());
        let pfx = m.announcements[0].prefix;
        let cs = RouteServer::communities_for(&m, &pfx, &scheme());
        assert_eq!(
            cs.to_string(),
            "0:1004",
            "bare EXCLUDE, no ALL — the §4.2 hard case"
        );
    }

    #[test]
    fn non_rs_member_is_invisible_to_rs() {
        let mut members = fig3_members();
        let b_idx = members.iter().position(|m| m.asn == Asn(1002)).unwrap();
        members[b_idx].rs_member = false;
        let rib = rs().build_rib(&members, &scheme());
        assert!(rib
            .path_from(&members[b_idx].announcements[0].prefix, Asn(1002))
            .is_none());
        // And it receives nothing.
        let got = rs().export_to(&members[b_idx], &members, &scheme());
        assert!(got.is_empty());
    }
}
