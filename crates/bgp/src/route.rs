//! Routes and their attributes.
//!
//! An [`Announcement`] is one NLRI (prefix) with its path attributes —
//! the unit that flows from IXP members into route servers, out to
//! other members, onward to collectors, and into the inference pipeline.

use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::aspath::AsPath;
use crate::community::CommunitySet;
use crate::prefix::Prefix;

/// The ORIGIN attribute (RFC 4271).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Origin {
    /// Learned from an IGP (`i`). Preferred in best-path selection.
    #[default]
    Igp,
    /// Learned from EGP (`e`). Historic.
    Egp,
    /// Incomplete (`?`), e.g. redistributed.
    Incomplete,
}

impl Origin {
    /// The ORIGIN code (RFC 4271 §4.3).
    pub const fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// The single-letter form looking glasses print.
    pub const fn letter(self) -> char {
        match self {
            Origin::Igp => 'i',
            Origin::Egp => 'e',
            Origin::Incomplete => '?',
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// Path attributes shared by every NLRI in one UPDATE.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RouteAttrs {
    /// AS path, leftmost = nearest hop.
    pub as_path: AsPath,
    /// BGP next hop on the shared medium (for IXP routes, the member's
    /// address on the peering LAN — route servers are transparent and do
    /// not rewrite it).
    pub next_hop: Ipv4Addr,
    /// Attached communities (optional transitive).
    pub communities: CommunitySet,
    /// LOCAL_PREF; only meaningful within one AS, used by looking-glass
    /// best-path selection (§5.1: some ASes prefer bilateral peers over
    /// route-server peers via local-pref).
    pub local_pref: u32,
    /// Multi-exit discriminator.
    pub med: u32,
    /// ORIGIN attribute.
    pub origin: Origin,
}

impl RouteAttrs {
    /// Attributes with the given path and next hop; local-pref 100
    /// (the conventional default), MED 0, origin IGP, no communities.
    pub fn new(as_path: AsPath, next_hop: Ipv4Addr) -> Self {
        RouteAttrs {
            as_path,
            next_hop,
            communities: CommunitySet::new(),
            local_pref: 100,
            med: 0,
            origin: Origin::Igp,
        }
    }

    /// Builder-style: replace the community set.
    pub fn with_communities(mut self, communities: CommunitySet) -> Self {
        self.communities = communities;
        self
    }

    /// Builder-style: set local preference.
    pub fn with_local_pref(mut self, lp: u32) -> Self {
        self.local_pref = lp;
        self
    }
}

impl Default for RouteAttrs {
    fn default() -> Self {
        RouteAttrs::new(AsPath::empty(), Ipv4Addr::UNSPECIFIED)
    }
}

/// One announced prefix with its attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Announcement {
    /// The announced prefix (NLRI).
    pub prefix: Prefix,
    /// Its path attributes.
    pub attrs: RouteAttrs,
}

impl Announcement {
    /// Pair a prefix with attributes.
    pub fn new(prefix: Prefix, attrs: RouteAttrs) -> Self {
        Announcement { prefix, attrs }
    }

    /// The origin AS of the announcement, if determinable.
    pub fn origin_as(&self) -> Option<crate::asn::Asn> {
        self.attrs.as_path.origin()
    }
}

impl fmt::Display for Announcement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} via {} path [{}] comm [{}] lp {} {}",
            self.prefix,
            self.attrs.next_hop,
            self.attrs.as_path,
            self.attrs.communities,
            self.attrs.local_pref,
            self.attrs.origin,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::Asn;

    #[test]
    fn origin_codes_and_letters() {
        let origins = [Origin::Igp, Origin::Egp, Origin::Incomplete];
        assert_eq!(origins.map(Origin::code), [0, 1, 2]);
        assert_eq!(origins.map(Origin::letter), ['i', 'e', '?']);
        assert_eq!(Origin::Incomplete.to_string(), "?");
    }

    #[test]
    fn defaults() {
        let a = RouteAttrs::default();
        assert_eq!(a.local_pref, 100);
        assert_eq!(a.med, 0);
        assert_eq!(a.origin, Origin::Igp);
        assert!(a.communities.is_empty());
    }

    #[test]
    fn builder() {
        let attrs = RouteAttrs::new(
            AsPath::from_seq([Asn(6695)]),
            "80.81.192.1".parse().unwrap(),
        )
        .with_local_pref(200)
        .with_communities("0:6695 6695:8359".parse().unwrap());
        assert_eq!(attrs.local_pref, 200);
        assert_eq!(attrs.communities.len(), 2);
    }

    #[test]
    fn announcement_display_and_origin() {
        let ann = Announcement::new(
            "193.34.0.0/22".parse().unwrap(),
            RouteAttrs::new(
                AsPath::from_seq([Asn(8359), Asn(3216)]),
                "80.81.192.33".parse().unwrap(),
            ),
        );
        assert_eq!(ann.origin_as(), Some(Asn(3216)));
        let s = ann.to_string();
        assert!(
            s.contains("193.34.0.0/22") && s.contains("8359 3216"),
            "got {s}"
        );
    }
}
