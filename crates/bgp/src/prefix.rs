//! IPv4 CIDR prefixes.
//!
//! IXP members announce sets of prefixes to route servers; the active
//! inference algorithm (§4.1) samples and queries them, and the
//! validation campaign (§5.1) picks geographically diverse ones. The
//! paper's measurements are IPv4; an IPv6 extension would be mechanical
//! and is listed as omitted in the README feature inventory.

use std::cmp::Ordering;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::error::BgpError;

/// An IPv4 CIDR prefix, stored canonically (host bits zeroed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

impl Prefix {
    /// Build a prefix from a network address and length, canonicalizing
    /// by masking the host bits.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self, BgpError> {
        if len > 32 {
            return Err(BgpError::PrefixLenOutOfRange(len));
        }
        Ok(Prefix {
            addr: u32::from(addr) & Self::mask(len),
            len,
        })
    }

    /// Build from a raw `u32` network address (canonicalizes host bits).
    pub fn from_u32(addr: u32, len: u8) -> Result<Self, BgpError> {
        if len > 32 {
            return Err(BgpError::PrefixLenOutOfRange(len));
        }
        Ok(Prefix {
            addr: addr & Self::mask(len),
            len,
        })
    }

    /// The netmask for a prefix length.
    #[inline]
    const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Network address.
    #[inline]
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// Raw network address as a `u32`.
    #[inline]
    pub const fn network_u32(&self) -> u32 {
        self.addr
    }

    /// Prefix length in bits (CIDR mask size, not a container length —
    /// `/0` is a valid prefix, so there is no `is_empty`).
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(&self) -> u8 {
        self.len
    }

    /// True only for `0.0.0.0/0`.
    #[inline]
    pub const fn is_default(&self) -> bool {
        self.len == 0
    }

    /// Number of addresses covered (saturating for `/0`).
    pub const fn size(&self) -> u64 {
        1u64 << (32 - self.len as u64)
    }

    /// Does this prefix contain the given address?
    pub fn contains_addr(&self, ip: Ipv4Addr) -> bool {
        (u32::from(ip) & Self::mask(self.len)) == self.addr
    }

    /// Does this prefix contain (or equal) `other`?
    pub fn covers(&self, other: &Prefix) -> bool {
        self.len <= other.len && (other.addr & Self::mask(self.len)) == self.addr
    }

    /// Do the two prefixes overlap (one covers the other)?
    pub fn overlaps(&self, other: &Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The two halves of this prefix, if it can be split.
    pub fn split(&self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let left = Prefix {
            addr: self.addr,
            len: self.len + 1,
        };
        let right = Prefix {
            addr: self.addr | (1u32 << (31 - self.len as u32)),
            len: self.len + 1,
        };
        Some((left, right))
    }

    /// The immediate covering prefix (one bit shorter), if any.
    pub fn parent(&self) -> Option<Prefix> {
        if self.len == 0 {
            None
        } else {
            let len = self.len - 1;
            Some(Prefix {
                addr: self.addr & Self::mask(len),
                len,
            })
        }
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Prefix {
    type Err = BgpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| BgpError::InvalidPrefix(s.into()))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|_| BgpError::InvalidPrefix(s.into()))?;
        let len: u8 = len.parse().map_err(|_| BgpError::InvalidPrefix(s.into()))?;
        Prefix::new(addr, len)
    }
}

/// Order by network address, then by length (shorter first). This gives
/// the conventional "supernets before their subnets" listing order.
impl Ord for Prefix {
    fn cmp(&self, other: &Self) -> Ordering {
        self.addr.cmp(&other.addr).then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "203.0.113.37/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn canonicalizes_host_bits() {
        assert_eq!(p("192.0.2.77/24"), p("192.0.2.0/24"));
        assert_eq!(p("192.0.2.77/24").to_string(), "192.0.2.0/24");
    }

    #[test]
    fn rejects_bad_input() {
        assert!("192.0.2.0".parse::<Prefix>().is_err());
        assert!("192.0.2.0/33".parse::<Prefix>().is_err());
        assert!("not-an-ip/24".parse::<Prefix>().is_err());
        assert!("192.0.2.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn containment() {
        assert!(p("10.0.0.0/8").covers(&p("10.1.0.0/16")));
        assert!(p("10.0.0.0/8").covers(&p("10.0.0.0/8")));
        assert!(!p("10.1.0.0/16").covers(&p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").covers(&p("11.0.0.0/16")));
        assert!(p("0.0.0.0/0").covers(&p("203.0.113.0/24")));
        assert!(p("10.0.0.0/8").contains_addr("10.255.255.255".parse().unwrap()));
        assert!(!p("10.0.0.0/8").contains_addr("11.0.0.0".parse().unwrap()));
    }

    #[test]
    fn overlap_is_symmetric() {
        assert!(p("10.0.0.0/8").overlaps(&p("10.2.0.0/16")));
        assert!(p("10.2.0.0/16").overlaps(&p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").overlaps(&p("11.0.0.0/8")));
    }

    #[test]
    fn split_and_parent() {
        let (l, r) = p("10.0.0.0/8").split().unwrap();
        assert_eq!(l, p("10.0.0.0/9"));
        assert_eq!(r, p("10.128.0.0/9"));
        assert_eq!(l.parent().unwrap(), p("10.0.0.0/8"));
        assert_eq!(r.parent().unwrap(), p("10.0.0.0/8"));
        assert!(p("1.2.3.4/32").split().is_none());
        assert!(p("0.0.0.0/0").parent().is_none());
    }

    #[test]
    fn ordering_supernet_first() {
        let mut v = vec![p("10.0.0.0/16"), p("10.0.0.0/8"), p("9.0.0.0/8")];
        v.sort();
        assert_eq!(v, vec![p("9.0.0.0/8"), p("10.0.0.0/8"), p("10.0.0.0/16")]);
    }

    #[test]
    fn size() {
        assert_eq!(p("10.0.0.0/8").size(), 1 << 24);
        assert_eq!(p("1.2.3.4/32").size(), 1);
        assert_eq!(p("0.0.0.0/0").size(), 1 << 32);
    }

    // ---- edge cases feeding the serving layer's prefix lookups ----

    /// `from_str` → `Display` → `from_str` is the identity on canonical
    /// text at every length, including the /0 and /32 extremes at both
    /// ends of the serving index's sorted announcements.
    #[test]
    fn from_str_roundtrips_at_every_length() {
        for len in 0..=32u8 {
            let canonical = Prefix::new("255.255.255.255".parse().unwrap(), len).unwrap();
            let reparsed: Prefix = canonical.to_string().parse().unwrap();
            assert_eq!(reparsed, canonical, "/{len}");
            assert_eq!(reparsed.to_string(), canonical.to_string(), "/{len}");
            assert_eq!(reparsed.len(), len);
        }
    }

    /// `covers` and `parent` must agree: a parent covers its child, a
    /// child never covers its parent, and walking the parent chain from
    /// any prefix enumerates exactly its covering prefixes — the
    /// invariant the serving index's `covering` lookup is built on.
    #[test]
    fn covers_and_parent_agree() {
        let start = p("198.51.100.192/28");
        let mut chain = vec![start];
        let mut q = start.parent();
        while let Some(parent) = q {
            let child = *chain.last().unwrap();
            assert!(parent.covers(&child), "{parent} covers {child}");
            assert!(!child.covers(&parent), "{child} must not cover {parent}");
            assert_eq!(parent.len() + 1, child.len());
            chain.push(parent);
            q = parent.parent();
        }
        // The chain ends at /0 and has one hop per bit.
        assert_eq!(chain.len(), 29);
        assert!(chain.last().unwrap().is_default());
        // Every chain member covers the start; nothing else at those
        // lengths does.
        for anc in &chain {
            assert!(anc.covers(&start));
            assert!(anc.overlaps(&start));
        }
        // The sibling under the same /27 does not cover the start, but
        // their shared parent covers both.
        let sibling = p("198.51.100.208/28");
        assert!(!sibling.covers(&start));
        assert_eq!(sibling.parent(), start.parent());
        assert!(sibling.parent().unwrap().covers(&start));
    }

    /// `/0` behavior: covers everything, contains every address, has no
    /// parent, and is its own canonical form for any input address.
    #[test]
    fn default_route_edge_cases() {
        let all = p("0.0.0.0/0");
        assert!(all.is_default());
        assert!(all.parent().is_none());
        for other in ["0.0.0.0/0", "10.0.0.0/8", "255.255.255.255/32"] {
            assert!(all.covers(&p(other)), "{other}");
        }
        assert!(all.contains_addr("255.255.255.255".parse().unwrap()));
        // Host bits of /0 are all host bits.
        assert_eq!(Prefix::new("203.0.113.7".parse().unwrap(), 0).unwrap(), all);
        assert_eq!(Prefix::from_u32(u32::MAX, 0).unwrap(), all);
    }

    /// `/32` behavior: covers only itself, splits into nothing, and its
    /// parent chain reaches /0 in exactly 32 hops.
    #[test]
    fn host_route_edge_cases() {
        let host = p("203.0.113.37/32");
        assert!(host.covers(&host));
        assert!(!host.covers(&p("203.0.113.36/32")));
        assert!(!host.covers(&p("203.0.113.36/31")));
        assert!(p("203.0.113.36/31").covers(&host));
        assert!(host.split().is_none());
        assert_eq!(host.size(), 1);
        let mut hops = 0;
        let mut q = Some(host);
        while let Some(pfx) = q.and_then(|x| x.parent()) {
            hops += 1;
            q = Some(pfx);
        }
        assert_eq!(hops, 32);
    }
}
