//! Business relationships between ASes (§2.1).

use serde::{Deserialize, Serialize};

/// The relationship an AS has with a neighbor, *from the AS's own
/// perspective*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Relationship {
    /// The neighbor is my provider (I am the customer): c2p.
    C2p,
    /// The neighbor is my customer (I am the provider): p2c.
    P2c,
    /// Settlement-free peer: p2p.
    P2p,
    /// Same organization: sibling.
    Sibling,
}

impl Relationship {
    /// The same edge from the neighbor's perspective.
    pub const fn invert(self) -> Relationship {
        match self {
            Relationship::C2p => Relationship::P2c,
            Relationship::P2c => Relationship::C2p,
            Relationship::P2p => Relationship::P2p,
            Relationship::Sibling => Relationship::Sibling,
        }
    }

    /// Short label as used in relationship datasets (`-1`/`0`/`1`
    /// conventions aside, we print symbolic names).
    pub const fn label(self) -> &'static str {
        match self {
            Relationship::C2p => "c2p",
            Relationship::P2c => "p2c",
            Relationship::P2p => "p2p",
            Relationship::Sibling => "sibling",
        }
    }
}

/// Where a route was learned from, for export decisions.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum LearnedFrom {
    /// The AS originates the route itself.
    #[default]
    Origin,
    /// Learned from a customer (exportable to anyone).
    Customer,
    /// Learned from a peer (exportable only to customers).
    Peer,
    /// Learned from a provider (exportable only to customers).
    Provider,
    /// Learned from a sibling (treated like a customer route: siblings
    /// freely exchange and re-export each other's routes, §2.1).
    Sibling,
}

impl LearnedFrom {
    /// The valley-free export rule (§2.1): may a route learned this way
    /// be exported to a neighbor with relationship `to` (from the
    /// exporter's perspective)?
    ///
    /// * own/customer/sibling routes → exportable to anyone;
    /// * peer/provider routes → exportable only to customers (and
    ///   siblings, who are the same organization).
    pub const fn may_export_to(self, to: Relationship) -> bool {
        match self {
            LearnedFrom::Origin | LearnedFrom::Customer | LearnedFrom::Sibling => true,
            LearnedFrom::Peer | LearnedFrom::Provider => {
                matches!(to, Relationship::P2c | Relationship::Sibling)
            }
        }
    }

    /// Route-selection preference class: lower is preferred
    /// (customer ≻ peer ≻ provider, the standard economic ordering).
    pub const fn preference(self) -> u8 {
        match self {
            LearnedFrom::Origin => 0,
            LearnedFrom::Customer | LearnedFrom::Sibling => 1,
            LearnedFrom::Peer => 2,
            LearnedFrom::Provider => 3,
        }
    }
}

/// Is a path of relationships valley-free (§2.1)? `rels[i]` is the
/// relationship between hop *i* and hop *i+1* from hop *i*'s
/// perspective, walking from the observer toward the origin.
///
/// The paper's patterns (announcement direction) are
/// `n×c2p (+ p2p) + m×p2c`; reversing the walk and inverting each
/// relationship yields the *same* shape, so in either direction a
/// valley-free path climbs (`c2p*`), crosses at most one peer edge at
/// the apex, and then descends (`p2c*`). Sibling edges may appear
/// anywhere without affecting validity.
pub fn is_valley_free(rels: &[Relationship]) -> bool {
    // States: 0 = climbing (c2p run), 1 = descending (after the apex /
    // peer edge); a peer or upward edge while descending is a valley.
    let mut state = 0u8;
    for &r in rels {
        match (state, r) {
            (_, Relationship::Sibling) => {}
            (0, Relationship::C2p) => {}
            (0, Relationship::P2p) => state = 1,
            (0, Relationship::P2c) => state = 1,
            (_, Relationship::P2c) => {}
            (_, Relationship::C2p) | (_, Relationship::P2p) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use Relationship::*;

    #[test]
    fn invert_is_involution() {
        for r in [C2p, P2c, P2p, Sibling] {
            assert_eq!(r.invert().invert(), r);
        }
        assert_eq!(C2p.invert(), P2c);
        assert_eq!(P2p.invert(), P2p);
    }

    #[test]
    fn export_rule_matches_gao_rexford() {
        use LearnedFrom::*;
        // Customer routes go everywhere.
        for to in [C2p, P2c, P2p, Relationship::Sibling] {
            assert!(Customer.may_export_to(to));
            assert!(Origin.may_export_to(to));
            assert!(LearnedFrom::Sibling.may_export_to(to));
        }
        // Peer and provider routes go only to customers/siblings.
        for lf in [Peer, Provider] {
            assert!(lf.may_export_to(P2c));
            assert!(lf.may_export_to(Relationship::Sibling));
            assert!(!lf.may_export_to(C2p));
            assert!(!lf.may_export_to(P2p));
        }
    }

    #[test]
    fn preference_order() {
        use LearnedFrom::*;
        assert!(Origin.preference() < Customer.preference());
        assert!(Customer.preference() < Peer.preference());
        assert!(Peer.preference() < Provider.preference());
        assert_eq!(Customer.preference(), LearnedFrom::Sibling.preference());
    }

    #[test]
    fn valley_free_patterns() {
        // Walking observer→origin: climb, at most one peer edge at the
        // apex, then descend.
        assert!(is_valley_free(&[])); // trivial
        assert!(is_valley_free(&[P2c, P2c])); // origin below the observer
        assert!(is_valley_free(&[C2p, C2p])); // origin above the observer
        assert!(is_valley_free(&[C2p, P2p, P2c])); // up, peer at apex, down
        assert!(is_valley_free(&[C2p, P2c])); // mountain
        assert!(is_valley_free(&[C2p, P2p])); // up then peer to origin
        assert!(is_valley_free(&[P2p, P2c])); // peer at observer's apex
        assert!(is_valley_free(&[Sibling, C2p, Sibling, P2p, P2c, Sibling]));
        // Valleys.
        assert!(!is_valley_free(&[P2c, C2p])); // down then up = valley
        assert!(!is_valley_free(&[P2p, P2p])); // two peer edges
        assert!(!is_valley_free(&[P2c, P2p])); // down then peer
        assert!(!is_valley_free(&[P2p, C2p])); // peer then up
        assert!(!is_valley_free(&[P2c, Sibling, C2p])); // sibling can't hide a valley
    }

    #[test]
    fn labels() {
        assert_eq!(C2p.label(), "c2p");
        assert_eq!(Sibling.label(), "sibling");
    }
}
