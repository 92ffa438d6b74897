//! Interned identifiers for the inference hot paths.
//!
//! The pipeline's inner loops key maps by wide `Copy` values — `Asn`
//! (u32), `Prefix` (u32+u8), `(IxpId, Asn)` pairs — millions of times
//! at Table-2 scale. Interning replaces those with **dense u32
//! handles** handed out in first-seen order by a symbol table:
//!
//! * dense handles index flat `Vec`s where the old code hashed wide
//!   keys ([`crate::infer::LinkInferencer`]'s per-member reach table,
//!   [`crate::index::LinkIndex`]'s member offsets);
//! * where a map stays sparse (per-member prefix edges), hashing a
//!   4-byte handle is cheaper than hashing the wide key;
//! * first-seen order makes iteration deterministic without a sort —
//!   the same property the unseeded [`crate::hash`] containers cannot
//!   offer.
//!
//! The handles are deliberately newtyped per domain ([`AsnId`],
//! [`PrefixId`], [`MemberId`]) so an index into one table cannot be
//! used against another. `resolve` is the inverse of `intern` for every
//! id the table issued — round-tripping is asserted by the tests here,
//! including the `/0` and `/32` prefix extremes and covers↔parent
//! chains the serving index's prefix lookups lean on.

use std::hash::Hash;

use mlpeer_bgp::{Asn, Prefix};
use mlpeer_ixp::ixp::IxpId;

use crate::hash::FxHashMap;

/// Dense handle for an interned [`Asn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsnId(pub u32);

/// Dense handle for an interned [`Prefix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrefixId(pub u32);

/// Dense handle for an interned `(IxpId, Asn)` membership pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberId(pub u32);

impl AsnId {
    /// The handle as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PrefixId {
    /// The handle as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl MemberId {
    /// The handle as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A generic symbol table: value → dense u32 in first-seen order, with
/// O(1) reverse lookup.
#[derive(Debug, Clone)]
pub struct Interner<T> {
    ids: FxHashMap<T, u32>,
    values: Vec<T>,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            ids: FxHashMap::default(),
            values: Vec::new(),
        }
    }
}

impl<T: Copy + Eq + Hash> Interner<T> {
    /// Intern `value`, returning its dense id (existing or fresh).
    #[inline]
    pub fn intern(&mut self, value: T) -> u32 {
        if let Some(&id) = self.ids.get(&value) {
            return id;
        }
        let id = self.values.len() as u32;
        self.ids.insert(value, id);
        self.values.push(value);
        id
    }

    /// The id of an already-interned value, if any.
    #[inline]
    pub fn get(&self, value: T) -> Option<u32> {
        self.ids.get(&value).copied()
    }

    /// The value behind an id this table issued. Panics on a foreign
    /// id — mixing tables is a logic error, not a recoverable state.
    #[inline]
    pub fn resolve(&self, id: u32) -> T {
        self.values[id as usize]
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The interned values in id order (id `i` is `values()[i]`).
    pub fn values(&self) -> &[T] {
        &self.values
    }
}

/// Symbol table for [`Asn`] → [`AsnId`].
#[derive(Debug, Clone, Default)]
pub struct AsnTable(Interner<Asn>);

impl AsnTable {
    /// Intern an ASN.
    #[inline]
    pub fn intern(&mut self, asn: Asn) -> AsnId {
        AsnId(self.0.intern(asn))
    }

    /// Look up an already-interned ASN.
    #[inline]
    pub fn get(&self, asn: Asn) -> Option<AsnId> {
        self.0.get(asn).map(AsnId)
    }

    /// The ASN behind an id.
    #[inline]
    pub fn resolve(&self, id: AsnId) -> Asn {
        self.0.resolve(id.0)
    }

    /// Distinct ASNs interned.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The interned ASNs in id order (`AsnId(i)` is `asns()[i]`).
    pub fn asns(&self) -> &[Asn] {
        self.0.values()
    }
}

/// Symbol table for [`Prefix`] → [`PrefixId`].
///
/// Prefixes are packed into one u64 word (`network << 8 | len`) before
/// hashing, so the hot-path probe hashes a single word where the raw
/// `Prefix` struct hashes its fields separately.
#[derive(Debug, Clone, Default)]
pub struct PrefixTable(Interner<u64>);

/// Pack a prefix into one u64 word (`network << 8 | len`) — a single
/// hash word, and a lossless identity (unlike a dense id, it needs no
/// table to resolve). The inference hot loop keys its sparse per-member
/// edges on this directly; [`PrefixTable`] hands out dense
/// [`PrefixId`]s where a flat index is worth the table.
#[inline]
pub fn pack_prefix(prefix: Prefix) -> u64 {
    (u64::from(prefix.network_u32()) << 8) | u64::from(prefix.len())
}

/// Inverse of [`pack_prefix`].
#[inline]
pub fn unpack_prefix(word: u64) -> Prefix {
    Prefix::from_u32((word >> 8) as u32, (word & 0xFF) as u8)
        .expect("packed prefixes round-trip (len ≤ 32)")
}

impl PrefixTable {
    /// Intern a prefix.
    #[inline]
    pub fn intern(&mut self, prefix: Prefix) -> PrefixId {
        PrefixId(self.0.intern(pack_prefix(prefix)))
    }

    /// Look up an already-interned prefix.
    #[inline]
    pub fn get(&self, prefix: Prefix) -> Option<PrefixId> {
        self.0.get(pack_prefix(prefix)).map(PrefixId)
    }

    /// The prefix behind an id.
    #[inline]
    pub fn resolve(&self, id: PrefixId) -> Prefix {
        unpack_prefix(self.0.resolve(id.0))
    }

    /// Distinct prefixes interned.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Symbol table for `(IxpId, Asn)` → [`MemberId`] — the key of the
/// link inferencer's reach table. Pairs pack into one u64 word
/// (`ixp << 32 | asn`) so the per-observation probe hashes a single
/// word instead of a two-field tuple.
#[derive(Debug, Clone, Default)]
pub struct MemberTable(Interner<u64>);

#[inline]
fn pack_member(ixp: IxpId, asn: Asn) -> u64 {
    (u64::from(ixp.0) << 32) | u64::from(asn.0)
}

#[inline]
fn unpack_member(word: u64) -> (IxpId, Asn) {
    (IxpId((word >> 32) as u16), Asn(word as u32))
}

impl MemberTable {
    /// Intern a membership pair.
    #[inline]
    pub fn intern(&mut self, ixp: IxpId, asn: Asn) -> MemberId {
        MemberId(self.0.intern(pack_member(ixp, asn)))
    }

    /// Look up an already-interned pair.
    #[inline]
    pub fn get(&self, ixp: IxpId, asn: Asn) -> Option<MemberId> {
        self.0.get(pack_member(ixp, asn)).map(MemberId)
    }

    /// The pair behind an id.
    #[inline]
    pub fn resolve(&self, id: MemberId) -> (IxpId, Asn) {
        unpack_member(self.0.resolve(id.0))
    }

    /// Distinct pairs interned.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut t = AsnTable::default();
        let a = t.intern(Asn(6695));
        let b = t.intern(Asn(3356));
        let a2 = t.intern(Asn(6695));
        assert_eq!(a, AsnId(0));
        assert_eq!(b, AsnId(1));
        assert_eq!(a, a2, "re-interning returns the same id");
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), Asn(6695));
        assert_eq!(t.get(Asn(3356)), Some(b));
        assert_eq!(t.get(Asn(1)), None);
        assert!(!t.is_empty());
    }

    #[test]
    fn member_pairs_do_not_collide_across_ixps() {
        let mut t = MemberTable::default();
        let a = t.intern(IxpId(0), Asn(8359));
        let b = t.intern(IxpId(1), Asn(8359));
        assert_ne!(a, b, "same ASN at two IXPs is two members");
        assert_eq!(t.resolve(a), (IxpId(0), Asn(8359)));
        assert_eq!(t.resolve(b), (IxpId(1), Asn(8359)));
        assert_eq!(t.len(), 2);
    }

    /// The satellite contract: prefixes round-trip through interning at
    /// the `/0` and `/32` extremes and along a full covers↔parent
    /// chain, with the chain's cover relations intact after resolve.
    #[test]
    fn prefix_interning_roundtrips_parent_chains() {
        let mut t = PrefixTable::default();
        let host: Prefix = "203.0.113.37/32".parse().unwrap();
        let all: Prefix = "0.0.0.0/0".parse().unwrap();

        // Intern the entire /32 → /0 parent chain (33 prefixes).
        let mut chain = vec![host];
        while let Some(p) = chain.last().unwrap().parent() {
            chain.push(p);
        }
        assert_eq!(chain.len(), 33);
        assert_eq!(*chain.last().unwrap(), all);
        let ids: Vec<PrefixId> = chain.iter().map(|&p| t.intern(p)).collect();
        assert_eq!(t.len(), 33, "every chain member is distinct");

        // Resolve is the exact inverse, and the cover relations the
        // serving index's prefix lookups depend on survive the
        // round-trip.
        for (i, (&p, &id)) in chain.iter().zip(&ids).enumerate() {
            let back = t.resolve(id);
            assert_eq!(back, p, "chain[{i}]");
            assert!(back.covers(&host));
            assert!(all.covers(&back));
            if i > 0 {
                assert_eq!(chain[i - 1].parent(), Some(back), "parent step {i}");
                assert!(!chain[i - 1].covers(&back), "child never covers parent");
            }
        }
        // Re-interning the canonical re-parse of each prefix hits the
        // same id (no duplicate identities via text round-trips).
        for (&p, &id) in chain.iter().zip(&ids) {
            let reparsed: Prefix = p.to_string().parse().unwrap();
            assert_eq!(t.intern(reparsed), id);
        }
        assert_eq!(t.len(), 33);
    }

    #[test]
    fn sibling_prefixes_get_distinct_ids() {
        let mut t = PrefixTable::default();
        let left: Prefix = "198.51.100.192/28".parse().unwrap();
        let right: Prefix = "198.51.100.208/28".parse().unwrap();
        let l = t.intern(left);
        let r = t.intern(right);
        assert_ne!(l, r);
        // Same network address at different lengths is distinct too.
        let covering: Prefix = "198.51.100.192/27".parse().unwrap();
        assert_ne!(t.intern(covering), l);
        assert_eq!(t.resolve(l), left);
        assert_eq!(t.resolve(r), right);
    }

    #[test]
    fn generic_interner_values_in_id_order() {
        let mut t: Interner<u64> = Interner::default();
        for v in [9u64, 3, 9, 7] {
            t.intern(v);
        }
        assert_eq!(t.values(), &[9, 3, 7]);
        assert_eq!(t.get(7), Some(2));
    }
}
