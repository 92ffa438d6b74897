//! RPKI Route Origin Authorizations: the second external ground-truth
//! corpus behind the cross-validation stage (the first is [`irr`]).
//!
//! A [`Roa`] attests that `origin` may announce `prefix` and any of its
//! subnets down to `max_length`. [`RoaTable`] indexes a batch of them
//! and answers RFC 6811 origin validation for a (prefix, origin) pair:
//!
//! * **Valid** — some unexpired ROA covers the prefix, the prefix is no
//!   longer than the ROA's `max-length`, and the origins match.
//! * **Invalid** — at least one unexpired ROA covers the prefix but
//!   none validates it (wrong origin, or announced longer than
//!   `max-length` allows).
//! * **NotFound** — nothing unexpired covers the prefix. An expired
//!   ROA never covers: cryptographic validity has lapsed, so the route
//!   falls back to NotFound exactly as relying parties treat it.
//!
//! ROAs render to the same hand-rolled `key: value` line format as the
//! RPSL objects in [`irr`], so the validation corpus can carry both in
//! one text stream:
//!
//! ```text
//! roa:            198.51.100.0/24
//! max-length:     24
//! origin:         AS64500
//! state:          valid
//! ```
//!
//! [`irr`]: crate::irr

use std::collections::BTreeMap;

use mlpeer_bgp::{Asn, Prefix};

/// One Route Origin Authorization.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Roa {
    /// The authorized prefix (the ROA covers this and its subnets).
    pub prefix: Prefix,
    /// Longest announcement length the authorization extends to.
    pub max_length: u8,
    /// The AS authorized to originate.
    pub origin: Asn,
    /// Whether the ROA's validity window has lapsed. Expired ROAs are
    /// kept in the corpus (registries serve stale data too) but never
    /// cover a route.
    pub expired: bool,
}

impl Roa {
    /// Render to the corpus line format (trailing newline included).
    pub fn to_text(&self) -> String {
        format!(
            "roa:            {}\nmax-length:     {}\norigin:         AS{}\nstate:          {}\n",
            self.prefix,
            self.max_length,
            self.origin,
            if self.expired { "expired" } else { "valid" }
        )
    }

    /// Parse the output of [`to_text`](Roa::to_text). `None` on any
    /// malformed line, unknown key, out-of-range length, or missing
    /// field — never panics.
    pub fn parse(text: &str) -> Option<Roa> {
        let mut prefix = None;
        let mut max_length = None;
        let mut origin = None;
        let mut expired = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once(':')?;
            let value = value.trim();
            match key.trim() {
                "roa" => prefix = Some(value.parse::<Prefix>().ok()?),
                "max-length" => {
                    let len = value.parse::<u8>().ok()?;
                    if len > 32 {
                        return None;
                    }
                    max_length = Some(len);
                }
                "origin" => origin = Some(value.parse::<Asn>().ok()?),
                "state" => {
                    expired = Some(match value {
                        "valid" => false,
                        "expired" => true,
                        _ => return None,
                    })
                }
                _ => return None,
            }
        }
        let roa = Roa {
            prefix: prefix?,
            max_length: max_length?,
            origin: origin?,
            expired: expired?,
        };
        // An authorization narrower than its own prefix is malformed.
        if roa.max_length < roa.prefix.len() {
            return None;
        }
        Some(roa)
    }
}

/// RFC 6811 origin-validation outcome for one (prefix, origin) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoaOutcome {
    /// An unexpired ROA authorizes exactly this announcement.
    Valid,
    /// Covered by unexpired ROAs, but none authorizes it.
    Invalid,
    /// No unexpired ROA covers the prefix.
    NotFound,
}

/// An indexed batch of ROAs answering origin validation queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoaTable {
    roas: Vec<Roa>,
    /// Exact ROA prefixes → indices into `roas`. Lookups walk the query
    /// prefix's parent chain (≤ 33 steps), so covering ROAs are found
    /// without a trie.
    by_prefix: BTreeMap<Prefix, Vec<usize>>,
}

impl RoaTable {
    /// Index a batch of ROAs.
    pub fn new(roas: Vec<Roa>) -> RoaTable {
        let mut by_prefix: BTreeMap<Prefix, Vec<usize>> = BTreeMap::new();
        for (i, roa) in roas.iter().enumerate() {
            by_prefix.entry(roa.prefix).or_default().push(i);
        }
        RoaTable { roas, by_prefix }
    }

    /// Number of ROAs indexed (expired ones included).
    pub fn len(&self) -> usize {
        self.roas.len()
    }

    /// Whether the table holds no ROAs at all.
    pub fn is_empty(&self) -> bool {
        self.roas.is_empty()
    }

    /// The indexed ROAs, in insertion order.
    pub fn roas(&self) -> &[Roa] {
        &self.roas
    }

    /// RFC 6811 origin validation of `origin` announcing `prefix`.
    pub fn validate(&self, prefix: Prefix, origin: Asn) -> RoaOutcome {
        let mut covered = false;
        let mut node = Some(prefix);
        while let Some(p) = node {
            if let Some(indices) = self.by_prefix.get(&p) {
                for &i in indices {
                    let roa = &self.roas[i];
                    if roa.expired {
                        continue;
                    }
                    covered = true;
                    if roa.origin == origin && prefix.len() <= roa.max_length {
                        return RoaOutcome::Valid;
                    }
                }
            }
            node = p.parent();
        }
        if covered {
            RoaOutcome::Invalid
        } else {
            RoaOutcome::NotFound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn roa(prefix: &str, max_length: u8, origin: u32, expired: bool) -> Roa {
        Roa {
            prefix: p(prefix),
            max_length,
            origin: Asn(origin),
            expired,
        }
    }

    #[test]
    fn render_parse_round_trips() {
        for r in [
            roa("198.51.100.0/24", 24, 64500, false),
            roa("10.0.0.0/8", 16, 1, true),
            roa("0.0.0.0/0", 32, 4200000000, false),
        ] {
            let text = r.to_text();
            assert_eq!(Roa::parse(&text), Some(r.clone()), "{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        let good = roa("198.51.100.0/24", 24, 64500, false).to_text();
        assert!(Roa::parse("").is_none(), "empty text has no fields");
        assert!(Roa::parse("roa 198.51.100.0/24").is_none(), "no colon");
        assert!(
            Roa::parse(&good.replace("state:          valid", "state:          maybe")).is_none()
        );
        assert!(
            Roa::parse(&good.replace("max-length:     24", "max-length:     33")).is_none(),
            "length beyond /32"
        );
        assert!(
            Roa::parse(&good.replace("max-length:     24", "max-length:     8")).is_none(),
            "max-length shorter than the prefix itself"
        );
        assert!(
            Roa::parse(&good.replace("origin:", "bogus-key:")).is_none(),
            "unknown keys are refused, not skipped"
        );
    }

    #[test]
    fn validation_follows_rfc_6811() {
        let table = RoaTable::new(vec![
            roa("198.51.100.0/24", 24, 64500, false),
            roa("10.0.0.0/8", 16, 100, false),
        ]);
        // Exact match, right origin.
        assert_eq!(
            table.validate(p("198.51.100.0/24"), Asn(64500)),
            RoaOutcome::Valid
        );
        // Covered, wrong origin.
        assert_eq!(
            table.validate(p("198.51.100.0/24"), Asn(64501)),
            RoaOutcome::Invalid
        );
        // Subnet within max-length bound.
        assert_eq!(
            table.validate(p("10.1.0.0/16"), Asn(100)),
            RoaOutcome::Valid
        );
        // Subnet longer than max-length: covered but not authorized.
        assert_eq!(
            table.validate(p("10.1.1.0/24"), Asn(100)),
            RoaOutcome::Invalid
        );
        // Nothing covers this at all.
        assert_eq!(
            table.validate(p("192.0.2.0/24"), Asn(64500)),
            RoaOutcome::NotFound
        );
    }

    #[test]
    fn expired_roas_never_cover() {
        let table = RoaTable::new(vec![roa("198.51.100.0/24", 24, 64500, true)]);
        // Expired: falls all the way back to NotFound, not Invalid.
        assert_eq!(
            table.validate(p("198.51.100.0/24"), Asn(64500)),
            RoaOutcome::NotFound
        );
        // A competing unexpired ROA still covers on its own terms.
        let table = RoaTable::new(vec![
            roa("198.51.100.0/24", 24, 64500, true),
            roa("198.51.100.0/23", 24, 64501, false),
        ]);
        assert_eq!(
            table.validate(p("198.51.100.0/24"), Asn(64500)),
            RoaOutcome::Invalid,
            "the expired right origin cannot rescue the live wrong one"
        );
    }

    #[test]
    fn multiple_roas_on_one_prefix_any_match_wins() {
        let table = RoaTable::new(vec![
            roa("198.51.100.0/24", 24, 64500, false),
            roa("198.51.100.0/24", 24, 64501, false),
        ]);
        assert_eq!(
            table.validate(p("198.51.100.0/24"), Asn(64501)),
            RoaOutcome::Valid
        );
        assert_eq!(
            table.validate(p("198.51.100.0/24"), Asn(64502)),
            RoaOutcome::Invalid
        );
    }
}
