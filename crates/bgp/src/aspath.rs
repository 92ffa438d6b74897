//! AS paths.
//!
//! The AS_PATH attribute records the sequence of ASes a route traversed
//! and is "the primary source of AS links" (§2.2). The passive pipeline
//! sanitizes paths (loops from misconfiguration / poisoning, bogon ASNs)
//! and walks adjacencies; the RS-setter identification of §4.2 reasons
//! about member positions within a path.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::asn::Asn;
use crate::error::BgpError;

/// One AS_PATH segment (RFC 4271): an ordered sequence or an unordered
/// set (produced by aggregation).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Segment {
    /// AS_SEQUENCE: ordered list of ASNs.
    Sequence(Vec<Asn>),
    /// AS_SET: unordered collection from route aggregation.
    Set(Vec<Asn>),
}

impl Segment {
    /// The ASNs in this segment, in stored order.
    pub fn asns(&self) -> &[Asn] {
        match self {
            Segment::Sequence(v) | Segment::Set(v) => v,
        }
    }

    /// Hop-count contribution to path length: a sequence counts each
    /// ASN, a set counts as one hop (RFC 4271 §9.1.2.2).
    pub fn hop_len(&self) -> usize {
        match self {
            Segment::Sequence(v) => v.len(),
            Segment::Set(v) => usize::from(!v.is_empty()),
        }
    }
}

/// An AS path: one or more segments, first-traversed-last (the leftmost
/// ASN is the most recent hop, i.e. the neighbor of the observer; the
/// rightmost is the origin).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AsPath {
    segments: Vec<Segment>,
}

impl AsPath {
    /// Empty path (as announced by the origin itself over iBGP).
    pub const fn empty() -> Self {
        AsPath {
            segments: Vec::new(),
        }
    }

    /// Build a plain sequence path from a slice of ASNs, leftmost =
    /// nearest the observer, rightmost = origin.
    pub fn from_seq<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        let v: Vec<Asn> = asns.into_iter().collect();
        if v.is_empty() {
            AsPath::empty()
        } else {
            AsPath {
                segments: vec![Segment::Sequence(v)],
            }
        }
    }

    /// Build from explicit segments, canonicalizing: empty segments are
    /// dropped and adjacent sequences merged, so structurally different
    /// but semantically identical inputs compare equal.
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        let mut out: Vec<Segment> = Vec::with_capacity(segments.len());
        for seg in segments {
            if seg.asns().is_empty() {
                continue;
            }
            match (out.last_mut(), seg) {
                (Some(Segment::Sequence(prev)), Segment::Sequence(v)) => prev.extend(v),
                (_, seg) => out.push(seg),
            }
        }
        AsPath { segments: out }
    }

    /// The segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Iterate over every ASN in order of appearance (sets flattened in
    /// stored order).
    pub fn iter(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments.iter().flat_map(|s| s.asns().iter().copied())
    }

    /// All ASNs as a vector (flattened).
    pub fn to_vec(&self) -> Vec<Asn> {
        self.iter().collect()
    }

    /// Hop length for best-path comparison (AS_SET counts 1).
    pub fn hop_len(&self) -> usize {
        self.segments.iter().map(Segment::hop_len).sum()
    }

    /// True if no ASNs at all.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.asns().is_empty())
    }

    /// The origin AS (rightmost), if any. For an AS_SET origin the
    /// origin is ambiguous and `None` is returned.
    pub fn origin(&self) -> Option<Asn> {
        match self.segments.last() {
            Some(Segment::Sequence(v)) => v.last().copied(),
            _ => None,
        }
    }

    /// The first hop (leftmost ASN): the neighbor the observer learned
    /// the route from.
    pub fn first_hop(&self) -> Option<Asn> {
        self.iter().next()
    }

    /// Prepend an ASN `count` times (what a BGP speaker does on eBGP
    /// export). Creates or extends a leading sequence segment.
    pub fn prepend(&mut self, asn: Asn, count: usize) {
        if count == 0 {
            return;
        }
        match self.segments.first_mut() {
            Some(Segment::Sequence(v)) => {
                for _ in 0..count {
                    v.insert(0, asn);
                }
            }
            _ => {
                self.segments.insert(0, Segment::Sequence(vec![asn; count]));
            }
        }
    }

    /// A new path with `asn` prepended once (the common export case).
    pub fn prepended(&self, asn: Asn) -> AsPath {
        let mut p = self.clone();
        p.prepend(asn, 1);
        p
    }

    /// Does the path contain `asn` anywhere? (Loop prevention check.)
    pub fn contains(&self, asn: Asn) -> bool {
        self.iter().any(|a| a == asn)
    }

    /// True if some ASN appears in two non-adjacent positions — the
    /// paper filters such "path cycles that resulted from
    /// misconfiguration and poisoning" (§5). Adjacent repeats are legal
    /// prepending, not cycles.
    pub fn has_cycle(&self) -> bool {
        let flat = self.to_vec();
        let mut last_seen: std::collections::HashMap<Asn, usize> = std::collections::HashMap::new();
        for (i, asn) in flat.iter().enumerate() {
            if let Some(&j) = last_seen.get(asn) {
                if i - j > 1 {
                    return true;
                }
            }
            last_seen.insert(*asn, i);
        }
        false
    }

    /// True if any ASN is a path bogon per the paper's sanitation rule
    /// (AS 23456, 63488–131071, AS 0).
    pub fn has_bogon(&self) -> bool {
        self.iter().any(|a| a.is_path_bogon())
    }

    /// The path with consecutive duplicates collapsed (prepending
    /// removed) — the form used for link extraction.
    pub fn dedup_prepends(&self) -> Vec<Asn> {
        let mut out: Vec<Asn> = Vec::new();
        for asn in self.iter() {
            if out.last() != Some(&asn) {
                out.push(asn);
            }
        }
        out
    }

    /// The AS adjacencies (links) this path witnesses, after collapsing
    /// prepending. Each pair is ordered as it appears (nearer-observer
    /// first). AS_SET boundaries do not yield links (the standard
    /// conservative treatment, since sets encode aggregation not
    /// adjacency).
    pub fn links(&self) -> Vec<(Asn, Asn)> {
        let mut out = Vec::new();
        for seg in &self.segments {
            if let Segment::Sequence(v) = seg {
                let mut prev: Option<Asn> = None;
                for &a in v {
                    if let Some(p) = prev {
                        if p != a {
                            out.push((p, a));
                        }
                    }
                    prev = Some(a);
                }
            }
        }
        out
    }
}

impl fmt::Display for AsPath {
    /// Space-separated ASNs; AS_SETs in braces, as looking glasses print
    /// them (`3356 6695 {64512,64513}`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            match seg {
                Segment::Sequence(v) => {
                    for a in v {
                        if !first {
                            write!(f, " ")?;
                        }
                        write!(f, "{a}")?;
                        first = false;
                    }
                }
                Segment::Set(v) => {
                    if !first {
                        write!(f, " ")?;
                    }
                    write!(f, "{{")?;
                    for (i, a) in v.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, "}}")?;
                    first = false;
                }
            }
        }
        Ok(())
    }
}

impl FromStr for AsPath {
    type Err = BgpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut segments: Vec<Segment> = Vec::new();
        let mut seq: Vec<Asn> = Vec::new();
        for tok in s.split_whitespace() {
            if let Some(inner) = tok.strip_prefix('{') {
                let inner = inner
                    .strip_suffix('}')
                    .ok_or_else(|| BgpError::InvalidAsn(tok.into()))?;
                if !seq.is_empty() {
                    segments.push(Segment::Sequence(std::mem::take(&mut seq)));
                }
                let set: Result<Vec<Asn>, _> = inner
                    .split(',')
                    .filter(|t| !t.is_empty())
                    .map(str::parse)
                    .collect();
                segments.push(Segment::Set(set?));
            } else {
                seq.push(tok.parse()?);
            }
        }
        if !seq.is_empty() {
            segments.push(Segment::Sequence(seq));
        }
        Ok(AsPath { segments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(s: &str) -> AsPath {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in [
            "",
            "6695",
            "3356 1299 6695",
            "3356 {64512,64513}",
            "3356 {1} 2",
        ] {
            assert_eq!(path(s).to_string(), s);
        }
    }

    #[test]
    fn origin_and_first_hop() {
        let p = path("3356 1299 6695");
        assert_eq!(p.origin(), Some(Asn(6695)));
        assert_eq!(p.first_hop(), Some(Asn(3356)));
        assert_eq!(p.hop_len(), 3);
        assert_eq!(path("").origin(), None);
        // AS_SET origin is ambiguous.
        assert_eq!(path("3356 {1,2}").origin(), None);
    }

    #[test]
    fn prepend_behaviour() {
        let mut p = path("1299 6695");
        p.prepend(Asn(3356), 1);
        assert_eq!(p.to_string(), "3356 1299 6695");
        p.prepend(Asn(3356), 2);
        assert_eq!(p.to_string(), "3356 3356 3356 1299 6695");
        assert_eq!(p.hop_len(), 5);
        assert_eq!(p.dedup_prepends(), vec![Asn(3356), Asn(1299), Asn(6695)]);
        // Prepending onto a leading set creates a new sequence segment.
        let mut q = path("{1,2}");
        q.prepend(Asn(9), 1);
        assert_eq!(q.to_string(), "9 {1,2}");
    }

    #[test]
    fn cycle_detection() {
        assert!(!path("1 2 3").has_cycle());
        assert!(!path("1 1 2 3").has_cycle(), "prepending is not a cycle");
        assert!(path("1 2 1").has_cycle(), "A B A is a cycle");
        assert!(path("1 2 3 2").has_cycle());
        assert!(!path("").has_cycle());
    }

    #[test]
    fn bogon_detection() {
        assert!(path("3356 23456 6695").has_bogon());
        assert!(path("3356 64512 6695").has_bogon());
        assert!(path("3356 131071").has_bogon());
        assert!(!path("3356 1299 6695").has_bogon());
    }

    #[test]
    fn link_extraction_collapses_prepends_and_skips_sets() {
        let p = path("3356 3356 1299 6695");
        assert_eq!(
            p.links(),
            vec![(Asn(3356), Asn(1299)), (Asn(1299), Asn(6695))]
        );
        // Links never cross an AS_SET boundary.
        let q = path("3356 {64512,64513} 6695");
        assert_eq!(q.links(), vec![]);
        let r = path("1 2 {3} 4 5");
        assert_eq!(r.links(), vec![(Asn(1), Asn(2)), (Asn(4), Asn(5))]);
    }

    #[test]
    fn contains_and_loop_prevention() {
        let p = path("3356 1299 6695");
        assert!(p.contains(Asn(1299)));
        assert!(!p.contains(Asn(7018)));
    }

    #[test]
    fn from_seq_equivalent_to_parse() {
        let p = AsPath::from_seq([Asn(3356), Asn(1299), Asn(6695)]);
        assert_eq!(p, path("3356 1299 6695"));
        assert_eq!(AsPath::from_seq([]), path(""));
    }
}
