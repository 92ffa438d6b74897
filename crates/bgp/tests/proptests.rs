//! Property-based tests for the BGP substrate: text round-trips and
//! prefix, AS-path and RIB invariants.
//!
//! Originally written with `proptest`; the offline build has no
//! registry, so the same properties run as seeded randomized-input
//! loops over the vendored `rand` — every case is deterministic and a
//! failure prints the iteration seed for replay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mlpeer_bgp::aspath::{AsPath, Segment};
use mlpeer_bgp::community::{Community, CommunitySet};
use mlpeer_bgp::prefix::Prefix;
use mlpeer_bgp::rib::{Rib, RibEntry};
use mlpeer_bgp::route::{Origin, RouteAttrs};
use mlpeer_bgp::Asn;

const CASES: u64 = 256;

/// Run `check` against `CASES` independently seeded generators.
fn for_cases(test_tag: u64, check: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let seed = test_tag ^ (case << 8);
        let mut rng = StdRng::seed_from_u64(seed);
        check(&mut rng);
    }
}

fn arb_prefix(rng: &mut StdRng) -> Prefix {
    let addr: u32 = rng.gen::<u32>();
    let len = rng.gen_range(0..=32u8);
    Prefix::from_u32(addr, len).unwrap()
}

fn arb_asn(rng: &mut StdRng) -> Asn {
    match rng.gen_range(0..4u32) {
        0 => Asn(rng.gen_range(1u32..70_000)), // dense small range incl. 16-bit boundary
        1 => Asn(rng.gen_range(196_608u32..400_000)), // public 32-bit range
        2 => Asn(6695),
        _ => Asn(23456),
    }
}

fn arb_aspath(rng: &mut StdRng) -> AsPath {
    let nsegs = rng.gen_range(0..4usize);
    let segs: Vec<Segment> = (0..nsegs)
        .map(|_| {
            if rng.gen_bool(0.5) {
                Segment::Sequence(
                    (0..rng.gen_range(1..6usize))
                        .map(|_| arb_asn(rng))
                        .collect(),
                )
            } else {
                Segment::Set(
                    (0..rng.gen_range(1..4usize))
                        .map(|_| arb_asn(rng))
                        .collect(),
                )
            }
        })
        .collect();
    AsPath::from_segments(segs)
}

fn arb_communities(rng: &mut StdRng) -> CommunitySet {
    let n = rng.gen_range(0..8usize);
    CommunitySet::from_iter((0..n).map(|_| Community(rng.gen::<u32>())))
}

fn arb_attrs(rng: &mut StdRng) -> RouteAttrs {
    RouteAttrs {
        as_path: arb_aspath(rng),
        next_hop: std::net::Ipv4Addr::from(rng.gen::<u32>()),
        communities: arb_communities(rng),
        local_pref: rng.gen::<u32>(),
        med: rng.gen::<u32>(),
        origin: match rng.gen_range(0..3u32) {
            0 => Origin::Igp,
            1 => Origin::Egp,
            _ => Origin::Incomplete,
        },
    }
}

#[test]
fn prefix_parse_display_roundtrip() {
    for_cases(0x01, |rng| {
        let p = arb_prefix(rng);
        let s = p.to_string();
        assert_eq!(s.parse::<Prefix>().unwrap(), p);
    });
}

#[test]
fn prefix_covers_is_reflexive_and_antisymmetric() {
    for_cases(0x02, |rng| {
        let p = arb_prefix(rng);
        let q = arb_prefix(rng);
        assert!(p.covers(&p));
        if p.covers(&q) && q.covers(&p) {
            assert_eq!(p, q);
        }
        // Overlap is symmetric by construction.
        assert_eq!(p.overlaps(&q), q.overlaps(&p));
    });
}

#[test]
fn prefix_split_children_are_covered() {
    for_cases(0x03, |rng| {
        let p = arb_prefix(rng);
        if let Some((l, r)) = p.split() {
            assert!(p.covers(&l) && p.covers(&r));
            assert!(!l.overlaps(&r));
            assert_eq!(l.parent().unwrap(), p);
            assert_eq!(r.parent().unwrap(), p);
        }
    });
}

#[test]
fn community_display_parse_roundtrip() {
    for_cases(0x04, |rng| {
        let c = Community(rng.gen::<u32>());
        assert_eq!(c.to_string().parse::<Community>().unwrap(), c);
    });
}

#[test]
fn community_set_is_sorted_and_deduped() {
    for_cases(0x05, |rng| {
        let cs = arb_communities(rng);
        let s = cs.as_slice();
        for w in s.windows(2) {
            assert!(w[0] < w[1]);
        }
    });
}

#[test]
fn aspath_display_parse_roundtrip() {
    for_cases(0x06, |rng| {
        let p = arb_aspath(rng);
        let s = p.to_string();
        let parsed: AsPath = s.parse().unwrap();
        // Adjacent sequence segments merge when parsed back; compare the
        // canonical flattened form and the hop count.
        assert_eq!(parsed.to_vec(), p.to_vec());
        assert_eq!(parsed.hop_len(), p.hop_len());
    });
}

#[test]
fn aspath_links_never_self_loop() {
    for_cases(0x07, |rng| {
        let p = arb_aspath(rng);
        for (a, b) in p.links() {
            assert_ne!(a, b);
        }
    });
}

#[test]
fn aspath_prepend_increases_hop_len() {
    for_cases(0x08, |rng| {
        let p = arb_aspath(rng);
        let a = arb_asn(rng);
        let n = rng.gen_range(1usize..4);
        let mut q = p.clone();
        q.prepend(a, n);
        assert_eq!(q.hop_len(), p.hop_len() + n);
        assert_eq!(q.first_hop(), Some(a));
    });
}

#[test]
fn rib_best_is_among_paths() {
    for_cases(0x0B, |rng| {
        let entries: Vec<(Asn, RouteAttrs)> = (0..rng.gen_range(1..8usize))
            .map(|_| (arb_asn(rng), arb_attrs(rng)))
            .collect();
        let mut rib = Rib::new();
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        for (i, (peer, attrs)) in entries.iter().enumerate() {
            rib.insert(
                p,
                RibEntry {
                    peer: *peer,
                    peer_addr: std::net::Ipv4Addr::from(i as u32 + 1),
                    attrs: attrs.clone(),
                    learned_at: 0,
                },
            );
        }
        let best = rib.best(&p).unwrap();
        // Best is one of the stored paths...
        assert!(rib.paths(&p).iter().any(|e| e == best));
        // ...and no stored path has strictly higher local-pref.
        for e in rib.paths(&p) {
            assert!(e.attrs.local_pref <= best.attrs.local_pref);
        }
        // Ranked order starts with best.
        assert_eq!(rib.paths_ranked(&p)[0], best);
    });
}
