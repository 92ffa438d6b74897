//! Seeded property tests for the merge wire format (the style of
//! `crates/store/tests/segment_props.rs`): round-trip fidelity,
//! truncation at every cut, and single-byte corruption always
//! detected — never silently folded into a wrong merge.

use std::collections::BTreeSet;

use mlpeer::infer::{InferEntry, InferState, Observation, ObservationSource};
use mlpeer::passive::{PassiveStats, WorkUnit};
use mlpeer_bgp::{Asn, Prefix};
use mlpeer_dist::wire::{
    decode_frame, encode_frame, read_frame, Frame, FrameKind, PassiveJob, PassiveResult, WireError,
};
use mlpeer_dist::Fault;
use mlpeer_ixp::ixp::IxpId;
use mlpeer_ixp::scheme::RsAction;

/// Deterministic xorshift64* generator — no external RNG crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

fn rand_prefix(rng: &mut Rng) -> Prefix {
    Prefix::from_u32(rng.next() as u32, rng.below(33) as u8).unwrap()
}

fn rand_asn(rng: &mut Rng) -> Asn {
    Asn(1 + rng.below(65_000) as u32)
}

fn rand_actions(rng: &mut Rng) -> Vec<RsAction> {
    (0..rng.below(4))
        .map(|_| match rng.below(4) {
            0 => RsAction::All,
            1 => RsAction::None,
            2 => RsAction::Include(rand_asn(rng)),
            _ => RsAction::Exclude(rand_asn(rng)),
        })
        .collect()
}

fn rand_observation(rng: &mut Rng) -> Observation {
    Observation {
        ixp: IxpId(rng.below(16) as u16),
        member: rand_asn(rng),
        prefix: rand_prefix(rng),
        actions: rand_actions(rng),
        source: match rng.below(3) {
            0 => ObservationSource::Passive,
            1 => ObservationSource::ActiveRsLg,
            _ => ObservationSource::ActiveMemberLg,
        },
    }
}

fn rand_asn_set(rng: &mut Rng) -> BTreeSet<Asn> {
    (0..rng.below(4)).map(|_| rand_asn(rng)).collect()
}

fn rand_infer_state(rng: &mut Rng) -> InferState {
    InferState {
        entries: (0..rng.below(12))
            .map(|_| InferEntry {
                ixp: IxpId(rng.below(16) as u16),
                member: rand_asn(rng),
                prefix: rand_prefix(rng),
                saw_none: rng.chance(30),
                includes: rand_asn_set(rng),
                excludes: rand_asn_set(rng),
            })
            .collect(),
        observations: rng.below(10_000),
    }
}

fn rand_stats(rng: &mut Rng) -> PassiveStats {
    PassiveStats {
        routes_seen: rng.below(10_000) as usize,
        dropped_bogon: rng.below(100) as usize,
        dropped_cycle: rng.below(100) as usize,
        dropped_transient: rng.below(100) as usize,
        unidentified: rng.below(100) as usize,
        setter_unknown: rng.below(100) as usize,
        observations: rng.below(10_000) as usize,
        quarantined: rng.below(100) as usize,
    }
}

fn rand_fault(rng: &mut Rng) -> Fault {
    match rng.below(6) {
        0 => Fault::None,
        1 => Fault::CrashSilent,
        2 => Fault::CrashMidFrame,
        3 => Fault::StallMs(rng.below(10_000) as u32),
        4 => Fault::Garbage,
        _ => Fault::Duplicate,
    }
}

fn rand_job(rng: &mut Rng) -> PassiveJob {
    PassiveJob {
        scale: ["tiny", "small", "medium", ""][rng.below(4) as usize].to_string(),
        seed: rng.next(),
        units: (0..rng.below(20))
            .map(|_| {
                if rng.chance(70) {
                    let start = rng.below(100_000);
                    WorkUnit::Rib {
                        collector: rng.below(8) as u32,
                        start,
                        end: start + rng.below(10_000),
                    }
                } else {
                    WorkUnit::Updates {
                        collector: rng.below(8) as u32,
                    }
                }
            })
            .collect(),
        fault: rand_fault(rng),
    }
}

fn rand_result(rng: &mut Rng) -> PassiveResult {
    PassiveResult {
        observations: (0..rng.below(16)).map(|_| rand_observation(rng)).collect(),
        state: rand_infer_state(rng),
        stats: rand_stats(rng),
    }
}

/// Every message kind round-trips exactly through payload codec +
/// frame layer, across many seeds.
#[test]
fn round_trip_across_seeds() {
    for seed in 1..=40u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E3779B97F4A7C15));

        let job = rand_job(&mut rng);
        assert_eq!(PassiveJob::decode(&job.encode()).unwrap(), job);

        let result = rand_result(&mut rng);
        assert_eq!(PassiveResult::decode(&result.encode()).unwrap(), result);

        // And through the frame layer, preserving kind and seq.
        let seq = rng.next() as u32;
        let bytes = encode_frame(FrameKind::PassiveResult, seq, &result.encode());
        let frame = decode_frame(&bytes).unwrap();
        assert_eq!(frame.kind, FrameKind::PassiveResult);
        assert_eq!(frame.seq, seq);
        assert_eq!(PassiveResult::decode(&frame.payload).unwrap(), result);
    }
}

/// Truncating an encoded frame at *any* byte boundary is detected
/// (clean empty input reads as EOF, everything else errors — never a
/// panic, never a bogus frame).
#[test]
fn truncation_at_every_cut_is_detected() {
    let mut rng = Rng::new(7);
    let result = rand_result(&mut rng);
    let bytes = encode_frame(FrameKind::PassiveResult, 3, &result.encode());
    for cut in 0..bytes.len() {
        let mut cursor = &bytes[..cut];
        match read_frame(&mut cursor) {
            Ok(None) => assert_eq!(cut, 0, "only the empty stream is a clean EOF"),
            Ok(Some(frame)) => panic!("cut at {cut} decoded a frame: {frame:?}"),
            Err(_) => {}
        }
    }
    // The full frame still decodes (the loop above really cut bytes).
    let mut cursor = &bytes[..];
    assert!(read_frame(&mut cursor).unwrap().is_some());
}

/// Flipping any single byte of a frame is always detected, for many
/// random frames. This is the invariant the coordinator's retry logic
/// rests on: corruption can waste an attempt, never corrupt the merge.
#[test]
fn single_byte_corruption_is_always_detected() {
    for seed in 1..=10u64 {
        let mut rng = Rng::new(seed);
        let job = rand_job(&mut rng);
        let bytes = encode_frame(FrameKind::PassiveJob, seed as u32, &job.encode());
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= flip;
                let mut cursor = &corrupt[..];
                if let Ok(Some(frame)) = read_frame(&mut cursor) {
                    panic!(
                        "flip {flip:#x} at byte {i} went undetected: {:?}",
                        frame.kind
                    );
                }
            }
        }
    }
}

/// Bit flips *and* truncation composed: random double corruption over
/// many seeds still never yields a valid frame.
#[test]
fn random_double_corruption_never_yields_a_frame() {
    let mut rng = Rng::new(0xDEADBEEF);
    let result = rand_result(&mut rng);
    let bytes = encode_frame(FrameKind::PassiveResult, 9, &result.encode());
    for _ in 0..2_000 {
        let mut corrupt = bytes.clone();
        let a = rng.below(corrupt.len() as u64) as usize;
        let b = rng.below(corrupt.len() as u64) as usize;
        corrupt[a] ^= (1 + rng.below(255)) as u8;
        corrupt[b] ^= (1 + rng.below(255)) as u8;
        if corrupt == bytes {
            continue; // the two flips cancelled
        }
        let cut = corrupt.len() - rng.below(8) as usize;
        let mut cursor = &corrupt[..cut];
        if let Ok(Some(frame)) = read_frame(&mut cursor) {
            panic!("double corruption went undetected: {:?}", frame.kind);
        }
    }
}

/// Trailing bytes after a complete frame are rejected by the
/// exact-decode entry point, and a second frame on the same stream is
/// read cleanly by the streaming one — the two APIs' contracts differ
/// exactly there.
#[test]
fn framing_boundaries_are_exact() {
    let payload = PassiveJob {
        scale: "tiny".into(),
        seed: 1,
        units: vec![],
        fault: Fault::None,
    }
    .encode();
    let one = encode_frame(FrameKind::PassiveJob, 1, &payload);
    let mut two = one.clone();
    two.extend_from_slice(&encode_frame(FrameKind::PassiveJob, 2, &payload));

    assert!(decode_frame(&one).is_ok());
    assert!(
        decode_frame(&two).is_err(),
        "trailing frame must be rejected"
    );

    let mut cursor = &two[..];
    let Frame { seq: s1, .. } = read_frame(&mut cursor).unwrap().unwrap();
    let Frame { seq: s2, .. } = read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!((s1, s2), (1, 2));
    assert!(read_frame(&mut cursor).unwrap().is_none(), "then clean EOF");
}

/// A declared payload length over the cap is refused before any
/// allocation of that size happens.
#[test]
fn oversized_length_is_refused() {
    let mut bytes = encode_frame(FrameKind::PassiveJob, 0, &[]);
    // Patch the length field (bytes 10..14: after magic, ver, kind,
    // seq) to a huge value.
    bytes[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut cursor = &bytes[..];
    assert!(matches!(
        read_frame(&mut cursor),
        Err(WireError::TooLarge(_))
    ));
}
