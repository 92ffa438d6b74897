//! Property-based tests for the segment format: arbitrary snapshots and
//! record sequences round-trip, arbitrary corruption is rejected by the
//! checksum, and an arbitrary torn tail truncates to exactly the valid
//! prefix.
//!
//! Originally written with `proptest`; the offline build has no
//! registry, so the same properties run as seeded randomized-input
//! loops over the vendored `rand` — every case is deterministic and a
//! failure prints the iteration seed for replay.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mlpeer::infer::MlpLinkSet;
use mlpeer::live::LinkDelta;
use mlpeer::passive::PassiveStats;
use mlpeer::validate::cross::{CorpusStats, Reason, ValidationReport, VerdictCounts};
use mlpeer_bgp::{Asn, Prefix};
use mlpeer_ixp::ixp::IxpId;
use mlpeer_ixp::policy::ExportPolicy;
use mlpeer_store::{EpochLog, PersistedSnapshot, StoreConfig};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("mlpeer-segprops-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn arb_asn(rng: &mut StdRng) -> Asn {
    Asn(rng.gen_range(1u32..100_000))
}

fn arb_prefix(rng: &mut StdRng) -> Prefix {
    let addr: u32 = rng.gen();
    let len = rng.gen_range(0..=32u8);
    Prefix::from_u32(addr, len).unwrap()
}

fn arb_asn_set(rng: &mut StdRng, max: usize) -> BTreeSet<Asn> {
    (0..rng.gen_range(0..=max)).map(|_| arb_asn(rng)).collect()
}

fn arb_policy(rng: &mut StdRng) -> ExportPolicy {
    match rng.gen_range(0..4u8) {
        0 => ExportPolicy::AllMembers,
        1 => ExportPolicy::AllExcept(arb_asn_set(rng, 4)),
        2 => ExportPolicy::OnlyTo(arb_asn_set(rng, 4)),
        _ => ExportPolicy::Nobody,
    }
}

fn arb_verdicts(rng: &mut StdRng) -> VerdictCounts {
    VerdictCounts {
        confirmed: rng.gen_range(0..1000u64),
        unknown: rng.gen_range(0..1000u64),
        contradicted: rng.gen_range(0..1000u64),
    }
}

fn arb_validation(rng: &mut StdRng) -> ValidationReport {
    ValidationReport {
        corpus: CorpusStats {
            objects: rng.gen_range(0..10_000u64),
            roas: rng.gen_range(0..10_000u64),
            quarantined: rng.gen_range(0..100u64),
            complete: rng.gen(),
        },
        totals: arb_verdicts(rng),
        per_ixp: (0..rng.gen_range(0..4u16))
            .map(|i| (IxpId(i), arb_verdicts(rng)))
            .collect(),
        reasons: {
            let mut reasons = BTreeMap::new();
            for r in Reason::ALL {
                if rng.gen_bool(0.5) {
                    reasons.insert(r, rng.gen_range(1..500u64));
                }
            }
            reasons
        },
    }
}

fn arb_snapshot(rng: &mut StdRng) -> PersistedSnapshot {
    let n_ixps = rng.gen_range(0..4u16);
    let mut links = MlpLinkSet::default();
    let mut names = BTreeMap::new();
    for i in 0..n_ixps {
        let ixp = IxpId(i);
        names.insert(ixp, format!("IXP-{i}"));
        let pairs: BTreeSet<(Asn, Asn)> = (0..rng.gen_range(0..6usize))
            .map(|_| {
                let a = arb_asn(rng);
                let b = arb_asn(rng);
                (a.min(b), a.max(b))
            })
            .collect();
        links.per_ixp.insert(ixp, pairs);
        links.covered.insert(ixp, arb_asn_set(rng, 5));
        for _ in 0..rng.gen_range(0..3usize) {
            links.policies.insert((ixp, arb_asn(rng)), arb_policy(rng));
        }
    }
    let announcements: BTreeSet<(Prefix, IxpId, Asn)> = (0..rng.gen_range(0..12usize))
        .map(|_| {
            (
                arb_prefix(rng),
                IxpId(rng.gen_range(0..n_ixps.max(1))),
                arb_asn(rng),
            )
        })
        .collect();
    PersistedSnapshot {
        scale: ["tiny", "small", "medium"][rng.gen_range(0..3usize)].to_string(),
        seed: rng.gen(),
        etag: format!("{:016x}", rng.gen::<u64>()),
        names,
        links,
        announcements: announcements.into_iter().collect(),
        observation_count: rng.gen_range(0..1_000_000u64),
        passive_stats: PassiveStats {
            routes_seen: rng.gen_range(0..1_000_000usize),
            dropped_bogon: rng.gen_range(0..1000usize),
            dropped_cycle: rng.gen_range(0..1000usize),
            dropped_transient: rng.gen_range(0..1000usize),
            unidentified: rng.gen_range(0..1000usize),
            setter_unknown: rng.gen_range(0..1000usize),
            observations: rng.gen_range(0..1_000_000usize),
            quarantined: rng.gen_range(0..1000usize),
        },
        validation: arb_validation(rng),
    }
}

fn arb_delta(rng: &mut StdRng) -> LinkDelta {
    let triple = |rng: &mut StdRng| {
        let a = arb_asn(rng);
        let b = arb_asn(rng);
        (IxpId(rng.gen_range(0..4u16)), a.min(b), a.max(b))
    };
    LinkDelta {
        added: (0..rng.gen_range(0..5usize)).map(|_| triple(rng)).collect(),
        removed: (0..rng.gen_range(0..5usize)).map(|_| triple(rng)).collect(),
    }
}

/// Append an arbitrary epoch sequence (random gaps, random
/// with/without-delta mix) under an arbitrary small segment threshold,
/// reopen, and require every record back byte-identical.
#[test]
fn arbitrary_sequences_round_trip_across_reopen() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5e9_0001 ^ (case << 8));
        let dir = temp_dir("seq");
        let cfg = StoreConfig {
            segment_bytes: rng.gen_range(256..4096u64),
        };
        let mut expected: Vec<(u64, PersistedSnapshot, Option<LinkDelta>)> = Vec::new();
        {
            let mut log = EpochLog::open(&dir, cfg.clone()).unwrap();
            let mut epoch = 0u64;
            for _ in 0..rng.gen_range(1..24usize) {
                let snap = arb_snapshot(&mut rng);
                let delta = rng.gen_bool(0.7).then(|| arb_delta(&mut rng));
                log.append_full(epoch, &snap, delta.as_ref()).unwrap();
                expected.push((epoch, snap, delta));
                epoch += rng.gen_range(1..3u64); // occasional epoch gaps
            }
        }
        let log = EpochLog::open(&dir, cfg).unwrap();
        assert_eq!(
            log.stats().records,
            expected.len(),
            "case {case}: all records survive reopen"
        );
        assert_eq!(log.stats().truncated_tail_bytes, 0, "case {case}");
        for (epoch, snap, delta) in &expected {
            let (got_snap, got_delta) = log
                .snapshot_at(*epoch)
                .unwrap_or_else(|| panic!("case {case}: epoch {epoch} missing"));
            assert_eq!(&got_snap, snap, "case {case} epoch {epoch}");
            assert_eq!(&got_delta, delta, "case {case} epoch {epoch} delta");
            assert_eq!(
                &log.delta_of(*epoch),
                delta,
                "case {case} epoch {epoch} delta read"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Flip one arbitrary byte anywhere in an arbitrary segment file: the
/// log must still open, and every record it reports must decode to the
/// original data (corruption never produces wrong data, only a shorter
/// history).
#[test]
fn arbitrary_single_byte_corruption_never_yields_wrong_data() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5e9_0002 ^ (case << 8));
        let dir = temp_dir("corrupt");
        let cfg = StoreConfig {
            segment_bytes: rng.gen_range(256..2048u64),
        };
        let n = rng.gen_range(2..12u64);
        let mut originals: BTreeMap<u64, PersistedSnapshot> = BTreeMap::new();
        {
            let mut log = EpochLog::open(&dir, cfg.clone()).unwrap();
            for e in 0..n {
                let snap = arb_snapshot(&mut rng);
                log.append_full(e, &snap, Some(&arb_delta(&mut rng)))
                    .unwrap();
                originals.insert(e, snap);
            }
        }
        // Pick an arbitrary segment file and flip an arbitrary byte.
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        let victim = &segs[rng.gen_range(0..segs.len())];
        let mut bytes = std::fs::read(victim).unwrap();
        let hit = rng.gen_range(0..bytes.len());
        bytes[hit] ^= 1 << rng.gen_range(0..8u32);
        std::fs::write(victim, &bytes).unwrap();

        let mut log = EpochLog::open(&dir, cfg).unwrap();
        let stats = log.stats();
        assert!(
            stats.records < n as usize,
            "case {case}: a flipped bit must cut at least the hit record \
             (hit byte {hit} of {victim:?})"
        );
        for e in 0..n {
            if let Some((got, _)) = log.snapshot_at(e) {
                assert_eq!(
                    &got, &originals[&e],
                    "case {case}: surviving epoch {e} must be unaltered"
                );
            }
        }
        // Whatever survived is a clean prefix: appending continues.
        let next = stats.latest_epoch.map_or(0, |e| e + 1);
        log.append_full(next, &arb_snapshot(&mut rng), None)
            .unwrap();
        assert_eq!(log.latest_epoch(), Some(next));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Cut the final segment at an arbitrary byte length (simulating a
/// crash mid-append): recovery keeps exactly the records whose frames
/// fit in the cut, and the next open appends cleanly after them.
#[test]
fn arbitrary_torn_tail_truncates_to_a_valid_prefix() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5e9_0003 ^ (case << 8));
        let dir = temp_dir("torn");
        let cfg = StoreConfig {
            segment_bytes: u64::MAX, // single segment: the tear hits it
        };
        let n = rng.gen_range(1..10u64);
        let mut boundaries: Vec<(u64, u64)> = Vec::new(); // (bytes after epoch e, e)
        let seg_path;
        {
            let mut log = EpochLog::open(&dir, cfg.clone()).unwrap();
            seg_path = log.dir().join("seg-00000000000000000000.log");
            for e in 0..n {
                log.append_full(e, &arb_snapshot(&mut rng), Some(&arb_delta(&mut rng)))
                    .unwrap();
                boundaries.push((std::fs::metadata(&seg_path).unwrap().len(), e));
            }
        }
        let full_len = boundaries.last().unwrap().0;
        let cut = rng.gen_range(0..full_len);
        {
            let f = OpenOptions::new().write(true).open(&seg_path).unwrap();
            f.set_len(cut).unwrap();
        }
        // Optionally smear garbage after the cut, like a partial write.
        if rng.gen_bool(0.5) {
            let mut f = OpenOptions::new().append(true).open(&seg_path).unwrap();
            let garbage: Vec<u8> = (0..rng.gen_range(1..64usize))
                .map(|_| rng.gen::<u32>() as u8)
                .collect();
            f.write_all(&garbage).unwrap();
        }

        let expected_latest: Option<u64> = boundaries
            .iter()
            .filter(|(len, _)| *len <= cut)
            .map(|(_, e)| *e)
            .next_back();
        let mut log = EpochLog::open(&dir, cfg.clone()).unwrap();
        assert_eq!(
            log.latest_epoch(),
            expected_latest,
            "case {case}: cut at {cut} of {full_len}"
        );
        if let Some(latest) = expected_latest {
            assert!(log.snapshot_at(latest).is_some(), "case {case}");
            // The file is truncated back to exactly that boundary.
            let kept = boundaries.iter().find(|(_, e)| *e == latest).unwrap().0;
            assert_eq!(std::fs::metadata(&seg_path).unwrap().len(), kept);
        }
        let next = expected_latest.map_or(0, |e| e + 1);
        log.append_full(next, &arb_snapshot(&mut rng), None)
            .unwrap();
        let re = EpochLog::open(&dir, cfg).unwrap();
        assert_eq!(re.latest_epoch(), Some(next));
        assert!(
            re.snapshot_at(next).is_some(),
            "case {case}: post-tear append"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
