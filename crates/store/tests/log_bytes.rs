//! Pins the durable log's on-disk bytes: a fixed epoch history is
//! appended under a small segment threshold, and every segment file's
//! name, length and FxHash must match the table below. Any change to
//! record framing, the payload codec, segment naming or the roll rule
//! shows up here as a mismatch; on one, the test prints the table the
//! current code writes.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;
use std::path::PathBuf;

use mlpeer::hash::FxHasher;
use mlpeer::infer::MlpLinkSet;
use mlpeer::live::LinkDelta;
use mlpeer::passive::PassiveStats;
use mlpeer::validate::cross::{CorpusStats, Reason, ValidationReport, VerdictCounts};
use mlpeer_bgp::{Asn, Prefix};
use mlpeer_ixp::ixp::IxpId;
use mlpeer_ixp::policy::ExportPolicy;
use mlpeer_store::{EpochLog, PersistedSnapshot, StoreConfig};

/// Epochs `0..=LAST_EPOCH` are appended; epoch 0 carries no delta.
const LAST_EPOCH: u64 = 15;
/// Small enough that the history rolls into several segments.
const SEGMENT_BYTES: u64 = 1500;

/// `(file name, length, FxHash of the bytes)` per segment, in order.
const PINNED: &[(&str, u64, u64)] = &[
    ("seg-00000000000000000000.log", 2061, 0x2fe6cfc601f7b40a),
    ("seg-00000000000000000003.log", 2079, 0xa3f770b36a8b39a2),
    ("seg-00000000000000000006.log", 2135, 0xfc99de7c3703c8e0),
    ("seg-00000000000000000009.log", 2071, 0xfe3c402137a298b6),
    ("seg-00000000000000000012.log", 2127, 0x3b3c3734c0fd08aa),
    ("seg-00000000000000000015.log", 677, 0x1df266eddcda51b0),
];

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlpeer-logbytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn asn_set(asns: impl IntoIterator<Item = u32>) -> BTreeSet<Asn> {
    asns.into_iter().map(Asn).collect()
}

fn verdicts(e: u64, k: u64) -> VerdictCounts {
    VerdictCounts {
        confirmed: 10 * e + k,
        unknown: e + 2 * k,
        contradicted: k,
    }
}

/// The snapshot published as epoch `e`: every field the codec writes
/// is set, and the link set grows with the epoch.
fn snapshot(e: u64) -> PersistedSnapshot {
    let mut links = MlpLinkSet::default();
    let mut names = BTreeMap::new();
    for i in 0..3u16 {
        let ixp = IxpId(i);
        names.insert(ixp, format!("IXP-{i}"));
        let base = 64_500 + 100 * u32::from(i);
        let pairs: BTreeSet<(Asn, Asn)> = (0..3 + (e as u32 + u32::from(i)) % 5)
            .map(|k| (Asn(base + k), Asn(base + k + 1 + e as u32)))
            .collect();
        links.per_ixp.insert(ixp, pairs);
        links.covered.insert(ixp, asn_set((0..4).map(|k| base + k)));
    }
    let e32 = e as u32;
    links
        .policies
        .insert((IxpId(0), Asn(64_500)), ExportPolicy::AllMembers);
    links.policies.insert(
        (IxpId(0), Asn(64_501)),
        ExportPolicy::AllExcept(asn_set([64_502, 64_503 + e32])),
    );
    links.policies.insert(
        (IxpId(1), Asn(64_600)),
        ExportPolicy::OnlyTo(asn_set([64_601, 64_602])),
    );
    links
        .policies
        .insert((IxpId(2), Asn(64_700 + e32)), ExportPolicy::Nobody);
    let announcements: Vec<(Prefix, IxpId, Asn)> = (0..4u32)
        .map(|k| {
            let addr = (10 << 24) | ((k + e32) << 16);
            (
                Prefix::from_u32(addr, 16 + k as u8).unwrap(),
                IxpId((k % 3) as u16),
                Asn(64_500 + 100 * (k % 3) + k),
            )
        })
        .collect();
    PersistedSnapshot {
        scale: "small".to_string(),
        seed: 20_130_501,
        etag: format!("{:016x}", 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(e + 1)),
        names,
        links,
        announcements,
        observation_count: 1_000 + 37 * e,
        passive_stats: PassiveStats {
            routes_seen: 10_000 + e as usize,
            dropped_bogon: 1,
            dropped_cycle: 2,
            dropped_transient: 3,
            unidentified: 4,
            setter_unknown: 5,
            observations: 900 + e as usize,
            quarantined: 0,
        },
        validation: ValidationReport {
            corpus: CorpusStats {
                objects: 120 + e,
                roas: 40,
                quarantined: e % 2,
                complete: e % 4 != 3,
            },
            totals: verdicts(e, 3),
            per_ixp: (0..3u16)
                .map(|i| (IxpId(i), verdicts(e, u64::from(i))))
                .collect(),
            reasons: Reason::ALL
                .iter()
                .enumerate()
                .filter(|(n, _)| (*n as u64 + e).is_multiple_of(2))
                .map(|(n, r)| (*r, n as u64 + 1))
                .collect(),
        },
    }
}

/// The delta that produced epoch `e` (for `e >= 1`).
fn delta(e: u64) -> LinkDelta {
    let e32 = e as u32;
    LinkDelta {
        added: vec![(IxpId((e % 3) as u16), Asn(64_500 + e32), Asn(64_501 + e32))],
        removed: if e > 1 {
            vec![(IxpId(0), Asn(64_499 + e32), Asn(64_500 + e32))]
        } else {
            vec![]
        },
    }
}

fn fxhash(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

#[test]
fn segment_files_match_their_pinned_bytes() {
    let dir = temp_dir();
    let cfg = StoreConfig {
        segment_bytes: SEGMENT_BYTES,
    };
    {
        let mut log = EpochLog::open(&dir, cfg).unwrap();
        log.append_full(0, &snapshot(0), None).unwrap();
        for e in 1..=LAST_EPOCH {
            log.append_full(e, &snapshot(e), Some(&delta(e))).unwrap();
        }
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let got: Vec<(String, u64, u64)> = names
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            (name, bytes.len() as u64, fxhash(&bytes))
        })
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        got.len() >= 3,
        "the history must roll at least twice: {got:?}"
    );
    let table: String = got
        .iter()
        .map(|(name, len, hash)| format!("    ({name:?}, {len}, 0x{hash:016x}),\n"))
        .collect();
    let pinned: Vec<(String, u64, u64)> = PINNED
        .iter()
        .map(|&(name, len, hash)| (name.to_string(), len, hash))
        .collect();
    assert_eq!(
        got, pinned,
        "segment bytes moved; the code now writes:\n{table}"
    );
}
