//! The append-only, segmented epoch log.
//!
//! ```text
//!  data-dir/
//!    seg-00000000000000000000.log   ← sealed
//!    seg-00000000000000000041.log   ← sealed
//!    seg-00000000000000000087.log   ← active (append handle)
//!
//!  one record:
//!    ┌───────┬─────┬──────┬───────┬───────┬─────────────┬─────────┬──────────┐
//!    │ magic │ ver │ kind │ flags │ epoch │ payload_len │ payload │ checksum │
//!    │ 4 B   │ 1 B │ 1 B  │ 1 B   │ 8 B   │ 4 B         │ n B     │ 8 B      │
//!    └───────┴─────┴──────┴───────┴───────┴─────────────┴─────────┴──────────┘
//! ```
//!
//! * **Append-only**: every published epoch appends exactly one record
//!   to the active segment; nothing is ever rewritten in place. When
//!   the active segment crosses the configured size threshold it is
//!   *sealed* (fsynced, immutable from then on) and a new active
//!   segment named after its first epoch starts.
//! * **One record kind**: every record carries a complete
//!   [`PersistedSnapshot`], optionally preceded by the epoch's
//!   [`LinkDelta`] (flag bit 0). The kind byte is always `1`; a record
//!   with any other kind byte reads as invalid.
//! * **Checksummed**: the trailing u64 is an FxHash over everything
//!   between magic and checksum. Recovery re-verifies it per record.
//! * **Torn-tail recovery**: [`EpochLog::open`] scans every segment in
//!   order, record by record; the first invalid record (bad
//!   magic/version/kind/checksum, truncated frame, non-monotone epoch)
//!   truncates the log right there — the file is cut back to the last
//!   valid record boundary and later segments are discarded. A crash
//!   mid-append therefore loses at most the record being written,
//!   never the log.
//! * **Positional reads**: a read opens the record's segment file and
//!   reads just the bytes it decodes at their recorded offset, so
//!   sealed and active segments read alike.
//!
//! Durability is flush-on-append (`File::flush`), not fsync-per-record:
//! a kernel crash can lose the tail, which recovery then truncates —
//! exactly the torn-tail contract above.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use mlpeer::hash::FxHasher;
use mlpeer::live::LinkDelta;
use mlpeer_bgp::Asn;
use mlpeer_ixp::ixp::IxpId;

use crate::codec::{get_delta, put_delta, PersistedSnapshot, Reader, Writer};

/// Record magic: `MLPS` as raw bytes.
pub const RECORD_MAGIC: [u8; 4] = *b"MLPS";
/// On-disk format version of the record *payloads*. Version 3 appended
/// the IRR/RPKI [`ValidationReport`] to full-snapshot bodies; version 2
/// added the `quarantined` counter to the persisted passive stats.
/// Older-versioned records read as invalid and recovery truncates
/// before them — the store is a cache of reproducible pipeline output,
/// so discarding a stale-format tail loses nothing that a re-harvest
/// cannot rebuild.
///
/// [`ValidationReport`]: mlpeer::validate::cross::ValidationReport
pub const RECORD_VERSION: u8 = 3;
/// The kind byte every record carries: a full snapshot.
const RECORD_KIND: u8 = 1;
/// Bytes before the payload (magic + version + kind + flags + epoch +
/// payload_len).
const HEADER_LEN: usize = 4 + 1 + 1 + 1 + 8 + 4;
/// Trailing checksum bytes.
const TRAILER_LEN: usize = 8;
/// Flag bit 0: the payload is prefixed with the epoch's delta (u32
/// length + delta bytes) before the snapshot bytes.
const FLAG_HAS_DELTA: u8 = 1;

/// One link of a [`LinkDelta`]: (IXP, lower ASN, higher ASN).
type Link = (IxpId, Asn, Asn);

/// Tuning knobs of the on-disk log.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Seal the active segment once it crosses this size (bytes).
    pub segment_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            segment_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Where one epoch's record lives.
#[derive(Debug, Clone, Copy)]
struct RecordEntry {
    seg: usize,
    /// Offset of the record header within the segment file.
    offset: u64,
    /// Payload length.
    payload_len: u32,
    /// Does the payload start with the epoch's delta?
    has_delta: bool,
}

#[derive(Debug)]
struct Segment {
    path: PathBuf,
    /// Total file bytes (valid records only, post-recovery).
    bytes: u64,
}

/// Summary counters of an open log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogStats {
    /// Segment files on disk.
    pub segments: usize,
    /// Records across all segments.
    pub records: usize,
    /// Total valid bytes on disk.
    pub bytes: u64,
    /// The oldest epoch with a record.
    pub oldest_epoch: Option<u64>,
    /// The newest epoch with a record.
    pub latest_epoch: Option<u64>,
    /// Bytes the last [`EpochLog::open`] cut off as a torn tail.
    pub truncated_tail_bytes: u64,
}

/// The append-only, segmented, checksummed epoch log.
pub struct EpochLog {
    dir: PathBuf,
    cfg: StoreConfig,
    segments: Vec<Segment>,
    index: BTreeMap<u64, RecordEntry>,
    /// Append handle for the last (active) segment.
    active: Option<File>,
    truncated_tail: u64,
}

/// FxHash over the checksummed span of a serialized record.
fn record_checksum(body: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(body);
    h.finish()
}

/// The header fields of one valid record.
struct Scanned {
    epoch: u64,
    has_delta: bool,
    payload_len: u32,
    total_len: u64,
}

/// Read and verify the record at `offset` of a segment `len` bytes
/// long into the front of `buf`, which only grows, so the bytes are
/// never zeroed again; `Ok(None)` when the bytes there are not a valid
/// record (torn tail, corruption).
fn scan_record(
    file: &File,
    len: u64,
    offset: u64,
    buf: &mut Vec<u8>,
) -> io::Result<Option<Scanned>> {
    let rest = len - offset;
    if rest < (HEADER_LEN + TRAILER_LEN) as u64 {
        return Ok(None);
    }
    if buf.len() < HEADER_LEN {
        buf.resize(HEADER_LEN, 0);
    }
    file.read_exact_at(&mut buf[..HEADER_LEN], offset)?;
    if buf[..4] != RECORD_MAGIC || buf[4] != RECORD_VERSION || buf[5] != RECORD_KIND {
        return Ok(None);
    }
    let flags = buf[6];
    if flags & !FLAG_HAS_DELTA != 0 {
        return Ok(None);
    }
    let epoch = u64::from_le_bytes(buf[7..15].try_into().unwrap());
    let payload_len = u32::from_le_bytes(buf[15..19].try_into().unwrap());
    let total = HEADER_LEN + payload_len as usize + TRAILER_LEN;
    if rest < total as u64 {
        return Ok(None);
    }
    if buf.len() < total {
        buf.resize(total, 0);
    }
    file.read_exact_at(&mut buf[HEADER_LEN..total], offset + HEADER_LEN as u64)?;
    let stored = u64::from_le_bytes(buf[total - TRAILER_LEN..total].try_into().unwrap());
    if record_checksum(&buf[4..total - TRAILER_LEN]) != stored {
        return Ok(None);
    }
    Ok(Some(Scanned {
        epoch,
        has_delta: flags & FLAG_HAS_DELTA != 0,
        payload_len,
        total_len: total as u64,
    }))
}

/// Serialize one record (header + payload + checksum).
fn frame_record(epoch: u64, has_delta: bool, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&RECORD_MAGIC);
    out.push(RECORD_VERSION);
    out.push(RECORD_KIND);
    out.push(if has_delta { FLAG_HAS_DELTA } else { 0 });
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = record_checksum(&out[4..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn segment_path(dir: &Path, first_epoch: u64) -> PathBuf {
    dir.join(format!("seg-{first_epoch:020}.log"))
}

impl EpochLog {
    /// Open (or create) the log at `dir`, replaying every segment to
    /// rebuild the epoch index. A torn or corrupt tail is truncated to
    /// the last valid record boundary — recovery never fails on bad
    /// trailing bytes, it cuts them off (and deletes any segments
    /// after the cut, which a sequential writer could only have
    /// produced before the corruption point… i.e. never; they are
    /// garbage by construction).
    pub fn open(dir: impl Into<PathBuf>, cfg: StoreConfig) -> io::Result<EpochLog> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
            })
            .collect();
        names.sort();

        let mut segments: Vec<Segment> = Vec::new();
        let mut index: BTreeMap<u64, RecordEntry> = BTreeMap::new();
        let mut truncated_tail: u64 = 0;
        let mut last_epoch: Option<u64> = None;
        let mut corrupted = false;
        // One buffer holds each record in turn while its checksum is
        // verified.
        let mut buf: Vec<u8> = Vec::new();

        for path in names {
            if corrupted {
                // Everything after the corruption point is untrusted.
                truncated_tail += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                std::fs::remove_file(&path)?;
                continue;
            }
            let file = File::open(&path)?;
            let len = file.metadata()?.len();
            let seg_idx = segments.len();
            let mut offset = 0u64;
            while offset < len {
                let Some(rec) = scan_record(&file, len, offset, &mut buf)? else {
                    corrupted = true;
                    break;
                };
                // Epochs must be strictly monotone across the log; a
                // regression means the writer never wrote this — treat
                // as corruption at this boundary.
                if last_epoch.is_some_and(|prev| rec.epoch <= prev) {
                    corrupted = true;
                    break;
                }
                last_epoch = Some(rec.epoch);
                index.insert(
                    rec.epoch,
                    RecordEntry {
                        seg: seg_idx,
                        offset,
                        payload_len: rec.payload_len,
                        has_delta: rec.has_delta,
                    },
                );
                offset += rec.total_len;
            }
            drop(file);
            if corrupted {
                truncated_tail += len - offset;
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(offset)?;
                f.sync_all()?;
            }
            if offset == 0 && corrupted {
                // Nothing valid in this file at all.
                std::fs::remove_file(&path)?;
                continue;
            }
            segments.push(Segment {
                path,
                bytes: offset,
            });
        }

        // The last surviving segment is the active one (append target);
        // all earlier segments are sealed.
        let active = match segments.last() {
            Some(seg) => Some(OpenOptions::new().append(true).open(&seg.path)?),
            None => None,
        };

        Ok(EpochLog {
            dir,
            cfg,
            segments,
            index,
            active,
            truncated_tail,
        })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The newest epoch with a record.
    pub fn latest_epoch(&self) -> Option<u64> {
        self.index.keys().next_back().copied()
    }

    /// The oldest epoch with a record.
    pub fn oldest_epoch(&self) -> Option<u64> {
        self.index.keys().next().copied()
    }

    /// Append one published epoch: its full snapshot and (when the
    /// publish carried one) the delta that produced it. Epochs must be
    /// appended in strictly increasing order.
    pub fn append_full(
        &mut self,
        epoch: u64,
        snapshot: &PersistedSnapshot,
        delta: Option<&LinkDelta>,
    ) -> io::Result<()> {
        if self.latest_epoch().is_some_and(|latest| epoch <= latest) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("epoch {epoch} not after latest {:?}", self.latest_epoch()),
            ));
        }
        let mut w = Writer::new();
        if let Some(d) = delta {
            let mut dw = Writer::new();
            put_delta(&mut dw, d);
            let bytes = dw.into_bytes();
            w.put_u32(bytes.len() as u32);
            let mut payload = w.into_bytes();
            payload.extend_from_slice(&bytes);
            let mut sw = Writer::new();
            snapshot.encode_into(&mut sw);
            payload.extend_from_slice(&sw.into_bytes());
            self.append_record(epoch, true, &payload)
        } else {
            snapshot.encode_into(&mut w);
            self.append_record(epoch, false, &w.into_bytes())
        }
    }

    fn append_record(&mut self, epoch: u64, has_delta: bool, payload: &[u8]) -> io::Result<()> {
        failpoints::failpoint!("store::append", |msg: String| Err(io::Error::other(
            format!("failpoint store::append: {msg}")
        )));
        // Roll: seal the active segment once it crossed the threshold.
        let need_new = match self.segments.last() {
            None => true,
            Some(seg) => seg.bytes >= self.cfg.segment_bytes,
        };
        if need_new {
            failpoints::failpoint!("store::seal", |msg: String| Err(io::Error::other(format!(
                "failpoint store::seal: {msg}"
            ))));
            if let Some(f) = self.active.take() {
                failpoints::failpoint!("store::fsync", |msg: String| Err(io::Error::other(
                    format!("failpoint store::fsync: {msg}")
                )));
                f.sync_all()?;
            }
            let path = segment_path(&self.dir, epoch);
            let file = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)?;
            self.segments.push(Segment { path, bytes: 0 });
            self.active = Some(file);
        }
        let seg_idx = self.segments.len() - 1;
        let seg = &mut self.segments[seg_idx];
        let offset = seg.bytes;
        let frame = frame_record(epoch, has_delta, payload);
        let file = self.active.as_mut().expect("active segment open");
        file.write_all(&frame)?;
        file.flush()?;
        seg.bytes += frame.len() as u64;
        self.index.insert(
            epoch,
            RecordEntry {
                seg: seg_idx,
                offset,
                payload_len: payload.len() as u32,
                has_delta,
            },
        );
        Ok(())
    }

    /// Flush and fsync the active segment — the graceful-drain hook.
    /// Every appended record is already `write_all` + `flush`ed, so
    /// this only adds the `sync_all` a sealed segment would get; the
    /// segment stays the append target (a later boot reopens it as
    /// active). A no-op on an empty log.
    pub fn sync_active(&mut self) -> io::Result<()> {
        failpoints::failpoint!("store::fsync", |msg: String| Err(io::Error::other(
            format!("failpoint store::fsync: {msg}")
        )));
        match self.active.as_mut() {
            Some(f) => f.sync_all(),
            None => Ok(()),
        }
    }

    /// `len` bytes of a record's payload starting `at` bytes in, read
    /// from its segment file; `None` when the span overruns the payload
    /// or the read fails.
    fn read_payload(&self, entry: &RecordEntry, at: u32, len: u32) -> Option<Vec<u8>> {
        failpoints::failpoint!("store::read", |_msg| None);
        if at.checked_add(len)? > entry.payload_len {
            return None;
        }
        let file = File::open(&self.segments[entry.seg].path).ok()?;
        let mut bytes = vec![0; len as usize];
        let pos = entry.offset + HEADER_LEN as u64 + u64::from(at);
        file.read_exact_at(&mut bytes, pos).ok()?;
        Some(bytes)
    }

    /// The full snapshot stored for `epoch`, with its delta when the
    /// record carries one. `None` when the epoch has no record or its
    /// record does not read back.
    pub fn snapshot_at(&self, epoch: u64) -> Option<(PersistedSnapshot, Option<LinkDelta>)> {
        let entry = *self.index.get(&epoch)?;
        let payload = self.read_payload(&entry, 0, entry.payload_len)?;
        let mut r = Reader::new(&payload);
        let delta = if entry.has_delta {
            let len = r.u32().ok()? as usize;
            let mut dr = Reader::new(payload.get(4..4 + len)?);
            let d = get_delta(&mut dr).ok()?;
            r = Reader::new(payload.get(4 + len..)?);
            Some(d)
        } else {
            None
        };
        let snap = PersistedSnapshot::decode_from(&mut r).ok()?;
        if !r.is_done() {
            return None;
        }
        Some((snap, delta))
    }

    /// The newest epoch's snapshot, decoded — what recovery boots from.
    pub fn latest_full(&self) -> Option<(u64, PersistedSnapshot)> {
        let epoch = self.latest_epoch()?;
        let (snap, _) = self.snapshot_at(epoch)?;
        Some((epoch, snap))
    }

    /// The delta that produced `epoch`, read without the snapshot bytes
    /// behind it.
    pub fn delta_of(&self, epoch: u64) -> Option<LinkDelta> {
        let entry = *self.index.get(&epoch)?;
        if !entry.has_delta {
            return None;
        }
        let len = self.read_payload(&entry, 0, 4)?;
        let len = u32::from_le_bytes(len.try_into().ok()?);
        let bytes = self.read_payload(&entry, 4, len)?;
        let mut r = Reader::new(&bytes);
        let d = get_delta(&mut r).ok()?;
        r.is_done().then_some(d)
    }

    /// The net link-level diff from `since` to `current`, folded over
    /// the stored per-epoch deltas with add/remove cancellation —
    /// `None` when any epoch in `since+1 ..= current` lacks a stored
    /// delta (never stored, or published without one). `since ==
    /// current` is the empty diff.
    pub fn fold_since(&self, since: u64, current: u64) -> Option<(BTreeSet<Link>, BTreeSet<Link>)> {
        if since > current {
            return None;
        }
        let mut added = BTreeSet::new();
        let mut removed = BTreeSet::new();
        for epoch in since + 1..=current {
            let d = self.delta_of(epoch)?;
            for l in d.added {
                if !removed.remove(&l) {
                    added.insert(l);
                }
            }
            for l in d.removed {
                if !added.remove(&l) {
                    removed.insert(l);
                }
            }
        }
        Some((added, removed))
    }

    /// The oldest `since` value [`fold_since`](EpochLog::fold_since)
    /// can answer against `current`: the start of the contiguous delta
    /// chain ending at `current` (every epoch in `oldest+1 ..= current`
    /// has a stored delta). `since == current` is always answerable, so
    /// this is at most `current`.
    pub fn oldest_since(&self, current: u64) -> u64 {
        let mut s = current;
        while s > 0 {
            match self.index.get(&s) {
                Some(e) if e.has_delta => s -= 1,
                _ => break,
            }
        }
        s
    }

    /// Summary counters.
    pub fn stats(&self) -> LogStats {
        LogStats {
            segments: self.segments.len(),
            records: self.index.len(),
            bytes: self.segments.iter().map(|s| s.bytes).sum(),
            oldest_epoch: self.oldest_epoch(),
            latest_epoch: self.latest_epoch(),
            truncated_tail_bytes: self.truncated_tail,
        }
    }
}

impl std::fmt::Debug for EpochLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochLog")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpeer_bgp::Asn;
    use mlpeer_ixp::ixp::IxpId;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mlpeer-store-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn snap(seed: u64) -> PersistedSnapshot {
        crate::codec::tests::sample_snapshot(seed)
    }

    fn delta(n: u32) -> LinkDelta {
        LinkDelta {
            added: vec![(IxpId(0), Asn(n), Asn(n + 1))],
            removed: vec![],
        }
    }

    #[test]
    fn append_reopen_round_trips_every_epoch() {
        let dir = temp_dir("roundtrip");
        {
            let mut log = EpochLog::open(&dir, StoreConfig::default()).unwrap();
            log.append_full(0, &snap(0), None).unwrap();
            for e in 1..=5u64 {
                log.append_full(e, &snap(e), Some(&delta(e as u32)))
                    .unwrap();
            }
        }
        let log = EpochLog::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(log.latest_epoch(), Some(5));
        assert_eq!(log.oldest_epoch(), Some(0));
        assert_eq!(log.stats().truncated_tail_bytes, 0);
        for e in 0..=5u64 {
            let (s, d) = log.snapshot_at(e).unwrap();
            assert_eq!(s, snap(e), "epoch {e}");
            assert_eq!(d, (e > 0).then(|| delta(e as u32)), "epoch {e} delta");
        }
        assert!(log.snapshot_at(6).is_none());
        let (latest_epoch, latest) = log.latest_full().unwrap();
        assert_eq!((latest_epoch, latest), (5, snap(5)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_at_threshold_and_sealed_reads_work() {
        let dir = temp_dir("roll");
        let cfg = StoreConfig {
            segment_bytes: 512, // tiny: every few records rolls
        };
        let mut log = EpochLog::open(&dir, cfg.clone()).unwrap();
        for e in 0..20u64 {
            log.append_full(e, &snap(e), Some(&delta(e as u32)))
                .unwrap();
        }
        assert!(
            log.stats().segments > 1,
            "tiny threshold must roll: {:?}",
            log.stats()
        );
        // Reads hit sealed and active segments alike.
        for e in 0..20u64 {
            assert_eq!(log.snapshot_at(e).unwrap().0, snap(e));
        }
        // And a reopen agrees byte for byte.
        let again = EpochLog::open(&dir, cfg).unwrap();
        assert_eq!(again.stats(), log.stats());
        for e in 0..20u64 {
            assert_eq!(again.snapshot_at(e).unwrap().0, snap(e));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_last_valid_record() {
        let dir = temp_dir("torn");
        {
            let mut log = EpochLog::open(&dir, StoreConfig::default()).unwrap();
            for e in 0..=3u64 {
                log.append_full(e, &snap(e), None).unwrap();
            }
        }
        // Append garbage: a half-written record.
        let seg = segment_path(&dir, 0);
        let valid_len = std::fs::metadata(&seg).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
            f.write_all(&RECORD_MAGIC).unwrap();
            f.write_all(&[RECORD_VERSION, 1, 0, 0, 0, 0]).unwrap();
        }
        let mut log = EpochLog::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(log.latest_epoch(), Some(3), "valid prefix survives");
        assert!(log.stats().truncated_tail_bytes > 0);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), valid_len);
        assert_eq!(log.snapshot_at(3).unwrap().0, snap(3));
        // The log keeps appending cleanly after the cut.
        log.append_full(4, &snap(4), Some(&delta(4))).unwrap();
        let again = EpochLog::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(again.latest_epoch(), Some(4));
        assert_eq!(again.snapshot_at(4).unwrap().0, snap(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_invalidates_exactly_from_there() {
        let dir = temp_dir("flip");
        {
            let mut log = EpochLog::open(&dir, StoreConfig::default()).unwrap();
            for e in 0..=4u64 {
                log.append_full(e, &snap(e), Some(&delta(e as u32)))
                    .unwrap();
            }
        }
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip a byte well past the first record's frame.
        let hit = bytes.len() / 2;
        bytes[hit] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();
        let log = EpochLog::open(&dir, StoreConfig::default()).unwrap();
        let latest = log.latest_epoch().expect("a valid prefix survives");
        assert!(latest < 4, "corruption must cut the tail");
        for e in 0..=latest {
            assert_eq!(log.snapshot_at(e).unwrap().0, snap(e), "epoch {e}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn other_kind_bytes_read_as_invalid() {
        let dir = temp_dir("kind");
        {
            let mut log = EpochLog::open(&dir, StoreConfig::default()).unwrap();
            for e in 0..=2u64 {
                log.append_full(e, &snap(e), None).unwrap();
            }
        }
        // A well-formed, correctly checksummed record whose kind byte
        // is not `1`.
        let mut frame = frame_record(3, false, &snap(3).encode());
        frame[5] = 2;
        let end = frame.len() - TRAILER_LEN;
        let sum = record_checksum(&frame[4..end]);
        frame[end..].copy_from_slice(&sum.to_le_bytes());
        let seg = segment_path(&dir, 0);
        let valid_len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .append(true)
            .open(&seg)
            .unwrap()
            .write_all(&frame)
            .unwrap();
        let log = EpochLog::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(log.latest_epoch(), Some(2));
        assert_eq!(log.stats().truncated_tail_bytes, frame.len() as u64);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), valid_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fold_since_composes_and_reports_gaps() {
        let dir = temp_dir("fold");
        let mut log = EpochLog::open(&dir, StoreConfig::default()).unwrap();
        log.append_full(0, &snap(0), None).unwrap();
        log.append_full(
            1,
            &snap(1),
            Some(&LinkDelta {
                added: vec![(IxpId(0), Asn(1), Asn(2))],
                removed: vec![],
            }),
        )
        .unwrap();
        log.append_full(
            2,
            &snap(2),
            Some(&LinkDelta {
                added: vec![(IxpId(0), Asn(3), Asn(4))],
                removed: vec![(IxpId(0), Asn(1), Asn(2))],
            }),
        )
        .unwrap();
        let (added, removed) = log.fold_since(0, 2).unwrap();
        // 1-2 added then removed: cancels. 3-4 remains.
        assert_eq!(added, [(IxpId(0), Asn(3), Asn(4))].into_iter().collect());
        assert!(removed.is_empty());
        assert_eq!(log.fold_since(2, 2), Some(Default::default()));
        // Epoch 0 has no delta: nothing before it is answerable…
        assert_eq!(log.oldest_since(2), 0);
        // …and a fold crossing a gap (epoch 0 itself) fails.
        let mut gappy = EpochLog::open(temp_dir("gap"), StoreConfig::default()).unwrap();
        gappy.append_full(5, &snap(5), None).unwrap();
        gappy.append_full(6, &snap(6), Some(&delta(6))).unwrap();
        assert!(gappy.fold_since(4, 6).is_none());
        assert_eq!(gappy.oldest_since(6), 5);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(gappy.dir()).unwrap();
    }

    #[test]
    fn append_rejects_non_monotone_epochs() {
        let dir = temp_dir("monotone");
        let mut log = EpochLog::open(&dir, StoreConfig::default()).unwrap();
        log.append_full(3, &snap(3), None).unwrap();
        assert!(log.append_full(3, &snap(3), None).is_err());
        assert!(log.append_full(2, &snap(2), None).is_err());
        log.append_full(4, &snap(4), None).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_opens_empty() {
        let dir = temp_dir("empty");
        let log = EpochLog::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(log.latest_epoch(), None);
        assert_eq!(log.stats().records, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
