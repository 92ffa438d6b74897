//! The serve ↔ store bridge: persisting published epochs and reviving
//! them.
//!
//! [`DurableStore`] wraps the `mlpeer_store` [`EpochLog`] (whose
//! methods take `&mut self`) in a [`Mutex`] and owns the two
//! conversions the serving layer needs:
//!
//! * **persist** — a serving [`Snapshot`] down to the deterministic
//!   [`PersistedSnapshot`] parts the log appends. The announcement
//!   set comes straight out of the snapshot's own `LinkIndex`
//!   (`announcements()` is the sorted set the index was built from), so
//!   persistence needs no access to the raw observation stream and adds
//!   no fields to `Snapshot`.
//! * **revive** — a decoded record back up to a full `Snapshot` via
//!   [`Snapshot::from_parts`] (index, body cache, and content ETag all
//!   rebuilt). The stored ETag is re-verified against the rebuilt one;
//!   a mismatch means the record does not reproduce the snapshot it
//!   claims to be, and the revive is refused rather than served.
//!
//! Lock discipline: `SnapshotStore` calls [`append_epoch`] *inside*
//! its publish lock (so log order always matches publish order), which
//! means nothing in this module may call back into the snapshot store.
//!
//! [`append_epoch`]: DurableStore::append_epoch

use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

use mlpeer::live::LinkDelta;
use mlpeer_bgp::Asn;
use mlpeer_ixp::ixp::IxpId;
use mlpeer_store::{EpochLog, LogStats, PersistedSnapshot, StoreConfig};

use crate::snapshot::{Snapshot, SnapshotParts};

/// Thread-safe handle to the on-disk epoch log, in serving terms.
pub struct DurableStore {
    log: Mutex<EpochLog>,
}

impl DurableStore {
    /// Open (or create) the log under `dir` with default tuning,
    /// running crash recovery (torn-tail truncation) as a side effect.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DurableStore> {
        Ok(DurableStore {
            log: Mutex::new(EpochLog::open(dir, StoreConfig::default())?),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EpochLog> {
        self.log.lock().expect("epoch log lock never poisoned")
    }

    /// Append one published epoch (full snapshot + the delta that
    /// produced it, when the publish carried one).
    pub fn append_epoch(&self, snap: &Snapshot, delta: Option<&LinkDelta>) -> io::Result<()> {
        failpoints::failpoint!("serve::durable_append", |msg: String| Err(
            io::Error::other(format!("failpoint serve::durable_append: {msg}"))
        ));
        let persisted = persist(snap);
        self.lock().append_full(snap.epoch, &persisted, delta)
    }

    /// Flush and fsync the active segment — called once on graceful
    /// drain so the tail of the log is durable before exit.
    pub fn sync(&self) -> io::Result<()> {
        self.lock().sync_active()
    }

    /// The newest epoch on disk, revived as a full serving snapshot —
    /// what `--data-dir` boots from. `None` on an empty log or when no
    /// stored full record revives cleanly.
    pub fn latest(&self) -> Option<Snapshot> {
        let (epoch, persisted) = self.lock().latest_full()?;
        revive(epoch, persisted)
    }

    /// The newest epoch with a record.
    pub fn latest_epoch(&self) -> Option<u64> {
        self.lock().latest_epoch()
    }

    /// The snapshot that served as `epoch`, revived — the `?at=`
    /// time-travel read. `None` when the epoch is not in the log or its
    /// record does not read back.
    pub fn snapshot_at(&self, epoch: u64) -> Option<Snapshot> {
        let (persisted, _) = self.lock().snapshot_at(epoch)?;
        revive(epoch, persisted)
    }

    /// The net link diff from `since` to `current`, folded over stored
    /// per-epoch deltas (add/remove cancellation) — the deep-history
    /// fallback behind `/v1/changes` once the in-memory ring has
    /// evicted an epoch. `None` when any epoch in the span lacks delta
    /// information on disk.
    #[allow(clippy::type_complexity)]
    pub fn fold_since(
        &self,
        since: u64,
        current: u64,
    ) -> Option<(BTreeSet<(IxpId, Asn, Asn)>, BTreeSet<(IxpId, Asn, Asn)>)> {
        self.lock().fold_since(since, current)
    }

    /// The oldest `since` the durable log can answer against `current`.
    pub fn oldest_since(&self, current: u64) -> u64 {
        self.lock().oldest_since(current)
    }

    /// Log counters (segments, records, bytes, epoch range, torn-tail
    /// bytes). The boot line prints them; `/v1/stats` does not carry
    /// them.
    pub fn stats(&self) -> LogStats {
        self.lock().stats()
    }
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Extract the deterministic, persistable parts of a serving snapshot.
fn persist(snap: &Snapshot) -> PersistedSnapshot {
    PersistedSnapshot {
        scale: snap.scale.clone(),
        seed: snap.seed,
        etag: snap.etag.clone(),
        names: snap.names.clone(),
        links: snap.links.clone(),
        announcements: snap.index.announcements().to_vec(),
        observation_count: snap.observation_count as u64,
        passive_stats: snap.passive_stats.clone(),
        validation: snap.validation.clone(),
    }
}

/// Rebuild a serving snapshot from a decoded record, refusing records
/// whose rebuilt content hash differs from the ETag they were stored
/// under (the end-to-end integrity check: checksums catch bit rot,
/// this catches logic drift between writer and reader).
fn revive(epoch: u64, persisted: PersistedSnapshot) -> Option<Snapshot> {
    let stored_etag = persisted.etag.clone();
    let snap = Snapshot::from_parts(SnapshotParts {
        epoch,
        scale: persisted.scale,
        seed: persisted.seed,
        names: persisted.names,
        links: persisted.links,
        announcements: persisted.announcements,
        observation_count: persisted.observation_count as usize,
        passive_stats: persisted.passive_stats,
        validation: persisted.validation,
    });
    if snap.etag != stored_etag {
        eprintln!(
            "mlpeer-serve: refusing epoch {epoch} from durable store: \
             rebuilt etag {} != stored {stored_etag}",
            snap.etag
        );
        return None;
    }
    Some(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mlpeer-durable-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn snap_at(epoch: u64, members: u32) -> Snapshot {
        let mut s = crate::testutil::snapshot_with(members, epoch);
        s.epoch = epoch;
        s
    }

    #[test]
    fn append_then_revive_is_byte_identical() {
        let dir = temp_dir("revive");
        let durable = DurableStore::open(&dir).unwrap();
        let original = snap_at(0, 3);
        durable.append_epoch(&original, None).unwrap();
        let revived = durable.latest().unwrap();
        assert_eq!(revived.epoch, 0);
        assert_eq!(revived.etag, original.etag);
        assert_eq!(revived.links, original.links);
        assert_eq!(
            crate::api::render_ixps(&revived),
            crate::api::render_ixps(&original)
        );
        // And again through a fresh open (a "restart").
        drop(durable);
        let reopened = DurableStore::open(&dir).unwrap();
        let back = reopened.latest().unwrap();
        assert_eq!(back.etag, original.etag);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_at_serves_history_and_fold_since_composes() {
        let dir = temp_dir("attime");
        let durable = DurableStore::open(&dir).unwrap();
        for e in 0..4u64 {
            let snap = snap_at(e, 2 + (e as u32 % 3));
            let delta = (e > 0).then(|| LinkDelta {
                added: vec![(IxpId(0), Asn(e as u32), Asn(e as u32 + 1))],
                removed: vec![],
            });
            durable.append_epoch(&snap, delta.as_ref()).unwrap();
        }
        for e in 0..4u64 {
            let hist = durable.snapshot_at(e).unwrap();
            assert_eq!(hist.epoch, e);
            assert_eq!(hist.etag, snap_at(e, 2 + (e as u32 % 3)).etag);
        }
        assert!(durable.snapshot_at(9).is_none());
        let (added, removed) = durable.fold_since(0, 3).unwrap();
        assert_eq!(added.len(), 3);
        assert!(removed.is_empty());
        assert_eq!(durable.oldest_since(3), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn revive_refuses_a_wrong_etag() {
        let snap = snap_at(0, 3);
        let mut persisted = persist(&snap);
        persisted.etag = "0000000000000000".to_string();
        assert!(revive(0, persisted).is_none());
        // The honest record revives.
        assert!(revive(0, persist(&snap)).is_some());
    }
}
