//! The versioned snapshot store: atomic epoch swaps, never-blocking
//! readers.
//!
//! Readers call [`SnapshotStore::load`] and get an `Arc<Snapshot>` —
//! the mutex guards only the `Arc` clone (a reference-count increment)
//! and a publish's pointer replace, never the snapshot contents or the
//! disk, so a reader holds its view for as long as it likes while any
//! number of refreshes publish behind it. Writers build the
//! replacement snapshot entirely *outside* any lock (index construction
//! over a `Scale::Paper` run takes seconds), then [`publish`] stamps
//! the next epoch, swaps, and appends it to the durable log. Publishers
//! serialize on a lock of their own, held across all three, so the log
//! stays in publish order while readers never wait on the append.
//!
//! The `never blocked, never torn` contract is asserted by
//! `swap_under_concurrent_readers`: readers observe only complete
//! snapshots whose ETag re-verifies against their content, and a held
//! `Arc` is bit-identical before and after any number of swaps.
//!
//! [`publish`]: SnapshotStore::publish

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mlpeer::live::LinkDelta;

use crate::delta::ChangeLog;
use crate::health::DURABLE_BREAKER_THRESHOLD;
use crate::snapshot::Snapshot;

/// A registered publish observer (see [`SnapshotStore::on_publish`]).
type PublishHook = Box<dyn Fn(u64) + Send + Sync>;

/// A published epoch whose durable append failed: the snapshot and the
/// delta its publish carried.
type ParkedEpoch = (Arc<Snapshot>, Option<LinkDelta>);

/// Published epochs whose durable append failed, oldest first, waiting
/// to land in the log (see [`SnapshotStore::persist_published`]).
type Parked = Arc<Mutex<VecDeque<ParkedEpoch>>>;

/// Park a failed epoch behind the ones already waiting, keeping at most
/// [`DURABLE_BREAKER_THRESHOLD`] of them: beyond that the breaker is
/// open, and the newest epochs matter most (recent `?at=` and `since`
/// queries ask for them), so the oldest parked one is dropped.
fn park(parked: &mut VecDeque<ParkedEpoch>, snapshot: &Arc<Snapshot>, delta: Option<&LinkDelta>) {
    if parked.len() >= DURABLE_BREAKER_THRESHOLD as usize {
        parked.pop_front();
    }
    parked.push_back((Arc::clone(snapshot), delta.cloned()));
}

/// Land the parked epochs in the log, oldest first: the one landing
/// routine of the publish path, the recovery probe and the drain. The
/// caller holds the queue's lock throughout, so two landers never race
/// on an epoch. An epoch the log already holds leaves the queue without
/// a second append. Stops at the first failing append, which stays
/// parked with everything after it, and returns its epoch and error.
fn land_oldest_first(
    durable: &crate::durable::DurableStore,
    parked: &mut VecDeque<ParkedEpoch>,
) -> Result<(), (u64, std::io::Error)> {
    while let Some((snapshot, delta)) = parked.front() {
        if durable.latest_epoch().is_none_or(|l| l < snapshot.epoch) {
            durable
                .append_epoch(snapshot, delta.as_ref())
                .map_err(|err| (snapshot.epoch, err))?;
        }
        parked.pop_front();
    }
    Ok(())
}

/// Default [`ChangeLog`] depth: how many epochs back `/v1/changes` can
/// answer before signalling a full resync.
pub const DEFAULT_CHANGE_CAPACITY: usize = 64;

/// Shared handle to the current [`Snapshot`] epoch.
pub struct SnapshotStore {
    /// Held only to clone the `Arc` ([`load`](SnapshotStore::load)) or
    /// to replace it (a publish's swap).
    current: Mutex<Arc<Snapshot>>,
    /// Serializes publishers and the durable attach: held across the
    /// epoch stamp, the change-ring record, the swap and the durable
    /// append, so the log's order is publish order. Readers never take
    /// it.
    publishing: Mutex<()>,
    swaps: AtomicU64,
    changes: ChangeLog,
    /// Registered by the live refresher so `/v1/stats` can surface its
    /// counters; absent outside live mode.
    live_stats: std::sync::OnceLock<Arc<crate::live::LiveStats>>,
    /// Registered by the `--workers=N` boot path so `/v1/stats` can
    /// surface the coordinator's counters; absent in single-process
    /// runs.
    dist_stats: std::sync::OnceLock<Arc<mlpeer_dist::DistStats>>,
    /// Publish observers (the reactor registers one per shard to wake
    /// parked push subscribers). Must stay cheap and non-blocking —
    /// they run on the publisher's thread after every swap.
    hooks: Mutex<Vec<PublishHook>>,
    /// The on-disk epoch log, when the process runs with `--data-dir`.
    /// Appends happen *inside* the publish lock so log order always
    /// matches publish order; an append failure is reported and served
    /// past (availability over durability), never a panic.
    durable: std::sync::OnceLock<Arc<crate::durable::DurableStore>>,
    /// Degradation registry behind `/readyz`: the durability breaker,
    /// supervisor flags, and the drain flag all live here.
    health: Arc<crate::health::HealthState>,
    /// The newest epoch's `/v1/changes` SSE frame from the epoch before
    /// it, rendered once by its publish so the reactor pushes it to
    /// every subscriber without rendering it. Only the newest epoch's:
    /// a frame can run to hundreds of KB.
    newest_frame: Mutex<Option<(u64, Arc<Vec<u8>>)>>,
    /// Epochs that failed to persist, oldest first: the next publish
    /// lands them before its own epoch, or, once the durability breaker
    /// is open, the recovery probe does; the drain lands what is left
    /// ([`land_parked`](SnapshotStore::land_parked)). `Arc`-wrapped so
    /// the probe thread can share it without owning the store.
    pending_persist: Parked,
}

impl SnapshotStore {
    /// Open a store on an initial snapshot (published as epoch 0) with
    /// the default change-ring depth.
    pub fn new(initial: Snapshot) -> Arc<SnapshotStore> {
        Self::with_change_capacity(initial, DEFAULT_CHANGE_CAPACITY)
    }

    /// Open a store with an explicit change-ring depth.
    pub fn with_change_capacity(mut initial: Snapshot, capacity: usize) -> Arc<SnapshotStore> {
        initial.epoch = 0;
        Self::resume(initial, capacity)
    }

    /// Open a store on a snapshot that keeps the epoch it already
    /// carries — the durable-recovery boot path, where the initial
    /// snapshot is a revived epoch N and the next publish must be
    /// N + 1, not 1.
    pub fn resume(initial: Snapshot, capacity: usize) -> Arc<SnapshotStore> {
        Arc::new(SnapshotStore {
            current: Mutex::new(Arc::new(initial)),
            publishing: Mutex::new(()),
            swaps: AtomicU64::new(0),
            changes: ChangeLog::new(capacity),
            live_stats: std::sync::OnceLock::new(),
            dist_stats: std::sync::OnceLock::new(),
            hooks: Mutex::new(Vec::new()),
            durable: std::sync::OnceLock::new(),
            health: crate::health::HealthState::new(),
            newest_frame: Mutex::new(None),
            pending_persist: Arc::new(Mutex::new(VecDeque::new())),
        })
    }

    /// The degradation registry behind `/readyz`.
    pub fn health(&self) -> &Arc<crate::health::HealthState> {
        &self.health
    }

    /// Attach the on-disk epoch log (first attach wins; a second
    /// attach is the only error). From here on, every publish also
    /// appends to the log. If the log is empty — a fresh `--data-dir`
    /// — the current snapshot is appended immediately so epoch 0 (or
    /// the resumed epoch) is on disk before any traffic is served; if
    /// that boot append fails, availability wins: the breaker opens at
    /// once, the epoch parks in the pending slot, and the recovery
    /// probe lands it when the disk answers.
    pub fn attach_durable(
        &self,
        durable: Arc<crate::durable::DurableStore>,
    ) -> std::io::Result<()> {
        // Hold the publish lock across the attach + catch-up append so
        // a concurrent publish cannot interleave between them.
        let _publishing = self.publishing.lock().expect("publish lock never poisoned");
        let attached = Arc::clone(&durable);
        if self.durable.set(durable).is_err() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "durable store already attached",
            ));
        }
        if attached.latest_epoch().is_none() {
            let current = self.load();
            if let Err(err) = attached.append_epoch(&current, None) {
                eprintln!(
                    "mlpeer-serve: failed to persist boot epoch {}: {err}; \
                     durability breaker OPEN, probing for recovery",
                    current.epoch
                );
                park(
                    &mut self.pending_persist.lock().expect("pending lock"),
                    &current,
                    None,
                );
                if self.health.trip_durable_breaker() {
                    spawn_durable_probe(
                        attached,
                        Arc::clone(&self.health),
                        Arc::clone(&self.pending_persist),
                    );
                }
            }
        }
        Ok(())
    }

    /// The attached durable store, if this process runs with
    /// `--data-dir`.
    pub fn durable(&self) -> Option<&crate::durable::DurableStore> {
        self.durable.get().map(Arc::as_ref)
    }

    /// Append a freshly published epoch to the attached log (called
    /// with the publish lock held). Failures degrade durability, not
    /// availability: the epoch still serves, the error is reported, and
    /// the epoch stays parked. The epoch parks first and the queue lands
    /// oldest first, so one failed append leaves no hole in the log and
    /// the log stays in epoch order. When [`DURABLE_BREAKER_THRESHOLD`]
    /// epochs are parked the read-only-durability breaker trips: the
    /// publish path stops attempting appends (keeping publishes fast
    /// under a dead disk) and a background probe retries with
    /// exponential backoff until the log answers again, landing the
    /// parked epochs and closing the breaker.
    fn persist_published(&self, snapshot: &Arc<Snapshot>, delta: Option<&LinkDelta>) {
        let Some(durable) = self.durable.get() else {
            return;
        };
        // The probe checks for an empty queue and closes the breaker
        // under this lock, so parking here cannot slip between them.
        let mut parked = self.pending_persist.lock().expect("pending lock");
        park(&mut parked, snapshot, delta);
        if self.health.durable_breaker_open() {
            // Read-only durability: leave the epoch for the probe
            // instead of hammering a failing disk per publish.
            return;
        }
        let _ = self.land(durable, &mut parked);
    }

    /// Land every parked epoch in the attached log, oldest first. The
    /// graceful drain calls this before its final sync, so an epoch
    /// that was served but whose append failed reaches the disk before
    /// exit, and a restart cannot give its number to other content.
    /// Without a log, or with nothing parked, it does nothing; on
    /// failure the error is reported and returned, and the epochs stay
    /// parked.
    pub fn land_parked(&self) -> std::io::Result<()> {
        let Some(durable) = self.durable.get() else {
            return Ok(());
        };
        let mut parked = self.pending_persist.lock().expect("pending lock");
        self.land(durable, &mut parked)
    }

    /// Land the locked queue and keep the breaker's books: a landed
    /// epoch resets the failure count; a failure is reported, and trips
    /// the breaker (starting the probe) once
    /// [`DURABLE_BREAKER_THRESHOLD`] epochs are parked.
    fn land(
        &self,
        durable: &Arc<crate::durable::DurableStore>,
        parked: &mut VecDeque<ParkedEpoch>,
    ) -> std::io::Result<()> {
        let waiting = parked.len();
        let landed = land_oldest_first(durable, parked);
        if parked.len() < waiting {
            self.health.record_durable_success();
        }
        let Err((epoch, err)) = landed else {
            return Ok(());
        };
        eprintln!("mlpeer-serve: failed to persist epoch {epoch}: {err}");
        let tripped = if parked.len() >= DURABLE_BREAKER_THRESHOLD as usize {
            self.health.trip_durable_breaker()
        } else {
            self.health.record_durable_failure()
        };
        if tripped {
            eprintln!(
                "mlpeer-serve: durability breaker OPEN with {} epochs unpersisted; \
                 serving read-only durability, probing for recovery",
                parked.len()
            );
            spawn_durable_probe(
                Arc::clone(durable),
                Arc::clone(&self.health),
                Arc::clone(&self.pending_persist),
            );
        }
        Err(err)
    }

    /// Register a publish observer: called with the new epoch after
    /// every successful [`publish`](SnapshotStore::publish) or
    /// [`publish_with_delta`](SnapshotStore::publish_with_delta) swap
    /// (outside the store's locks). The reactor uses this to wake parked
    /// long-poll and SSE subscribers the moment a new epoch lands.
    pub fn on_publish(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        self.hooks
            .lock()
            .expect("hook lock never poisoned")
            .push(Box::new(hook));
    }

    /// Run every publish observer (after the publish lock is released,
    /// so a hook can call [`load`](SnapshotStore::load) freely).
    fn notify(&self, epoch: u64) {
        for hook in self.hooks.lock().expect("hook lock never poisoned").iter() {
            hook(epoch);
        }
    }

    /// The per-epoch change ring behind `/v1/changes`.
    pub fn changes(&self) -> &ChangeLog {
        &self.changes
    }

    /// Register the live loop's counters (first registration wins;
    /// called by [`crate::live::spawn_live_refresher`]).
    pub fn set_live_stats(&self, stats: Arc<crate::live::LiveStats>) {
        let _ = self.live_stats.set(stats);
    }

    /// The live loop's counters, if live mode is running on this store.
    pub fn live_stats(&self) -> Option<&crate::live::LiveStats> {
        self.live_stats.get().map(Arc::as_ref)
    }

    /// Register the multi-process coordinator's counters (first
    /// registration wins; called by the `--workers=N` boot path).
    pub fn set_dist_stats(&self, stats: Arc<mlpeer_dist::DistStats>) {
        let _ = self.dist_stats.set(stats);
    }

    /// The coordinator's counters, if this store was built or is being
    /// refreshed by worker processes.
    pub fn dist_stats(&self) -> Option<&mlpeer_dist::DistStats> {
        self.dist_stats.get().map(Arc::as_ref)
    }

    /// The current snapshot. Cheap (one `Arc` clone under a
    /// momentarily-held lock); the returned view is immutable and
    /// survives any later [`publish`](SnapshotStore::publish).
    pub fn load(&self) -> Arc<Snapshot> {
        self.current
            .lock()
            .expect("store lock never poisoned")
            .clone()
    }

    /// Publish a replacement snapshot: stamp it with the next epoch and
    /// swap it in atomically. Returns the assigned epoch. In-flight
    /// readers keep whatever epoch they already loaded.
    ///
    /// The epoch is assigned under the publish lock, so concurrent
    /// publishers serialize: the snapshot installed last always carries
    /// the highest epoch and `load()` never observes epochs regress.
    /// The publish carries no delta information, so the change ring
    /// resets: older `since` values can no longer be answered honestly.
    pub fn publish(&self, snapshot: Snapshot) -> u64 {
        self.publish_epoch(snapshot, None)
    }

    /// Publish a replacement snapshot together with the link-level
    /// [`LinkDelta`] that produced it, recording the delta in the
    /// change ring under the assigned epoch before the swap, so
    /// `/v1/changes` never observes an epoch before its delta.
    pub fn publish_with_delta(&self, snapshot: Snapshot, delta: LinkDelta) -> u64 {
        self.publish_epoch(snapshot, Some(delta))
    }

    /// The one publish body: stamp, record (or reset) the change ring,
    /// swap, append, render the subscribers' frame, all under the
    /// publish lock; `current` is held only for the pointer replace.
    /// The replaced snapshot is freed and the observers run after both
    /// locks are released.
    fn publish_epoch(&self, mut snapshot: Snapshot, delta: Option<LinkDelta>) -> u64 {
        failpoints::failpoint!("serve::publish");
        let publishing = self.publishing.lock().expect("publish lock never poisoned");
        // Only a publisher moves `current`, and it holds the publish lock.
        let epoch = self.load().epoch + 1;
        snapshot.epoch = epoch;
        let snapshot = Arc::new(snapshot);
        match &delta {
            Some(delta) => self.changes.record(epoch, delta.clone()),
            None => self.changes.reset(),
        }
        let replaced = std::mem::replace(
            &mut *self.current.lock().expect("store lock never poisoned"),
            Arc::clone(&snapshot),
        );
        self.persist_published(&snapshot, delta.as_ref());
        // Readers see the epoch already; subscribers are told below,
        // after the frame they are pushed exists. The ring holds
        // `epoch`, so it answers the span from the epoch before without
        // the durable log.
        let frame = delta.and_then(|_| {
            match crate::reactor::changes_frame(&snapshot, &self.changes, None, epoch - 1) {
                (200, frame) => Some((epoch, Arc::new(frame))),
                _ => None,
            }
        });
        *self.newest_frame.lock().expect("frame lock never poisoned") = frame;
        drop(publishing);
        drop(replaced);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        self.notify(epoch);
        epoch
    }

    /// The SSE frame carrying the change from `epoch − 1` to `epoch`,
    /// when `epoch` is the newest published with a delta: the bytes
    /// the reactor's `changes_frame` renders for `since = epoch − 1`.
    pub(crate) fn newest_frame(&self, epoch: u64) -> Option<Arc<Vec<u8>>> {
        match &*self.newest_frame.lock().expect("frame lock never poisoned") {
            Some((e, frame)) if *e == epoch => Some(Arc::clone(frame)),
            _ => None,
        }
    }

    /// Number of swaps since the store opened.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

/// The durability recovery probe: spawned once when the breaker trips
/// (the [`HealthState`] probe slot makes it exclusive), lands the
/// parked epochs oldest first, retrying a failing one with exponential
/// backoff — 50 ms doubling to a 2 s cap — and closes the breaker once
/// the queue is empty. Epochs parked *during* the retry land too before
/// it exits, so the log catches up to the newest snapshot without
/// waiting for the next publish. It lands under the queue's lock, so a
/// publish that parks meanwhile waits for one landing attempt (readers
/// never do). Owns only `Arc`s (log, health, the parked queue), never
/// the store, so it cannot keep a dropped store alive.
///
/// [`HealthState`]: crate::health::HealthState
fn spawn_durable_probe(
    durable: Arc<crate::durable::DurableStore>,
    health: Arc<crate::health::HealthState>,
    pending: Parked,
) {
    if !health.claim_probe() {
        return;
    }
    let thread_health = Arc::clone(&health);
    let spawned = std::thread::Builder::new()
        .name("mlpeer-serve-durable-probe".into())
        .spawn(move || {
            let health = thread_health;
            const FIRST: std::time::Duration = std::time::Duration::from_millis(50);
            let mut backoff = FIRST;
            loop {
                std::thread::sleep(backoff);
                let mut parked = pending.lock().expect("pending lock");
                let Err((epoch, err)) = land_oldest_first(&durable, &mut parked) else {
                    // Nothing left to persist: recovered. The slot is
                    // freed and the breaker closed under the lock, so a
                    // publish that parks or trips next sees both, and
                    // can start a new probe.
                    health.release_probe();
                    health.record_durable_success();
                    break;
                };
                drop(parked);
                eprintln!("mlpeer-serve: durability probe: epoch {epoch} still failing: {err}");
                backoff = (backoff * 2).clamp(FIRST, std::time::Duration::from_secs(2));
            }
            eprintln!("mlpeer-serve: durability breaker CLOSED; epoch log caught up");
        });
    if spawned.is_err() {
        health.release_probe();
    }
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("epoch", &self.load().epoch)
            .field("swaps", &self.swap_count())
            .field("changes", &self.changes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    /// A snapshot whose member count varies with `variant`, so each
    /// publish genuinely changes content (and ETag), and whose seed
    /// records the variant for re-derivation.
    fn snapshot_variant(variant: u32) -> Snapshot {
        crate::testutil::snapshot_with(2 + (variant % 3), u64::from(variant))
    }

    /// Re-derive the snapshot a loaded view claims to be (its seed
    /// names the variant) and check the content matches bit for bit. A
    /// torn or half-published snapshot could not re-verify.
    fn verify_etag(snap: &Snapshot) {
        let expected = snapshot_variant(snap.seed as u32);
        assert_eq!(
            expected.etag, snap.etag,
            "loaded snapshot must be exactly one published variant"
        );
        assert_eq!(expected.links, snap.links);
    }

    #[test]
    fn publish_with_delta_records_and_plain_publish_resets() {
        use crate::delta::SinceAnswer;
        use mlpeer::live::LinkDelta;
        use mlpeer_bgp::Asn;
        use mlpeer_ixp::ixp::IxpId;

        let store = SnapshotStore::new(snapshot_variant(0));
        let delta = LinkDelta {
            added: vec![(IxpId(0), Asn(1), Asn(2))],
            removed: vec![],
        };
        let e1 = store.publish_with_delta(snapshot_variant(1), delta.clone());
        assert_eq!(e1, 1);
        assert!(matches!(
            store.changes().since(0, 1),
            SinceAnswer::Delta { .. }
        ));
        // A plain publish carries no delta information: history resets
        // and older `since` values now require a full resync.
        let e2 = store.publish(snapshot_variant(2));
        assert_eq!(e2, 2);
        assert!(matches!(
            store.changes().since(0, 2),
            SinceAnswer::Truncated { .. }
        ));
        // Delta publishing resumes cleanly after the gap.
        let e3 = store.publish_with_delta(snapshot_variant(3), delta);
        assert!(matches!(
            store.changes().since(2, e3),
            SinceAnswer::Delta { .. }
        ));
        assert!(matches!(
            store.changes().since(1, e3),
            SinceAnswer::Truncated { .. }
        ));
    }

    #[test]
    fn publish_hooks_fire_on_both_publish_paths() {
        let store = SnapshotStore::new(snapshot_variant(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        store.on_publish(move |epoch| sink.lock().unwrap().push(epoch));
        store.publish(snapshot_variant(1));
        store.publish_with_delta(snapshot_variant(2), LinkDelta::default());
        assert_eq!(*seen.lock().unwrap(), vec![1, 2]);
    }

    #[test]
    fn attached_durable_log_records_every_publish_and_resume_continues() {
        use mlpeer::live::LinkDelta;
        use mlpeer_bgp::Asn;
        use mlpeer_ixp::ixp::IxpId;

        let dir = std::env::temp_dir().join(format!("mlpeer-store-attach-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = Arc::new(crate::durable::DurableStore::open(&dir).unwrap());
        let store = SnapshotStore::new(snapshot_variant(0));
        store.attach_durable(Arc::clone(&durable)).unwrap();
        // Attaching to an empty log writes the current epoch first.
        assert_eq!(durable.latest_epoch(), Some(0));
        // A second attach is refused.
        assert!(store.attach_durable(Arc::clone(&durable)).is_err());

        let delta = LinkDelta {
            added: vec![(IxpId(0), Asn(1), Asn(2))],
            removed: vec![],
        };
        store.publish_with_delta(snapshot_variant(1), delta);
        store.publish(snapshot_variant(2));
        assert_eq!(durable.latest_epoch(), Some(2));
        // Every epoch revives with its original ETag; the delta rode
        // along only where the publish carried one.
        for epoch in 0..=2u64 {
            let revived = durable.snapshot_at(epoch).unwrap();
            assert_eq!(revived.etag, snapshot_variant(epoch as u32).etag);
        }
        assert!(durable.fold_since(0, 1).is_some());
        assert!(
            durable.fold_since(1, 2).is_none(),
            "plain publish has no delta"
        );
        drop(store);

        // Restart: recover the latest epoch and keep counting from it.
        let reopened = Arc::new(crate::durable::DurableStore::open(&dir).unwrap());
        let recovered = reopened.latest().unwrap();
        assert_eq!(recovered.epoch, 2);
        let resumed = SnapshotStore::resume(recovered, DEFAULT_CHANGE_CAPACITY);
        resumed.attach_durable(Arc::clone(&reopened)).unwrap();
        assert_eq!(resumed.load().epoch, 2);
        let e3 = resumed.publish(snapshot_variant(3));
        assert_eq!(e3, 3, "epochs resume, they do not restart at 1");
        assert_eq!(reopened.latest_epoch(), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn publish_bumps_epoch_and_load_sees_latest() {
        let store = SnapshotStore::new(snapshot_variant(0));
        assert_eq!(store.load().epoch, 0);
        let e1 = store.publish(snapshot_variant(1));
        let e2 = store.publish(snapshot_variant(2));
        assert_eq!((e1, e2), (1, 2));
        assert_eq!(store.load().epoch, 2);
        assert_eq!(store.load().seed, 2);
        assert_eq!(store.swap_count(), 2);
    }

    /// The tentpole contract: concurrent readers are never blocked for
    /// the duration of a refresh (they make progress while the writer
    /// "builds"), never torn (every loaded snapshot re-verifies), and a
    /// held `Arc` stays bit-identical across arbitrarily many swaps.
    #[test]
    fn swap_under_concurrent_readers() {
        let store = SnapshotStore::new(snapshot_variant(0));
        let held = store.load();
        let held_etag = held.etag.clone();
        let held_debug = format!("{:?}", held.links);
        let stop = Arc::new(AtomicBool::new(false));
        const PUBLISHES: u32 = 40;

        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for _ in 0..4 {
                let store = &store;
                let stop = stop.clone();
                readers.push(scope.spawn(move || {
                    let mut loads = 0u64;
                    let mut last_epoch = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = store.load();
                        assert!(snap.epoch >= last_epoch, "epochs never regress");
                        last_epoch = snap.epoch;
                        verify_etag(&snap);
                        loads += 1;
                    }
                    loads
                }));
            }

            // The writer builds each snapshot outside the lock —
            // simulated expensive rebuild — then publishes.
            for variant in 1..=PUBLISHES {
                let next = snapshot_variant(variant);
                std::thread::sleep(Duration::from_millis(2)); // "rebuild"
                store.publish(next);
            }
            stop.store(true, Ordering::Relaxed);

            let total_loads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
            assert!(
                total_loads > u64::from(PUBLISHES),
                "readers starved: only {total_loads} loads across {PUBLISHES} publishes"
            );
        });

        // The Arc held since epoch 0 is untouched by every swap.
        assert_eq!(held.epoch, 0);
        assert_eq!(held.etag, held_etag);
        assert_eq!(format!("{:?}", held.links), held_debug);
        assert_eq!(store.load().epoch, u64::from(PUBLISHES));
    }
}
