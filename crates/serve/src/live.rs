//! The live refresher: incremental epochs from an update stream, not
//! re-harvests.
//!
//! The batch pipeline is deterministic in (scale, seed), so re-running
//! it could only republish the same links. Live mode changes the
//! ecosystem instead, with a churn-driven delta loop ([`LiveLoop`]):
//! each tick draws the next batch of seeded churn events, mutates the
//! ecosystem, renders the events as BGP session traffic
//! ([`mlpeer_data::churn::event_messages`]), decodes and folds them
//! into the [`LiveInferencer`], and then publishes **only if the link
//! set actually moved** — scored against the registry fold derived
//! straight from the churned ecosystem ([`CorpusFold::derive`]), via
//! [`SnapshotStore::publish_with_delta`], so `/v1/changes` can answer
//! the diff. The validation report, the index and the ETag all read
//! one announcement set, taken straight from the inferencer. A tick
//! whose net delta is empty publishes nothing: the epoch *and* the
//! content ETag stay stable, and conditional GETs keep revalidating
//! for free.
//!
//! A tick that panics part-way leaves the ecosystem ahead of the
//! inferencer and loses its delta; the next tick rebuilds the
//! inferencer from the ecosystem first and publishes the difference
//! from what is served, so `/v1/*` and `/v1/changes` stay exact.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mlpeer::live::{decode_message, LinkDelta, LiveInferencer};
use mlpeer::passive::PassiveStats;
use mlpeer::validate::cross::{CorpusConfig, CorpusFold};
use mlpeer_data::churn::{event_messages, ChurnConfig, ChurnGen};
use mlpeer_ixp::{Ecosystem, IxpId};

use crate::snapshot::{Snapshot, SnapshotParts};
use crate::store::SnapshotStore;

/// Knobs of the live loop.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Time between ticks (clamped to ≥ 1 ms by the loop — a zero
    /// interval would busy-spin a core and flood the store).
    pub interval: Duration,
    /// Churn events drawn per tick (0 = a heartbeat that never
    /// changes anything — useful in tests).
    pub events_per_tick: usize,
    /// The seeded churn model.
    pub churn: ChurnConfig,
    /// Scale word stamped into published snapshots.
    pub scale: String,
    /// Seed stamped into published snapshots.
    pub seed: u64,
}

/// Counters the live loop exposes (all monotone).
#[derive(Debug, Default)]
pub struct LiveStats {
    /// Ticks run.
    pub ticks: AtomicU64,
    /// Churn events applied.
    pub events: AtomicU64,
    /// Epochs actually published (≤ ticks: no-op ticks skip).
    pub published: AtomicU64,
    /// Times the supervisor caught a tick panic and restarted the loop.
    pub restarts: AtomicU64,
}

/// The refresher supervisor: a panicking tick is caught
/// ([`std::panic::catch_unwind`]), counted, reported to the health
/// registry, and the loop restarted after exponential backoff (250 ms
/// doubling to a 5 s cap) — one bad tick must not silently kill push
/// delivery for the rest of the process lifetime. A clean tick resets
/// the backoff and clears the `live-refresher` degradation reason.
struct Supervisor {
    backoff: Duration,
}

impl Supervisor {
    const INITIAL: Duration = Duration::from_millis(250);
    const CAP: Duration = Duration::from_secs(5);

    fn new() -> Supervisor {
        Supervisor {
            backoff: Self::INITIAL,
        }
    }

    /// A tick completed cleanly: recovered.
    fn tick_ok(&mut self, health: &crate::health::HealthState) {
        self.backoff = Self::INITIAL;
        health.set_live_restarting(false);
    }

    /// A tick panicked: count, report, back off (shutdown-aware), grow.
    fn tick_panicked(
        &mut self,
        health: &crate::health::HealthState,
        stats: &LiveStats,
        shutdown: &AtomicBool,
    ) {
        let n = stats.restarts.fetch_add(1, Ordering::Relaxed) + 1;
        health.set_live_restarting(true);
        eprintln!(
            "mlpeer-serve: live tick panicked; restart #{n} in {:?}",
            self.backoff
        );
        let mut slept = Duration::ZERO;
        while slept < self.backoff && !shutdown.load(Ordering::Relaxed) {
            let step = Duration::from_millis(50).min(self.backoff - slept);
            std::thread::sleep(step);
            slept += step;
        }
        self.backoff = (self.backoff * 2).min(Self::CAP);
    }
}

/// Bootstrap the live state from an ecosystem: the inferencer over the
/// current route-server state, and the initial snapshot to open the
/// store on — built from the *same* live harvest, so the first
/// `/v1/changes` delta composes against exactly what `/v1/*` serves.
pub fn bootstrap(eco: &Ecosystem, scale: &str, seed: u64) -> (LiveInferencer, Snapshot) {
    let li = LiveInferencer::from_ecosystem(eco);
    let parts = live_parts(
        eco,
        &li,
        &CorpusConfig::seeded(seed),
        scale.to_string(),
        seed,
        Snapshot::names_of(eco),
    );
    (li, Snapshot::from_parts(parts))
}

/// The snapshot parts of `li`'s current state, scored against the
/// registry fold of `eco`: one announcement set feeds the report, the
/// index and the ETag.
fn live_parts(
    eco: &Ecosystem,
    li: &LiveInferencer,
    corpus: &CorpusConfig,
    scale: String,
    seed: u64,
    names: BTreeMap<IxpId, String>,
) -> SnapshotParts {
    let announcements = li.announcements();
    let validation = CorpusFold::derive(eco, corpus).report(li.current(), &announcements);
    SnapshotParts {
        epoch: 0,
        scale,
        seed,
        names,
        links: li.current().clone(),
        announcements,
        observation_count: li.observation_count(),
        passive_stats: PassiveStats::default(),
        validation,
    }
}

/// What the live loop carries from tick to tick: the churned ecosystem,
/// the link inferencer kept in step with it, and the churn schedule.
pub struct LiveLoop {
    eco: Ecosystem,
    inferencer: LiveInferencer,
    corpus: CorpusConfig,
    churn: ChurnGen,
    clock: u64,
    names: BTreeMap<IxpId, String>,
    cfg: LiveConfig,
    /// Set while a tick runs. Still set when the next tick starts, it
    /// means that tick panicked part-way: the ecosystem may be ahead of
    /// the inferencer, and the tick's delta never reached the store.
    in_tick: bool,
}

impl LiveLoop {
    /// A loop over `eco`; `inferencer` must agree with it (use
    /// [`bootstrap`]).
    pub fn new(eco: Ecosystem, inferencer: LiveInferencer, cfg: LiveConfig) -> LiveLoop {
        LiveLoop {
            churn: ChurnGen::new(&eco, cfg.churn.clone()),
            names: Snapshot::names_of(&eco),
            corpus: CorpusConfig::seeded(cfg.seed),
            eco,
            inferencer,
            clock: 0,
            cfg,
            in_tick: false,
        }
    }

    /// The churned ecosystem the loop keeps the inferencer in step with.
    pub fn ecosystem(&self) -> &Ecosystem {
        &self.eco
    }

    /// One tick: draw each event, apply it, render it as BGP messages
    /// and decode them into the inferencer. Then, only if anything
    /// moved, score the links against the registry fold of the churned
    /// ecosystem and publish. Returns the published epoch. After a tick
    /// that panicked, the inferencer is first rebuilt from the
    /// ecosystem, and the rebuilt state published if it differs from
    /// the served one.
    pub fn tick(&mut self, store: &SnapshotStore, stats: &LiveStats) -> Option<u64> {
        failpoints::failpoint!("serve::live_tick");
        if std::mem::replace(&mut self.in_tick, true) {
            self.resync(store, stats);
        }
        let published = self.churn_and_publish(store, stats);
        self.in_tick = false;
        published
    }

    /// Rebuild the inferencer from the ecosystem, and publish the link
    /// delta from the served snapshot to the rebuilt state if its links
    /// or announcements differ — the repair after a tick that panicked
    /// between applying churn and decoding it (or before its publish).
    fn resync(&mut self, store: &SnapshotStore, stats: &LiveStats) {
        self.inferencer = LiveInferencer::from_ecosystem(&self.eco);
        let served = store.load();
        if served.links == *self.inferencer.current()
            && served.index.announcements() == self.inferencer.announcements()
        {
            return;
        }
        let delta = LinkDelta::between(&served.links, self.inferencer.current());
        let snapshot = Snapshot::assemble(self.parts());
        store.publish_with_delta(snapshot, delta);
        stats.published.fetch_add(1, Ordering::Relaxed);
    }

    /// The parts of the current live state, ready to assemble.
    fn parts(&self) -> SnapshotParts {
        live_parts(
            &self.eco,
            &self.inferencer,
            &self.corpus,
            self.cfg.scale.clone(),
            self.cfg.seed,
            self.names.clone(),
        )
    }

    /// The tick proper: churn, decode, and publish if anything moved.
    fn churn_and_publish(&mut self, store: &SnapshotStore, stats: &LiveStats) -> Option<u64> {
        let version_before = self.inferencer.state_version();
        let mut delta = LinkDelta::default();
        for _ in 0..self.cfg.events_per_tick {
            let event = self.churn.next_event(&self.eco);
            self.eco.apply_churn(&event);
            failpoints::failpoint!("serve::live_decode");
            let ixp = event.ixp();
            let scheme = &self.eco.ixp(ixp).scheme;
            for msg in event_messages(&self.eco, &event, self.clock) {
                for live_event in decode_message(ixp, scheme, &msg) {
                    delta.merge(self.inferencer.apply(&live_event));
                }
            }
            self.clock += 1;
            stats.events.fetch_add(1, Ordering::Relaxed);
        }
        stats.ticks.fetch_add(1, Ordering::Relaxed);

        if delta.is_empty() && self.inferencer.state_version() == version_before {
            // Nothing served changed: no publish, epoch and ETag stay.
            // The state-version check matters — prefixes and policies
            // can change without any link moving (e.g. an open member
            // originating a new prefix), and /v1/prefix must not go
            // stale; such a tick publishes a new epoch whose link delta
            // is empty.
            return None;
        }
        // Uncached build: a tick that moved a handful of links must not
        // pay an O(announcement-corpus) body pre-render — live-mode
        // GETs render on demand, batch publishes keep the cache.
        let snapshot = Snapshot::assemble(self.parts());
        let epoch = store.publish_with_delta(snapshot, delta);
        stats.published.fetch_add(1, Ordering::Relaxed);
        Some(epoch)
    }
}

/// Spawn the live loop. `eco` and `inferencer` must agree (use
/// [`bootstrap`]); the loop owns both from here on. Returns the thread
/// handle; `shutdown` stops it promptly even mid-interval.
pub fn spawn_live_refresher(
    store: Arc<SnapshotStore>,
    eco: Ecosystem,
    inferencer: LiveInferencer,
    cfg: LiveConfig,
    stats: Arc<LiveStats>,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    let mut live = LiveLoop::new(eco, inferencer, cfg);
    store.set_live_stats(Arc::clone(&stats));
    std::thread::Builder::new()
        .name("mlpeer-serve-live".into())
        .spawn(move || {
            // A zero interval must not become a 100% CPU busy-spin.
            let interval = live.cfg.interval.max(Duration::from_millis(1));
            let mut supervisor = Supervisor::new();
            loop {
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if shutdown.load(Ordering::Relaxed) {
                        return;
                    }
                    let step = Duration::from_millis(50).min(interval - slept);
                    std::thread::sleep(step);
                    slept += step;
                }
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                // A panic anywhere in the tick is caught and the loop
                // restarted after backoff.
                let tick = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    live.tick(&store, &stats)
                }));
                match tick {
                    Ok(published) => {
                        supervisor.tick_ok(store.health());
                        if let Some(epoch) = published {
                            eprintln!(
                                "# live: epoch {epoch} after {} events ({} links)",
                                stats.events.load(Ordering::Relaxed),
                                store.load().unique_link_count,
                            );
                        }
                    }
                    Err(_) => supervisor.tick_panicked(store.health(), &stats, &shutdown),
                }
            }
        })
        .expect("spawn live refresher")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::SinceAnswer;
    use mlpeer_ixp::EcosystemConfig;

    fn live_cfg(events_per_tick: usize) -> LiveConfig {
        LiveConfig {
            interval: Duration::from_millis(10),
            events_per_tick,
            churn: ChurnConfig {
                seed: 5,
                ..ChurnConfig::default()
            },
            scale: "tiny".into(),
            seed: 11,
        }
    }

    fn boot() -> (Ecosystem, LiveInferencer, Snapshot) {
        let eco = Ecosystem::generate(EcosystemConfig::tiny(11));
        let (li, snap) = bootstrap(&eco, "tiny", 11);
        (eco, li, snap)
    }

    #[test]
    fn live_loop_publishes_deltas_that_compose() {
        let (eco, li, snap) = boot();
        let initial_links: std::collections::BTreeSet<(mlpeer_ixp::IxpId, _, _)> = snap
            .links
            .per_ixp
            .iter()
            .flat_map(|(ixp, s)| s.iter().map(move |&(a, b)| (*ixp, a, b)))
            .collect();
        let store = SnapshotStore::new(snap);
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(LiveStats::default());
        let handle = spawn_live_refresher(
            Arc::clone(&store),
            eco,
            li,
            live_cfg(20),
            Arc::clone(&stats),
            Arc::clone(&shutdown),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while store.load().epoch < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
        let current = store.load();
        assert!(current.epoch >= 3, "live loop must publish epochs");
        assert!(stats.published.load(Ordering::Relaxed) >= 3);

        // The loop registered its counters on the store, and /v1/stats
        // surfaces them.
        assert!(store.live_stats().is_some());
        let r = crate::api::route(
            &crate::http::Request {
                method: "GET".into(),
                path: "/v1/stats".into(),
                ..Default::default()
            },
            &current,
            &crate::server::ServerStats::default(),
            store.changes(),
            store.durable(),
            store.live_stats(),
            None,
            None,
            None,
        );
        let body = String::from_utf8(r.body.to_vec()).unwrap();
        assert!(body.contains("\"published_epochs\""), "{body}");
        assert!(body.contains("\"ticks\""), "{body}");

        // The net diff since 0 composes with the initial link set to
        // exactly the served snapshot's links.
        match store.changes().since(0, current.epoch) {
            SinceAnswer::Delta { added, removed } => {
                let mut expect = initial_links;
                for l in &removed {
                    assert!(expect.remove(l), "removed link {l:?} was never present");
                }
                for l in &added {
                    assert!(expect.insert(*l), "added link {l:?} already present");
                }
                let now: std::collections::BTreeSet<_> = current
                    .links
                    .per_ixp
                    .iter()
                    .flat_map(|(ixp, s)| s.iter().map(move |&(a, b)| (*ixp, a, b)))
                    .collect();
                assert_eq!(expect, now, "delta chain must compose to current");
            }
            SinceAnswer::Truncated { .. } => {
                panic!("ring should cover every epoch of a short run")
            }
        }
    }

    #[test]
    fn noop_ticks_keep_epoch_and_etag_stable() {
        let (eco, li, snap) = boot();
        let etag0 = snap.etag.clone();
        let store = SnapshotStore::new(snap);
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(LiveStats::default());
        // events_per_tick = 0: every tick is a no-op delta.
        let handle = spawn_live_refresher(
            Arc::clone(&store),
            eco,
            li,
            live_cfg(0),
            Arc::clone(&stats),
            Arc::clone(&shutdown),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while stats.ticks.load(Ordering::Relaxed) < 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
        assert!(stats.ticks.load(Ordering::Relaxed) >= 5, "loop must tick");
        assert_eq!(stats.published.load(Ordering::Relaxed), 0);
        let snap = store.load();
        assert_eq!(snap.epoch, 0, "no-op deltas must not bump the epoch");
        assert_eq!(snap.etag, etag0, "no-op deltas must not move the ETag");
        assert_eq!(store.swap_count(), 0);
    }

    #[test]
    fn bootstrap_snapshot_serves_live_state() {
        let (_, li, snap) = boot();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.unique_link_count, li.current().unique_links().len());
        assert!(snap.observation_count > 0);
        assert_eq!(snap.observation_count, li.observations().len());
    }
}
