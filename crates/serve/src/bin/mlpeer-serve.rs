//! Boot the full serving stack at a chosen scale:
//!
//! ```text
//! mlpeer-serve [tiny|small|medium|large|paper] [--addr=HOST:PORT] [--seed=N]
//!              [--max-conns=N] [--idle-ms=N] [--workers=N]
//!              [--live] [--live-tick-ms=N] [--churn-per-tick=N]
//!              [--churn-seed=N] [--delta-ring=N] [--data-dir=PATH]
//!              [--drain-ms=N] [--admission=N]
//! ```
//!
//! Default mode generates the ecosystem, runs the inference pipeline
//! once, publishes the snapshot, and serves the query API. The
//! pipeline is deterministic in (scale, seed), so the snapshot stays
//! current until a `--live` loop changes the ecosystem under it.
//!
//! The front end is the epoll **reactor**: one event-loop thread,
//! `--max-conns` connections, an `--idle-ms` keep-alive read deadline,
//! and long-poll and SSE push on `/v1/changes`.
//!
//! With `--workers=N` (N > 1) a batch boot distributes its passive
//! harvest: the coordinator re-execs this binary as `--dist-worker`
//! processes, ships work over checksummed pipes, and folds the results
//! — byte-identically to a single-process run, degrading gracefully to
//! in-process execution when spawning fails (see `mlpeer_dist`).
//! `/v1/stats` then surfaces the coordinator's `dist` counters.
//! `--workers` applies to batch boots only: `--live` with `--workers=N`
//! (N > 1) exits with status 2 before generating anything.
//!
//! With `--live` an incremental loop runs beside the server: the
//! initial snapshot comes from the route-server-state harvest, a
//! seeded churn model (`--churn-seed`) drives `--churn-per-tick`
//! events every `--live-tick-ms`, deltas are applied incrementally,
//! and a new epoch is published only when the link set changed —
//! `GET /v1/changes?since=N` then serves the link-level diff out of a
//! `--delta-ring`-deep history.
//!
//! With `--data-dir=PATH` every published epoch also appends to the
//! durable segment log there. On the next boot the latest persisted
//! epoch is recovered byte-identically (same ETag); if it was written
//! at the same scale and seed, batch mode serves it directly instead
//! of re-running the pipeline. Otherwise — another scale or seed, or
//! live mode, which re-bootstraps from the route servers — the fresh
//! snapshot is published as a *bridge* epoch carrying the link diff
//! from the recovered state, so `/v1/changes` composes across the
//! restart. Snapshot-addressed endpoints additionally answer
//! `?at=<epoch>` time-travel reads, and `/v1/changes?since=N` falls
//! back to the on-disk history when `N` predates the in-memory ring.
//!
//! **Graceful shutdown:** the SIGTERM/SIGINT latch is installed before
//! any listener, so once `/readyz` answers, either signal starts a
//! drain — listeners stop accepting, `/readyz` answers `draining`
//! (503), in-flight keep-alive requests finish within `--drain-ms`, SSE
//! subscribers get a terminal `shutdown` event, epochs whose durable
//! append failed are landed in the log, the active durable segment is
//! flushed and fsynced, and the process exits 0 (also when landing or
//! syncing fails, which it reports on stderr).
//! `--admission=N` caps global in-flight responses; beyond it
//! requests are shed with a pre-rendered 503 + `Retry-After`.
//!
//! **Fault injection:** the `MLPEER_FAILPOINTS` environment variable
//! activates named failpoints (`site=action;site=action` with actions
//! `off`, `return(msg)`, `panic(msg)`, `delay(ms)`, `1in(n)`) across
//! store appends/fsyncs, dist worker spawns and frames, and serve
//! publish/append/render paths — see ARCHITECTURE.md's failure-model
//! section for the site list.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mlpeer::pipeline::Scale;
use mlpeer_data::churn::ChurnConfig;
use mlpeer_ixp::Ecosystem;
use mlpeer_serve::{
    bootstrap, spawn_live_refresher, spawn_reactor, LiveConfig, LiveStats, ReactorConfig, Snapshot,
    SnapshotStore,
};

fn main() {
    // Worker mode: this same binary, re-exec'd by the coordinator with
    // frames on stdin/stdout. Intercepted before any other parsing so
    // a worker never generates an ecosystem or binds a socket.
    if std::env::args().nth(1).as_deref() == Some("--dist-worker") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        if let Err(err) = mlpeer_dist::run_worker(stdin.lock(), stdout.lock()) {
            eprintln!("mlpeer-serve --dist-worker: {err}");
            std::process::exit(1);
        }
        return;
    }

    let mut scale = Scale::Small;
    let mut addr = "127.0.0.1:8462".to_string();
    let mut seed: u64 = 20130501;
    let mut workers: usize = 1;
    let mut reactor_cfg = ReactorConfig::default();
    let mut live = false;
    let mut live_tick_ms: u64 = 2000;
    let mut churn_per_tick: usize = 10;
    let mut churn_seed: u64 = 20131007;
    let mut delta_ring: usize = mlpeer_serve::store::DEFAULT_CHANGE_CAPACITY;
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut drain_ms: u64 = 5000;
    for arg in std::env::args().skip(1) {
        if let Some(s) = Scale::parse(&arg) {
            scale = s;
        } else if let Some(v) = arg.strip_prefix("--addr=") {
            addr = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed=N");
        } else if let Some(v) = arg.strip_prefix("--workers=") {
            workers = v.parse().expect("--workers=N");
        } else if let Some(v) = arg.strip_prefix("--max-conns=") {
            reactor_cfg.max_conns = v.parse().expect("--max-conns=N");
        } else if let Some(v) = arg.strip_prefix("--idle-ms=") {
            reactor_cfg.idle = Duration::from_millis(v.parse().expect("--idle-ms=N"));
        } else if arg == "--live" {
            live = true;
        } else if let Some(v) = arg.strip_prefix("--live-tick-ms=") {
            live_tick_ms = v.parse().expect("--live-tick-ms=N");
        } else if let Some(v) = arg.strip_prefix("--churn-per-tick=") {
            churn_per_tick = v.parse().expect("--churn-per-tick=N");
        } else if let Some(v) = arg.strip_prefix("--churn-seed=") {
            churn_seed = v.parse().expect("--churn-seed=N");
        } else if let Some(v) = arg.strip_prefix("--delta-ring=") {
            delta_ring = v.parse().expect("--delta-ring=N");
        } else if let Some(v) = arg.strip_prefix("--data-dir=") {
            data_dir = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("--drain-ms=") {
            drain_ms = v.parse().expect("--drain-ms=N");
        } else if let Some(v) = arg.strip_prefix("--admission=") {
            reactor_cfg.admission = v.parse().expect("--admission=N");
        } else {
            eprintln!("unknown argument: {arg}");
            eprintln!(
                "usage: mlpeer-serve [tiny|small|medium|large|paper] [--addr=HOST:PORT] \
                 [--seed=N] [--max-conns=N] [--idle-ms=N] [--workers=N] \
                 [--live] [--live-tick-ms=N] [--churn-per-tick=N] [--churn-seed=N] \
                 [--delta-ring=N] [--data-dir=PATH] [--drain-ms=N] [--admission=N]"
            );
            std::process::exit(2);
        }
    }
    if live && workers > 1 {
        eprintln!(
            "--live cannot run with --workers={workers}: --workers applies to batch boots only"
        );
        std::process::exit(2);
    }
    reactor_cfg.drain_grace = Duration::from_millis(drain_ms);

    let durable = data_dir.map(|dir| {
        let d = mlpeer_serve::DurableStore::open(&dir).unwrap_or_else(|e| {
            eprintln!("cannot open --data-dir {}: {e}", dir.display());
            std::process::exit(2);
        });
        let st = d.stats();
        eprintln!(
            "# durable log {}: {} records in {} segment(s), {} bytes",
            dir.display(),
            st.records,
            st.segments,
            st.bytes
        );
        Arc::new(d)
    });
    let recovered = durable.as_ref().and_then(|d| d.latest());
    if let Some(s) = &recovered {
        eprintln!(
            "# recovered epoch {} (etag {}) from durable log",
            s.epoch, s.etag
        );
    }
    let attach = |store: &Arc<SnapshotStore>| {
        if let Some(d) = &durable {
            store
                .attach_durable(Arc::clone(d))
                .expect("attach durable store");
        }
    };

    let generate = || {
        eprintln!("# generating ecosystem ({scale:?}, seed {seed})…");
        Ecosystem::generate(scale.config(seed))
    };
    let scale_word = scale.word().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut refresher = None;

    // Multi-process passive harvest (batch boots only): re-exec this
    // binary as `--dist-worker` frames-over-pipes workers. Falls back
    // to the sibling worker binary (or in-process degradation) if
    // re-exec is unavailable.
    let dist = (workers > 1).then(|| {
        let worker_cmd = std::env::current_exe()
            .map(|exe| (exe, vec!["--dist-worker".to_string()]))
            .ok()
            .or_else(mlpeer_dist::default_worker_cmd);
        let cfg = mlpeer_dist::DistConfig {
            worker_cmd,
            ..mlpeer_dist::DistConfig::new(workers)
        };
        eprintln!("# dist: {workers} worker processes");
        (cfg, Arc::new(mlpeer_dist::DistStats::new(workers as u64)))
    });

    // Publish a freshly computed snapshot over whatever the log held:
    // resume the epoch counter where the log left off, then bridge to
    // the new snapshot with one published delta, so `/v1/changes`
    // composes across the restart.
    let start_store = |snapshot: Snapshot, prev: Option<Snapshot>| {
        let Some(prev) = prev else {
            let store = SnapshotStore::with_change_capacity(snapshot, delta_ring);
            attach(&store);
            return store;
        };
        let store = SnapshotStore::resume(prev, delta_ring);
        attach(&store);
        let prev = store.load();
        if (&prev.etag, &prev.scale, prev.seed) == (&snapshot.etag, &snapshot.scale, snapshot.seed)
        {
            eprintln!(
                "# snapshot matches recovered epoch {}; no bridge needed",
                prev.epoch
            );
        } else {
            let bridge = mlpeer::live::LinkDelta::between(&prev.links, &snapshot.links);
            let (plus, minus) = (bridge.added.len(), bridge.removed.len());
            let epoch = store.publish_with_delta(snapshot, bridge);
            eprintln!("# bridge epoch {epoch}: +{plus} -{minus} links vs recovered state");
        }
        store
    };

    let store = if live {
        let eco = generate();
        eprintln!("# live mode: harvesting route-server state…");
        let (inferencer, snapshot) = bootstrap(&eco, &scale_word, seed);
        eprintln!(
            "# snapshot ready: {} IXPs, {} unique links, etag {}",
            snapshot.names.len(),
            snapshot.unique_link_count,
            snapshot.etag
        );
        let store = start_store(snapshot, recovered);
        let stats = Arc::new(LiveStats::default());
        let live_cfg = LiveConfig {
            interval: Duration::from_millis(live_tick_ms),
            events_per_tick: churn_per_tick,
            churn: ChurnConfig {
                seed: churn_seed,
                ..ChurnConfig::default()
            },
            scale: scale_word,
            seed,
        };
        refresher = Some(spawn_live_refresher(
            Arc::clone(&store),
            eco,
            inferencer,
            live_cfg,
            stats,
            Arc::clone(&shutdown),
        ));
        eprintln!(
            "# live churn: {churn_per_tick} events every {live_tick_ms}ms \
             (seed {churn_seed}, ring {delta_ring})"
        );
        store
    } else {
        // The pipeline is deterministic in (scale, seed), so a
        // recovered epoch from the same pair is exactly what a re-run
        // would publish; one from another pair is only history.
        let (resume, stale) = match recovered {
            Some(prev) if (prev.scale.as_str(), prev.seed) == (scale.word(), seed) => {
                (Some(prev), None)
            }
            other => (None, other),
        };
        let store = if let Some(prev) = resume {
            eprintln!(
                "# serving recovered snapshot (epoch {}, {} unique links)",
                prev.epoch, prev.unique_link_count
            );
            let store = SnapshotStore::resume(prev, delta_ring);
            attach(&store);
            store
        } else {
            if let Some(prev) = &stale {
                eprintln!(
                    "# recovered epoch is from {} seed {}, not {scale_word} seed {seed}; \
                     re-running the pipeline",
                    prev.scale, prev.seed
                );
            }
            // Only the pipeline reads the ecosystem, so a matching
            // recovered epoch never generates it. Serial or fanned out
            // across worker processes, the snapshot is byte-identical.
            let eco = generate();
            eprintln!("# running inference pipeline…");
            let snapshot = match &dist {
                Some((cfg, stats)) => Snapshot::of_pipeline_dist(&eco, scale, seed, cfg, stats),
                None => Snapshot::of_pipeline(&eco, scale, seed),
            };
            eprintln!(
                "# snapshot ready: {} IXPs, {} unique links, {} indexed prefixes, etag {}",
                snapshot.names.len(),
                snapshot.unique_link_count,
                snapshot.index.prefix_count(),
                snapshot.etag
            );
            start_store(snapshot, stale)
        };
        if let Some((_, dist_stats)) = &dist {
            store.set_dist_stats(Arc::clone(dist_stats));
        }
        store
    };

    // Latch SIGTERM/SIGINT before any listener exists: once `/readyz`
    // can answer, a SIGTERM must drain rather than kill.
    if let Err(e) = polling::signal::install_term_handler() {
        eprintln!("# warning: no signal handlers ({e}); drain on request only");
    }
    let mut server = spawn_reactor(Arc::clone(&store), &addr, reactor_cfg).expect("bind address");
    eprintln!("# serving on http://{} (reactor)", server.addr);
    eprintln!("#   try: curl http://{}/healthz", server.addr);
    // Wait for SIGTERM/SIGINT (or the serve thread exiting on its
    // own), then drain: stop accepting, finish in-flight work under
    // the --drain-ms grace, stop the live loop, land the parked epochs,
    // flush + fsync the active durable segment, exit 0.
    while !polling::signal::term_requested() {
        if server.is_finished() {
            server.join();
            drop(refresher);
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("# signal received: draining (grace {drain_ms}ms)…");
    shutdown.store(true, Ordering::Relaxed);
    server.drain();
    if let Some(r) = refresher.take() {
        let _ = r.join();
    }
    if let Some(d) = &durable {
        // Epochs that served but whose append failed land now: a
        // restart must not give their numbers to other content.
        if let Err(e) = store.land_parked() {
            eprintln!("# warning: parked epochs not persisted: {e}");
        }
        match d.sync() {
            Ok(()) => eprintln!("# durable log flushed and synced"),
            Err(e) => eprintln!("# warning: durable sync failed: {e}"),
        }
    }
    eprintln!("# drained cleanly; exiting");
}
