//! Traced in-process replay of one benchmark workload.
//!
//! ```text
//! perfbench-traced --workload W --plan PLAN.tsv --ticks N --work DIR --spans OUT.jsonl
//! ```
//!
//! Replays, in this process, the layer calls the workload's server
//! makes — the batch boot pipeline, the durable append, the restart's
//! open and revive, `api::route` over the workload's read sequence, the
//! live bootstrap and `N` published live ticks — and times each call at
//! the layer boundary. Spans (trace id, span id, parent, name, start and
//! end ns) stay in memory and are written to `--spans` at the end, with
//! the self time per span name. The last stdout line is one flat JSON
//! object of per-layer numbers for the end-to-end driver to merge.
//!
//! Every workload replays every stage at its own scale, so each
//! per-layer metric has a value on each workload; which end-to-end
//! metric a stage can move on which workload is mapped in
//! `perfbench/README.md`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlpeer::connectivity::gather_connectivity;
use mlpeer::dict::dictionary_from_connectivity;
use mlpeer::live::{decode_message, LinkDelta, LiveInferencer};
use mlpeer::passive::{harvest_passive_sharded, PassiveConfig, PassiveStats};
use mlpeer::pipeline::{run_active_stage, PipelinePrep, TeeSink};
use mlpeer::validate::cross::{validate_harvest, CorpusConfig};
use mlpeer_bench::Scale;
use mlpeer_data::churn::{event_messages, ChurnConfig, ChurnGen};
use mlpeer_data::collector::{build_passive, CollectorConfig};
use mlpeer_data::geo::GeoDb;
use mlpeer_data::irr::{build_irr, IrrConfig};
use mlpeer_data::lg::build_lg_roster;
use mlpeer_data::peeringdb::{PeeringDb, PeeringDbConfig};
use mlpeer_data::traceroute::build_traceroute;
use mlpeer_data::Sim;
use mlpeer_ixp::Ecosystem;
use mlpeer_serve::http::Request;
use mlpeer_serve::{api, ChangeLog, DurableStore, ServerStats, Snapshot, SnapshotStore};
use mlpeer_topo::infer::{infer_relationships, InferConfig};

/// The dataset every benchmark server boots (`mlpeer-serve` defaults).
const DATA_SEED: u64 = 20130501;
const CHURN_SEED: u64 = 20131007;
const EVENTS_PER_TICK: usize = 100;
const PINNED_SMALL: &str = "dd8b62f414b3abbd";
const PINNED_MEDIUM: &str = "f9892918815bb4ad";
const PINNED_MEDIUM_EPOCH20: &str = "9961050947d66645";
/// Reader rate for the snapshot-load probe during ticks (the live
/// workload's read rate).
const LOAD_PROBE_HZ: u64 = 300;
/// Requests replayed against the uncached tick snapshot (each renders).
const RENDER_REPLAY: usize = 3000;

struct Span {
    trace: u32,
    parent: Option<usize>,
    name: &'static str,
    start: u64,
    end: u64,
}

/// In-memory span recorder. Spans nest through `enter`/`exit`; a new
/// trace id starts with `trace`.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn trace(&mut self) -> u32 {
        assert!(self.open.is_empty(), "a trace ends with its root span");
        self.trace += 1;
        self.trace
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            trace: self.trace,
            parent: self.open.last().copied(),
            name,
            start: self.now(),
            end: 0,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = end;
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    fn ms(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start) as f64 / 1e6
    }

    /// Total ms of the spans named `name` in trace `trace`.
    fn sum_ms(&self, trace: u32, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].trace == trace && self.spans[i].name == name)
            .map(|i| self.ms(i))
            .sum()
    }

    /// Sum of the direct children of span `id`, ms.
    fn children_ms(&self, id: usize) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(id))
            .map(|i| self.ms(i))
            .sum()
    }

    /// Per span name: (count, total ns, self ns). Self time is a span's
    /// duration minus its children's (children never overlap here).
    fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"trace\": {}, \"span\": {i}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.trace, s.name, s.start, s.end
            )?;
        }
        for (name, (count, total, own)) in self.self_times() {
            writeln!(
                f,
                "{{\"summary\": \"{name}\", \"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
                total as f64 / 1e6,
                own as f64 / 1e6
            )?;
        }
        f.flush()
    }
}

fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(values.len() - 1);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// The statistic the driver reports as `publish_p50_ms`: the lower
/// decile, over groups of 10 consecutive ticks, of each group's median.
fn grouped_p50(values: &[f64]) -> f64 {
    let mut medians: Vec<f64> = values.chunks_exact(10).map(median).collect();
    quantile(&mut medians, 0.1)
}

struct Args {
    workload: String,
    plan: PathBuf,
    ticks: usize,
    work: PathBuf,
    spans: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k.strip_prefix("--").ok_or(format!("unexpected {k}"))?;
        kv.insert(
            key.to_string(),
            it.next().ok_or(format!("{k} needs a value"))?,
        );
    }
    let get = |k: &str| kv.get(k).cloned().ok_or(format!("--{k} is required"));
    Ok(Args {
        workload: get("workload")?,
        plan: get("plan")?.into(),
        ticks: get("ticks")?
            .parse()
            .map_err(|_| "--ticks must be a count")?,
        work: get("work")?.into(),
        spans: get("spans")?.into(),
    })
}

/// One planned read: its mix class and the request as the router sees
/// it.
struct Planned {
    class: String,
    path: String,
}

fn read_plan(path: &Path) -> Result<Vec<Planned>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|l| {
            let (class, path) = l.split_once('\t').ok_or(format!("bad plan line {l:?}"))?;
            Ok(Planned {
                class: class.to_string(),
                path: path.to_string(),
            })
        })
        .collect()
}

/// Route each request through `api::route` on `snap`, timing every
/// call (one untimed pass first, so the timed pass sees warm caches).
/// Returns (class, ns, status) per request.
fn replay(plan: &[Planned], snap: &Arc<Snapshot>) -> Vec<(&'static str, f64, u16)> {
    let stats = ServerStats::default();
    let changes = ChangeLog::new(64);
    let etag = format!("\"{}\"", snap.etag);
    let requests: Vec<(&'static str, Request)> = plan
        .iter()
        .map(|p| {
            let class = match p.class.as_str() {
                "ixps_304" => "304",
                "cover16" => "miss",
                _ => "hit",
            };
            let mut headers = Vec::new();
            if class == "304" {
                headers.push(("if-none-match".to_string(), etag.clone()));
            }
            let req = Request {
                method: "GET".into(),
                path: p.path.clone(),
                query: String::new(),
                headers,
            };
            (class, req)
        })
        .collect();
    let route = |req: &Request| {
        api::route(req, snap, &stats, &changes, None, None, None, None, None).status
    };
    for (_, req) in &requests {
        std::hint::black_box(route(req));
    }
    requests
        .iter()
        .map(|(class, req)| {
            let t = Instant::now();
            let status = std::hint::black_box(route(req));
            (*class, t.elapsed().as_nanos() as f64, status)
        })
        .collect()
}

fn p50_us(samples: &[(&str, f64, u16)], class: Option<&str>) -> f64 {
    let v: Vec<f64> = samples
        .iter()
        .filter(|(c, _, _)| class.is_none_or(|want| *c == want))
        .map(|(_, ns, _)| ns / 1e3)
        .collect();
    median(&v)
}

fn run(args: &Args, tr: &mut Tracer, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let scale = match args.workload.as_str() {
        "live_medium" => Scale::Medium,
        "read_small" => Scale::Small,
        w => return Err(format!("unknown workload {w}")),
    };
    let pinned = if scale == Scale::Small {
        PINNED_SMALL
    } else {
        PINNED_MEDIUM
    };
    let plan = read_plan(&args.plan)?;
    let _ = std::fs::remove_dir_all(&args.work);
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    let io = |e: std::io::Error| e.to_string();

    // ---- Batch boot: what `mlpeer-serve <scale> --data-dir` runs
    // before it serves (Snapshot::of_pipeline, then the boot append),
    // one span per stage.
    let boot_trace = tr.trace();
    let boot = tr.enter("boot");
    let eco = tr.time("ixp.ecosystem.generate", || {
        Ecosystem::generate(scale.config(DATA_SEED))
    });
    let sim = tr.time("data.sim.new", || Sim::new(&eco));
    let registries = tr.enter("data.registries.build");
    let irr = build_irr(
        &eco,
        &IrrConfig {
            seed: DATA_SEED ^ 0x11,
            ..IrrConfig::default()
        },
    );
    let lgs = build_lg_roster(&sim, DATA_SEED ^ 0x22, 70, 0.2);
    tr.exit(registries);
    let (conn, dict) = tr.time("core.connectivity.gather", || {
        let conn = gather_connectivity(&sim, &lgs, &irr);
        let dict = dictionary_from_connectivity(&eco, &conn);
        (conn, dict)
    });
    let passive = tr.time("data.collector.build", || {
        build_passive(&sim, &CollectorConfig::paper_like(DATA_SEED ^ 0x33))
    });
    let rels = tr.time("topo.infer.relationships", || {
        let paths: Vec<Vec<mlpeer_bgp::Asn>> = passive
            .collectors
            .iter()
            .flat_map(|(_, a)| a.rib.iter().map(|e| e.attrs.as_path.dedup_prepends()))
            .collect();
        infer_relationships(&paths, &InferConfig::default())
    });
    let rib_entries: usize = passive.collectors.iter().map(|(_, a)| a.rib.len()).sum();
    let prep = PipelinePrep {
        sim,
        irr,
        lgs,
        conn,
        dict,
        passive,
        rels,
    };
    let (mut sink, passive_stats) = tr.time("core.passive.harvest", || {
        harvest_passive_sharded::<TeeSink>(
            &prep.passive,
            &prep.dict,
            &prep.conn,
            &prep.rels,
            &PassiveConfig::default(),
        )
    });
    tr.time("core.active.stage", || {
        run_active_stage(&eco, &prep, &mut sink)
    });
    let (observations, inferencer) = sink;
    let links = tr.time("core.infer.finalize", || inferencer.finalize(&prep.conn));
    tr.time("data.traceroute.build", || {
        std::hint::black_box(build_traceroute(&prep.sim, DATA_SEED ^ 0x44, 60))
    });
    let registries = tr.enter("data.registries.build");
    std::hint::black_box(PeeringDb::build(
        &eco,
        &PeeringDbConfig {
            seed: DATA_SEED ^ 0x55,
            ..Default::default()
        },
    ));
    std::hint::black_box(GeoDb::build(&eco));
    tr.exit(registries);
    let validation = tr.time("core.validate.harvest", || {
        validate_harvest(
            &eco,
            &links,
            &observations,
            &CorpusConfig::seeded(DATA_SEED),
        )
    });
    let names = Snapshot::names_of(&eco);
    let snapshot = tr.time("serve.snapshot.build_validated", || {
        Snapshot::build_validated(
            scale.word(),
            DATA_SEED,
            names.clone(),
            links.clone(),
            &observations,
            passive_stats.clone(),
            validation.clone(),
        )
    });
    let log_dir = args.work.join("log");
    let durable = tr.time("store.log.append", || -> std::io::Result<DurableStore> {
        let d = DurableStore::open(&log_dir)?;
        d.append_epoch(&snapshot, None)?;
        d.sync()?;
        Ok(d)
    });
    let durable = durable.map_err(io)?;
    tr.exit(boot);
    if snapshot.etag != pinned {
        return Err(format!("boot etag {} != pinned {pinned}", snapshot.etag));
    }
    out.insert("batch_boot_sum_ms", tr.children_ms(boot));
    out.insert("data.collector.rib_entries", rib_entries as f64);
    out.insert("core.infer.observations", observations.len() as f64);
    out.insert("core.infer.links", links.unique_links().len() as f64);
    out.insert("serve.cache.bodies", snapshot.cache.body_count() as f64);
    out.insert("serve.cache.bytes", snapshot.cache.byte_len() as f64);
    out.insert("store.log.snapshot_bytes", durable.stats().bytes as f64);
    for (metric, span) in [
        ("ixp.ecosystem.generate_ms", "ixp.ecosystem.generate"),
        ("data.sim.new_ms", "data.sim.new"),
        ("data.registries.build_ms", "data.registries.build"),
        ("core.connectivity.gather_ms", "core.connectivity.gather"),
        ("data.collector.build_ms", "data.collector.build"),
        ("topo.infer.relationships_ms", "topo.infer.relationships"),
        ("data.traceroute.build_ms", "data.traceroute.build"),
        ("core.passive.harvest_ms", "core.passive.harvest"),
        ("core.active.stage_ms", "core.active.stage"),
        ("core.infer.finalize_ms", "core.infer.finalize"),
        ("core.validate.harvest_ms", "core.validate.harvest"),
        ("store.log.append_ms", "store.log.append"),
    ] {
        out.insert(metric, tr.sum_ms(boot_trace, span));
    }
    let validated_ms = tr.sum_ms(boot_trace, "serve.snapshot.build_validated");
    drop(durable);
    drop(prep);

    // ---- The same build without the body cache: the cache's share is
    // the difference.
    let probe = tr.trace();
    tr.time("serve.snapshot.build", || {
        std::hint::black_box(Snapshot::build_uncached_validated(
            scale.word(),
            DATA_SEED,
            names,
            links,
            &observations,
            passive_stats,
            validation,
        ))
    });
    let uncached_ms = tr.sum_ms(probe, "serve.snapshot.build");
    out.insert("serve.snapshot.build_ms", uncached_ms);
    out.insert("serve.cache.build_ms", validated_ms - uncached_ms);
    drop(observations);
    drop(eco);

    // ---- Restart: what a batch restart on the same data dir runs
    // before it serves.
    let restart_trace = tr.trace();
    let restart = tr.enter("restart");
    let reopened = tr
        .time("store.log.open", || DurableStore::open(&log_dir))
        .map_err(io)?;
    let revived = tr.time("store.log.revive", || reopened.latest());
    tr.exit(restart);
    let revived = Arc::new(revived.ok_or("the log revived nothing")?);
    if revived.etag != snapshot.etag {
        return Err(format!(
            "revived etag {} != boot {}",
            revived.etag, snapshot.etag
        ));
    }
    out.insert(
        "store.log.open_ms",
        tr.sum_ms(restart_trace, "store.log.open"),
    );
    out.insert(
        "store.log.revive_ms",
        tr.sum_ms(restart_trace, "store.log.revive"),
    );
    drop(reopened);
    drop(snapshot);

    // ---- Live bootstrap: what `mlpeer-serve <scale> --live --data-dir`
    // runs before it serves (live::bootstrap, then the boot append).
    tr.trace();
    let live_boot = tr.enter("live.boot");
    let mut eco = tr.time("live.ecosystem.generate", || {
        Ecosystem::generate(scale.config(DATA_SEED))
    });
    let mut inferencer = tr.time("core.live.bootstrap", || {
        LiveInferencer::from_ecosystem(&eco)
    });
    let observations = tr.time("core.live.bootstrap_observations", || {
        inferencer.observations()
    });
    let validation = tr.time("core.validate.bootstrap", || {
        validate_harvest(
            &eco,
            inferencer.current(),
            &observations,
            &CorpusConfig::seeded(DATA_SEED),
        )
    });
    let names = Snapshot::names_of(&eco);
    let initial = tr.time("serve.snapshot.bootstrap", || {
        Snapshot::build_validated(
            scale.word(),
            DATA_SEED,
            names.clone(),
            inferencer.current().clone(),
            &observations,
            PassiveStats::default(),
            validation,
        )
    });
    let store = SnapshotStore::with_change_capacity(initial, 64);
    let live_log = args.work.join("live-log");
    tr.time("store.log.bootstrap_append", || -> std::io::Result<()> {
        store.attach_durable(Arc::new(DurableStore::open(&live_log)?))
    })
    .map_err(io)?;
    tr.exit(live_boot);
    out.insert("live_boot_sum_ms", tr.children_ms(live_boot));
    drop(observations);
    let log_bytes_before = store.durable().map_or(0, |d| d.stats().bytes);

    // ---- Reads: the workload's request sequence through the router on
    // the cached snapshot its keys came from: the revived batch epoch,
    // or the live bootstrap epoch at live_medium.
    let cached = if args.workload == "live_medium" {
        store.load()
    } else {
        revived
    };
    let routed = replay(&plan, &cached);
    for (i, (class, _, status)) in routed.iter().enumerate() {
        let want = if *class == "304" { 304 } else { 200 };
        if *status != want {
            return Err(format!("{} answered {status}, want {want}", plan[i].path));
        }
    }
    out.insert("serve.api.route_hit_us", p50_us(&routed, Some("hit")));
    out.insert("serve.api.route_miss_us", p50_us(&routed, Some("miss")));
    out.insert("serve.api.route_304_us", p50_us(&routed, Some("304")));
    out.insert("route_seq_p50_us", p50_us(&routed, None));
    drop(cached);

    // ---- Live ticks: the refresher's tick body, span per stage, until
    // `ticks` epochs are published; a reader loads the snapshot at the
    // live read rate meanwhile.
    let scratch = DurableStore::open(args.work.join("scratch-log")).map_err(io)?;
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut waits = Vec::new();
            let period = Duration::from_nanos(1_000_000_000 / LOAD_PROBE_HZ);
            while !stop.load(Ordering::Relaxed) {
                let t = Instant::now();
                std::hint::black_box(store.load());
                waits.push(t.elapsed().as_nanos() as f64);
                std::thread::sleep(period);
            }
            waits
        })
    };
    let mut churn = ChurnGen::new(
        &eco,
        ChurnConfig {
            seed: CHURN_SEED,
            ..ChurnConfig::default()
        },
    );
    let mut clock: u64 = 0;
    let (mut ticks, mut published, mut moved) = (0usize, 0usize, 0usize);
    let mut per_tick: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    while published < args.ticks && ticks < 3 * args.ticks {
        ticks += 1;
        let tick_trace = tr.trace();
        let tick = tr.enter("live.tick");
        let version_before = inferencer.state_version();
        let delta = tr.time("core.live.apply", || {
            let mut delta = LinkDelta::default();
            for _ in 0..EVENTS_PER_TICK {
                let event = churn.next_event(&eco);
                eco.apply_churn(&event);
                let ixp = event.ixp();
                let scheme = &eco.ixp(ixp).scheme;
                for msg in event_messages(&eco, &event, clock) {
                    for live_event in decode_message(ixp, scheme, &msg) {
                        delta.merge(inferencer.apply(&live_event));
                    }
                }
                clock += 1;
            }
            delta
        });
        per_tick
            .entry("core.live.apply_ms")
            .or_default()
            .push(tr.sum_ms(tick_trace, "core.live.apply"));
        if delta.is_empty() && inferencer.state_version() == version_before {
            tr.exit(tick);
            continue; // nothing served changed: no publish
        }
        let (observations, current) = tr.time("core.live.observations", || {
            (inferencer.observations(), inferencer.current().clone())
        });
        let validation = tr.time("core.validate.tick", || {
            validate_harvest(
                &eco,
                inferencer.current(),
                &observations,
                &CorpusConfig::seeded(DATA_SEED),
            )
        });
        let snapshot = tr.time("serve.snapshot.tick", || {
            Snapshot::build_uncached_validated(
                scale.word(),
                DATA_SEED,
                names.clone(),
                current,
                &observations,
                PassiveStats::default(),
                validation,
            )
        });
        moved += delta.added.len() + delta.removed.len();
        let kept = delta.clone();
        let epoch = tr.time("serve.store.publish", || {
            store.publish_with_delta(snapshot, delta)
        });
        tr.exit(tick);
        published += 1;
        per_tick
            .entry("tick_span_sum_ms")
            .or_default()
            .push(tr.children_ms(tick));
        for (metric, span) in [
            ("core.live.observations_ms", "core.live.observations"),
            ("core.validate.tick_ms", "core.validate.tick"),
            ("serve.snapshot.tick_ms", "serve.snapshot.tick"),
            ("serve.store.publish_ms", "serve.store.publish"),
        ] {
            per_tick
                .entry(metric)
                .or_default()
                .push(tr.sum_ms(tick_trace, span));
        }
        let current = store.load();
        if epoch == 20 && scale == Scale::Medium && current.etag != PINNED_MEDIUM_EPOCH20 {
            return Err(format!("epoch 20 etag {} != pinned", current.etag));
        }
        // The durable append alone, on a scratch log.
        let append_trace = tr.trace();
        tr.time("store.log.append_epoch", || {
            scratch.append_epoch(&current, Some(&kept))
        })
        .map_err(io)?;
        per_tick
            .entry("store.log.append_epoch_ms")
            .or_default()
            .push(tr.sum_ms(append_trace, "store.log.append_epoch"));
    }
    stop.store(true, Ordering::Relaxed);
    let mut waits = reader.join().map_err(|_| "snapshot reader panicked")?;
    if published < args.ticks {
        return Err(format!("only {published} of {ticks} ticks published"));
    }
    for (metric, samples) in &per_tick {
        out.insert(metric, median(samples));
    }
    out.insert(
        "tick_span_sum_ms",
        grouped_p50(&per_tick["tick_span_sum_ms"]),
    );
    out.insert(
        "serve.store.load_wait_p99_us",
        quantile(&mut waits, 0.99) / 1e3,
    );
    out.insert("serve.live.publish_ratio", published as f64 / ticks as f64);
    out.insert(
        "core.live.links_moved_per_epoch",
        moved as f64 / published as f64,
    );
    let log_bytes = store.durable().map_or(0, |d| d.stats().bytes);
    out.insert(
        "store.log.bytes_per_epoch",
        log_bytes.saturating_sub(log_bytes_before) as f64 / published as f64,
    );

    // ---- Reads on the last tick snapshot, which has no body cache:
    // every answer renders.
    let tick_snapshot = store.load();
    let rendered = replay(&plan[..plan.len().min(RENDER_REPLAY)], &tick_snapshot);
    for (i, (class, _, status)) in rendered.iter().enumerate() {
        let ok = match *class {
            "304" => *status == 304,
            _ => *status == 200 || (*status == 404 && plan[i].class == "member"),
        };
        if !ok {
            return Err(format!(
                "{} answered {status} on the tick snapshot",
                plan[i].path
            ));
        }
    }
    out.insert("serve.api.render_us", p50_us(&rendered, None));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new();
    let mut out = BTreeMap::new();
    let result = run(&args, &mut tr, &mut out);
    if let Err(e) = tr.write(&args.spans) {
        eprintln!(
            "perfbench-traced: cannot write {}: {e}",
            args.spans.display()
        );
    }
    eprintln!("# self time per span (ms), {}:", args.workload);
    for (name, (count, total, own)) in tr.self_times() {
        eprintln!(
            "#   {name:<34} n={count:<4} total {:>10.3}  self {:>10.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = result {
        eprintln!("perfbench-traced: {e}");
        std::process::exit(1);
    }
    let fields: Vec<String> = out.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{{}}}", fields.join(", "));
}
