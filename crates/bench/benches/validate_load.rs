//! IRR/RPKI cross-validation throughput, recorded to
//! `BENCH_validate.json` at the repo root with a scale axis:
//!
//! 1. **corpus parse** — [`parse_corpus`] over the derived RPSL/ROA
//!    text: registry objects parsed per second. The parser is the
//!    untrusted-input edge of the validation subsystem, so its
//!    throughput bounds how fast a refresh can re-score the fabric.
//! 2. **link scoring** — [`score_links`] over the parsed corpus and
//!    the inferred link set: links scored per second.
//! 3. **end-to-end** — [`validate_harvest`] (derive + parse + scan +
//!    score), the exact pass `Snapshot::of_pipeline` pays per publish.
//! 4. **live ticks** — 12 ticks of 100 churn events, as `mlpeer-serve
//!    --live` runs them: per tick, [`CorpusFold::derive`] over the
//!    churned ecosystem plus its report over the inferencer's
//!    announcement set, against [`validate_harvest`]
//!    over the same ecosystem. The two reports must be equal after
//!    every tick. Ticks mutate the ecosystem, so each is timed once with
//!    a wall clock, and the medians are recorded.
//!
//! `MLPEER_BENCH_SMOKE=1` switches to `Scale::Small` only, asserts the
//! throughput floors, and skips the JSON write — the CI bench-smoke job
//! runs it that way on every PR. The floors are deliberately loose
//! (shared-core CI noise swings ±20%): they catch an accidental
//! quadratic blowup, not a few-percent regression.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use mlpeer::infer::{LinkInferencer, MlpLinkSet, Observation};
use mlpeer::live::{decode_message, LiveInferencer};
use mlpeer::sink::ObservationSink;
use mlpeer::validate::cross::{
    derive_corpus, parse_corpus, score_links, validate_harvest, CorpusConfig, CorpusFold,
};
use mlpeer_bench::Scale;
use mlpeer_data::churn::{event_messages, ChurnConfig, ChurnGen};
use mlpeer_ixp::Ecosystem;

/// Observations-per-second floor for the corpus parser in smoke mode.
const PARSE_FLOOR_OBJS_PER_SEC: f64 = 50_000.0;
/// Links-per-second floor for the scoring pass in smoke mode.
const SCORE_FLOOR_LINKS_PER_SEC: f64 = 10_000.0;
/// Smoke-mode ceiling on a live tick's validation cost, as a share of
/// `validate_harvest` over the same tick.
const TICK_CEILING_SHARE: f64 = 0.5;
/// Ticks replayed per scale, and churn events per tick (the serving
/// binary's defaults).
const TICKS: usize = 12;
const EVENTS_PER_TICK: usize = 100;
/// The serving binary's default churn seed.
const CHURN_SEED: u64 = 20131007;

/// Run one measurement three times and keep the fastest estimate
/// (same jitter-squeezing idiom as `harvest_hot`).
fn bench_min(c: &mut Criterion, group_name: &str, id: &str, mut f: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut group = c.benchmark_group(group_name);
        group.sample_size(10);
        group.bench_function(id, |b| b.iter(|| std::hint::black_box(f())));
        group.finish();
        best = best.min(c.last_estimate_ns().expect("bench ran"));
    }
    best
}

fn harvest(eco: &Ecosystem) -> (MlpLinkSet, Vec<Observation>) {
    let (conn, observations) = mlpeer::live::full_harvest(eco);
    let mut inferencer = LinkInferencer::default();
    for o in &observations {
        inferencer.push(o.clone());
    }
    (inferencer.finalize(&conn), observations)
}

fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// Replay [`TICKS`] live ticks and time the derived fold plus its
/// report against `validate_harvest` on each. Returns the median ms per
/// tick of both.
fn bench_ticks(scale: Scale, seed: u64) -> (f64, f64) {
    let mut eco = Ecosystem::generate(scale.config(seed));
    let cfg = CorpusConfig::seeded(seed);
    let mut li = LiveInferencer::from_ecosystem(&eco);
    let mut churn = ChurnGen::new(
        &eco,
        ChurnConfig {
            seed: CHURN_SEED,
            ..ChurnConfig::default()
        },
    );
    let (mut live, mut full) = (Vec::new(), Vec::new());
    let mut clock = 0u64;
    for tick in 0..TICKS {
        for _ in 0..EVENTS_PER_TICK {
            let event = churn.next_event(&eco);
            eco.apply_churn(&event);
            let ixp = event.ixp();
            let scheme = &eco.ixp(ixp).scheme;
            for msg in event_messages(&eco, &event, clock) {
                for live_event in decode_message(ixp, scheme, &msg) {
                    li.apply(&live_event);
                }
            }
            clock += 1;
        }
        let observations = li.observations();
        let announcements = li.announcements();
        let t = Instant::now();
        let report = CorpusFold::derive(&eco, &cfg).report(li.current(), &announcements);
        live.push(t.elapsed());
        let t = Instant::now();
        let expected = validate_harvest(&eco, li.current(), &observations, &cfg);
        full.push(t.elapsed());
        assert_eq!(
            report,
            expected,
            "{} tick {tick}: the derived fold must report what validate_harvest does",
            scale.word()
        );
    }
    (median_ms(live), median_ms(full))
}

fn bench_scale(c: &mut Criterion, scale: Scale, seed: u64, smoke: bool) -> serde_json::Value {
    eprintln!("# building {} validation inputs…", scale.word());
    let eco = Ecosystem::generate(scale.config(seed));
    let (links, observations) = harvest(&eco);
    let cfg = CorpusConfig::seeded(seed);
    let text = derive_corpus(&eco, &cfg);
    let corpus = parse_corpus(&text);
    assert!(
        !corpus.stats.degraded(),
        "the derived corpus must parse clean before timing it"
    );
    let announcements = mlpeer::index::scan::announcements(&links, &observations);
    let links_total: u64 = links.per_ixp.values().map(|s| s.len() as u64).sum();
    let group_name = format!("validate_load_{}", scale.word());
    eprintln!(
        "# {}: {} corpus bytes, {} objects, {} roas, {} links",
        scale.word(),
        text.len(),
        corpus.stats.objects,
        corpus.stats.roas,
        links_total,
    );

    // ---- 1. corpus parse. ----
    let parse_ns = bench_min(c, &group_name, "parse_corpus", || {
        parse_corpus(&text).stats.objects as usize
    });
    let objects_per_sec = corpus.stats.objects as f64 / (parse_ns / 1e9);

    // ---- 2. link scoring. ----
    let score_ns = bench_min(c, &group_name, "score_links", || {
        score_links(&corpus, &links, &announcements)
            .0
            .totals
            .total() as usize
    });
    let links_per_sec = links_total as f64 / (score_ns / 1e9);

    // ---- 3. end-to-end (what a publish pays). ----
    let e2e_ns = bench_min(c, &group_name, "validate_harvest", || {
        validate_harvest(&eco, &links, &observations, &cfg)
            .totals
            .total() as usize
    });

    // ---- 4. live ticks. ----
    let (tick_live_ms, tick_full_ms) = bench_ticks(scale, seed);

    if smoke {
        assert!(
            tick_live_ms <= TICK_CEILING_SHARE * tick_full_ms,
            "acceptance: a live tick's validation must cost ≤{TICK_CEILING_SHARE}× \
             validate_harvest at {} (measured {tick_live_ms:.2} vs {tick_full_ms:.2} ms)",
            scale.word()
        );
        assert!(
            objects_per_sec >= PARSE_FLOOR_OBJS_PER_SEC,
            "acceptance: corpus parse must sustain ≥{PARSE_FLOOR_OBJS_PER_SEC} \
             objects/s at {} (measured {objects_per_sec:.0})",
            scale.word()
        );
        assert!(
            links_per_sec >= SCORE_FLOOR_LINKS_PER_SEC,
            "acceptance: link scoring must sustain ≥{SCORE_FLOOR_LINKS_PER_SEC} \
             links/s at {} (measured {links_per_sec:.0})",
            scale.word()
        );
    }

    println!(
        "{}: parse {:.2} ms ({objects_per_sec:.0} objects/s); \
         score {:.2} ms ({links_per_sec:.0} links/s); \
         end-to-end {:.2} ms; live tick {tick_live_ms:.2} ms vs \
         validate_harvest {tick_full_ms:.2} ms",
        scale.word(),
        parse_ns / 1e6,
        score_ns / 1e6,
        e2e_ns / 1e6,
    );

    serde_json::json!({
        "scale": scale.word(),
        "corpus_bytes": text.len(),
        "objects": corpus.stats.objects,
        "roas": corpus.stats.roas,
        "links": links_total,
        "parse": serde_json::json!({
            "ms": parse_ns / 1e6,
            "objects_per_sec": objects_per_sec,
        }),
        "score": serde_json::json!({
            "ms": score_ns / 1e6,
            "links_per_sec": links_per_sec,
        }),
        "end_to_end_ms": e2e_ns / 1e6,
        "tick": serde_json::json!({
            "ticks": TICKS,
            "events_per_tick": EVENTS_PER_TICK,
            "churn_seed": CHURN_SEED,
            "derived_fold_ms": tick_live_ms,
            "validate_harvest_ms": tick_full_ms,
            "share": tick_live_ms / tick_full_ms,
        }),
    })
}

fn bench_validate_load(c: &mut Criterion) {
    let seed = 20130501u64;
    let smoke = std::env::var("MLPEER_BENCH_SMOKE").is_ok();
    let scales: &[Scale] = if smoke {
        &[Scale::Small]
    } else {
        &[Scale::Small, Scale::Medium, Scale::Large]
    };
    let mut results = Vec::new();
    for &scale in scales {
        results.push(bench_scale(c, scale, seed, smoke));
    }
    if smoke {
        println!("smoke mode: floors asserted, BENCH_validate.json left untouched");
        return;
    }
    let report = serde_json::json!({
        "bench": "IRR/RPKI cross-validation: corpus parse, link scoring, end-to-end \
                  validate_harvest, live ticks scored against the derived fold",
        "seed": seed,
        "cpus": std::thread::available_parallelism().map_or(1, |n| n.get()),
        // Every timed pass runs on one thread.
        "threads": 1,
        "scales": results,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_validate.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap())
        .expect("write BENCH_validate.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_validate_load);
criterion_main!(benches);
