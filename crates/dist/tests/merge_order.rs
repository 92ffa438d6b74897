//! Order-insensitivity properties of the distributed fold: arbitrary
//! partition shapes (including empty shards) and arbitrary absorb
//! orders are byte-identical to serial `harvest_passive`.

use std::time::Duration;

use mlpeer::infer::{InferState, LinkInferencer, Observation};
use mlpeer::passive::{
    harvest_passive, harvest_passive_units, passive_work_units, PassiveConfig, PassiveStats,
};
use mlpeer::pipeline::{prepare, TeeSink};
use mlpeer_dist::{eco_for, harvest_passive_dist, DistConfig, DistStats};

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
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
}

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The worker binary of this build — spawning real processes even from
/// the crate's own test suite.
fn worker_cmd() -> (std::path::PathBuf, Vec<String>) {
    (
        std::path::PathBuf::from(env!("CARGO_BIN_EXE_mlpeer-dist-worker")),
        Vec::new(),
    )
}

/// Arbitrary contiguous partitions (empty shards allowed) harvested
/// independently, states absorbed in arbitrary orders: finalize and
/// stats always equal serial; observation concat in shard order equals
/// the serial stream.
#[test]
fn passive_fold_is_partition_and_order_insensitive() {
    for seed in [2024u64, 4242] {
        let eco = eco_for("tiny", seed).unwrap();
        let prep = prepare(&eco, seed);
        let cfg = PassiveConfig::default();

        let mut serial: TeeSink = Default::default();
        let serial_stats = harvest_passive(
            &prep.passive,
            &prep.dict,
            &prep.conn,
            &prep.rels,
            &cfg,
            &mut serial,
        );
        let serial_links = serial.1.finalize(&prep.conn);

        let units = passive_work_units(&prep.passive, 64);
        let mut rng = Rng(seed | 1);
        for _ in 0..6 {
            // Random contiguous cut points, some shards empty.
            let shard_count = 1 + rng.below(5) as usize;
            let mut cuts: Vec<usize> = (0..shard_count - 1)
                .map(|_| rng.below(units.len() as u64 + 1) as usize)
                .collect();
            cuts.sort_unstable();
            cuts.insert(0, 0);
            cuts.push(units.len());

            // Harvest each shard independently.
            let mut shards: Vec<(usize, Vec<Observation>, InferState, PassiveStats)> = Vec::new();
            for (i, pair) in cuts.windows(2).enumerate() {
                let mut sink: TeeSink = Default::default();
                let stats = harvest_passive_units(
                    &prep.passive,
                    &prep.dict,
                    &prep.conn,
                    &prep.rels,
                    &cfg,
                    &units[pair[0]..pair[1]],
                    &mut sink,
                );
                shards.push((i, sink.0, sink.1.export_state(), stats));
            }

            // Observations concatenate in *shard* order…
            let mut observations = Vec::new();
            for (_, obs, _, _) in &shards {
                observations.extend(obs.iter().cloned());
            }
            assert_eq!(
                observations, serial.0,
                "shard-order concat == serial stream"
            );

            // …while state absorption tolerates *any* completion order.
            shuffle(&mut rng, &mut shards);
            let mut folded = LinkInferencer::default();
            let mut folded_stats = PassiveStats::default();
            for (_, _, state, stats) in shards {
                folded.absorb_state(state);
                folded_stats.merge(&stats);
            }
            assert_eq!(folded_stats, serial_stats);
            assert_eq!(folded.finalize(&prep.conn), serial_links);
        }
    }
}

/// The whole coordinator path against real worker processes: spawned,
/// framed, folded — equal to serial, with zero degradations.
#[test]
fn dist_harvest_with_real_workers_matches_serial() {
    let seed = 2024u64;
    let eco = eco_for("tiny", seed).unwrap();
    let prep = prepare(&eco, seed);

    let mut serial: TeeSink = Default::default();
    let serial_stats = harvest_passive(
        &prep.passive,
        &prep.dict,
        &prep.conn,
        &prep.rels,
        &PassiveConfig::default(),
        &mut serial,
    );
    let serial_links = serial.1.finalize(&prep.conn);

    let cfg = DistConfig {
        workers: 3,
        timeout: Duration::from_secs(120),
        max_retries: 2,
        worker_cmd: Some(worker_cmd()),
        faults: Vec::new(),
    };
    let stats = DistStats::new(3);
    let (sink, dist_stats) = harvest_passive_dist("tiny", seed, &prep, &cfg, &stats);

    assert_eq!(dist_stats, serial_stats);
    assert_eq!(sink.0, serial.0, "distributed observation stream == serial");
    assert_eq!(sink.1.finalize(&prep.conn), serial_links);

    let snap = stats.snapshot();
    assert!(snap.spawned >= 1, "real workers must have run: {snap:?}");
    assert_eq!(snap.degraded, 0, "no degradation on the happy path");
    assert_eq!(snap.retried, 0);
    assert!(snap.frames >= 2 && snap.bytes > 0);
}

/// `workers: 1` short-circuits in-process — no processes, no frames —
/// and still equals serial (the bench's ≥ 1.0x floor path).
#[test]
fn single_worker_config_is_in_process_and_serial_equal() {
    let seed = 7u64;
    let eco = eco_for("tiny", seed).unwrap();
    let prep = prepare(&eco, seed);

    let mut serial: TeeSink = Default::default();
    harvest_passive(
        &prep.passive,
        &prep.dict,
        &prep.conn,
        &prep.rels,
        &PassiveConfig::default(),
        &mut serial,
    );

    let cfg = DistConfig {
        workers: 1,
        worker_cmd: None,
        ..DistConfig::new(1)
    };
    let stats = DistStats::new(1);
    let (sink, _) = harvest_passive_dist("tiny", seed, &prep, &cfg, &stats);
    assert_eq!(sink.0, serial.0);
    assert_eq!(sink.1.finalize(&prep.conn), serial.1.finalize(&prep.conn));
    let snap = stats.snapshot();
    assert_eq!((snap.spawned, snap.frames), (0, 0));
}
