//! The coordinator half of the passive harvest: partition the work
//! units, spawn one worker process per shard, fold the replies in
//! shard order — byte-identically to serial `harvest_passive` — while
//! surviving crashed, stalled, corrupt, and duplicate workers.
//!
//! ## Fault model and retry invariants
//!
//! - A worker that exits without a valid result frame (crash, torn
//!   frame, checksum mismatch, decode failure) is **retried** up to
//!   [`DistConfig::max_retries`] times; each attempt is a fresh
//!   process.
//! - A worker that exceeds [`DistConfig::timeout`] is killed and
//!   counted `timed_out`, then retried like a crash.
//! - Extra result frames after the first valid one are **deduped** —
//!   a result is folded exactly once per shard regardless of delivery
//!   count.
//! - When retries are exhausted — or no worker binary can be resolved
//!   at all — the shard **degrades** to in-process execution, which is
//!   the serial code path itself; degradation can therefore never
//!   change the answer, only the speedup.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use mlpeer::infer::{InferState, LinkInferencer, Observation};
use mlpeer::passive::{
    harvest_passive_units, passive_work_units, work_unit_weight, PassiveConfig, PassiveStats,
    WorkUnit,
};
use mlpeer::pipeline::{harvest_sharded, PipelinePrep, TeeSink};

use crate::stats::DistStats;
use crate::wire::{read_frame, write_frame, Fault, FrameKind, PassiveJob, PassiveResult};

/// How a coordinator runs its workers.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Worker process count. `<= 1` short-circuits to the in-process
    /// sharded harvest (no processes, no frames).
    pub workers: usize,
    /// Per-attempt deadline; a worker past it is killed and retried.
    pub timeout: Duration,
    /// Retries per shard before degrading to in-process execution.
    pub max_retries: u32,
    /// The worker command (`program`, `args…`), or `None` to degrade
    /// every shard (spawning is known-impossible).
    pub worker_cmd: Option<(PathBuf, Vec<String>)>,
    /// Injected faults: `(shard, attempt, fault)` — attempt `0` is the
    /// first try. Tests only; empty in production.
    pub faults: Vec<(usize, u32, Fault)>,
}

impl DistConfig {
    /// A production config for `workers` processes, resolving the
    /// worker binary via [`default_worker_cmd`].
    pub fn new(workers: usize) -> DistConfig {
        DistConfig {
            workers,
            timeout: Duration::from_secs(60),
            max_retries: 2,
            worker_cmd: default_worker_cmd(),
            faults: Vec::new(),
        }
    }

    fn fault_for(&self, shard: usize, attempt: u32) -> Fault {
        self.faults
            .iter()
            .find(|(s, a, _)| *s == shard && *a == attempt)
            .map(|(_, _, f)| *f)
            .unwrap_or(Fault::None)
    }
}

/// Resolve the worker command: the `MLPEER_DIST_WORKER_BIN` env var if
/// set, else a `mlpeer-dist-worker` binary sitting next to the current
/// executable (or one directory up, for test binaries under
/// `target/*/deps/`). `None` — and with it graceful degradation — when
/// neither resolves. Deliberately never falls back to re-executing the
/// current binary: only `mlpeer-serve` opts into that, because only it
/// handles a `--dist-worker` flag.
pub fn default_worker_cmd() -> Option<(PathBuf, Vec<String>)> {
    if let Ok(path) = std::env::var("MLPEER_DIST_WORKER_BIN") {
        return Some((PathBuf::from(path), Vec::new()));
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    for candidate in [dir.join("mlpeer-dist-worker"), {
        let mut up = dir.to_path_buf();
        up.pop();
        up.join("mlpeer-dist-worker")
    }] {
        if candidate.is_file() {
            return Some((candidate, Vec::new()));
        }
    }
    None
}

/// Split `units` into `shards` contiguous, weight-balanced groups.
/// Contiguity is what makes the fold order-preserving: concatenating
/// shard observation slices in shard order reproduces the serial
/// observation stream. Trailing shards may be empty.
pub fn partition_units(weights: &[usize], units: &[WorkUnit], shards: usize) -> Vec<Vec<WorkUnit>> {
    let shards = shards.max(1);
    let total: usize = weights.iter().sum();
    let mut out: Vec<Vec<WorkUnit>> = vec![Vec::new(); shards];
    let mut acc = 0usize;
    for (unit, &weight) in units.iter().zip(weights) {
        // The shard whose weight band this unit's midpoint falls in.
        let mid = acc + weight / 2;
        let shard = (mid * shards)
            .checked_div(total)
            .map_or(0, |s| s.min(shards - 1));
        out[shard].push(*unit);
        acc += weight;
    }
    out
}

/// One shard's folded pieces, in whatever way they were obtained.
struct ShardOutcome {
    observations: Vec<Observation>,
    state: InferState,
    stats: PassiveStats,
}

/// Spawn one worker, ship it `job`, and wait for a single valid
/// result within `timeout`.
fn try_worker(
    cmd: &(PathBuf, Vec<String>),
    job: &PassiveJob,
    timeout: Duration,
    stats: &DistStats,
) -> Option<PassiveResult> {
    use std::sync::atomic::Ordering;

    failpoints::failpoint!("dist::worker_spawn", |_msg| None);
    let mut child = Command::new(&cmd.0)
        .args(&cmd.1)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    stats.spawned.fetch_add(1, Ordering::Relaxed);
    let mut stdin = child.stdin.take()?;
    let mut stdout = child.stdout.take()?;

    let sent = write_frame(&mut stdin, FrameKind::PassiveJob, 0, &job.encode()).ok();
    if let Some(n) = sent {
        stats.record_frame(n);
    }
    // Close the worker's stdin: after replying it sees EOF and exits,
    // which is what lets the drain loop below terminate — and what
    // makes duplicate detection deterministic (we read until the
    // worker is *gone*, not until the first frame).
    let _ = stdin.flush();
    drop(stdin);
    if sent.is_none() {
        let _ = child.kill();
        let _ = child.wait();
        return None;
    }

    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        loop {
            match read_frame(&mut stdout) {
                Ok(Some(frame)) => {
                    if tx.send(Ok(frame)).is_err() {
                        return;
                    }
                }
                Ok(None) => return, // clean EOF
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        }
    });

    let mut accepted: Option<PassiveResult> = None;
    let outcome = loop {
        match rx.recv_timeout(timeout) {
            Ok(Ok(frame)) => {
                if frame.kind != FrameKind::PassiveResult || frame.seq != 0 {
                    break None; // protocol violation: retry the shard
                }
                stats.record_frame(frame.payload.len() + 22); // magic+header+checksum overhead
                match PassiveResult::decode(&frame.payload) {
                    Ok(result) => {
                        if accepted.is_some() {
                            stats.deduped.fetch_add(1, Ordering::Relaxed);
                        } else {
                            accepted = Some(result);
                        }
                        // Keep draining: the worker exits on stdin EOF,
                        // so the channel disconnects shortly.
                    }
                    Err(_) => break None,
                }
            }
            Ok(Err(_)) => break None, // torn/corrupt frame
            Err(mpsc::RecvTimeoutError::Disconnected) => break accepted,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if accepted.is_some() {
                    // Result already in hand; the worker is just slow
                    // to exit. Don't punish the shard for that.
                    break accepted;
                }
                stats.timed_out.fetch_add(1, Ordering::Relaxed);
                break None;
            }
        }
    };
    let _ = child.kill();
    let _ = child.wait();
    let _ = reader.join();
    outcome
}

/// The Sync subset of a [`PipelinePrep`] the shard threads read
/// (`Sim` itself holds `RefCell` caches and stays on the caller's
/// thread).
struct HarvestInputs<'p> {
    passive: &'p mlpeer_data::collector::PassiveDataset,
    dict: &'p mlpeer::dict::CommunityDictionary,
    conn: &'p mlpeer::connectivity::ConnectivityData,
    rels: &'p mlpeer_topo::infer::InferredRelationships,
}

/// Run one shard to completion: worker attempts with retries, then
/// in-process degradation.
fn run_shard(
    shard: usize,
    scale: &str,
    seed: u64,
    units: Vec<WorkUnit>,
    inputs: &HarvestInputs<'_>,
    cfg: &DistConfig,
    stats: &DistStats,
) -> ShardOutcome {
    use std::sync::atomic::Ordering;

    if let Some(cmd) = &cfg.worker_cmd {
        for attempt in 0..=cfg.max_retries {
            if attempt > 0 {
                stats.retried.fetch_add(1, Ordering::Relaxed);
            }
            let job = PassiveJob {
                scale: scale.to_string(),
                seed,
                units: units.clone(),
                fault: cfg.fault_for(shard, attempt),
            };
            if let Some(result) = try_worker(cmd, &job, cfg.timeout, stats) {
                return ShardOutcome {
                    observations: result.observations,
                    state: result.state,
                    stats: result.stats,
                };
            }
        }
    }
    // Exhausted (or spawning impossible): the serial code path on the
    // coordinator's own prep — slower, never different.
    stats.degraded.fetch_add(1, Ordering::Relaxed);
    let mut sink: TeeSink = (Vec::new(), LinkInferencer::default());
    let local = harvest_passive_units(
        inputs.passive,
        inputs.dict,
        inputs.conn,
        inputs.rels,
        &PassiveConfig::default(),
        &units,
        &mut sink,
    );
    ShardOutcome {
        observations: sink.0,
        state: sink.1.export_state(),
        stats: local,
    }
}

/// The distributed passive harvest: partition `prep.passive` into
/// `cfg.workers` contiguous shards, run each on a worker process (with
/// retries and degradation per the module fault model), and fold the
/// results in shard order. Byte-identical to [`mlpeer::passive::harvest_passive`]
/// on the same prep, for any worker count, fault schedule, or
/// completion order.
///
/// `scale` must be the scale word `prep`'s ecosystem was generated
/// from (workers regenerate the dataset from `(scale, seed)`).
pub fn harvest_passive_dist(
    scale: &str,
    seed: u64,
    prep: &PipelinePrep<'_>,
    cfg: &DistConfig,
    stats: &DistStats,
) -> (TeeSink, PassiveStats) {
    if cfg.workers <= 1 {
        return harvest_sharded(prep);
    }

    let total_rib: usize = prep.passive.rib_len();
    let chunk_len = (total_rib / (cfg.workers * 4).max(1)).max(2048);
    let units = passive_work_units(&prep.passive, chunk_len);
    let weights: Vec<usize> = units
        .iter()
        .map(|u| work_unit_weight(&prep.passive, u))
        .collect();
    let shards = partition_units(&weights, &units, cfg.workers);
    let inputs = HarvestInputs {
        passive: &prep.passive,
        dict: &prep.dict,
        conn: &prep.conn,
        rels: &prep.rels,
    };

    let mut outcomes: Vec<Option<ShardOutcome>> = Vec::new();
    outcomes.resize_with(shards.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let inputs = &inputs;
        for (i, shard_units) in shards.into_iter().enumerate() {
            handles.push((
                i,
                scope.spawn(move || run_shard(i, scale, seed, shard_units, inputs, cfg, stats)),
            ));
        }
        for (i, handle) in handles {
            outcomes[i] = Some(handle.join().expect("shard thread panicked"));
        }
    });

    // Fold in shard order: observation concat reproduces the serial
    // stream; state absorption is order-insensitive but folded in
    // order anyway.
    let mut sink: TeeSink = (Vec::new(), LinkInferencer::default());
    let mut total = PassiveStats::default();
    for outcome in outcomes.into_iter().flatten() {
        sink.0.extend(outcome.observations);
        sink.1.absorb_state(outcome.state);
        total.merge(&outcome.stats);
    }
    (sink, total)
}
