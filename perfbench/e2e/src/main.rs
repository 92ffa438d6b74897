//! End-to-end benchmark driver for `mlpeer-serve`.
//!
//! ```text
//! perfbench --workload read_small|live_medium --seed N
//!           --seconds S --trace 0|1 --server PATH [--traced PATH]
//! ```
//!
//! Drives the release server from outside — CLI flags, `/readyz`,
//! the HTTP API, SIGTERM — checks every answer, and prints one JSON
//! object as the last stdout line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which also runs
//! the in-process traced replay, `--traced`). `--seed` seeds the read
//! sequence; the served dataset stays at the pinned default seeds so
//! every run checks the pinned ETags. See `perfbench/README.md`.

mod http;
mod json;
mod load;
mod procfs;
mod server;
mod stats;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use http::Conn;
use load::{Check, Pace, Publishes, Req, Subscription, Universe, Window};
use server::{Ready, Server};
use stats::{median, quantile_of};

/// Ecosystem seed every server boots with (the `mlpeer-serve` default).
const DATA_SEED: u64 = 20130501;
/// `/healthz` ETags of a batch boot at `DATA_SEED`.
const PINNED_SMALL: &str = "dd8b62f414b3abbd";
const PINNED_MEDIUM: &str = "f9892918815bb4ad";
/// `/v1/ixps?at=20` ETag of a fresh medium live server under the
/// default churn seed (20131007) at 100 events per tick.
const PINNED_MEDIUM_EPOCH20: &str = "9961050947d66645";
/// Live flags: ticks back to back, 100 churn events each.
const LIVE_FLAGS: [&str; 3] = ["--live", "--live-tick-ms=1", "--churn-per-tick=100"];
/// Name prefix of the reactor's event-loop threads (`comm` keeps 15
/// bytes of `mlpeer-serve-reactor-N`).
const REACTOR_THREADS: &str = "mlpeer-serve-re";

const BOOT_LIMIT: Duration = Duration::from_secs(120);
const STOP_LIMIT: Duration = Duration::from_secs(20);
/// Every phase, the traced replay included, ends within this much of
/// the driver's start, so a run always finishes inside 180 s.
const RUN_BUDGET: Duration = Duration::from_secs(170);

/// One workload: which server runs, how often it boots, which windows
/// measure it. A run repeats the workload's cycle `cycles` times and
/// pools the samples, so that every metric samples the whole run.
struct Spec {
    name: &'static str,
    scale: &'static str,
    /// The primary server runs `--live` (its reads share the window with
    /// churn); otherwise it runs batch and the live window runs on a
    /// separate live server afterwards.
    live: bool,
    cycles: usize,
    /// Cold boots per cycle, each on a fresh data dir.
    cold_boots: usize,
    /// Restarts per cycle on the primary server's data dir. A batch
    /// workload reads on the last one.
    restarts: usize,
    /// Read rate, requests/s. The batch read windows of a run last
    /// `--seconds` together.
    rate: f64,
    /// Published epochs each live window waits for.
    epochs: usize,
}

const SPECS: [Spec; 2] = [
    Spec {
        name: "read_small",
        scale: "small",
        live: false,
        cycles: 3,
        cold_boots: 1,
        restarts: 7,
        rate: 5000.0,
        epochs: 100,
    },
    Spec {
        name: "live_medium",
        scale: "medium",
        live: true,
        cycles: 3,
        cold_boots: 2,
        restarts: 6,
        rate: 300.0,
        epochs: 60,
    },
];

/// Read-window warm-up, discarded from the samples.
const WARMUP_SECS: f64 = 0.5;
/// The quantile that `restart_s`, `publish_p50_ms` and
/// `publish_p90_ms` take over their repetitions; see [`end_to_end`].
const LOW_DECILE: f64 = 0.1;
/// Consecutive publish gaps per group; see [`end_to_end`].
const GAP_GROUP: usize = 10;
/// Publish gaps discarded at the start of a live window.
const GAP_WARMUP: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    traced: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut kv = BTreeMap::new();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| {
        kv.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let num = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a number"))
    };
    let args = Args {
        workload: get("workload")?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        server: PathBuf::from(get("server")?),
        traced: kv.get("traced").map(PathBuf::from),
    };
    if args.seconds.is_nan() || args.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Operations attempted and failed, with the first few failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
        ok
    }

    /// Count one operation that returned a `Result`; `None` on failure.
    fn res<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.op(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.op(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    fn window(&mut self, w: &Window) {
        self.attempted += w.attempted;
        self.failed += w.failed;
        self.problems.extend(w.problems.iter().take(5).cloned());
    }
}

/// Everything a workload measured, pooled over its cycles.
#[derive(Default)]
struct Measured {
    setup: Vec<f64>,
    restart: Vec<f64>,
    rss_mib: Vec<f64>,
    reads: Vec<Window>,
    /// Publish gaps of every live window in groups of [`GAP_GROUP`]
    /// consecutive ones, ns. A final partial group is dropped.
    gap_groups: Vec<Vec<f64>>,
    /// Reactor counters summed over the read windows: (wakeups, writev
    /// continuations, requests).
    reactor: (u64, u64, u64),
    /// Host steal and total CPU ticks summed over the read windows
    /// (diagnostic).
    steal: (u64, u64),
    plan: Vec<Req>,
    /// ETag of the run's first cold boot.
    cold_etag: Option<String>,
}

impl Measured {
    fn add_reactor(&mut self, before: &ServerCounters, after: &ServerCounters) {
        self.reactor.0 += after.wakeups - before.wakeups;
        self.reactor.1 += after.writev - before.writev;
        self.reactor.2 += after.requests - before.requests;
    }

    /// The reads of cycle `cycle`: each cycle reads its own stretch of
    /// the plan.
    fn plan_of(&self, cycle: usize, cycles: usize) -> &[Req] {
        let per = self.plan.len() / cycles;
        &self.plan[cycle * per..(cycle + 1) * per]
    }
}

/// A `/v1/stats` reading.
#[derive(Debug, Clone, Default)]
struct ServerCounters {
    epoch: u64,
    etag: String,
    published: Option<u64>,
    live_restarts: Option<u64>,
    shed: u64,
    wakeups: u64,
    writev: u64,
    requests: u64,
    client_errors: u64,
}

fn counters(addr: &str) -> Result<ServerCounters, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let resp = conn.get("/v1/stats").map_err(|e| e.to_string())?;
    let text = resp.text();
    let field = |obj: &str, key: &str| {
        json::object(text, obj)
            .and_then(|o| json::u64_field(o, key))
            .ok_or_else(|| format!("/v1/stats has no {obj}.{key}"))
    };
    let live = json::object(text, "live");
    Ok(ServerCounters {
        epoch: json::u64_field(text, "epoch").ok_or("/v1/stats has no epoch")?,
        etag: json::str_field(text, "etag")
            .unwrap_or_default()
            .to_string(),
        published: live.and_then(|l| json::u64_field(l, "published_epochs")),
        live_restarts: live.and_then(|l| json::u64_field(l, "restarts")),
        shed: field("reactor", "shed")?,
        wakeups: field("reactor", "wakeups")?,
        writev: field("reactor", "writev_continuations")?,
        requests: field("server", "requests")?,
        client_errors: field("server", "client_errors")?,
    })
}

/// `/v1/stats` of a fresh-dir live server once its publish counter has
/// caught up with the epoch (the counter is bumped just after the swap).
fn settled_counters(addr: &str) -> Result<ServerCounters, String> {
    for _ in 0..50 {
        let c = counters(addr)?;
        if c.published == Some(c.epoch) {
            return Ok(c);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err("live.published_epochs never matched the served epoch".into())
}

struct Ctx {
    spec: &'static Spec,
    deadline: Instant,
    args: Args,
    work: PathBuf,
    log: PathBuf,
    tally: Tally,
}

impl Ctx {
    fn server_args(&self, dir: &Path, live: bool) -> Vec<String> {
        let mut v = vec![
            self.spec.scale.to_string(),
            format!("--data-dir={}", dir.display()),
        ];
        if live {
            v.extend(LIVE_FLAGS.iter().map(|s| s.to_string()));
        }
        v
    }

    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Spawn and wait for `/readyz`; counts one operation.
    fn boot(&mut self, args: &[String]) -> Option<(Server, Ready)> {
        let spawned = Server::spawn(&self.args.server, args, &self.log).map_err(|e| e.to_string());
        let mut srv = self.tally.res("spawn", spawned)?;
        let left = self.deadline.saturating_duration_since(Instant::now());
        let ready = srv.wait_ready(BOOT_LIMIT.min(left));
        let ready = self.tally.res("boot", ready)?;
        Some((srv, ready))
    }

    fn stop(&mut self, srv: Server) {
        let r = srv.stop(STOP_LIMIT);
        self.tally.res("SIGTERM drain", r);
    }

    fn pinned_etag(&self) -> Option<&'static str> {
        match (self.spec.live, self.spec.scale) {
            (false, "small") => Some(PINNED_SMALL),
            (false, "medium") => Some(PINNED_MEDIUM),
            _ => None,
        }
    }

    /// Cold boots on fresh dirs; keeps the last one running. Batch
    /// boots must serve the pinned ETag, live boots the first live
    /// boot's.
    fn cold_boots(&mut self, m: &mut Measured) -> Option<(Server, Ready, PathBuf)> {
        let mut last = None;
        for i in 0..self.spec.cold_boots {
            let dir = self.fresh_dir(&format!("cold{i}"));
            let (srv, ready) = self.boot(&self.server_args(&dir, self.spec.live))?;
            m.setup.push(ready.elapsed.as_secs_f64());
            let want = self
                .pinned_etag()
                .map(str::to_string)
                .or(m.cold_etag.clone());
            if let Some(want) = want {
                self.tally.op(ready.etag == want, || {
                    format!("cold boot {i} etag {} != {want}", ready.etag)
                });
            }
            m.cold_etag.get_or_insert(ready.etag.clone());
            self.tally.op(ready.epoch == 0, || {
                format!("cold boot {i} at epoch {}", ready.epoch)
            });
            if i + 1 < self.spec.cold_boots {
                self.stop(srv);
            } else {
                last = Some((srv, ready, dir));
            }
        }
        last
    }

    /// Restarts on `dir`; every one must serve `etag`. Keeps the last
    /// one running when `keep`.
    fn restarts(&mut self, m: &mut Measured, dir: &Path, etag: &str, keep: bool) -> Option<Server> {
        let mut kept = None;
        for i in 0..self.spec.restarts {
            let (srv, ready) = self.boot(&self.server_args(dir, self.spec.live))?;
            m.restart.push(ready.elapsed.as_secs_f64());
            self.tally.op(ready.etag == etag, || {
                format!("restart {i} etag {} != cold {etag}", ready.etag)
            });
            if keep && i + 1 == self.spec.restarts {
                kept = Some(srv);
            } else {
                self.stop(srv);
            }
        }
        kept
    }

    fn peak_rss(&mut self, m: &mut Measured, srv: &Server) {
        let rss = procfs::peak_rss_mib(srv.pid).map_err(|e| e.to_string());
        if let Some(rss) = self.tally.res("VmHWM", rss) {
            m.rss_mib.push(rss);
        }
    }

    fn universe_and_plan(&mut self, srv: &Server, n: usize) -> Option<Vec<Req>> {
        let conn = Conn::connect(&srv.addr).map_err(|e| e.to_string());
        let mut conn = self.tally.res("connect", conn)?;
        let universe = Universe::fetch(&mut conn);
        let universe = self.tally.res("key universe", universe)?;
        Some(load::plan(&universe, self.args.seed, n))
    }

    /// Counters after a window: nothing shed, no refresher restarts,
    /// and every client error the server counted was a 404 the driver
    /// accepted.
    fn counter_gates(&mut self, c: &ServerCounters, gone: u64) {
        self.tally
            .op(c.shed == 0, || format!("reactor.shed = {}", c.shed));
        self.tally.op(c.live_restarts.unwrap_or(0) == 0, || {
            format!("live.restarts = {:?}", c.live_restarts)
        });
        self.tally.op(c.client_errors == gone, || {
            format!(
                "client_errors = {} but {gone} accepted 404s",
                c.client_errors
            )
        });
    }

    /// The window timed reads, and the reactor spent CPU on them.
    fn cpu_gate(&mut self, w: &Window) {
        let ok = !w.latency.is_empty() && w.cpu_ns.is_some_and(|ns| ns > 0);
        self.tally.op(ok, || {
            format!(
                "{} timed reads, reactor CPU {:?} ns",
                w.latency.len(),
                w.cpu_ns
            )
        });
    }

    /// After a window the server must still say `ready`: a degraded
    /// server (say, with the durable-append breaker open) skips work a
    /// healthy one does, so its numbers do not count.
    fn ready_gate(&mut self, srv: &Server) {
        self.tally.res("/readyz after window", srv.check_ready());
    }

    /// Host steal and total ticks, read before a window.
    fn host_ticks(&mut self) -> Option<(u64, u64)> {
        let r = procfs::host_ticks().map_err(|e| e.to_string());
        self.tally.res("/proc/stat", r)
    }

    /// Add the host steal and total ticks since `before`.
    fn add_steal(&mut self, m: &mut Measured, before: (u64, u64)) {
        if let Some((steal, total)) = self.host_ticks() {
            m.steal.0 += steal.saturating_sub(before.0);
            m.steal.1 += total.saturating_sub(before.1);
        }
    }

    /// A batch read window: open loop at the spec rate for this cycle's
    /// share of `--seconds`, every answer compared byte for byte with
    /// the setup fetch.
    fn batch_reads(&mut self, m: &mut Measured, srv: &Server, check: &mut Check, cycle: usize) {
        let Some(before) = self.tally.res("stats", counters(&srv.addr)) else {
            return;
        };
        let conn = Conn::connect(&srv.addr).map_err(|e| e.to_string());
        let Some(mut conn) = self.tally.res("connect", conn) else {
            return;
        };
        let Some(host) = self.host_ticks() else {
            return;
        };
        let (warmup, timed) = self.batch_window();
        let pid = srv.pid;
        let deadline = self.deadline;
        let w = load::run_window(
            &mut conn,
            m.plan_of(cycle, self.spec.cycles),
            self.spec.rate,
            warmup,
            warmup + timed,
            Pace::Spin,
            check,
            || reactor_cpu_ns(pid),
            || Instant::now() > deadline,
        );
        drop(conn);
        self.add_steal(m, host);
        self.tally.window(&w);
        self.cpu_gate(&w);
        self.ready_gate(srv);
        if let Some(after) = self.tally.res("stats", counters(&srv.addr)) {
            self.counter_gates(&after, w.gone);
            m.add_reactor(&before, &after);
        }
        m.reads.push(w);
    }

    /// Warm-up and timed reads of one batch read window: the run's
    /// `--seconds` of reads split over its cycles.
    fn batch_window(&self) -> (usize, usize) {
        let spec = self.spec;
        let seconds = self.args.seconds / spec.cycles as f64;
        (
            (spec.rate * WARMUP_SECS) as usize,
            (spec.rate * seconds) as usize,
        )
    }

    /// The live window on a fresh-dir live server: an SSE subscriber
    /// counts published epochs, optionally beside reads on a second
    /// connection, until `epochs` have been published.
    fn live_window(&mut self, m: &mut Measured, srv: &Server, reads: Option<usize>) -> Option<()> {
        let reads = match reads {
            Some(cycle) => {
                let conn = Conn::connect(&srv.addr).map_err(|e| e.to_string());
                Some((self.tally.res("connect", conn)?, self.host_ticks()?, cycle))
            }
            None => None,
        };
        let before = self.tally.res("stats", settled_counters(&srv.addr))?;
        let sub = Subscription::open(&srv.addr, before.epoch).map_err(|e| e.to_string());
        let sub = self.tally.res("SSE subscribe", sub)?;
        let target = self.spec.epochs as u64;
        let limit = self
            .deadline
            .min(Instant::now() + Duration::from_secs(30 + 2 * target));
        let timed_out = || Instant::now() > limit;
        let mut gone = 0;
        if let Some((mut conn, host, cycle)) = reads {
            let mut check = Check::Live {
                last_etag: before.etag.clone(),
            };
            let warmup = (self.spec.rate * WARMUP_SECS) as usize;
            let pid = srv.pid;
            let w = load::run_window(
                &mut conn,
                m.plan_of(cycle, self.spec.cycles),
                self.spec.rate,
                warmup,
                usize::MAX,
                Pace::SleepThenSpin,
                &mut check,
                || reactor_cpu_ns(pid),
                || sub.covered() >= target || timed_out(),
            );
            drop(conn);
            self.add_steal(m, host);
            self.tally.window(&w);
            self.cpu_gate(&w);
            gone = w.gone;
            m.reads.push(w);
        } else {
            while sub.covered() < target && !timed_out() {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.ready_gate(srv);
        let after = self.tally.res("stats", settled_counters(&srv.addr));
        // Let the stream reach the epoch the counters were read at.
        if let Some(after) = &after {
            while sub.covered() < after.epoch - before.epoch && !timed_out() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let since = sub.since;
        let frames = sub.finish();
        let after = after?;
        self.counter_gates(&after, gone);
        if self.spec.live {
            m.add_reactor(&before, &after);
        }
        let p = self
            .tally
            .res("SSE chain", load::publishes(&frames, since, GAP_WARMUP))?;
        self.tally.op(p.last_epoch >= after.epoch, || {
            format!(
                "SSE stopped at epoch {} before {}",
                p.last_epoch, after.epoch
            )
        });
        // Published-epoch count: the stream covered exactly the epochs
        // the live loop says it published between the two readings.
        let published = after.published.unwrap_or(0) - before.published.unwrap_or(0);
        self.tally.op(published == after.epoch - before.epoch, || {
            format!(
                "published {published} != epochs {}",
                after.epoch - before.epoch
            )
        });
        self.tally
            .op(p.gaps.len() + GAP_WARMUP + 1 >= target as usize, || {
                format!("only {} publish gaps for {target} epochs", p.gaps.len())
            });
        self.tally.attempted += p.frames as u64;
        self.epoch20_gate(srv, &p);
        m.gap_groups.extend(
            p.gaps
                .chunks_exact(GAP_GROUP)
                .map(|g| g.iter().map(|&ns| ns as f64).collect()),
        );
        Some(())
    }

    /// Time travel to epoch 20 returns the ETag the push stream
    /// announced for it (and the pinned one at medium).
    fn epoch20_gate(&mut self, srv: &Server, p: &Publishes) {
        let resp = Conn::connect(&srv.addr)
            .and_then(|mut c| c.get("/v1/ixps?at=20"))
            .map_err(|e| e.to_string());
        let Some(resp) = self.tally.res("GET /v1/ixps?at=20", resp) else {
            return;
        };
        let got = resp.etag.unwrap_or_default();
        self.tally.op(resp.status == 200, || {
            format!("?at=20 answered {}", resp.status)
        });
        if let Some(pushed) = p.etags.get(&20) {
            self.tally.op(&got == pushed, || {
                format!("?at=20 etag {got} != pushed {pushed}")
            });
        }
        if self.spec.scale == "medium" {
            self.tally.op(got == PINNED_MEDIUM_EPOCH20, || {
                format!("?at=20 etag {got} != pinned {PINNED_MEDIUM_EPOCH20}")
            });
        }
    }

    fn run(&mut self) -> Measured {
        let mut m = Measured::default();
        let mut check = None;
        for cycle in 0..self.spec.cycles {
            if self.run_cycle(&mut m, &mut check, cycle).is_none() || self.tally.failed > 0 {
                break;
            }
        }
        m
    }

    /// One cycle. The first one also reads the key universe and draws
    /// the read plan for every cycle; at a batch workload it fetches
    /// the bodies every later read must match. Every cold boot serves
    /// the same pinned snapshot, so they stay the reference.
    fn run_cycle(
        &mut self,
        m: &mut Measured,
        check: &mut Option<Check>,
        cycle: usize,
    ) -> Option<()> {
        let spec = self.spec;
        let (srv, ready, dir) = self.cold_boots(m)?;
        if cycle == 0 {
            // The live window's length is set by its epoch count; size
            // its plan for the slowest plausible tick.
            let per_cycle = if spec.live {
                (spec.rate * 60.0) as usize
            } else {
                let (warmup, timed) = self.batch_window();
                warmup + timed
            };
            m.plan = self.universe_and_plan(&srv, per_cycle * spec.cycles)?;
        }
        if spec.live {
            self.live_window(m, &srv, Some(cycle))?;
            self.peak_rss(m, &srv);
            self.stop(srv);
            self.restarts(m, &dir, &ready.etag, false);
            return Some(());
        }
        if check.is_none() {
            let conn = Conn::connect(&srv.addr).map_err(|e| e.to_string());
            let mut conn = self.tally.res("connect", conn)?;
            let fetched = Check::exact(&mut conn, &ready.etag, &m.plan);
            *check = Some(self.tally.res("setup fetch", fetched)?);
        }
        self.peak_rss(m, &srv);
        self.stop(srv);
        let srv = self.restarts(m, &dir, &ready.etag, true)?;
        self.batch_reads(m, &srv, check.as_mut()?, cycle);
        self.stop(srv);
        let live_dir = self.fresh_dir("live");
        let (live, _) = self.boot(&self.server_args(&live_dir, true))?;
        self.live_window(m, &live, None);
        self.stop(live);
        Some(())
    }
}

/// Reactor-thread CPU time of `pid` so far, ns.
fn reactor_cpu_ns(pid: u32) -> Result<u64, String> {
    procfs::threads_cpu_ns(pid, REACTOR_THREADS).map_err(|e| e.to_string())
}

/// Steal as a share of all CPU time, from `(steal, total)` ticks.
fn share((steal, total): (u64, u64)) -> f64 {
    steal as f64 / total.max(1) as f64
}

/// To stderr only: every sample behind the end-to-end metrics, the
/// p99 of each second of reads, and the share of CPU time the
/// hypervisor took from this machine during the reads.
fn print_diagnostics(m: &Measured, rate: f64) {
    let list = |v: &[f64], scale: f64| -> String {
        let v: Vec<String> = v.iter().map(|x| format!("{:.1}", x * scale)).collect();
        v.join(" ")
    };
    eprintln!("# setup_s samples, ms: {}", list(&m.setup, 1e3));
    eprintln!("# restart_s samples, ms: {}", list(&m.restart, 1e3));
    let groups: Vec<f64> = m.gap_groups.iter().map(|g| median(g)).collect();
    eprintln!("# publish gap groups: p50 ms: {}", list(&groups, 1e-6));
    for w in &m.reads {
        eprintln!(
            "# read window: p99 per second, us: {}",
            list(&w.p99_per_second(rate), 1e-3)
        );
    }
    eprintln!(
        "# reads: {} windows, {} timed reads, host steal {:.2}%",
        m.reads.len(),
        m.reads.iter().map(|w| w.latency.len()).sum::<usize>(),
        100.0 * share(m.steal),
    );
}

/// A metric value as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Every timed read of the run, ns.
fn pooled(m: &Measured, field: impl Fn(&Window) -> &Vec<u64>) -> Vec<f64> {
    m.reads
        .iter()
        .flat_map(|w| field(w).iter().map(|&v| v as f64))
        .collect()
}

/// The end-to-end metrics. This VM's host runs it now fast, now up to
/// half as fast again, in phases of seconds to minutes, and every
/// timing of a run moves with that phase. So the timings that a run
/// repeats as whole steps report the lower decile over their
/// repetitions: over restarts, and over groups of 10 consecutive
/// publish gaps (each group's median and p90). It reads the program at
/// the host's fast pace as long as a tenth of the repetitions get it,
/// where a median jumps between the two paces as their mix changes
/// from run to run. `setup_s` repeats only a few times and reports the
/// median. The read metrics pool every timed read of the run.
fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    let lat = pooled(m, |w| &w.latency);
    let cpu_ns: Option<u64> = m.reads.iter().map(|w| w.cpu_ns).sum();
    let cpu_ns = cpu_ns.ok_or("no reactor CPU reading")?;
    let group = |q: f64| -> Vec<f64> { m.gap_groups.iter().map(|g| quantile_of(g, q)).collect() };
    if lat.is_empty() || m.gap_groups.is_empty() || m.setup.is_empty() || m.restart.is_empty() {
        return Err("a window produced no samples".into());
    }
    if m.rss_mib.is_empty() {
        return Err("no VmHWM reading".into());
    }
    Ok(vec![
        ("setup_s".into(), median(&m.setup), "s"),
        ("rss_mb".into(), median(&m.rss_mib), "MiB"),
        ("restart_s".into(), quantile_of(&m.restart, LOW_DECILE), "s"),
        ("read_p50_us".into(), us(median(&lat)), "us"),
        (
            "read_cpu_us".into(),
            us(cpu_ns as f64 / lat.len() as f64),
            "us",
        ),
        (
            "publish_p50_ms".into(),
            quantile_of(&group(0.5), LOW_DECILE) / 1e6,
            "ms",
        ),
        (
            "publish_p90_ms".into(),
            quantile_of(&group(0.9), LOW_DECILE) / 1e6,
            "ms",
        ),
    ])
}

/// The per-layer metric names, units, in `BENCHMARK.json` order. The
/// traced replay supplies every name not computed here.
const PER_LAYER: [(&str, &str); 45] = [
    ("ixp.ecosystem.generate_ms", "ms"),
    ("data.sim.new_ms", "ms"),
    ("data.registries.build_ms", "ms"),
    ("core.connectivity.gather_ms", "ms"),
    ("data.collector.build_ms", "ms"),
    ("topo.infer.relationships_ms", "ms"),
    ("data.traceroute.build_ms", "ms"),
    ("core.passive.harvest_ms", "ms"),
    ("core.active.stage_ms", "ms"),
    ("core.infer.finalize_ms", "ms"),
    ("core.validate.harvest_ms", "ms"),
    ("serve.snapshot.build_ms", "ms"),
    ("serve.cache.build_ms", "ms"),
    ("store.log.append_ms", "ms"),
    ("store.log.open_ms", "ms"),
    ("store.log.revive_ms", "ms"),
    ("serve.api.route_hit_us", "us"),
    ("serve.api.route_miss_us", "us"),
    ("serve.api.route_304_us", "us"),
    ("serve.reactor.overhead_us", "us"),
    ("serve.reactor.wakeups_per_req", "1/req"),
    ("serve.reactor.writev_cont_per_kreq", "1/kreq"),
    ("loadgen.read_p99_us", "us"),
    ("loadgen.service_p50_us", "us"),
    ("loadgen.service_p99_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("core.live.apply_ms", "ms"),
    ("core.live.observations_ms", "ms"),
    ("core.validate.tick_ms", "ms"),
    ("serve.snapshot.tick_ms", "ms"),
    ("serve.store.publish_ms", "ms"),
    ("store.log.append_epoch_ms", "ms"),
    ("serve.store.load_wait_p99_us", "us"),
    ("serve.api.render_us", "us"),
    ("boot.trace_gap_ms", "ms"),
    ("live.trace_gap_ms", "ms"),
    ("data.collector.rib_entries", "count"),
    ("core.infer.observations", "count"),
    ("core.infer.links", "count"),
    ("serve.cache.bodies", "count"),
    ("serve.cache.bytes", "B"),
    ("store.log.snapshot_bytes", "B"),
    ("serve.live.publish_ratio", "ratio"),
    ("core.live.links_moved_per_epoch", "count"),
    ("store.log.bytes_per_epoch", "B"),
];

/// Run the in-process traced replay and combine its numbers with the
/// ones only the end-to-end run can see.
fn per_layer(ctx: &mut Ctx, m: &Measured, e2e: &[Metric]) -> Result<Vec<Metric>, String> {
    let traced = ctx.args.traced.clone().ok_or("--trace 1 needs --traced")?;
    let plan_path = ctx.work.join("plan.tsv");
    let lines: String = m
        .plan
        .iter()
        .map(|r| format!("{}\t{}\n", r.class.name(), r.path))
        .collect();
    std::fs::write(&plan_path, lines).map_err(|e| e.to_string())?;
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let spans = out_dir.join(format!("spans-{}-{}.jsonl", ctx.spec.name, ctx.args.seed));
    let mut child = Command::new(&traced)
        .arg("--workload")
        .arg(ctx.spec.name)
        .arg("--plan")
        .arg(&plan_path)
        .arg("--ticks")
        .arg(ctx.spec.epochs.to_string())
        .arg("--work")
        .arg(ctx.work.join("traced"))
        .arg("--spans")
        .arg(&spans)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", traced.display()))?;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < ctx.deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("traced replay ran past the run's time budget".into());
            }
        }
    };
    // One short line: it fits the pipe, so the child never blocks on it.
    let mut stdout = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout).map_err(|e| e.to_string())?;
    }
    let last = stdout.lines().last().unwrap_or("");
    if !status.success() || !last.starts_with('{') {
        return Err(format!("traced replay failed ({status})"));
    }
    let traced_value = |k: &str| json::f64_field(last, k).ok_or(format!("traced run lacks {k}"));
    let e2e_value = |k: &str| e2e.iter().find(|(n, _, _)| n == k).map(|(_, v, _)| *v);

    let lat = pooled(m, |w| &w.latency);
    let svc = pooled(m, |w| &w.service);
    let late = pooled(m, |w| &w.late);
    let service_p50 = us(median(&svc));
    let (wakeups, writev, requests) = m.reactor;
    let requests = requests.max(1) as f64;
    // The reads of a live workload hit uncached tick snapshots.
    let route_p50 = if ctx.spec.live {
        traced_value("serve.api.render_us")?
    } else {
        traced_value("route_seq_p50_us")?
    };
    let boot_sum = traced_value(if ctx.spec.live {
        "live_boot_sum_ms"
    } else {
        "batch_boot_sum_ms"
    })?;
    let mut out = Vec::new();
    for (name, unit) in PER_LAYER {
        let v = match name {
            "serve.reactor.overhead_us" => service_p50 - route_p50,
            "serve.reactor.wakeups_per_req" => wakeups as f64 / requests,
            "serve.reactor.writev_cont_per_kreq" => writev as f64 * 1e3 / requests,
            "loadgen.read_p99_us" => us(quantile_of(&lat, 0.99)),
            "loadgen.service_p50_us" => service_p50,
            "loadgen.service_p99_us" => us(quantile_of(&svc, 0.99)),
            "loadgen.late_p99_us" => us(quantile_of(&late, 0.99)),
            "boot.trace_gap_ms" => e2e_value("setup_s").unwrap_or(f64::NAN) * 1e3 - boot_sum,
            "live.trace_gap_ms" => {
                e2e_value("publish_p50_ms").unwrap_or(f64::NAN) - traced_value("tick_span_sum_ms")?
            }
            _ => traced_value(name)?,
        };
        out.push((name.to_string(), v, unit));
    }
    Ok(out)
}

fn print_table(title: &str, metrics: &[Metric]) {
    eprintln!("# {title}");
    for (name, v, unit) in metrics {
        eprintln!("#   {name:<36} {v:>14.4} {unit}");
    }
}

fn result_line(correct: bool, t: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = SPECS.iter().find(|s| s.name == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    if !args.server.is_file() {
        eprintln!("perfbench: no server binary at {}", args.server.display());
        std::process::exit(2);
    }
    let work = PathBuf::from(".bench_work").join(format!("{}-{}", spec.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let log = work.join("server.log");
    let trace = args.trace;
    let mut ctx = Ctx {
        spec,
        deadline: Instant::now() + RUN_BUDGET,
        args,
        work,
        log,
        tally: Tally::default(),
    };
    eprintln!(
        "# {} (seed {}, data seed {DATA_SEED}, {} cycles, {}s batch reads, trace {})",
        spec.name, ctx.args.seed, spec.cycles, ctx.args.seconds, trace as u8
    );
    let measured = ctx.run();
    let e2e = end_to_end(&measured);
    let e2e = match e2e {
        Ok(v) => v,
        Err(e) => {
            ctx.tally.op(false, || e);
            Vec::new()
        }
    };
    let metrics = if trace && ctx.tally.failed == 0 {
        match per_layer(&mut ctx, &measured, &e2e) {
            Ok(v) => v,
            Err(e) => {
                ctx.tally.op(false, || e);
                Vec::new()
            }
        }
    } else {
        e2e.clone()
    };
    let correct = ctx.tally.failed == 0;
    print_table(&format!("{} end to end", spec.name), &e2e);
    print_diagnostics(&measured, spec.rate);
    if trace {
        print_table(&format!("{} per layer", spec.name), &metrics);
    }
    eprintln!(
        "# attempted {}, failed {}: {}",
        ctx.tally.attempted,
        ctx.tally.failed,
        if correct { "correct" } else { "INCORRECT" }
    );
    for p in &ctx.tally.problems {
        eprintln!("#   failure: {p}");
    }
    if correct {
        let _ = std::fs::remove_dir_all(&ctx.work);
        println!("{}", result_line(true, &ctx.tally, &metrics));
    } else {
        eprintln!("# server log kept at {}", ctx.log.display());
        // A run that fails a gate reports the failure, not numbers.
        println!("{}", result_line(false, &ctx.tally, &[]));
        std::process::exit(1);
    }
}
