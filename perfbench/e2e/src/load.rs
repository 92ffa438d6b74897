//! The read mix and the two measurement windows: an open-loop read
//! window on one keep-alive connection, and an SSE subscription that
//! timestamps every published epoch.

use std::collections::{BTreeSet, HashMap};
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{get_request, Conn, Resp, SseFrame, SseParser};
use crate::json;
use crate::stats::{quantile_of, Rng, Zipf};

/// Request classes of the read mix. The mix is assumed (no traffic logs
/// exist) and chosen so every response path is hit: body-cache hits,
/// renders through the prefix trie, and 304 revalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Member,
    Prefix,
    IxpLinks,
    Ixps,
    Ixps304,
    Cover16,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Member,
        Class::Prefix,
        Class::IxpLinks,
        Class::Ixps,
        Class::Ixps304,
        Class::Cover16,
    ];

    /// Share of the mix.
    pub fn share(self) -> f64 {
        match self {
            Class::Member => 0.50,
            Class::Prefix => 0.25,
            Class::IxpLinks => 0.10,
            Class::Ixps | Class::Ixps304 | Class::Cover16 => 0.05,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::Member => "member",
            Class::Prefix => "prefix",
            Class::IxpLinks => "ixp_links",
            Class::Ixps => "ixps",
            Class::Ixps304 => "ixps_304",
            Class::Cover16 => "cover16",
        }
    }

    fn pick(rng: &mut Rng) -> Class {
        let u = rng.unit();
        let mut acc = 0.0;
        for c in Class::ALL {
            acc += c.share();
            if u < acc {
                return c;
            }
        }
        Class::Cover16
    }
}

/// The keys a read can name, read back from the server at setup.
#[derive(Debug, Clone, Default)]
pub struct Universe {
    pub members: Vec<u64>,
    pub prefixes: Vec<String>,
    pub ixps: Vec<u64>,
    /// `a.b.0.0/16` aggregates covering an announced prefix and not
    /// announced themselves: always rendered live through the trie.
    pub covers: Vec<String>,
}

impl Universe {
    /// Members from every IXP's link list; prefixes from the `/0`
    /// query, minus that response's echo of the query itself (otherwise
    /// Zipf rank 1 could land on a ~0.5 MB uncached render).
    pub fn fetch(conn: &mut Conn) -> Result<Universe, String> {
        let ok = |r: std::io::Result<Resp>, what: &str| match r {
            Ok(r) if r.status == 200 => Ok(r),
            Ok(r) => Err(format!("{what} answered {}", r.status)),
            Err(e) => Err(format!("{what}: {e}")),
        };
        let ixps = json::u64_values(ok(conn.get("/v1/ixps"), "/v1/ixps")?.text(), "id");
        let mut members = BTreeSet::new();
        for id in &ixps {
            let path = format!("/v1/ixp/{id}/links");
            let body = ok(conn.get(&path), &path)?;
            for (a, b) in json::u64_pairs(body.text(), "links") {
                members.insert(a);
                members.insert(b);
            }
        }
        let all = ok(conn.get("/v1/prefix/0.0.0.0/0"), "/v1/prefix/0.0.0.0/0")?;
        let prefixes: BTreeSet<String> = json::str_values(all.text(), "prefix")
            .into_iter()
            .filter(|p| *p != "0.0.0.0/0")
            .map(str::to_string)
            .collect();
        let covers: BTreeSet<String> = prefixes
            .iter()
            .filter_map(|p| cover16(p))
            .filter(|c| !prefixes.contains(c))
            .collect();
        let u = Universe {
            members: members.into_iter().collect(),
            prefixes: prefixes.into_iter().collect(),
            ixps,
            covers: covers.into_iter().collect(),
        };
        if u.members.is_empty() || u.prefixes.is_empty() || u.ixps.is_empty() || u.covers.is_empty()
        {
            return Err(format!(
                "empty key universe: {} members, {} prefixes, {} ixps, {} covers",
                u.members.len(),
                u.prefixes.len(),
                u.ixps.len(),
                u.covers.len()
            ));
        }
        Ok(u)
    }
}

/// The `/16` covering `a.b.c.d/len` when `len > 16`.
fn cover16(prefix: &str) -> Option<String> {
    let (addr, len) = prefix.split_once('/')?;
    if len.parse::<u8>().ok()? <= 16 {
        return None;
    }
    let mut octets = addr.split('.');
    let (a, b) = (octets.next()?, octets.next()?);
    Some(format!("{a}.{b}.0.0/16"))
}

/// One planned read.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub class: Class,
    pub path: String,
}

/// Seed of the popularity ranking within each class.
const RANKING_SEED: u64 = 0x6d6c_7065_6572;

/// `n` reads drawn from the mix with `seed`. Within a class, keys are
/// Zipf(1) over one fixed shuffled ranking. Bodies differ in size by
/// 10× (an IXP's link list is 10–111 KB), so a seeded ranking would
/// make each seed a different workload; the seed draws the sequence.
pub fn plan(u: &Universe, seed: u64, n: usize) -> Vec<Req> {
    let mut ranking = Rng::new(RANKING_SEED);
    let mut keyed = |paths: Vec<String>| {
        let mut paths = paths;
        ranking.shuffle(&mut paths);
        let zipf = Zipf::new(paths.len());
        (paths, zipf)
    };
    let members = keyed(
        u.members
            .iter()
            .map(|a| format!("/v1/member/{a}"))
            .collect(),
    );
    let prefixes = keyed(
        u.prefixes
            .iter()
            .map(|p| format!("/v1/prefix/{p}"))
            .collect(),
    );
    let ixps = keyed(
        u.ixps
            .iter()
            .map(|i| format!("/v1/ixp/{i}/links"))
            .collect(),
    );
    let covers = keyed(u.covers.iter().map(|p| format!("/v1/prefix/{p}")).collect());
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let class = Class::pick(&mut rng);
            let from = |(paths, zipf): &(Vec<String>, Zipf), rng: &mut Rng| {
                paths[zipf.sample(rng)].clone()
            };
            let path = match class {
                Class::Member => from(&members, &mut rng),
                Class::Prefix => from(&prefixes, &mut rng),
                Class::IxpLinks => from(&ixps, &mut rng),
                Class::Cover16 => from(&covers, &mut rng),
                Class::Ixps | Class::Ixps304 => "/v1/ixps".to_string(),
            };
            Req { class, path }
        })
        .collect()
}

/// How a read window judges answers.
pub enum Check {
    /// A batch server: every answer must equal the setup fetch byte for
    /// byte, under the snapshot ETag.
    Exact {
        etag: String,
        bodies: HashMap<String, Vec<u8>>,
    },
    /// A live server, whose content moves every epoch: statuses, ETag
    /// semantics and the key echoed in the body.
    Live { last_etag: String },
}

impl Check {
    /// Fetch the expected body of every distinct path in `reqs`.
    pub fn exact(conn: &mut Conn, etag: &str, reqs: &[Req]) -> Result<Check, String> {
        let mut bodies = HashMap::new();
        for r in reqs {
            if r.class == Class::Ixps304 || bodies.contains_key(&r.path) {
                continue;
            }
            let resp = conn.get(&r.path).map_err(|e| format!("{}: {e}", r.path))?;
            if resp.status != 200 || resp.etag.as_deref() != Some(etag) {
                return Err(format!(
                    "setup fetch {} answered {} etag {:?}",
                    r.path, resp.status, resp.etag
                ));
            }
            bodies.insert(r.path.clone(), resp.body);
        }
        Ok(Check::Exact {
            etag: etag.to_string(),
            bodies,
        })
    }

    /// The `If-None-Match` value to send with a 304-class read.
    fn etag(&self) -> &str {
        match self {
            Check::Exact { etag, .. } => etag,
            Check::Live { last_etag } => last_etag,
        }
    }

    /// `Ok(true)` for a correct answer that is a member 404 (live only),
    /// `Ok(false)` for any other correct answer.
    fn judge(&mut self, req: &Req, sent_etag: &str, resp: &Resp) -> Result<bool, String> {
        let fail = || {
            format!(
                "{} ({}) answered {} etag {:?}, {} bytes",
                req.path,
                req.class.name(),
                resp.status,
                resp.etag,
                resp.body.len()
            )
        };
        match self {
            Check::Exact { etag, bodies } => {
                let ok = match req.class {
                    Class::Ixps304 => resp.status == 304 && resp.body.is_empty(),
                    _ => resp.status == 200 && bodies.get(&req.path) == Some(&resp.body),
                };
                if ok && resp.etag.as_deref() == Some(etag.as_str()) {
                    Ok(false)
                } else {
                    Err(fail())
                }
            }
            Check::Live { last_etag } => {
                if req.class == Class::Member && resp.status == 404 {
                    return Ok(true); // the member left under churn
                }
                let Some(got) = resp.etag.as_deref() else {
                    return Err(fail());
                };
                let text = resp.text();
                let ok = match (req.class, resp.status) {
                    (Class::Ixps304, 304) => got == sent_etag && resp.body.is_empty(),
                    (Class::Ixps304, 200) => got != sent_etag && text.contains("\"ixps\":"),
                    (Class::Ixps, 200) => text.contains("\"ixps\":"),
                    (Class::Member, 200) => {
                        let asn = req.path.rsplit('/').next().unwrap_or("");
                        json::u64_field(text, "asn")
                            .map(|a| a.to_string())
                            .as_deref()
                            == Some(asn)
                    }
                    (Class::IxpLinks, 200) => {
                        let id = req.path.split('/').nth(3).unwrap_or("");
                        json::u64_field(text, "id")
                            .map(|i| i.to_string())
                            .as_deref()
                            == Some(id)
                    }
                    (Class::Prefix | Class::Cover16, 200) => {
                        // Keys render sorted: the query echo is the last
                        // "prefix" (after the exact/covering/covered rows).
                        let p = req.path.strip_prefix("/v1/prefix/").unwrap_or("");
                        json::str_values(text, "prefix").last() == Some(&p)
                    }
                    _ => false,
                };
                if !ok {
                    return Err(fail());
                }
                *last_etag = got.to_string();
                Ok(false)
            }
        }
    }
}

/// How the generator waits for a due time.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Spin the whole gap: `thread::sleep` overshoots by ~70 µs at the
    /// median and by milliseconds at p99 on a small VM.
    Spin,
    /// Sleep until shortly before the due time, then spin — for windows
    /// where a busy live thread holds one of the two vCPUs and the
    /// reactor needs the other.
    SleepThenSpin,
}

fn pace_until(due: Instant, pace: Pace) {
    if let Pace::SleepThenSpin = pace {
        let now = Instant::now();
        if due > now + Duration::from_micros(600) {
            std::thread::sleep(due - now - Duration::from_micros(300));
        }
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One read window's raw samples (warm-up excluded), all in ns.
#[derive(Debug, Default)]
pub struct Window {
    /// Due time → last response byte.
    pub latency: Vec<u64>,
    /// Send → last response byte.
    pub service: Vec<u64>,
    /// Due time → send.
    pub late: Vec<u64>,
    /// Reactor-thread CPU over the timed part; `None` if a reading
    /// failed (counted as a failure) or the window ended in its warm-up.
    pub cpu_ns: Option<u64>,
    /// Requests sent (warm-up included) and CPU readings taken.
    pub attempted: u64,
    pub failed: u64,
    /// Member 404s accepted as correct (live only).
    pub gone: u64,
    pub problems: Vec<String>,
}

impl Window {
    /// p99 latency of each whole second of timed reads (`rate` reads
    /// each), ns.
    pub fn p99_per_second(&self, rate: f64) -> Vec<f64> {
        self.latency
            .chunks_exact((rate as usize).max(1))
            .map(|c| {
                let v: Vec<f64> = c.iter().map(|&ns| ns as f64).collect();
                quantile_of(&v, 0.99)
            })
            .collect()
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
    }

    /// One reading of the reactor-thread CPU counter; a failed reading
    /// is a failed operation.
    fn cpu(&mut self, probe: &mut impl FnMut() -> Result<u64, String>) -> Option<u64> {
        self.attempted += 1;
        probe()
            .map_err(|e| self.fail(format!("reactor CPU: {e}")))
            .ok()
    }
}

/// Run an open-loop window on `conn`: request `i` is due at
/// `start + i / rate`, sent when due, and timed from its due time, so a
/// stall also counts against the requests queued behind it. Requests
/// before `warmup` are checked but not timed; reactor CPU is read when
/// the timed part starts and when the window ends. Ends after `total`
/// requests or once `stop` returns true.
#[allow(clippy::too_many_arguments)]
pub fn run_window(
    conn: &mut Conn,
    plan: &[Req],
    rate: f64,
    warmup: usize,
    total: usize,
    pace: Pace,
    check: &mut Check,
    mut cpu_probe: impl FnMut() -> Result<u64, String>,
    stop: impl Fn() -> bool,
) -> Window {
    let mut w = Window {
        latency: Vec::with_capacity(total.min(1 << 20)),
        service: Vec::with_capacity(total.min(1 << 20)),
        late: Vec::with_capacity(total.min(1 << 20)),
        ..Window::default()
    };
    let interval_ns = 1e9 / rate;
    let start = Instant::now() + Duration::from_millis(20);
    let mut cpu_start = None;
    for i in 0..total {
        if i == warmup {
            cpu_start = w.cpu(&mut cpu_probe);
        }
        if stop() {
            break;
        }
        let req = &plan[i % plan.len()];
        let sent_etag = check.etag().to_string();
        let bytes = get_request(
            &req.path,
            (req.class == Class::Ixps304).then_some(sent_etag.as_str()),
        );
        let due = start + Duration::from_nanos((i as f64 * interval_ns) as u64);
        pace_until(due, pace);
        let sent = Instant::now();
        w.attempted += 1;
        let resp = conn.send(&bytes).and_then(|()| conn.recv());
        let done = Instant::now();
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                w.fail(format!("{}: {e}", req.path));
                break; // the connection is unusable
            }
        };
        if i >= warmup {
            w.latency.push((done - due).as_nanos() as u64);
            w.service.push((done - sent).as_nanos() as u64);
            w.late
                .push(sent.saturating_duration_since(due).as_nanos() as u64);
        }
        match check.judge(req, &sent_etag, &resp) {
            Ok(gone) => w.gone += u64::from(gone),
            Err(problem) => w.fail(problem),
        }
    }
    if let Some(begin) = cpu_start {
        if let Some(end) = w.cpu(&mut cpu_probe) {
            w.cpu_ns = end.checked_sub(begin);
            if w.cpu_ns.is_none() {
                w.fail(format!("reactor CPU went back from {begin} to {end} ns"));
            }
        }
    }
    w
}

/// A running SSE subscription on `/v1/changes?since=N`.
pub struct Subscription {
    reader: JoinHandle<Vec<(Instant, SseFrame)>>,
    closer: TcpStream,
    /// Epochs covered so far (`last id - since`).
    covered: Arc<AtomicU64>,
    pub since: u64,
}

impl Subscription {
    pub fn open(addr: &str, since: u64) -> std::io::Result<Subscription> {
        let conn = Conn::connect(addr)?;
        let (mut stream, pending) =
            conn.into_event_stream(&format!("/v1/changes?since={since}"))?;
        stream.set_read_timeout(None)?;
        let closer = stream.try_clone()?;
        let covered = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&covered);
        let reader = std::thread::Builder::new()
            .name("perfbench-sse".into())
            .spawn(move || {
                let mut parser = SseParser::default();
                let mut frames = Vec::new();
                let mut take = |bytes: &[u8], frames: &mut Vec<(Instant, SseFrame)>| {
                    let now = Instant::now();
                    for f in parser.push(bytes) {
                        if let Some(id) = f.id {
                            seen.store(id.saturating_sub(since), Ordering::Relaxed);
                        }
                        frames.push((now, f));
                    }
                };
                take(&pending, &mut frames);
                let mut chunk = vec![0u8; 64 * 1024];
                while let Ok(n) = stream.read(&mut chunk) {
                    if n == 0 {
                        break;
                    }
                    take(&chunk[..n], &mut frames);
                }
                frames
            })?;
        Ok(Subscription {
            reader,
            closer,
            covered,
            since,
        })
    }

    pub fn covered(&self) -> u64 {
        self.covered.load(Ordering::Relaxed)
    }

    /// Close the stream and collect every frame with its arrival time.
    pub fn finish(self) -> Vec<(Instant, SseFrame)> {
        let _ = self.closer.shutdown(Shutdown::Both);
        self.reader.join().unwrap_or_default()
    }
}

/// What an SSE stream showed about publishing.
#[derive(Debug, Default)]
pub struct Publishes {
    /// Per-epoch publish gaps, ns (warm-up excluded).
    pub gaps: Vec<u64>,
    /// ETag announced for each epoch that had its own frame.
    pub etags: HashMap<u64, String>,
    pub last_epoch: u64,
    pub frames: usize,
}

/// Check that the frames chain without a gap from `since` (each
/// frame's `since` is the previous frame's epoch) and turn arrival
/// times into per-epoch publish gaps. The first frame is the immediate
/// catch-up and the first pushed frame follows a partial tick, so gaps
/// start at the second pushed frame; the first `warmup` gaps are
/// dropped. A frame covering `k` epochs (two publishes between reactor
/// wakeups) contributes `k` gaps of a `k`-th of its interval.
pub fn publishes(
    frames: &[(Instant, SseFrame)],
    since: u64,
    warmup: usize,
) -> Result<Publishes, String> {
    let mut out = Publishes::default();
    let mut prev = since;
    for (i, (_, f)) in frames.iter().enumerate() {
        if f.event != "changes" {
            return Err(format!("frame {i} is a `{}` event", f.event));
        }
        let id = f.id.ok_or_else(|| format!("frame {i} has no id"))?;
        let from = json::u64_field(&f.data, "since");
        let epoch = json::u64_field(&f.data, "epoch");
        if from != Some(prev) || epoch != Some(id) || (i > 0 && id <= prev) {
            return Err(format!(
                "frame {i} (id {id}) covers {from:?}..{epoch:?}; expected since {prev}"
            ));
        }
        if json::bool_field(&f.data, "resync") != Some(false) {
            return Err(format!("frame {i} asks for a resync"));
        }
        if id == prev + 1 {
            if let Some(etag) = json::str_field(&f.data, "etag") {
                out.etags.insert(id, etag.to_string());
            }
        }
        prev = id;
    }
    out.last_epoch = prev;
    out.frames = frames.len();
    let pushed = frames.get(1..).unwrap_or_default();
    let mut gaps = Vec::new();
    for pair in pushed.windows(2) {
        let (t0, f0) = &pair[0];
        let (t1, f1) = &pair[1];
        let k = f1.id.unwrap_or(0).saturating_sub(f0.id.unwrap_or(0)).max(1);
        let gap = (*t1 - *t0).as_nanos() as u64 / k;
        gaps.extend(std::iter::repeat_n(gap, k as usize));
    }
    out.gaps = gaps.into_iter().skip(warmup).collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Universe {
        Universe {
            members: (1..=200).collect(),
            prefixes: (0..100).map(|i| format!("20.{i}.64.0/18")).collect(),
            ixps: (0..13).collect(),
            covers: (0..100).map(|i| format!("20.{i}.0.0/16")).collect(),
        }
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let u = universe();
        assert_eq!(plan(&u, 9, 2000), plan(&u, 9, 2000));
        assert_ne!(plan(&u, 9, 2000), plan(&u, 10, 2000));
    }

    #[test]
    fn hot_keys_do_not_depend_on_the_seed() {
        let u = universe();
        let hottest = |seed| {
            let mut counts: HashMap<String, usize> = HashMap::new();
            for r in plan(&u, seed, 50_000) {
                if r.class == Class::IxpLinks {
                    *counts.entry(r.path).or_default() += 1;
                }
            }
            counts.into_iter().max_by_key(|(_, n)| *n).unwrap().0
        };
        assert_eq!(hottest(1), hottest(2));
        assert_eq!(hottest(1), hottest(20130501));
    }

    #[test]
    fn plan_follows_the_mix() {
        let reqs = plan(&universe(), 20130501, 200_000);
        for class in Class::ALL {
            let n = reqs.iter().filter(|r| r.class == class).count();
            let share = n as f64 / reqs.len() as f64;
            assert!(
                (share - class.share()).abs() < 0.005,
                "{}: {share} vs {}",
                class.name(),
                class.share()
            );
        }
        let total: f64 = Class::ALL.iter().map(|c| c.share()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Zipf(1): the hottest member takes ~1/H(200) ≈ 17% of member reads.
        let members: Vec<&Req> = reqs.iter().filter(|r| r.class == Class::Member).collect();
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for r in &members {
            *counts.entry(r.path.as_str()).or_default() += 1;
        }
        let top = *counts.values().max().unwrap() as f64 / members.len() as f64;
        assert!((top - 0.171).abs() < 0.01, "top share {top}");
    }

    #[test]
    fn p99_of_each_whole_second() {
        // 3.5 s at 1,000 reads/s; every 50th read of second 1 is slow.
        let latency: Vec<u64> = (0..3500)
            .map(|i| {
                if (1000..2000).contains(&i) && i % 50 == 0 {
                    500_000
                } else {
                    30_000
                }
            })
            .collect();
        let w = Window {
            latency,
            ..Window::default()
        };
        let p99 = w.p99_per_second(1000.0);
        assert_eq!(p99.len(), 3, "the partial fourth second is left out");
        assert_eq!(p99[0], 30_000.0);
        assert!(p99[1] > 400_000.0, "{}", p99[1]);
        assert_eq!(p99[2], 30_000.0);
    }

    #[test]
    fn cover16_of_longer_prefixes_only() {
        assert_eq!(cover16("20.122.192.0/18").as_deref(), Some("20.122.0.0/16"));
        assert_eq!(cover16("20.122.0.0/16"), None);
        assert_eq!(cover16("junk"), None);
    }

    fn frame(id: u64, since: u64) -> SseFrame {
        SseFrame {
            id: Some(id),
            event: "changes".into(),
            data: format!(
                "{{\n  \"added\": [],\n  \"epoch\": {id},\n  \"etag\": \"e{id}\",\n  \
                 \"removed\": [],\n  \"resync\": false,\n  \"since\": {since}\n}}"
            ),
        }
    }

    #[test]
    fn publishes_chain_and_gaps() {
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        let frames = vec![
            (at(0), frame(4, 4)),   // catch-up
            (at(100), frame(5, 4)), // first push after a partial tick
            (at(350), frame(6, 5)),
            (at(600), frame(7, 6)),
            (at(1100), frame(9, 7)), // two epochs in one frame
        ];
        let p = publishes(&frames, 4, 0).unwrap();
        let ms: Vec<u64> = p.gaps.iter().map(|g| g / 1_000_000).collect();
        assert_eq!(ms, vec![250, 250, 250, 250]);
        assert_eq!(p.last_epoch, 9);
        assert_eq!(p.etags.get(&6).map(String::as_str), Some("e6"));
        assert!(!p.etags.contains_key(&9));
        assert_eq!(publishes(&frames, 4, 3).unwrap().gaps.len(), 1);
        // A hole in the chain is an error.
        let holed = vec![(at(0), frame(4, 4)), (at(100), frame(6, 5))];
        assert!(publishes(&holed, 4, 0).is_err());
        // So is a stream that starts somewhere else.
        assert!(publishes(&frames, 3, 0).is_err());
    }
}
