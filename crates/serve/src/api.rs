//! The query API: routing, JSON rendering, conditional GETs.
//!
//! Every endpoint answers from one immutable [`Snapshot`] loaded at
//! request time, so a response is always internally consistent even if
//! a refresh lands mid-flight. The snapshot-addressed `/v1/*` endpoints
//! carry the content ETag; an `If-None-Match` hit short-circuits to an
//! empty 304 *before rendering*, which is what lets heavy read traffic
//! revalidate for free across refreshes that changed nothing. On a
//! batch snapshot the 200 path is pre-rendered too: ixp, validate,
//! member and announced-prefix bodies come out of the snapshot's
//! publish-time [`crate::cache::BodyCache`] as a lookup + memcpy, and
//! only un-announced CIDR queries render live. Live-tick snapshots
//! carry no cache, so there every 200 renders on the request. Every
//! body — cached or live, errors and push frames included — is
//! written by [`crate::json::JsonWriter`] straight into its byte
//! buffer. `/v1/stats` and `/healthz` are exempt from the ETag — their
//! bodies carry live server counters the snapshot ETag does not
//! address.
//!
//! | Endpoint | Answer |
//! |---|---|
//! | `GET /healthz` | liveness, current epoch/ETag |
//! | `GET /readyz` | readiness: `ready`/`degraded`/`draining` + reasons |
//! | `GET /v1/ixps` | per-IXP link and coverage counts |
//! | `GET /v1/ixp/{id}/links` | the IXP's multilateral link list |
//! | `GET /v1/member/{asn}` | the member's peers and policy per IXP |
//! | `GET /v1/prefix/{p}` | announcements matching a CIDR prefix |
//! | `GET /v1/changes?since=N` | link-level diff since epoch `N` |
//! | `GET /v1/stats` | snapshot + server counters |
//!
//! `/v1/changes` answers from the bounded [`ChangeLog`] ring first;
//! when the ring has evicted `since`, the durable epoch log (when the
//! process runs with `--data-dir`) folds the stored per-epoch deltas
//! instead, so `since` values back to the first stored epoch answer
//! without a resync. Only a span missing delta information — an epoch
//! not in the log (it predates the data dir, or was dropped while the
//! durability breaker was open), one published without a delta, or no
//! data dir at all — draws the documented full-resync signal: **HTTP 410 Gone** with
//! `"resync": true`, telling the client to re-fetch the full resource
//! set and restart from the current epoch. A malformed or missing
//! `since` is a 400; a `since` ahead of the served snapshot's epoch is
//! a 400 too (the client is confused, not stale). Like `/v1/stats`,
//! the endpoint is deliberately not snapshot-ETag-addressed: its body
//! depends on the query parameter and the history, not the snapshot
//! content alone.
//!
//! **Time travel:** with a durable store attached, every
//! snapshot-addressed endpoint accepts `?at=<epoch>` and answers from
//! that epoch's recovered snapshot (the live epoch answers from the
//! in-memory snapshot and its publish-time body cache; historical
//! epochs rebuild on demand from the log). An epoch beyond the current
//! one is a 400; an epoch that is not in the log — no `--data-dir`, an
//! epoch that predates it, or one dropped while the durability breaker
//! was open — is a 410.

use std::collections::BTreeSet;
use std::sync::Arc;

use mlpeer::index::Announcement;
use mlpeer_bgp::{Asn, Prefix};
use mlpeer_ixp::ixp::IxpId;

use crate::cache::{CacheKey, CacheSlice};
use crate::delta::{ChangeLog, SinceAnswer};
use crate::http::{Request, Response};
use crate::json::{export_policy, JsonWriter};
use crate::live::LiveStats;
use crate::reactor::ReactorStats;
use crate::server::ServerStats;
use crate::snapshot::Snapshot;
use mlpeer_dist::DistStats;

/// Route one request against one snapshot view (plus the store's
/// change ring for `/v1/changes`, the durable epoch log for `?at=`
/// time travel and deep `since` history when the process runs with
/// `--data-dir`, and — when the respective subsystem runs — the live
/// loop's and the reactor's counters for `/v1/stats`).
///
/// The snapshot arrives as an `&Arc` so cache hits can answer with a
/// zero-copy [`CacheSlice`] that pins the snapshot instead of copying
/// the body out of the cache.
#[allow(clippy::too_many_arguments)] // one slot per optional subsystem
pub fn route(
    req: &Request,
    snap: &Arc<Snapshot>,
    stats: &ServerStats,
    changes: &ChangeLog,
    history: Option<&crate::durable::DurableStore>,
    live: Option<&LiveStats>,
    reactor: Option<&ReactorStats>,
    dist: Option<&DistStats>,
    health: Option<&crate::health::HealthState>,
) -> Response {
    if req.method != "GET" {
        return error(405, "only GET is supported");
    }
    let path = req.path.trim_end_matches('/');
    let path = if path.is_empty() { "/" } else { path };

    if path == "/healthz" {
        return Response::json(200, healthz(snap, stats));
    }
    if path == "/readyz" {
        return readyz(snap, health);
    }

    // Time travel: `?at=<epoch>` re-roots a snapshot-addressed request
    // at a historical epoch. The live epoch stays on the in-memory
    // snapshot (and its publish-time body cache); historical epochs
    // rebuild on demand from the durable log.
    let travelled: Arc<Snapshot>;
    let snap: &Arc<Snapshot> = match query_param(&req.query, "at") {
        Some(raw) if snapshot_addressed(path) => match resolve_at(raw, snap, history) {
            Ok(Some(historical)) => {
                travelled = historical;
                &travelled
            }
            Ok(None) => snap,
            Err(resp) => return resp,
        },
        Some(_) => {
            return error(
                400,
                "at={epoch} applies to snapshot-addressed endpoints only",
            );
        }
        None => snap,
    };

    let etag = format!("\"{}\"", snap.etag);
    if path == "/v1/ixps" {
        // The resource always exists: a matching ETag skips rendering.
        if let Some(hit) = revalidate_hit(req, &etag) {
            return hit;
        }
        // Pre-rendered at publish: the 200 path is zero-copy — the
        // response pins the cached body instead of copying it.
        // Uncached snapshots (live-tick publishes) render live, like
        // the sibling endpoints.
        let body = match CacheSlice::new(snap, CacheKey::Ixps) {
            Some(slice) => Response::shared(200, slice),
            None => Response::json(200, render_ixps(snap)),
        };
        return body.with_header("ETag", &etag);
    }
    if path == "/v1/validate" {
        // Same contract as `/v1/ixps`: always exists, content-addressed
        // by the snapshot ETag, pre-rendered at publish with a live
        // fallback for uncached (live-tick) snapshots.
        if let Some(hit) = revalidate_hit(req, &etag) {
            return hit;
        }
        let body = match CacheSlice::new(snap, CacheKey::Validate) {
            Some(slice) => Response::shared(200, slice),
            None => Response::json(200, render_validate(snap)),
        };
        return body.with_header("ETag", &etag);
    }
    if let Some(rest) = path.strip_prefix("/v1/ixp/") {
        return ixp_links(req, snap, rest, &etag);
    }
    if let Some(rest) = path.strip_prefix("/v1/member/") {
        return member(req, snap, rest, &etag);
    }
    if let Some(rest) = path.strip_prefix("/v1/prefix/") {
        return prefix(req, snap, rest, &etag);
    }
    if path == "/v1/changes" {
        // Not ETag-addressed: the body is a function of `since` and
        // the history, not the snapshot content alone.
        return match changes_since_param(req, snap) {
            Ok(since) => render_changes(snap, changes, history, since),
            Err(resp) => resp,
        };
    }
    if path == "/v1/stats" {
        // Deliberately no ETag/304: the body carries live server
        // counters, so the snapshot ETag does not address it.
        return Response::json(200, stats_body(snap, stats, live, reactor, dist));
    }
    error(404, "no such endpoint")
}

/// Is this path addressed by the snapshot content (and therefore
/// eligible for `?at=` time travel)?
fn snapshot_addressed(path: &str) -> bool {
    path == "/v1/ixps"
        || path == "/v1/validate"
        || path.starts_with("/v1/ixp/")
        || path.starts_with("/v1/member/")
        || path.starts_with("/v1/prefix/")
}

/// Resolve `?at=<epoch>`: `Ok(None)` means "the live epoch — serve the
/// in-memory snapshot", `Ok(Some(snap))` is a revived historical
/// epoch, and `Err` is the response to send instead (400 for epochs
/// ahead of the present or malformed values; 410 when the epoch is not
/// in the log — no durable store attached, an epoch that predates it,
/// or one dropped while the durability breaker was open).
fn resolve_at(
    raw: &str,
    snap: &Arc<Snapshot>,
    history: Option<&crate::durable::DurableStore>,
) -> Result<Option<Arc<Snapshot>>, Response> {
    let Ok(at) = raw.parse::<u64>() else {
        return Err(error(
            400,
            "malformed at: expected a non-negative epoch number",
        ));
    };
    if at > snap.epoch {
        return Err(error(400, "at is ahead of the current epoch"));
    }
    if at == snap.epoch {
        return Ok(None);
    }
    let Some(history) = history else {
        return Err(error(
            410,
            "epoch history is not retained; run the server with --data-dir",
        ));
    };
    match history.snapshot_at(at) {
        Some(historical) => Ok(Some(Arc::new(historical))),
        None => Err(error(
            410,
            "this epoch's full snapshot is no longer retained",
        )),
    }
}

/// Validate the `since` query parameter of a `/v1/changes` request
/// against the served snapshot: the parsed epoch, or the 400 response
/// to send instead. Shared by the plain endpoint and the reactor's
/// long-poll/SSE variants so all three reject identically.
pub(crate) fn changes_since_param(req: &Request, snap: &Snapshot) -> Result<u64, Response> {
    let Some(raw) = query_param(&req.query, "since") else {
        return Err(error(400, "expected /v1/changes?since={epoch}"));
    };
    let Ok(since) = raw.parse::<u64>() else {
        return Err(error(
            400,
            "malformed since: expected a non-negative epoch number",
        ));
    };
    if since > snap.epoch {
        return Err(error(400, "since is ahead of the current epoch"));
    }
    Ok(since)
}

/// The `/v1/changes` answer for a validated `since`: the link-level
/// diff from epoch `since` to the served snapshot's epoch, or the 410
/// full-resync signal when no retained history covers it. The
/// in-memory ring answers first (the hot path — recent `since` values
/// under push traffic); a ring miss falls back to folding the durable
/// log's per-epoch deltas, so any epoch still on disk answers without
/// a resync. The reactor's push paths (long-poll completion, SSE
/// frames) render through this same function, so pushed deltas are
/// byte-identical to polled ones.
pub(crate) fn render_changes(
    snap: &Snapshot,
    changes: &ChangeLog,
    history: Option<&crate::durable::DurableStore>,
    since: u64,
) -> Response {
    let delta_response = |added: &BTreeSet<(IxpId, Asn, Asn)>,
                          removed: &BTreeSet<(IxpId, Asn, Asn)>| {
        let links = |w: &mut JsonWriter, set: &BTreeSet<(IxpId, Asn, Asn)>| {
            w.begin_array();
            for &(ixp, a, b) in set {
                w.begin_object();
                w.key("a").u64(a.value().into());
                w.key("b").u64(b.value().into());
                w.key("ixp").u64(ixp.0.into());
                w.key("name").str(snap.name(ixp));
                w.end_object();
            }
            w.end_array();
        };
        let mut w = JsonWriter::with_capacity(96 * (added.len() + removed.len()) + 128);
        w.begin_object();
        w.key("added");
        links(&mut w, added);
        w.key("epoch").u64(snap.epoch);
        w.key("etag").str(&snap.etag);
        w.key("removed");
        links(&mut w, removed);
        w.key("resync").bool(false);
        w.key("since").u64(since);
        w.end_object();
        Response::json(200, w.finish())
    };
    match changes.since(since, snap.epoch) {
        SinceAnswer::Delta { added, removed } => delta_response(&added, &removed),
        SinceAnswer::Truncated { oldest } => {
            // The ring evicted (or never held) this span — the durable
            // log may still cover it, delta for delta.
            if let Some((added, removed)) = history.and_then(|h| h.fold_since(since, snap.epoch)) {
                return delta_response(&added, &removed);
            }
            // Genuinely gone: 410, the documented full-resync signal.
            // The client re-fetches the full link set and resumes from
            // `epoch`. With a durable store, `oldest_since` reflects
            // what the *log* can still answer, not the ring.
            let oldest = match history {
                Some(h) => Some(h.oldest_since(snap.epoch)),
                None => oldest,
            };
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("epoch").u64(snap.epoch);
            w.key("error").str(
                "delta history no longer covers this epoch; \
                 re-sync from a full snapshot",
            );
            w.key("etag").str(&snap.etag);
            w.key("oldest_since");
            match oldest {
                Some(epoch) => w.u64(epoch),
                None => w.null(),
            };
            w.key("resync").bool(true);
            w.key("since").u64(since);
            w.end_object();
            Response::json(410, w.finish())
        }
    }
}

/// The first value of `name` in a raw query string
/// (`a=1&b=2`-shaped; no percent-decoding — epochs are digits).
pub(crate) fn query_param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == name).then_some(v)
    })
}

/// Conditional-GET check, called by each handler *after* its resource
/// resolved (a 304 is only valid where the fresh response would have
/// been a 200, RFC 7232) and *before* rendering, so revalidation hits
/// cost an index probe, not a full JSON render.
fn revalidate_hit(req: &Request, etag: &str) -> Option<Response> {
    let matched = req
        .header("if-none-match")
        .is_some_and(|inm| inm.split(',').any(|t| t.trim() == etag || t.trim() == "*"));
    matched.then(|| Response::json(304, Vec::new()).with_header("ETag", etag))
}

/// A JSON error body with matching status.
pub fn error(status: u16, message: &str) -> Response {
    let mut w = JsonWriter::new();
    w.begin_object().key("error").str(message).end_object();
    Response::json(status, w.finish())
}

fn healthz(snap: &Snapshot, stats: &ServerStats) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("epoch").u64(snap.epoch);
    w.key("etag").str(&snap.etag);
    w.key("scale").str(&snap.scale);
    w.key("status").str("ok");
    w.key("uptime_ms").u64(stats.uptime_ms());
    w.end_object();
    w.finish()
}

/// The `/readyz` answer: liveness says "up", readiness says "up *and
/// whole*". `ready` and `degraded` both answer 200 — a degraded
/// process still serves reads, and load balancers must not evict it —
/// while `draining` answers 503 so balancers stop routing during a
/// graceful shutdown. A boot without a [`crate::health::HealthState`]
/// (tests, bare `route` calls) reports `ready` with no reasons.
fn readyz(snap: &Snapshot, health: Option<&crate::health::HealthState>) -> Response {
    let (status, reasons) = match health {
        Some(h) => (h.status(), h.reasons()),
        None => ("ready", Vec::new()),
    };
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("epoch").u64(snap.epoch);
    w.key("etag").str(&snap.etag);
    w.key("reasons").begin_array();
    for reason in reasons {
        w.str(reason);
    }
    w.end_array();
    w.key("status").str(status);
    w.end_object();
    let code = if status == "draining" { 503 } else { 200 };
    Response::json(code, w.finish())
}

/// Render the `/v1/ixps` body: once per publish into the
/// [`crate::cache::BodyCache`] for batch snapshots, and on every
/// request for uncached (live-tick) snapshots.
pub(crate) fn render_ixps(snap: &Snapshot) -> Vec<u8> {
    failpoints::failpoint!("serve::render");
    let mut w = JsonWriter::with_capacity(128 * snap.names.len() + 64);
    w.begin_object();
    w.key("ixps").begin_array();
    for (&id, name) in &snap.names {
        w.begin_object();
        let covered = snap.links.covered.get(&id).map_or(0, |c| c.len());
        w.key("covered_members").u64(covered as u64);
        w.key("id").u64(id.0.into());
        w.key("links").u64(snap.links.links_at(id).len() as u64);
        w.key("name").str(name);
        w.end_object();
    }
    w.end_array();
    w.key("unique_links").u64(snap.unique_link_count as u64);
    w.end_object();
    w.finish()
}

/// Render the `/v1/validate` body — the cross-validation report of
/// the snapshot's inferred links against the derived IRR/RPKI corpus
/// (see `mlpeer::validate::cross`). Deterministic: verdicts are a pure
/// function of the snapshot content, and every map renders in sorted
/// order, so serial, sharded, and multi-process harvests serve
/// byte-identical bodies.
pub(crate) fn render_validate(snap: &Snapshot) -> Vec<u8> {
    let v = &snap.validation;
    let mut w = JsonWriter::with_capacity(192 * v.per_ixp.len() + 512);
    w.begin_object();
    w.key("corpus").begin_object();
    w.key("complete").bool(v.corpus.complete);
    w.key("objects").u64(v.corpus.objects);
    w.key("quarantined").u64(v.corpus.quarantined);
    w.key("roas").u64(v.corpus.roas);
    w.end_object();
    w.key("links_scored").u64(v.totals.total());
    w.key("per_ixp").begin_array();
    for (&ixp, c) in &v.per_ixp {
        w.begin_object();
        w.key("confirmed").u64(c.confirmed);
        w.key("contradicted").u64(c.contradicted);
        w.key("ixp").u64(ixp.0.into());
        w.key("name").str(snap.name(ixp));
        w.key("unknown").u64(c.unknown);
        w.end_object();
    }
    w.end_array();
    w.key("reasons").begin_array();
    for (reason, &count) in &v.reasons {
        w.begin_object();
        w.key("code").str(reason.code());
        w.key("count").u64(count);
        w.end_object();
    }
    w.end_array();
    w.key("totals").begin_object();
    w.key("confirmed").u64(v.totals.confirmed);
    w.key("contradicted").u64(v.totals.contradicted);
    w.key("unknown").u64(v.totals.unknown);
    w.end_object();
    w.end_object();
    w.finish()
}

/// Render one `/v1/ixp/{id}/links` body.
pub(crate) fn render_ixp_links(snap: &Snapshot, ixp: IxpId) -> Vec<u8> {
    let links = snap.links.links_at(ixp);
    let mut w = JsonWriter::with_capacity(40 * links.len() + 128);
    w.begin_object();
    w.key("count").u64(links.len() as u64);
    w.key("id").u64(ixp.0.into());
    w.key("links").begin_array();
    for &(a, b) in links {
        w.begin_array();
        w.u64(a.value().into()).u64(b.value().into());
        w.end_array();
    }
    w.end_array();
    w.key("name").str(snap.name(ixp));
    w.end_object();
    w.finish()
}

/// Render one `/v1/member/{asn}` body; `None` when the member has no
/// inferred link anywhere (the 404 case).
pub(crate) fn render_member(snap: &Snapshot, asn: Asn) -> Option<Vec<u8>> {
    let entries = snap.index.member_links(asn)?;
    let mut w = JsonWriter::with_capacity(1024);
    w.begin_object();
    w.key("asn").u64(asn.value().into());
    w.key("ixps").begin_array();
    for group in entries.chunk_by(|x, y| x.0 == y.0) {
        let ixp = group[0].0;
        w.begin_object();
        w.key("ixp").u64(ixp.0.into());
        w.key("name").str(snap.name(ixp));
        w.key("peers").begin_array();
        for &(_, peer) in group {
            w.u64(peer.value().into());
        }
        w.end_array();
        w.key("policy");
        export_policy(&mut w, snap.links.policies.get(&(ixp, asn)));
        w.end_object();
    }
    w.end_array();
    let mut unique: Vec<Asn> = entries.iter().map(|&(_, peer)| peer).collect();
    unique.sort_unstable();
    unique.dedup();
    w.key("unique_peers").u64(unique.len() as u64);
    w.end_object();
    Some(w.finish())
}

/// Render one `/v1/prefix/{p}` body.
pub(crate) fn render_prefix(snap: &Snapshot, p: &Prefix) -> Vec<u8> {
    let m = snap.index.prefix_runs(p);
    let announcements = |w: &mut JsonWriter, runs: &[&[Announcement]]| {
        w.begin_array();
        for &(pfx, ixp, member) in runs.iter().copied().flatten() {
            w.begin_object();
            w.key("ixp").u64(ixp.0.into());
            w.key("member").u64(member.value().into());
            w.key("name").str(snap.name(ixp));
            w.key("prefix").cidr(pfx);
            w.end_object();
        }
        w.end_array();
    };
    let total = m.total();
    let mut w = JsonWriter::with_capacity(128 * total + 128);
    w.begin_object();
    w.key("covered");
    announcements(&mut w, &[m.covered]);
    w.key("covering");
    announcements(&mut w, &m.covering);
    w.key("exact");
    announcements(&mut w, &[m.exact]);
    w.key("prefix").cidr(*p);
    w.key("total").u64(total as u64);
    w.end_object();
    w.finish()
}

fn ixp_links(req: &Request, snap: &Arc<Snapshot>, rest: &str, etag: &str) -> Response {
    let Some(id) = rest
        .strip_suffix("/links")
        .and_then(|s| s.parse::<u16>().ok())
    else {
        return error(400, "expected /v1/ixp/{id}/links");
    };
    let ixp = IxpId(id);
    if !snap.names.contains_key(&ixp) {
        return error(404, "unknown IXP id");
    }
    if let Some(hit) = revalidate_hit(req, etag) {
        return hit;
    }
    // Every known IXP is pre-rendered at publish; the fallback renders
    // live only if a cache ever ships without the entry.
    let body = match CacheSlice::new(snap, CacheKey::IxpLinks(ixp)) {
        Some(slice) => Response::shared(200, slice),
        None => Response::json(200, render_ixp_links(snap, ixp)),
    };
    body.with_header("ETag", etag)
}

fn member(req: &Request, snap: &Arc<Snapshot>, rest: &str, etag: &str) -> Response {
    // One optional "AS" prefix, then digits ("ASAS1" stays malformed).
    let asn = match rest.strip_prefix("AS").unwrap_or(rest).parse::<u32>() {
        Ok(n) => Asn(n),
        Err(_) => return error(400, "expected /v1/member/{asn}"),
    };
    if snap.index.member_links(asn).is_none() {
        return error(404, "no multilateral links inferred for this ASN");
    }
    if let Some(hit) = revalidate_hit(req, etag) {
        return hit;
    }
    // Every linked member is pre-rendered at publish.
    let body = match CacheSlice::new(snap, CacheKey::Member(asn)) {
        Some(slice) => Response::shared(200, slice),
        None => Response::json(200, render_member(snap, asn).expect("member has links")),
    };
    body.with_header("ETag", etag)
}

fn prefix(req: &Request, snap: &Arc<Snapshot>, rest: &str, etag: &str) -> Response {
    let Ok(p) = rest.parse::<Prefix>() else {
        return error(400, "expected /v1/prefix/{a.b.c.d/len}");
    };
    if let Some(hit) = revalidate_hit(req, etag) {
        return hit;
    }
    // Announced prefixes are pre-rendered at publish; arbitrary CIDR
    // queries (aggregates, absent prefixes) render live.
    let body = match CacheSlice::new(snap, CacheKey::Prefix(p)) {
        Some(slice) => Response::shared(200, slice),
        None => Response::json(200, render_prefix(snap, &p)),
    };
    body.with_header("ETag", etag)
}

fn stats_body(
    snap: &Snapshot,
    stats: &ServerStats,
    live: Option<&LiveStats>,
    reactor: Option<&ReactorStats>,
    dist: Option<&DistStats>,
) -> Vec<u8> {
    use std::sync::atomic::Ordering;
    let p = &snap.passive_stats;
    let mut w = JsonWriter::with_capacity(2048);
    w.begin_object();
    w.key("announcements")
        .u64(snap.index.announcement_count() as u64);
    w.key("cache").begin_object();
    w.key("bodies").u64(snap.cache.body_count() as u64);
    w.key("bytes").u64(snap.cache.byte_len() as u64);
    w.end_object();
    // Multi-process coordinator counters under `--workers=N`, null in
    // single-process boots.
    w.key("dist");
    match dist.map(DistStats::snapshot) {
        Some(d) => {
            w.begin_object();
            w.key("bytes").u64(d.bytes);
            w.key("deduped").u64(d.deduped);
            w.key("degraded").u64(d.degraded);
            w.key("frames").u64(d.frames);
            w.key("procs").u64(d.procs);
            w.key("retried").u64(d.retried);
            w.key("spawned").u64(d.spawned);
            w.key("timed_out").u64(d.timed_out);
            w.end_object();
        }
        None => {
            w.null();
        }
    }
    w.key("distinct_asns").u64(snap.distinct_asn_count as u64);
    w.key("epoch").u64(snap.epoch);
    w.key("etag").str(&snap.etag);
    w.key("indexed_prefixes")
        .u64(snap.index.prefix_count() as u64);
    w.key("ixps").u64(snap.names.len() as u64);
    w.key("linked_members")
        .u64(snap.index.member_count() as u64);
    w.key("links_total").u64(snap.index.links_total() as u64);
    // Live-loop counters when live mode runs, null otherwise.
    w.key("live");
    match live {
        Some(l) => {
            w.begin_object();
            w.key("events").u64(l.events.load(Ordering::Relaxed));
            w.key("published_epochs")
                .u64(l.published.load(Ordering::Relaxed));
            w.key("restarts").u64(l.restarts.load(Ordering::Relaxed));
            w.key("ticks").u64(l.ticks.load(Ordering::Relaxed));
            w.end_object();
        }
        None => {
            w.null();
        }
    }
    w.key("observations").u64(snap.observation_count as u64);
    w.key("passive").begin_object();
    w.key("dropped_bogon").u64(p.dropped_bogon as u64);
    w.key("dropped_cycle").u64(p.dropped_cycle as u64);
    w.key("dropped_transient").u64(p.dropped_transient as u64);
    w.key("observations").u64(p.observations as u64);
    w.key("quarantined").u64(p.quarantined as u64);
    w.key("routes_seen").u64(p.routes_seen as u64);
    w.key("setter_unknown").u64(p.setter_unknown as u64);
    w.key("unidentified").u64(p.unidentified as u64);
    w.end_object();
    // Reactor counters when the reactor routes the request, null for
    // a direct call to the router.
    w.key("reactor");
    match reactor {
        Some(r) => {
            w.begin_object();
            w.key("accepted").u64(r.accepted());
            w.key("idle_timeouts").u64(r.idle_timeouts());
            w.key("inflight").u64(r.inflight());
            w.key("open").u64(r.open());
            w.key("shed").u64(r.shed());
            w.key("sse_subscribers").u64(r.sse_subscribers());
            w.key("wakeups").u64(r.wakeups());
            w.key("writev_continuations").u64(r.writev_continuations());
            w.end_object();
        }
        None => {
            w.null();
        }
    }
    w.key("scale").str(&snap.scale);
    w.key("seed").u64(snap.seed);
    w.key("server").begin_object();
    w.key("client_errors").u64(stats.client_errors());
    w.key("not_modified").u64(stats.not_modified());
    w.key("requests").u64(stats.requests());
    w.key("uptime_ms").u64(stats.uptime_ms());
    w.end_object();
    w.key("unique_links").u64(snap.unique_link_count as u64);
    // Mirrors the `/v1/validate` totals so operational checks can
    // cross-assert the two endpoints agree.
    let v = &snap.validation.totals;
    w.key("validation").begin_object();
    w.key("confirmed").u64(v.confirmed);
    w.key("contradicted").u64(v.contradicted);
    w.key("links_scored").u64(v.total());
    w.key("unknown").u64(v.unknown);
    w.end_object();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> Arc<Snapshot> {
        Arc::new(crate::testutil::snapshot_with(3, 7))
    }

    /// Route against an empty change ring (irrelevant to these tests).
    fn rt(req: &Request, snap: &Arc<Snapshot>, stats: &ServerStats) -> Response {
        route(
            req,
            snap,
            stats,
            &ChangeLog::new(8),
            None,
            None,
            None,
            None,
            None,
        )
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            ..Request::default()
        }
    }

    fn body(r: &Response) -> String {
        String::from_utf8(r.body.to_vec()).unwrap()
    }

    #[test]
    fn endpoints_answer_200_with_etag() {
        let snap = snap();
        let stats = ServerStats::default();
        for path in [
            "/v1/ixps",
            "/v1/ixp/0/links",
            "/v1/member/1",
            "/v1/prefix/10.1.0.0/24",
            "/v1/validate",
            "/v1/stats",
        ] {
            let r = rt(&get(path), &snap, &stats);
            assert_eq!(r.status, 200, "{path}: {}", body(&r));
            let has_etag = r
                .headers
                .iter()
                .any(|(n, v)| n == "ETag" && *v == format!("\"{}\"", snap.etag));
            // /v1/stats carries live counters, so it is deliberately
            // not snapshot-addressed.
            assert_eq!(has_etag, path != "/v1/stats", "{path} ETag presence");
            assert!(body(&r).starts_with('{'), "{path} returns a JSON object");
        }
        let health = rt(&get("/healthz"), &snap, &stats);
        assert_eq!(health.status, 200);
        assert!(body(&health).contains("\"status\": \"ok\""));
    }

    #[test]
    fn conditional_get_hits_304_only_on_matching_etag() {
        let snap = snap();
        let stats = ServerStats::default();
        let mut req = get("/v1/ixps");
        req.headers
            .push(("if-none-match".into(), format!("\"{}\"", snap.etag)));
        let r = rt(&req, &snap, &stats);
        assert_eq!(r.status, 304);
        assert!(r.body.is_empty());

        req.headers[0].1 = "\"somethingelse\"".into();
        assert_eq!(rt(&req, &snap, &stats).status, 200);

        req.headers[0].1 = "*".into();
        assert_eq!(rt(&req, &snap, &stats).status, 304);

        // A 304 is only valid where the fresh response would be a 200:
        // misses and malformed requests pass through (RFC 7232).
        for (path, expect) in [
            ("/v1/member/99", 404),
            ("/v1/member/xyz", 400),
            ("/v1/ixp/9/links", 404),
            ("/v1/bogus", 404),
        ] {
            let mut req = get(path);
            req.headers
                .push(("if-none-match".into(), format!("\"{}\"", snap.etag)));
            assert_eq!(rt(&req, &snap, &stats).status, expect, "{path}");
        }
    }

    #[test]
    fn member_answers_match_the_index() {
        let snap = snap();
        let stats = ServerStats::default();
        let r = rt(&get("/v1/member/1"), &snap, &stats);
        let b = body(&r);
        assert!(b.contains("\"asn\": 1"));
        assert!(b.contains("\"unique_peers\": 2"));
        assert!(b.contains("DE-CIX"));
        // One AS prefix accepted; repeated prefixes stay malformed.
        assert_eq!(rt(&get("/v1/member/AS1"), &snap, &stats).status, 200);
        assert_eq!(rt(&get("/v1/member/ASAS1"), &snap, &stats).status, 400);
        // Unknown member → 404, garbage → 400.
        assert_eq!(rt(&get("/v1/member/99"), &snap, &stats).status, 404);
        assert_eq!(rt(&get("/v1/member/xyz"), &snap, &stats).status, 400);
    }

    #[test]
    fn prefix_answers_split_specificity() {
        let snap = snap();
        let stats = ServerStats::default();
        let r = rt(&get("/v1/prefix/10.1.0.0/24"), &snap, &stats);
        let b = body(&r);
        assert_eq!(r.status, 200);
        assert!(b.contains("\"exact\""));
        assert!(b.contains("\"member\": 1"));
        let wide = rt(&get("/v1/prefix/10.0.0.0/8"), &snap, &stats);
        assert!(body(&wide).contains("\"covered\""));
        assert_eq!(rt(&get("/v1/prefix/banana"), &snap, &stats).status, 400);
    }

    #[test]
    fn readyz_reports_health_state_and_drain_503s() {
        let snap = snap();
        let stats = ServerStats::default();
        let ring = ChangeLog::new(8);
        let rdy = |health: Option<&crate::health::HealthState>| {
            route(
                &get("/readyz"),
                &snap,
                &stats,
                &ring,
                None,
                None,
                None,
                None,
                health,
            )
        };
        // Without a health registry (bare route calls): ready.
        let r = rdy(None);
        assert_eq!(r.status, 200);
        assert!(body(&r).contains("\"status\": \"ready\""), "{}", body(&r));

        let h = crate::health::HealthState::new();
        let r = rdy(Some(&h));
        assert_eq!(r.status, 200);
        let b = body(&r);
        assert!(b.contains("\"status\": \"ready\""), "{b}");
        assert!(b.contains("\"reasons\": []"), "{b}");
        assert!(b.contains("\"epoch\""), "{b}");

        // Degraded: still 200 (reads keep serving) with reasons listed.
        h.set_live_restarting(true);
        let r = rdy(Some(&h));
        assert_eq!(r.status, 200);
        let b = body(&r);
        assert!(b.contains("\"status\": \"degraded\""), "{b}");
        assert!(b.contains("live-refresher"), "{b}");
        h.set_live_restarting(false);

        // Draining: 503 so load balancers stop routing.
        h.set_draining();
        let r = rdy(Some(&h));
        assert_eq!(r.status, 503);
        assert!(body(&r).contains("\"status\": \"draining\""));
    }

    #[test]
    fn unknown_routes_and_methods_fail_cleanly() {
        let snap = snap();
        let stats = ServerStats::default();
        assert_eq!(rt(&get("/nope"), &snap, &stats).status, 404);
        assert_eq!(rt(&get("/v1/ixp/9/links"), &snap, &stats).status, 404);
        assert_eq!(rt(&get("/v1/ixp/x/links"), &snap, &stats).status, 400);
        let mut post = get("/v1/ixps");
        post.method = "POST".into();
        assert_eq!(rt(&post, &snap, &stats).status, 405);
    }

    fn get_q(path: &str, query: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            ..Request::default()
        }
    }

    /// A test snapshot re-stamped to a given epoch (the store normally
    /// does this at publish).
    fn snap_at_epoch(epoch: u64) -> Arc<Snapshot> {
        let mut s = crate::testutil::snapshot_with(3, 7);
        s.epoch = epoch;
        Arc::new(s)
    }

    #[test]
    fn changes_answers_net_diff() {
        let snap = snap_at_epoch(2);
        let stats = ServerStats::default();
        let ring = ChangeLog::new(8);
        ring.record(
            1,
            mlpeer::live::LinkDelta {
                added: vec![(IxpId(0), Asn(1), Asn(2))],
                removed: vec![],
            },
        );
        ring.record(
            2,
            mlpeer::live::LinkDelta {
                added: vec![],
                removed: vec![(IxpId(0), Asn(2), Asn(3))],
            },
        );
        let r = route(
            &get_q("/v1/changes", "since=0"),
            &snap,
            &stats,
            &ring,
            None,
            None,
            None,
            None,
            None,
        );
        assert_eq!(r.status, 200);
        let b = body(&r);
        assert!(b.contains("\"resync\": false"), "{b}");
        assert!(b.contains("\"a\": 1"), "{b}");
        assert!(b.contains("\"removed\""), "{b}");
        assert!(
            !r.headers.iter().any(|(n, _)| n == "ETag"),
            "/v1/changes is not snapshot-addressed"
        );
        // since == current → empty diff, still 200.
        let r = route(
            &get_q("/v1/changes", "since=2"),
            &snap,
            &stats,
            &ring,
            None,
            None,
            None,
            None,
            None,
        );
        assert_eq!(r.status, 200);
        assert!(body(&r).contains("\"added\": []"));
    }

    #[test]
    fn changes_since_older_than_ring_draws_resync_410() {
        let snap = snap_at_epoch(3);
        let stats = ServerStats::default();
        let ring = ChangeLog::new(8);
        // Only epochs 3 is retained (2 was never recorded → gap).
        ring.record(
            3,
            mlpeer::live::LinkDelta {
                added: vec![(IxpId(0), Asn(1), Asn(2))],
                removed: vec![],
            },
        );
        let r = route(
            &get_q("/v1/changes", "since=1"),
            &snap,
            &stats,
            &ring,
            None,
            None,
            None,
            None,
            None,
        );
        assert_eq!(r.status, 410, "{}", body(&r));
        let b = body(&r);
        assert!(b.contains("\"resync\": true"), "{b}");
        assert!(b.contains("\"oldest_since\": 2"), "{b}");
        // The still-covered since answers normally.
        let r = route(
            &get_q("/v1/changes", "since=2"),
            &snap,
            &stats,
            &ring,
            None,
            None,
            None,
            None,
            None,
        );
        assert_eq!(r.status, 200);
    }

    /// A durable store holding epochs 0..=3 (members vary per epoch so
    /// each has a distinct ETag; epochs 1..=3 carry deltas).
    fn durable_history() -> (Arc<crate::durable::DurableStore>, std::path::PathBuf) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mlpeer-api-at-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = Arc::new(crate::durable::DurableStore::open(&dir).unwrap());
        for e in 0..=3u64 {
            let mut s = crate::testutil::snapshot_with(2 + (e as u32 % 3), e);
            s.epoch = e;
            let delta = (e > 0).then(|| mlpeer::live::LinkDelta {
                added: vec![(IxpId(0), Asn(10 + e as u32), Asn(20 + e as u32))],
                removed: vec![],
            });
            durable.append_epoch(&s, delta.as_ref()).unwrap();
        }
        (durable, dir)
    }

    /// The snapshot that served as epoch `e` in [`durable_history`].
    fn history_snap(e: u64) -> Arc<Snapshot> {
        let mut s = crate::testutil::snapshot_with(2 + (e as u32 % 3), e);
        s.epoch = e;
        Arc::new(s)
    }

    #[test]
    fn at_param_time_travels_to_any_retained_epoch() {
        let (durable, dir) = durable_history();
        let current = history_snap(3);
        let stats = ServerStats::default();
        let ring = ChangeLog::new(8);
        let rth = |path: &str, query: &str| {
            route(
                &get_q(path, query),
                &current,
                &stats,
                &ring,
                Some(&durable),
                None,
                None,
                None,
                None,
            )
        };
        // Every historical epoch answers with its own body and ETag.
        for e in 0..3u64 {
            let expect = history_snap(e);
            let r = rth("/v1/ixps", &format!("at={e}"));
            assert_eq!(r.status, 200, "at={e}: {}", body(&r));
            assert_eq!(r.body.to_vec(), render_ixps(&expect), "at={e} body");
            assert!(
                r.headers
                    .iter()
                    .any(|(n, v)| n == "ETag" && *v == format!("\"{}\"", expect.etag)),
                "at={e} carries the historical ETag"
            );
        }
        // The live epoch stays on the in-memory snapshot.
        let r = rth("/v1/ixps", "at=3");
        assert_eq!(r.status, 200);
        assert_eq!(r.body.to_vec(), render_ixps(&current));
        // Sibling endpoints time-travel too.
        assert_eq!(rth("/v1/ixp/0/links", "at=1").status, 200);
        assert_eq!(rth("/v1/member/1", "at=1").status, 200);
        assert_eq!(rth("/v1/prefix/10.1.0.0/24", "at=1").status, 200);
        // Ahead of the present or malformed → 400.
        assert_eq!(rth("/v1/ixps", "at=9").status, 400);
        assert_eq!(rth("/v1/ixps", "at=banana").status, 400);
        // Non-snapshot-addressed endpoints reject `at`.
        assert_eq!(rth("/v1/changes", "since=0&at=1").status, 400);
        assert_eq!(rth("/v1/stats", "at=1").status, 400);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn at_param_without_history_or_retention_draws_410() {
        let stats = ServerStats::default();
        let ring = ChangeLog::new(8);
        // No durable store attached: any historical epoch is gone.
        let current = snap_at_epoch(5);
        let r = route(
            &get_q("/v1/ixps", "at=2"),
            &current,
            &stats,
            &ring,
            None,
            None,
            None,
            None,
            None,
        );
        assert_eq!(r.status, 410, "{}", body(&r));
        // With a store, an epoch that was never written is gone too.
        let (durable, dir) = durable_history();
        let current = snap_at_epoch(9);
        let r = route(
            &get_q("/v1/ixps", "at=7"),
            &current,
            &stats,
            &ring,
            Some(&durable),
            None,
            None,
            None,
            None,
        );
        assert_eq!(r.status, 410, "{}", body(&r));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The 410-contract fix: a `since` the in-memory ring evicted but
    /// the durable log still covers is served as a normal delta — 410
    /// is reserved for spans the log does not cover.
    #[test]
    fn changes_fall_back_to_durable_history_beyond_the_ring() {
        let (durable, dir) = durable_history();
        let current = history_snap(3);
        let stats = ServerStats::default();
        // A ring that only ever saw epoch 3: since=0 is evicted there.
        let ring = ChangeLog::new(2);
        ring.record(
            3,
            mlpeer::live::LinkDelta {
                added: vec![(IxpId(0), Asn(13), Asn(23))],
                removed: vec![],
            },
        );
        // Without the durable store this is the old 410.
        let r = route(
            &get_q("/v1/changes", "since=0"),
            &current,
            &stats,
            &ring,
            None,
            None,
            None,
            None,
            None,
        );
        assert_eq!(r.status, 410);
        // With it, the stored deltas fold into a full answer.
        let r = route(
            &get_q("/v1/changes", "since=0"),
            &current,
            &stats,
            &ring,
            Some(&durable),
            None,
            None,
            None,
            None,
        );
        assert_eq!(r.status, 200, "{}", body(&r));
        let b = body(&r);
        assert!(b.contains("\"resync\": false"), "{b}");
        for e in 1..=3u64 {
            assert!(
                b.contains(&format!("\"a\": {}", 10 + e)),
                "epoch {e}'s delta must be in the fold: {b}"
            );
        }
        // Epoch 0 itself has no delta on disk, so since-before-genesis
        // stays a 410 — with oldest_since reported from the *log*.
        let current_deeper = snap_at_epoch(3);
        let r = route(
            &get_q("/v1/changes", "since=0"),
            &current_deeper,
            &stats,
            &ChangeLog::new(2),
            Some(&durable),
            None,
            None,
            None,
            None,
        );
        assert_eq!(r.status, 200, "durable alone also answers: {}", body(&r));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn changes_rejects_malformed_and_future_since() {
        let snap = snap();
        let stats = ServerStats::default();
        let ring = ChangeLog::new(8);
        for q in ["", "since=banana", "since=-1", "since=1.5", "other=1"] {
            let r = route(
                &get_q("/v1/changes", q),
                &snap,
                &stats,
                &ring,
                None,
                None,
                None,
                None,
                None,
            );
            assert_eq!(r.status, 400, "query {q:?}: {}", body(&r));
        }
        // Snapshot epoch is 0; asking about the future is a 400.
        let r = route(
            &get_q("/v1/changes", "since=5"),
            &snap,
            &stats,
            &ring,
            None,
            None,
            None,
            None,
            None,
        );
        assert_eq!(r.status, 400);
    }
}
