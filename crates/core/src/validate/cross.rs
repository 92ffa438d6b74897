//! Offline IRR/RPKI cross-validation: score every inferred multilateral
//! link against a registry-shaped ground-truth corpus (§6).
//!
//! The paper validates inferred IXP peering links against external
//! ground truth — IRR route objects and looking glasses. The LG
//! campaign lives in the parent module; this one closes the remaining
//! gap with a fully offline stage in three steps:
//!
//! 1. **derive** — [`derive_corpus`] renders an IRR/RPKI corpus from
//!    the ecosystem: per-IXP registration headers, RPSL `as-set` /
//!    `aut-num` / `route` objects ([`RpslObject`]) and RPKI ROAs
//!    ([`Roa`]), with seeded noise (stale registrations, missing
//!    coverage, contradicting origins, flipped policy lines) so the
//!    registry is *imperfect* the way real ones are. Every block
//!    carries a `sig:` integrity line and the stream ends in an `end:`
//!    trailer with object counts.
//! 2. **parse** — [`parse_corpus`] reads the text back, quarantining
//!    any block whose signature does not verify and refusing to call a
//!    stream `complete` unless the trailer's counts reconcile. A
//!    degraded corpus (anything quarantined, or incomplete) can still
//!    contradict a link but can never confirm one.
//! 3. **score** — [`score_links`] assigns each inferred link a
//!    [`Verdict`] (`confirmed | unknown | contradicted`) with a
//!    [`Reason`] code, folding per-endpoint origin validation (RFC 6811
//!    over the ROAs, route-object origin matching) together with
//!    aut-num policy filters and as-set registration, all read from the
//!    corpus's [`CorpusFold`].
//!
//! The live loop skips the text: [`CorpusFold::derive`] builds the fold
//! of the corpus step 1 would render straight from the ecosystem, and
//! scores through the same ladder. [`validate_harvest`] stays the batch
//! path and the reference the derived fold is tested against.
//!
//! The whole stage is a pure function of `(ecosystem, links,
//! observations)` — no clocks, no RNG state — so serial, thread-sharded
//! and multi-process harvests produce byte-identical
//! [`ValidationReport`]s.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;

use mlpeer_bgp::{Asn, Prefix};
use mlpeer_data::irr::{IrrDatabase, PolicyLine, RpslObject, Source};
use mlpeer_data::roa::{Roa, RoaOutcome, RoaTable};
use mlpeer_ixp::ixp::IxpId;
use mlpeer_ixp::{Ecosystem, IxpMember};

use crate::hash::{FxHashMap, FxHashSet, FxHasher};
use crate::index::Announcement;
use crate::infer::{MlpLinkSet, Observation};

/// Noise knobs for corpus derivation. All decisions are hash-seeded —
/// the same config always yields the same corpus text.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Seed folded into every noise decision.
    pub seed: u64,
    /// Fraction of (IXP, member) registrations that went stale: the
    /// member is dropped from the IXP's as-set *and* loses its RS
    /// policy lines there.
    pub stale_registration: f64,
    /// Fraction of members that maintain per-peer IRR filters
    /// (truthful `import:`/`export:` lines toward each RS peer).
    pub filter_frac: f64,
    /// Fraction of per-peer filter lines flipped (allow↔deny) —
    /// the registry lying about policy.
    pub policy_flip: f64,
    /// Fraction of (prefix, origin) pairs missing their route object.
    pub route_missing: f64,
    /// Fraction of route objects registered with a wrong origin.
    pub route_contradict: f64,
    /// Fraction of (prefix, origin) pairs with no ROA issued.
    pub roa_missing: f64,
    /// Fraction of ROAs past their validity window.
    pub roa_expired: f64,
    /// Fraction of ROAs authorizing a wrong origin.
    pub roa_contradict: f64,
}

impl CorpusConfig {
    /// Paper-flavored defaults under an explicit seed: registries are
    /// mostly right, wrong in every way they can be.
    pub fn seeded(seed: u64) -> CorpusConfig {
        CorpusConfig {
            seed,
            stale_registration: 0.03,
            filter_frac: 0.35,
            policy_flip: 0.02,
            route_missing: 0.08,
            route_contradict: 0.02,
            roa_missing: 0.15,
            roa_expired: 0.03,
            roa_contradict: 0.01,
        }
    }
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig::seeded(99)
    }
}

// Salt tags keeping the independent noise decisions independent.
const TAG_STALE: u64 = 1;
const TAG_FILTER: u64 = 2;
const TAG_FLIP_EXPORT: u64 = 3;
const TAG_FLIP_IMPORT: u64 = 4;
const TAG_ROUTE_MISS: u64 = 5;
const TAG_ROUTE_WRONG: u64 = 6;
const TAG_ROA_MISS: u64 = 7;
const TAG_ROA_EXPIRE: u64 = 8;
const TAG_ROA_WRONG: u64 = 9;

/// A seeded coin: true with probability `frac`, fully determined by
/// `(seed, tag, x, y)`.
fn chance(seed: u64, tag: u64, x: u64, y: u64, frac: f64) -> bool {
    let mut h = FxHasher::default();
    h.write_u64(seed);
    h.write_u64(tag);
    h.write_u64(x);
    h.write_u64(y);
    ((h.finish() >> 16) % 1_000_000) < (frac * 1_000_000.0) as u64
}

fn prefix_salt(p: Prefix) -> u64 {
    ((p.network_u32() as u64) << 8) | p.len() as u64
}

/// An origin guaranteed different from the real one (top-half ASN
/// space, far from anything the ecosystem allocates).
fn wrong_origin(origin: Asn) -> Asn {
    Asn(origin.value() ^ 0x4000_0000)
}

fn source_of(asn: Asn) -> Source {
    match asn.value() % 10 {
        0..=6 => Source::Ripe,
        7..=8 => Source::Radb,
        _ => Source::Arin,
    }
}

/// The noise model: every registry defect is one seeded decision, and
/// [`derive_corpus`] and [`CorpusFold::derive`] both ask these, so the
/// corpus text and the derived fold cannot disagree on one.
impl CorpusConfig {
    /// Did `asn`'s registration at `ixp` go stale?
    fn stale(&self, ixp: IxpId, asn: Asn) -> bool {
        chance(
            self.seed,
            TAG_STALE,
            ixp.0 as u64,
            asn.value() as u64,
            self.stale_registration,
        )
    }

    /// Does `asn` register per-peer filters at `ixp`?
    fn filters(&self, ixp: IxpId, asn: Asn) -> bool {
        chance(
            self.seed,
            TAG_FILTER,
            ixp.0 as u64,
            asn.value() as u64,
            self.filter_frac,
        )
    }

    /// The `(export, import)` filter lines `member` registers toward
    /// `peer` at `ixp`: its true policy, each line flipped by noise.
    fn peer_lines(&self, ixp: IxpId, member: &IxpMember, peer: Asn) -> (PolicyLine, PolicyLine) {
        let salt = ((ixp.0 as u64) << 32) | member.asn.value() as u64;
        let flip = |tag| chance(self.seed, tag, salt, peer.value() as u64, self.policy_flip);
        (
            PolicyLine {
                peer,
                allow: member.export.allows(peer) != flip(TAG_FLIP_EXPORT),
            },
            PolicyLine {
                peer,
                allow: member.import.accepts(peer) != flip(TAG_FLIP_IMPORT),
            },
        )
    }

    /// The origin the route object for an announced `(prefix, origin)`
    /// pair registers; `None` when the object is missing.
    fn route_origin(&self, prefix: Prefix, origin: Asn) -> Option<Asn> {
        let (ps, os) = (prefix_salt(prefix), origin.value() as u64);
        if chance(self.seed, TAG_ROUTE_MISS, ps, os, self.route_missing) {
            return None;
        }
        Some(
            if chance(self.seed, TAG_ROUTE_WRONG, ps, os, self.route_contradict) {
                wrong_origin(origin)
            } else {
                origin
            },
        )
    }

    /// The ROA issued for an announced `(prefix, origin)` pair; `None`
    /// when none was.
    fn roa(&self, prefix: Prefix, origin: Asn) -> Option<Roa> {
        let (ps, os) = (prefix_salt(prefix), origin.value() as u64);
        if chance(self.seed, TAG_ROA_MISS, ps, os, self.roa_missing) {
            return None;
        }
        // Operators issue maxLength slack to keep their own
        // de-aggregation Valid — without it, every more-specific whose
        // own ROA fell to `roa_missing` would read as an RFC 6811
        // Invalid under the covering aggregate and the contradicted
        // rate would swamp the report.
        Some(Roa {
            prefix,
            max_length: prefix.len().saturating_add(8).min(32),
            origin: if chance(self.seed, TAG_ROA_WRONG, ps, os, self.roa_contradict) {
                wrong_origin(origin)
            } else {
                origin
            },
            expired: chance(self.seed, TAG_ROA_EXPIRE, ps, os, self.roa_expired),
        })
    }
}

/// 16-hex FxHash over a block's body — the `sig:` line's value.
fn block_sig(body: &str) -> String {
    let mut h = FxHasher::default();
    h.write(body.as_bytes());
    format!("{:016x}", h.finish())
}

fn push_block(out: &mut String, body: &str) {
    let body = body.trim_end_matches('\n');
    out.push_str(body);
    out.push('\n');
    out.push_str(&format!("sig:            {}\n\n", block_sig(body)));
}

/// One IXP's registration header inside the corpus: which route-server
/// ASN anchors `aut-num` registration checks and which as-set (if the
/// IXP publishes one) names the RS membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IxpMeta {
    /// IXP display name.
    pub name: String,
    /// The route-server ASN members register policy toward.
    pub rs_asn: Asn,
    /// The RS membership as-set, when the IXP publishes one.
    pub rs_set: Option<String>,
}

/// Render the full IRR/RPKI corpus for `eco` under `cfg`'s noise.
///
/// Layout: per-IXP headers (with as-sets where published), one
/// `aut-num` per RS member (RS policy lines plus optional per-peer
/// filters), `route` objects and ROAs for every (prefix, announcer)
/// pair over the IXP fabric, then the `end:` trailer. Deterministic
/// byte-for-byte in `(eco, cfg)`.
pub fn derive_corpus(eco: &Ecosystem, cfg: &CorpusConfig) -> String {
    let mut out = String::new();
    let mut objects: u64 = 0;
    let mut roas: u64 = 0;

    // ---- IXP headers + published as-sets. ----
    for ixp in &eco.ixps {
        let set_name = ixp
            .publishes_member_list
            .then(|| format!("AS-{}-RS", ixp.name.to_uppercase().replace(['-', '.'], "")));
        let mut body = format!(
            "ixp:            {}\nixp-name:       {}\nrs-asn:         AS{}\n",
            ixp.id.0,
            ixp.name,
            ixp.route_server.asn.value()
        );
        if let Some(name) = &set_name {
            body.push_str(&format!("rs-set:         {name}\n"));
        }
        push_block(&mut out, &body);
        objects += 1;

        if let Some(name) = set_name {
            let members: Vec<Asn> = ixp
                .rs_member_asns()
                .into_iter()
                .filter(|&a| !cfg.stale(ixp.id, a))
                .collect();
            let set = RpslObject::AsSet {
                name,
                members,
                sets: Vec::new(),
                source: Source::Ripe,
            };
            push_block(&mut out, &set.to_rpsl());
            objects += 1;
        }
    }

    // ---- One aut-num per RS member, merged across its IXPs. ----
    let mut policies: BTreeMap<Asn, (Vec<PolicyLine>, Vec<PolicyLine>)> = BTreeMap::new();
    for ixp in &eco.ixps {
        for asn in ixp.rs_member_asns() {
            let (imports, exports) = policies.entry(asn).or_default();
            if !cfg.stale(ixp.id, asn) {
                let rs = ixp.route_server.asn;
                imports.push(PolicyLine {
                    peer: rs,
                    allow: true,
                });
                exports.push(PolicyLine {
                    peer: rs,
                    allow: true,
                });
            }
            if !cfg.filters(ixp.id, asn) {
                continue;
            }
            let member = ixp.member(asn).expect("rs member exists");
            for peer in ixp.rs_member_asns() {
                if peer == asn {
                    continue;
                }
                let (export, import) = cfg.peer_lines(ixp.id, member, peer);
                exports.push(export);
                imports.push(import);
            }
        }
    }
    for (asn, (imports, exports)) in policies {
        let dedup = |lines: Vec<PolicyLine>| {
            let mut seen = BTreeSet::new();
            lines
                .into_iter()
                .filter(|l| seen.insert((l.peer, l.allow)))
                .collect::<Vec<_>>()
        };
        let aut = RpslObject::AutNum {
            asn,
            as_name: format!("MLP-AS{}", asn.value()),
            imports: dedup(imports),
            exports: dedup(exports),
            source: source_of(asn),
        };
        push_block(&mut out, &aut.to_rpsl());
        objects += 1;
    }

    // ---- Route objects + ROAs over the announced (prefix, origin)
    // universe: everything members push over the fabric, own prefixes
    // and proxy-registered customer-cone routes alike. ----
    let mut pairs: BTreeSet<(Prefix, Asn)> = BTreeSet::new();
    for ixp in &eco.ixps {
        for asn in ixp.rs_member_asns() {
            let member = ixp.member(asn).expect("rs member exists");
            for ann in &member.announcements {
                pairs.insert((ann.prefix, asn));
            }
        }
    }
    for &(prefix, origin) in &pairs {
        if let Some(registered) = cfg.route_origin(prefix, origin) {
            let route = RpslObject::Route {
                prefix,
                origin: registered,
                source: source_of(origin),
            };
            push_block(&mut out, &route.to_rpsl());
            objects += 1;
        }
    }
    for &(prefix, origin) in &pairs {
        if let Some(roa) = cfg.roa(prefix, origin) {
            push_block(&mut out, &roa.to_text());
            roas += 1;
        }
    }

    push_block(
        &mut out,
        &format!("end:            objects={objects} roas={roas}\n"),
    );
    out
}

/// Health of a parsed corpus, carried into every report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Registry objects parsed (IXP headers + RPSL objects).
    pub objects: u64,
    /// ROAs parsed.
    pub roas: u64,
    /// Blocks refused: signature mismatch, unparseable body, or a
    /// truncated tail.
    pub quarantined: u64,
    /// Trailer seen, counts reconciled, nothing quarantined after it.
    /// Confirmations require a complete corpus.
    pub complete: bool,
}

impl CorpusStats {
    /// Can this corpus confirm a link? Anything quarantined — or an
    /// unterminated stream — means evidence may be missing, so
    /// confirmation is off the table (contradiction is not: surviving
    /// blocks still speak).
    pub fn degraded(&self) -> bool {
        self.quarantined > 0 || !self.complete
    }
}

/// The outcome of [`parse_corpus`]: indexed registries plus health.
#[derive(Debug, Clone, Default)]
pub struct ParsedCorpus {
    /// Per-IXP registration headers.
    pub ixps: BTreeMap<IxpId, IxpMeta>,
    /// The RPSL side (aut-nums, as-sets, route objects).
    pub irr: IrrDatabase,
    /// The RPKI side, in corpus order.
    pub roas: Vec<Roa>,
    /// Parse health.
    pub stats: CorpusStats,
}

fn parse_ixp_meta(body: &str) -> Option<(IxpId, IxpMeta)> {
    let mut id = None;
    let mut name = None;
    let mut rs_asn = None;
    let mut rs_set = None;
    for line in body.lines() {
        let (key, value) = line.split_once(':')?;
        let value = value.trim();
        match key.trim() {
            "ixp" => id = Some(IxpId(value.parse().ok()?)),
            "ixp-name" => name = Some(value.to_string()),
            "rs-asn" => rs_asn = Some(value.parse::<Asn>().ok()?),
            "rs-set" => rs_set = Some(value.to_string()),
            _ => return None,
        }
    }
    Some((
        id?,
        IxpMeta {
            name: name?,
            rs_asn: rs_asn?,
            rs_set,
        },
    ))
}

fn parse_end_counts(body: &str) -> Option<(u64, u64)> {
    let (key, value) = body.trim().split_once(':')?;
    if key.trim() != "end" {
        return None;
    }
    let mut objects = None;
    let mut roas = None;
    for tok in value.split_whitespace() {
        match tok.split_once('=')? {
            ("objects", n) => objects = Some(n.parse().ok()?),
            ("roas", n) => roas = Some(n.parse().ok()?),
            _ => return None,
        }
    }
    Some((objects?, roas?))
}

/// Parse a corpus produced by [`derive_corpus`] (or any damaged copy of
/// one). Never panics: blocks whose `sig:` fails to verify — or whose
/// body does not parse — are quarantined, a missing or irreconcilable
/// `end:` trailer leaves the corpus incomplete, and scoring degrades
/// accordingly.
pub fn parse_corpus(text: &str) -> ParsedCorpus {
    let mut out = ParsedCorpus::default();
    let mut block: Vec<&str> = Vec::new();
    let mut end_counts: Option<(u64, u64)> = None;
    let mut after_end = false;

    let mut dispatch = |body: String, out: &mut ParsedCorpus| {
        if after_end {
            // Content after the trailer: the stream is not the one the
            // trailer described.
            out.stats.quarantined += 1;
            return;
        }
        let first_key = body
            .lines()
            .next()
            .and_then(|l| l.split_once(':'))
            .map(|(k, _)| k.trim().to_string())
            .unwrap_or_default();
        match first_key.as_str() {
            "ixp" => match parse_ixp_meta(&body) {
                Some((id, meta)) => {
                    out.ixps.insert(id, meta);
                    out.stats.objects += 1;
                }
                None => out.stats.quarantined += 1,
            },
            "roa" => match Roa::parse(&body) {
                Some(roa) => {
                    out.roas.push(roa);
                    out.stats.roas += 1;
                }
                None => out.stats.quarantined += 1,
            },
            "end" => match parse_end_counts(&body) {
                Some(counts) => {
                    end_counts = Some(counts);
                    after_end = true;
                }
                None => out.stats.quarantined += 1,
            },
            _ => match RpslObject::parse(&body) {
                Some(obj) => {
                    out.irr.objects.push(obj);
                    out.stats.objects += 1;
                }
                None => out.stats.quarantined += 1,
            },
        }
    };

    for line in text.lines() {
        let is_sig = line.split_once(':').is_some_and(|(k, _)| k.trim() == "sig");
        if is_sig {
            let body = block.join("\n");
            let claimed = line.split_once(':').expect("checked above").1.trim();
            if !block.is_empty() && claimed == block_sig(&body) {
                dispatch(body, &mut out);
            } else {
                out.stats.quarantined += 1;
            }
            block.clear();
        } else if line.trim().is_empty() {
            if !block.is_empty() {
                // A block interrupted by a blank line never reaches its
                // sig intact; count it once, here.
                out.stats.quarantined += 1;
                block.clear();
            }
        } else {
            block.push(line);
        }
    }
    if !block.is_empty() {
        // Truncated tail: lines with no sig to verify them.
        out.stats.quarantined += 1;
    }

    out.stats.complete =
        out.stats.quarantined == 0 && end_counts == Some((out.stats.objects, out.stats.roas));
    out
}

/// The three-way score of one inferred link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Registry evidence affirms the link.
    Confirmed,
    /// Registry is silent, partial, or too damaged to say.
    Unknown,
    /// Registry evidence speaks against the link.
    Contradicted,
}

impl Verdict {
    /// Lower-case wire name (`confirmed` / `unknown` / `contradicted`).
    pub fn code(self) -> &'static str {
        match self {
            Verdict::Confirmed => "confirmed",
            Verdict::Unknown => "unknown",
            Verdict::Contradicted => "contradicted",
        }
    }
}

/// Why a link scored the way it did. Declared in ladder order: the
/// first reason that applies wins, contradictions before gates before
/// confirmations before fallbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reason {
    /// An endpoint's aut-num denies the other (export or import),
    /// with no allow line overriding it.
    PolicyDenied,
    /// RFC 6811 Invalid in the majority: more of an endpoint's
    /// announced prefixes are covered-but-unauthorized than Valid.
    RoaOriginMismatch,
    /// Route-object mismatch in the majority: more of an endpoint's
    /// announced prefixes have route objects naming only other origins
    /// than ones naming the announcer.
    RouteOriginMismatch,
    /// The corpus is damaged or unterminated — nothing can be
    /// confirmed against evidence that may be missing.
    CorpusDegraded,
    /// An endpoint is registered at the IXP neither via the RS as-set
    /// nor via an aut-num export toward the RS ASN.
    Unregistered,
    /// Both endpoints' aut-nums carry explicit allow filters toward
    /// each other.
    MutualFilters,
    /// Both endpoints announce ROA-valid prefixes (and nothing
    /// invalid).
    RoaValidBoth,
    /// Both endpoints' announced prefixes match registered route
    /// objects (and nothing mismatches).
    RouteMatchBoth,
    /// Origin evidence covers one endpoint but not both.
    PartialCoverage,
    /// No origin or policy evidence on either endpoint.
    NoCoverage,
}

impl Reason {
    /// Every reason, in ladder order.
    pub const ALL: [Reason; 10] = [
        Reason::PolicyDenied,
        Reason::RoaOriginMismatch,
        Reason::RouteOriginMismatch,
        Reason::CorpusDegraded,
        Reason::Unregistered,
        Reason::MutualFilters,
        Reason::RoaValidBoth,
        Reason::RouteMatchBoth,
        Reason::PartialCoverage,
        Reason::NoCoverage,
    ];

    /// The verdict this reason implies.
    pub fn verdict(self) -> Verdict {
        match self {
            Reason::PolicyDenied | Reason::RoaOriginMismatch | Reason::RouteOriginMismatch => {
                Verdict::Contradicted
            }
            Reason::MutualFilters | Reason::RoaValidBoth | Reason::RouteMatchBoth => {
                Verdict::Confirmed
            }
            _ => Verdict::Unknown,
        }
    }

    /// Stable kebab-case wire code.
    pub fn code(self) -> &'static str {
        match self {
            Reason::PolicyDenied => "policy-denied",
            Reason::RoaOriginMismatch => "roa-origin-mismatch",
            Reason::RouteOriginMismatch => "route-origin-mismatch",
            Reason::CorpusDegraded => "corpus-degraded",
            Reason::Unregistered => "unregistered",
            Reason::MutualFilters => "mutual-filters",
            Reason::RoaValidBoth => "roa-valid-both",
            Reason::RouteMatchBoth => "route-match-both",
            Reason::PartialCoverage => "partial-coverage",
            Reason::NoCoverage => "no-coverage",
        }
    }

    /// Stable on-disk tag (see `mlpeer_store`'s codec).
    pub fn tag(self) -> u8 {
        match self {
            Reason::PolicyDenied => 0,
            Reason::RoaOriginMismatch => 1,
            Reason::RouteOriginMismatch => 2,
            Reason::CorpusDegraded => 3,
            Reason::Unregistered => 4,
            Reason::MutualFilters => 5,
            Reason::RoaValidBoth => 6,
            Reason::RouteMatchBoth => 7,
            Reason::PartialCoverage => 8,
            Reason::NoCoverage => 9,
        }
    }

    /// Inverse of [`tag`](Reason::tag); `None` on unknown tags.
    pub fn from_tag(tag: u8) -> Option<Reason> {
        Reason::ALL.into_iter().find(|r| r.tag() == tag)
    }
}

/// One scored link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkVerdict {
    /// The IXP the link was inferred at.
    pub ixp: IxpId,
    /// Lower endpoint.
    pub a: Asn,
    /// Higher endpoint.
    pub b: Asn,
    /// Why it scored the way it did ([`Reason::verdict`] gives the
    /// three-way score).
    pub reason: Reason,
}

/// confirmed / unknown / contradicted tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Links the registry affirms.
    pub confirmed: u64,
    /// Links the registry cannot speak to.
    pub unknown: u64,
    /// Links the registry speaks against.
    pub contradicted: u64,
}

impl VerdictCounts {
    fn bump(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Confirmed => self.confirmed += 1,
            Verdict::Unknown => self.unknown += 1,
            Verdict::Contradicted => self.contradicted += 1,
        }
    }

    /// Links scored in total.
    pub fn total(&self) -> u64 {
        self.confirmed + self.unknown + self.contradicted
    }
}

/// The cross-validation result served at `/v1/validate`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Parse health of the corpus the scores came from.
    pub corpus: CorpusStats,
    /// Whole-fabric tallies.
    pub totals: VerdictCounts,
    /// Per-IXP tallies.
    pub per_ixp: BTreeMap<IxpId, VerdictCounts>,
    /// How often each reason fired.
    pub reasons: BTreeMap<Reason, u64>,
}

/// Per-(IXP, member) origin-validation coverage, folded once over the
/// announcement set so scoring is O(links) afterwards.
#[derive(Debug, Clone, Copy, Default)]
struct Coverage {
    roa_valid: u32,
    roa_invalid: u32,
    route_match: u32,
    route_mismatch: u32,
}

// Bits of a `(from, to)` entry in [`CorpusFold`]: which kinds of
// aut-num line `from` registers toward `to`.
const EXPORT_ALLOW: u8 = 1;
const EXPORT_DENY: u8 = 2;
const IMPORT_ALLOW: u8 = 4;
const IMPORT_DENY: u8 = 8;

fn export_bit(allow: bool) -> u8 {
    if allow {
        EXPORT_ALLOW
    } else {
        EXPORT_DENY
    }
}

fn import_bit(allow: bool) -> u8 {
    if allow {
        IMPORT_ALLOW
    } else {
        IMPORT_DENY
    }
}

/// One IXP header as scoring reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Roster {
    /// The RS ASN an aut-num export registers toward.
    rs_asn: Asn,
    /// The members the IXP's as-set resolves to (empty when the IXP
    /// publishes none).
    as_set: BTreeSet<Asn>,
}

/// Everything [`score_links`] reads of a corpus, folded: which aut-num
/// lines exist per `(ASN, peer)`, each IXP's RS ASN and as-set roster,
/// the route origins per prefix, the ROAs, and the corpus health.
/// [`CorpusFold::of`] folds a parsed corpus; [`CorpusFold::derive`]
/// folds the corpus [`derive_corpus`] would render, without rendering
/// it. Equal folds score every link the same way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorpusFold {
    /// `(from, to)` → the `EXPORT_*` / `IMPORT_*` bits of the lines
    /// `from`'s aut-num holds toward `to`.
    lines: FxHashMap<(Asn, Asn), u8>,
    /// Per IXP header.
    rosters: BTreeMap<IxpId, Roster>,
    /// Prefix → the origins its route objects register.
    routes: FxHashMap<Prefix, BTreeSet<Asn>>,
    /// The ROAs, in corpus order.
    roas: RoaTable,
    /// Parse health.
    stats: CorpusStats,
}

impl CorpusFold {
    /// Fold a parsed corpus.
    pub fn of(corpus: &ParsedCorpus) -> CorpusFold {
        let mut fold = CorpusFold {
            roas: RoaTable::new(corpus.roas.clone()),
            stats: corpus.stats.clone(),
            ..CorpusFold::default()
        };
        for obj in &corpus.irr.objects {
            match obj {
                RpslObject::AutNum {
                    asn,
                    imports,
                    exports,
                    ..
                } => {
                    for l in exports {
                        *fold.lines.entry((*asn, l.peer)).or_default() |= export_bit(l.allow);
                    }
                    for l in imports {
                        *fold.lines.entry((*asn, l.peer)).or_default() |= import_bit(l.allow);
                    }
                }
                RpslObject::Route { prefix, origin, .. } => {
                    fold.routes.entry(*prefix).or_default().insert(*origin);
                }
                RpslObject::AsSet { .. } => {}
            }
        }
        for (&id, meta) in &corpus.ixps {
            let as_set = meta
                .rs_set
                .as_deref()
                .map(|name| corpus.irr.resolve_as_set(name).into_iter().collect())
                .unwrap_or_default();
            fold.rosters.insert(
                id,
                Roster {
                    rs_asn: meta.rs_asn,
                    as_set,
                },
            );
        }
        fold
    }

    /// Fold the corpus [`derive_corpus`] renders for `eco` under `cfg`
    /// without rendering or parsing any text: the same noise decisions,
    /// and the ROAs in the corpus's order.
    pub fn derive(eco: &Ecosystem, cfg: &CorpusConfig) -> CorpusFold {
        let mut fold = CorpusFold::default();
        let mut autnums: FxHashSet<Asn> = FxHashSet::default();
        let mut pairs: Vec<(Prefix, Asn)> = Vec::new();
        for ixp in &eco.ixps {
            // The header, and the as-set where one is published.
            fold.stats.objects += 1 + u64::from(ixp.publishes_member_list);
            let rs = ixp.route_server.asn;
            let members: Vec<&IxpMember> = ixp.members.values().filter(|m| m.rs_member).collect();
            let mut as_set = BTreeSet::new();
            for &member in &members {
                let asn = member.asn;
                autnums.insert(asn);
                if !cfg.stale(ixp.id, asn) {
                    if ixp.publishes_member_list {
                        as_set.insert(asn);
                    }
                    *fold.lines.entry((asn, rs)).or_default() |= IMPORT_ALLOW | EXPORT_ALLOW;
                }
                if cfg.filters(ixp.id, asn) {
                    for peer in members.iter().filter(|p| p.asn != asn) {
                        let (export, import) = cfg.peer_lines(ixp.id, member, peer.asn);
                        *fold.lines.entry((asn, peer.asn)).or_default() |=
                            export_bit(export.allow) | import_bit(import.allow);
                    }
                }
                pairs.extend(member.announcements.iter().map(|ann| (ann.prefix, asn)));
            }
            fold.rosters.insert(ixp.id, Roster { rs_asn: rs, as_set });
        }
        // One aut-num per RS member, and one route object and ROA per
        // announced pair, however many IXPs they come from.
        fold.stats.objects += autnums.len() as u64;
        pairs.sort_unstable();
        pairs.dedup();
        let mut roas = Vec::new();
        for &(prefix, origin) in &pairs {
            if let Some(registered) = cfg.route_origin(prefix, origin) {
                fold.routes.entry(prefix).or_default().insert(registered);
                fold.stats.objects += 1;
            }
            roas.extend(cfg.roa(prefix, origin));
        }
        fold.stats.roas = roas.len() as u64;
        fold.roas = RoaTable::new(roas);
        fold.stats.complete = true;
        fold
    }

    /// Score `links` with their announcement set (sorted and
    /// deduplicated, as [`crate::index::scan::announcements`] gives
    /// it): for the fold of `validate_harvest`'s corpus, its report.
    pub fn report(&self, links: &MlpLinkSet, announcements: &[Announcement]) -> ValidationReport {
        self.score(links, announcements, |_| {})
    }

    /// The line bits `from`'s aut-num holds toward `to`.
    fn bits(&self, from: Asn, to: Asn) -> u8 {
        self.lines.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Is `asn` registered under `roster`, by the as-set or by an
    /// aut-num export toward the RS ASN?
    fn registered(&self, roster: Option<&Roster>, asn: Asn) -> bool {
        roster.is_some_and(|r| {
            r.as_set.contains(&asn) || self.bits(asn, r.rs_asn) & EXPORT_ALLOW != 0
        })
    }

    /// Score every link against the fold, handing each verdict to
    /// `each` in `(ixp, a, b)` order.
    fn score(
        &self,
        links: &MlpLinkSet,
        announcements: &[Announcement],
        mut each: impl FnMut(LinkVerdict),
    ) -> ValidationReport {
        // ---- Origin coverage per (IXP, member), one announcement scan. ----
        let mut coverage: FxHashMap<(IxpId, Asn), Coverage> = FxHashMap::default();
        for &(prefix, ixp, member) in announcements {
            let cov = coverage.entry((ixp, member)).or_default();
            match self.roas.validate(prefix, member) {
                RoaOutcome::Valid => cov.roa_valid += 1,
                RoaOutcome::Invalid => cov.roa_invalid += 1,
                RoaOutcome::NotFound => {}
            }
            if let Some(origins) = self.routes.get(&prefix) {
                if origins.contains(&member) {
                    cov.route_match += 1;
                } else {
                    cov.route_mismatch += 1;
                }
            }
        }

        // ---- The ladder, per link. ----
        let mut report = ValidationReport {
            corpus: self.stats.clone(),
            ..ValidationReport::default()
        };
        let mut reasons = [0u64; Reason::ALL.len()];
        for (&ixp, pairs) in links.per_ixp.iter().filter(|(_, pairs)| !pairs.is_empty()) {
            let roster = self.rosters.get(&ixp);
            let tally = report.per_ixp.entry(ixp).or_default();
            for &(a, b) in pairs {
                let cov_a = coverage.get(&(ixp, a)).copied().unwrap_or_default();
                let cov_b = coverage.get(&(ixp, b)).copied().unwrap_or_default();
                let reason = self.ladder(roster, a, b, cov_a, cov_b);
                let verdict = reason.verdict();
                report.totals.bump(verdict);
                tally.bump(verdict);
                reasons[reason.tag() as usize] += 1;
                each(LinkVerdict { ixp, a, b, reason });
            }
        }
        for reason in Reason::ALL {
            let n = reasons[reason.tag() as usize];
            if n > 0 {
                report.reasons.insert(reason, n);
            }
        }
        report
    }

    /// The verdict ladder for one link at the IXP `roster` describes:
    /// the first rung that applies wins.
    fn ladder(
        &self,
        roster: Option<&Roster>,
        a: Asn,
        b: Asn,
        cov_a: Coverage,
        cov_b: Coverage,
    ) -> Reason {
        let (ab, ba) = (self.bits(a, b), self.bits(b, a));
        // An endpoint refuses the other when its aut-num holds a deny
        // line toward it with no allow line of the same kind: an allow
        // anywhere overrides a deny toward the same peer (registries
        // accumulate; openness wins over a stale deny).
        let only = |bits: u8, deny: u8, allow: u8| bits & deny != 0 && bits & allow == 0;
        let refuses = |bits: u8| {
            only(bits, EXPORT_DENY, EXPORT_ALLOW) || only(bits, IMPORT_DENY, IMPORT_ALLOW)
        };
        // Majority rules, not single-route vetoes: real tables carry
        // stray RFC 6811 Invalids (a specific's ROA lapsed under
        // someone's covering aggregate) and stray route-object
        // mismatches, and relying parties don't de-peer over one. The
        // registry contradicts an endpoint only when its bad evidence
        // outweighs its good.
        let roa_bad = |c: Coverage| c.roa_invalid > c.roa_valid;
        let route_bad = |c: Coverage| c.route_mismatch > c.route_match;
        if refuses(ab) || refuses(ba) {
            Reason::PolicyDenied
        } else if roa_bad(cov_a) || roa_bad(cov_b) {
            Reason::RoaOriginMismatch
        } else if route_bad(cov_a) || route_bad(cov_b) {
            Reason::RouteOriginMismatch
        } else if self.stats.degraded() {
            Reason::CorpusDegraded
        } else if !self.registered(roster, a) || !self.registered(roster, b) {
            Reason::Unregistered
        } else if ab & ba & EXPORT_ALLOW != 0 {
            Reason::MutualFilters
        } else if cov_a.roa_valid > 0 && cov_b.roa_valid > 0 {
            Reason::RoaValidBoth
        } else if cov_a.route_match > 0 && cov_b.route_match > 0 {
            Reason::RouteMatchBoth
        } else if cov_a.roa_valid > 0
            || cov_b.roa_valid > 0
            || cov_a.route_match > 0
            || cov_b.route_match > 0
        {
            Reason::PartialCoverage
        } else {
            Reason::NoCoverage
        }
    }
}

/// Score every inferred link against a parsed corpus. Returns the
/// aggregate report and the per-link verdicts (ordered by `(ixp, a,
/// b)`, exactly the iteration order of `links.per_ixp`).
pub fn score_links(
    corpus: &ParsedCorpus,
    links: &MlpLinkSet,
    announcements: &[Announcement],
) -> (ValidationReport, Vec<LinkVerdict>) {
    let mut verdicts = Vec::new();
    let report = CorpusFold::of(corpus).score(links, announcements, |v| verdicts.push(v));
    (report, verdicts)
}

/// The whole stage in one call: derive the corpus from `eco`, parse it
/// back, and score `links` against it using the announcement set the
/// observations support. A pure function of its arguments — serial,
/// sharded and distributed harvests that agree on `(links,
/// observations)` get byte-identical reports.
pub fn validate_harvest(
    eco: &Ecosystem,
    links: &MlpLinkSet,
    observations: &[Observation],
    cfg: &CorpusConfig,
) -> ValidationReport {
    let text = derive_corpus(eco, cfg);
    let corpus = parse_corpus(&text);
    let announcements = crate::index::scan::announcements(links, observations);
    score_links(&corpus, links, &announcements).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::ObservationSink;
    use mlpeer_ixp::EcosystemConfig;

    fn small_eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig::tiny(7))
    }

    fn harvest(eco: &Ecosystem) -> (MlpLinkSet, Vec<Observation>) {
        let (conn, observations) = crate::live::full_harvest(eco);
        let mut inferencer = crate::infer::LinkInferencer::default();
        for o in &observations {
            inferencer.push(o.clone());
        }
        (inferencer.finalize(&conn), observations)
    }

    #[test]
    fn corpus_derivation_is_deterministic() {
        let eco = small_eco();
        let cfg = CorpusConfig::seeded(5);
        assert_eq!(derive_corpus(&eco, &cfg), derive_corpus(&eco, &cfg));
        assert_ne!(
            derive_corpus(&eco, &cfg),
            derive_corpus(&eco, &CorpusConfig::seeded(6)),
            "the seed must actually steer the noise"
        );
    }

    #[test]
    fn pristine_corpus_parses_complete() {
        let eco = small_eco();
        let text = derive_corpus(&eco, &CorpusConfig::seeded(5));
        let corpus = parse_corpus(&text);
        assert_eq!(corpus.stats.quarantined, 0, "nothing to quarantine");
        assert!(corpus.stats.complete, "trailer must reconcile");
        assert!(!corpus.stats.degraded());
        assert!(corpus.stats.objects > 0);
        assert!(corpus.stats.roas > 0);
        assert_eq!(corpus.ixps.len(), eco.ixps.len());
        assert_eq!(corpus.roas.len() as u64, corpus.stats.roas);
    }

    #[test]
    fn corrupted_block_is_quarantined_not_believed() {
        let eco = small_eco();
        let text = derive_corpus(&eco, &CorpusConfig::seeded(5));
        // Flip one byte inside the first aut-num's policy line.
        let damaged = text.replacen("accept ANY", "accept NAY", 1);
        assert_ne!(damaged, text, "corpus must contain an RS import line");
        let corpus = parse_corpus(&damaged);
        assert_eq!(corpus.stats.quarantined, 1);
        assert!(!corpus.stats.complete, "counts no longer reconcile");
        assert!(corpus.stats.degraded());
    }

    #[test]
    fn truncated_corpus_is_incomplete() {
        let eco = small_eco();
        let text = derive_corpus(&eco, &CorpusConfig::seeded(5));
        let cut = parse_corpus(&text[..text.len() / 2]);
        assert!(cut.stats.degraded(), "half a corpus cannot be complete");
    }

    #[test]
    fn end_to_end_scores_every_link_deterministically() {
        let eco = small_eco();
        let (links, observations) = harvest(&eco);
        let cfg = CorpusConfig::seeded(5);
        let report = validate_harvest(&eco, &links, &observations, &cfg);
        let links_total: u64 = links.per_ixp.values().map(|s| s.len() as u64).sum();
        assert_eq!(report.totals.total(), links_total, "every link scored");
        assert_eq!(
            report
                .per_ixp
                .values()
                .map(VerdictCounts::total)
                .sum::<u64>(),
            links_total,
            "per-IXP tallies partition the totals"
        );
        assert_eq!(
            report.reasons.values().sum::<u64>(),
            links_total,
            "reason tallies partition the totals"
        );
        assert!(!report.corpus.degraded());
        assert_eq!(
            report,
            validate_harvest(&eco, &links, &observations, &cfg),
            "byte-identical on re-run"
        );
    }

    #[test]
    fn degraded_corpus_never_confirms() {
        let eco = small_eco();
        let (links, observations) = harvest(&eco);
        let text = derive_corpus(&eco, &CorpusConfig::seeded(5));
        let announcements = crate::index::scan::announcements(&links, &observations);
        // Quarantine the as-set blocks: confirmation evidence gone.
        let damaged = text.replace("as-set:", "as-sot:");
        let corpus = parse_corpus(&damaged);
        assert!(corpus.stats.degraded());
        let (report, _) = score_links(&corpus, &links, &announcements);
        assert_eq!(report.totals.confirmed, 0, "degraded ⇒ nothing confirmed");
    }

    #[test]
    fn reason_tags_round_trip() {
        for reason in Reason::ALL {
            assert_eq!(Reason::from_tag(reason.tag()), Some(reason));
        }
        assert_eq!(Reason::from_tag(200), None);
    }
}
