//! Passive inference from collector archives (§4.2), as a streaming,
//! shardable pipeline.
//!
//! Walk every archived route (RIB dumps and non-transient updates),
//! sanitize the AS path, identify which IXP the attached RS communities
//! belong to (via the dictionary), pin-point the *RS setter* — the
//! member that applied them — and push reachability observations into
//! an [`ObservationSink`] for the link-inference stage.
//!
//! The workload is embarrassingly parallel per collector:
//! [`harvest_passive_sharded`] fans collectors out across threads, each
//! shard folding into its own sink ([`MergeSink`]) and
//! [`PassiveStats`], and the shard states merge — commutatively for
//! stats and inference state, in collector order for collected
//! observation vectors — to exactly the serial [`harvest_passive`]
//! result. On a single thread the sharded entry point runs the serial
//! fold directly: shard/merge overhead cannot be amortized without
//! parallelism (a one-thread record once measured the fan-out at
//! 0.92× serial).
//!
//! Both walk the decoded [`MrtArchive`]s of a [`PassiveDataset`]
//! (`MrtRibEntry` / `RouteAttrs` per route) through one route
//! processor.
//!
//! Setter pin-pointing follows §4.2's three cases, given the IXP's
//! known members on the path:
//!
//! 1. fewer than two members → cannot pin-point, drop;
//! 2. exactly two members → the one closest to the origin is the setter;
//! 3. more than two → locate the p2p edge among them using inferred AS
//!    relationships; the setter is the member on the origin side of it.

use std::ops::{Add, AddAssign};

use mlpeer_bgp::mrt::MrtArchive;
use mlpeer_bgp::{Asn, Prefix};
use mlpeer_ixp::ixp::IxpId;
use mlpeer_ixp::scheme::RsAction;
use mlpeer_topo::infer::InferredRelationships;
use mlpeer_topo::relationship::Relationship;
use rayon::prelude::*;

use mlpeer_data::collector::PassiveDataset;

use crate::connectivity::ConnectivityData;
use crate::dict::CommunityDictionary;
use crate::hash::{FxHashMap, FxHashSet};
use crate::infer::{Observation, ObservationSource};
use crate::sink::{MergeSink, ObservationSink};

/// Passive-pipeline parameters.
#[derive(Debug, Clone)]
pub struct PassiveConfig {
    /// An announcement withdrawn within this many seconds is transient
    /// and ignored ("we also filtered out transient AS paths", §5).
    pub transient_secs: u32,
}

impl Default for PassiveConfig {
    fn default() -> Self {
        PassiveConfig {
            transient_secs: 6 * 3600,
        }
    }
}

/// Statistics from a passive run (for reports and tests). Per-shard
/// stats sum ([`Add`] / [`merge`](PassiveStats::merge)) to exactly the
/// serial totals — every field is a plain count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassiveStats {
    /// Routes examined.
    pub routes_seen: usize,
    /// Dropped: bogon ASN in path.
    pub dropped_bogon: usize,
    /// Dropped: path cycle.
    pub dropped_cycle: usize,
    /// Dropped: transient announcement.
    pub dropped_transient: usize,
    /// Routes with communities that no scheme identified.
    pub unidentified: usize,
    /// Routes where the setter could not be pin-pointed (case 1).
    pub setter_unknown: usize,
    /// Observations emitted.
    pub observations: usize,
    /// Corrupt MRT records quarantined. No harvest sets it, so it is
    /// always 0: every harvest walks decoded archives, which hold no
    /// corrupt records. It stays because the epoch log's record v3,
    /// the multi-process wire format and `/v1/stats` all carry it, so
    /// dropping it is a format change.
    pub quarantined: usize,
}

impl PassiveStats {
    /// Fold another shard's counts into this one.
    pub fn merge(&mut self, other: &PassiveStats) {
        self.routes_seen += other.routes_seen;
        self.dropped_bogon += other.dropped_bogon;
        self.dropped_cycle += other.dropped_cycle;
        self.dropped_transient += other.dropped_transient;
        self.unidentified += other.unidentified;
        self.setter_unknown += other.setter_unknown;
        self.observations += other.observations;
        self.quarantined += other.quarantined;
    }
}

impl AddAssign for PassiveStats {
    fn add_assign(&mut self, rhs: PassiveStats) {
        self.merge(&rhs);
    }
}

impl Add for PassiveStats {
    type Output = PassiveStats;

    fn add(mut self, rhs: PassiveStats) -> PassiveStats {
        self += rhs;
        self
    }
}

/// Per-IXP RS-member sets in hashed form, resolved once per harvest
/// instead of once per route (`ConnectivityData::rs_members` builds a
/// fresh ordered set on every call — fine at a report boundary, not in
/// a loop over every archived route). IXP ids are dense (`IxpId(0..n)`
/// from the generator), so the outer dimension is a flat `Vec` indexed
/// by the id — the per-route lookup is a bounds check, not a hash.
#[derive(Debug, Clone, Default)]
struct MemberIndex {
    per_ixp: Vec<FxHashSet<Asn>>,
}

impl MemberIndex {
    fn build(conn: &ConnectivityData) -> Self {
        let mut per_ixp: Vec<FxHashSet<Asn>> = Vec::new();
        for ixp in conn.ixps() {
            let i = usize::from(ixp.0);
            if i >= per_ixp.len() {
                per_ixp.resize_with(i + 1, FxHashSet::default);
            }
            per_ixp[i] = conn.rs_members(ixp).into_iter().collect();
        }
        MemberIndex { per_ixp }
    }

    #[inline]
    fn members(&self, ixp: IxpId) -> Option<&FxHashSet<Asn>> {
        self.per_ixp.get(usize::from(ixp.0))
    }
}

/// Run the passive pipeline over a dataset, streaming observations into
/// `sink`.
pub fn harvest_passive<S: ObservationSink>(
    dataset: &PassiveDataset,
    dict: &CommunityDictionary,
    conn: &ConnectivityData,
    rels: &InferredRelationships,
    cfg: &PassiveConfig,
    sink: &mut S,
) -> PassiveStats {
    let index = MemberIndex::build(conn);
    let mut stats = PassiveStats::default();
    for (_, archive) in &dataset.collectors {
        harvest_archive(archive, dict, &index, rels, cfg, sink, &mut stats);
    }
    stats
}

/// One unit of sharded work. RIB entries are independent, so a
/// collector's RIB splits into contiguous chunks; the update stream
/// stays whole per collector because transient filtering pairs
/// announcements with their withdrawals across the stream.
enum ShardUnit<'a> {
    Rib(&'a [mlpeer_bgp::mrt::MrtRibEntry]),
    Updates(&'a MrtArchive),
}

/// Run the passive pipeline sharded across threads: per collector, and
/// within a collector per RIB chunk, so the fan-out scales with cores
/// rather than with the collector count. Each shard folds into its own
/// `S`; shard sinks merge in input order and shard stats sum,
/// reproducing the serial [`harvest_passive`] exactly — for any thread
/// or chunk count (see the `sharded_passive_matches_serial` tests).
pub fn harvest_passive_sharded<S>(
    dataset: &PassiveDataset,
    dict: &CommunityDictionary,
    conn: &ConnectivityData,
    rels: &InferredRelationships,
    cfg: &PassiveConfig,
) -> (S, PassiveStats)
where
    S: ObservationSink + MergeSink + Default + Send,
{
    // One worker means the fan-out can only add shard/merge overhead
    // (once measured at 0.92x serial on 1 thread): take the serial path.
    if rayon::current_num_threads() <= 1 {
        let mut sink = S::default();
        let stats = harvest_passive(dataset, dict, conn, rels, cfg, &mut sink);
        return (sink, stats);
    }
    let index = MemberIndex::build(conn);
    // ~4 chunks per worker balances stragglers without drowning in
    // merge overhead; chunking never changes the merged result. The
    // floor keeps chunks big enough that per-shard sink setup and the
    // merge fold stay amortized.
    let total_rib: usize = dataset.collectors.iter().map(|(_, a)| a.rib.len()).sum();
    let chunk_len = shard_chunk_len(total_rib);
    let mut units: Vec<ShardUnit<'_>> = Vec::new();
    for (_, archive) in &dataset.collectors {
        for chunk in archive.rib.chunks(chunk_len) {
            units.push(ShardUnit::Rib(chunk));
        }
        if !archive.updates.is_empty() {
            units.push(ShardUnit::Updates(archive));
        }
    }
    units
        .par_iter()
        .map(|unit| {
            let mut sink = S::default();
            let mut stats = PassiveStats::default();
            match unit {
                ShardUnit::Rib(entries) => {
                    process_rib_entries(entries, dict, &index, rels, &mut sink, &mut stats)
                }
                ShardUnit::Updates(archive) => {
                    process_update_stream(archive, dict, &index, rels, cfg, &mut sink, &mut stats)
                }
            }
            (sink, stats)
        })
        .reduce(
            || (S::default(), PassiveStats::default()),
            |(mut sink, mut stats), (shard_sink, shard_stats)| {
                sink.merge(shard_sink);
                stats.merge(&shard_stats);
                (sink, stats)
            },
        )
}

/// Chunk length for sharded RIB fan-out: ~4 chunks per worker, floored
/// so per-shard setup and merge folds stay amortized.
fn shard_chunk_len(total_rib: usize) -> usize {
    (total_rib / (rayon::current_num_threads() * 4).max(1)).max(2048)
}

/// One *addressable* unit of distributable passive work — the
/// wire-shippable form of the in-process shard units above. A worker
/// process regenerates the dataset locally and resolves these indices
/// against it, so only a few integers cross the process boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkUnit {
    /// RIB entries `[start, end)` of the collector at index
    /// `collector`.
    Rib {
        /// Collector index in `dataset.collectors`.
        collector: u32,
        /// First RIB entry (inclusive).
        start: u64,
        /// Past-the-end RIB entry (exclusive).
        end: u64,
    },
    /// The whole update stream of the collector at index `collector`
    /// (transient filtering pairs announcements with their withdrawals
    /// across the stream, so it never splits).
    Updates {
        /// Collector index in `dataset.collectors`.
        collector: u32,
    },
}

/// Enumerate a dataset's work units in **serial order** — per
/// collector: RIB chunks first, then the update stream — so harvesting
/// the units in order and concatenating the observations reproduces
/// [`harvest_passive`] exactly, for any `chunk_len` and any contiguous
/// partition of the unit list.
pub fn passive_work_units(dataset: &PassiveDataset, chunk_len: usize) -> Vec<WorkUnit> {
    let chunk_len = chunk_len.max(1);
    let mut units = Vec::new();
    for (c, (_, archive)) in dataset.collectors.iter().enumerate() {
        let mut start = 0usize;
        while start < archive.rib.len() {
            let end = (start + chunk_len).min(archive.rib.len());
            units.push(WorkUnit::Rib {
                collector: c as u32,
                start: start as u64,
                end: end as u64,
            });
            start = end;
        }
        if !archive.updates.is_empty() {
            units.push(WorkUnit::Updates {
                collector: c as u32,
            });
        }
    }
    units
}

/// Approximate route count of one unit — the balancing weight the
/// distributed coordinator partitions by.
pub fn work_unit_weight(dataset: &PassiveDataset, unit: &WorkUnit) -> usize {
    match *unit {
        WorkUnit::Rib { start, end, .. } => (end.saturating_sub(start)) as usize,
        WorkUnit::Updates { collector } => dataset
            .collectors
            .get(collector as usize)
            .map(|(_, a)| a.updates.len())
            .unwrap_or(0),
    }
}

/// Harvest exactly `units`, in the given order, into `sink` — the
/// distributed worker's entry point (and the coordinator's in-process
/// fallback). Indices outside the dataset are skipped or clamped, so a
/// stale unit list can never panic the worker.
pub fn harvest_passive_units<S: ObservationSink>(
    dataset: &PassiveDataset,
    dict: &CommunityDictionary,
    conn: &ConnectivityData,
    rels: &InferredRelationships,
    cfg: &PassiveConfig,
    units: &[WorkUnit],
    sink: &mut S,
) -> PassiveStats {
    let index = MemberIndex::build(conn);
    let mut stats = PassiveStats::default();
    for unit in units {
        match *unit {
            WorkUnit::Rib {
                collector,
                start,
                end,
            } => {
                let Some((_, archive)) = dataset.collectors.get(collector as usize) else {
                    continue;
                };
                let len = archive.rib.len() as u64;
                let (s, e) = (start.min(len) as usize, end.min(len) as usize);
                if s < e {
                    process_rib_entries(&archive.rib[s..e], dict, &index, rels, sink, &mut stats);
                }
            }
            WorkUnit::Updates { collector } => {
                let Some((_, archive)) = dataset.collectors.get(collector as usize) else {
                    continue;
                };
                process_update_stream(archive, dict, &index, rels, cfg, sink, &mut stats);
            }
        }
    }
    stats
}

/// One shard: every route of one collector's archive.
fn harvest_archive<S: ObservationSink>(
    archive: &MrtArchive,
    dict: &CommunityDictionary,
    index: &MemberIndex,
    rels: &InferredRelationships,
    cfg: &PassiveConfig,
    sink: &mut S,
    stats: &mut PassiveStats,
) {
    process_rib_entries(&archive.rib, dict, index, rels, sink, stats);
    process_update_stream(archive, dict, index, rels, cfg, sink, stats);
}

/// RIB snapshot entries (independent per entry).
fn process_rib_entries<S: ObservationSink>(
    entries: &[mlpeer_bgp::mrt::MrtRibEntry],
    dict: &CommunityDictionary,
    index: &MemberIndex,
    rels: &InferredRelationships,
    sink: &mut S,
    stats: &mut PassiveStats,
) {
    for entry in entries {
        stats.routes_seen += 1;
        process_route(
            &entry.attrs.as_path.dedup_prepends(),
            &entry.attrs.communities,
            entry.prefix,
            dict,
            index,
            rels,
            sink,
            stats,
        );
    }
}

/// The update stream, with transient filtering (whole per collector).
fn process_update_stream<S: ObservationSink>(
    archive: &MrtArchive,
    dict: &CommunityDictionary,
    index: &MemberIndex,
    rels: &InferredRelationships,
    cfg: &PassiveConfig,
    sink: &mut S,
    stats: &mut PassiveStats,
) {
    for (path, communities, prefix) in stable_updates(archive, cfg.transient_secs, stats) {
        stats.routes_seen += 1;
        process_route(&path, &communities, prefix, dict, index, rels, sink, stats);
    }
}

/// A pending announcement: timestamp, deduplicated path, communities.
type PendingRoute = (u32, Vec<Asn>, mlpeer_bgp::CommunitySet);

/// Extract announcements from the update stream that were *not*
/// withdrawn within the transient window.
fn stable_updates(
    archive: &MrtArchive,
    transient_secs: u32,
    stats: &mut PassiveStats,
) -> Vec<(Vec<Asn>, mlpeer_bgp::CommunitySet, Prefix)> {
    // (peer, prefix) → announce timestamp of the last announcement.
    // Hashed for the hot insert/remove churn; drained through a sort at
    // the end so downstream processing order stays deterministic.
    let mut out = Vec::new();
    let mut pending: FxHashMap<(u16, Prefix), PendingRoute> = FxHashMap::default();
    for u in &archive.updates {
        for w in &u.update.withdrawn {
            if let Some((t0, _, _)) = pending.get(&(u.peer_index, *w)) {
                if u.timestamp.saturating_sub(*t0) < transient_secs {
                    pending.remove(&(u.peer_index, *w));
                    stats.dropped_transient += 1;
                }
            }
        }
        if let Some(attrs) = &u.update.attrs {
            for p in &u.update.nlri {
                pending.insert(
                    (u.peer_index, *p),
                    (
                        u.timestamp,
                        attrs.as_path.dedup_prepends(),
                        attrs.communities.clone(),
                    ),
                );
            }
        }
    }
    let mut stable: Vec<((u16, Prefix), PendingRoute)> = pending.into_iter().collect();
    stable.sort_unstable_by_key(|(key, _)| *key);
    for ((_, prefix), (_, path, communities)) in stable {
        out.push((path, communities, prefix));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn process_route<S: ObservationSink>(
    path: &[Asn],
    communities: &mlpeer_bgp::CommunitySet,
    prefix: Prefix,
    dict: &CommunityDictionary,
    index: &MemberIndex,
    rels: &InferredRelationships,
    sink: &mut S,
    stats: &mut PassiveStats,
) {
    // §5 path sanitation.
    if path.iter().any(|a| a.is_path_bogon()) {
        stats.dropped_bogon += 1;
        return;
    }
    if has_cycle(path) {
        stats.dropped_cycle += 1;
        return;
    }
    if communities.is_empty() {
        return;
    }
    // Which IXP set these communities?
    let Some(identified) = dict.identify(communities) else {
        stats.unidentified += 1;
        return;
    };
    // Pin-point the setter among the IXP's members on the path.
    static NO_MEMBERS: std::sync::OnceLock<FxHashSet<Asn>> = std::sync::OnceLock::new();
    let members = index
        .members(identified.ixp)
        .unwrap_or_else(|| NO_MEMBERS.get_or_init(FxHashSet::default));
    let Some(setter) = pinpoint_setter(path, members, rels, &identified.actions) else {
        stats.setter_unknown += 1;
        return;
    };
    stats.observations += 1;
    sink.push(Observation {
        ixp: identified.ixp,
        member: setter,
        prefix,
        actions: identified.actions,
        source: ObservationSource::Passive,
    });
}

/// §4.2's three-case RS-setter identification, shared by the passive
/// pipeline and the member-LG active fallback.
///
/// * fewer than two known members on the path → `None` (case 1);
/// * exactly two → the one closest to the origin (case 2);
/// * more than two → the member on the origin side of the p2p edge
///   located with inferred relationships, falling back to the member
///   closest to the origin (case 3).
///
/// The decoded `actions` prune impossible crossings: a setter never
/// EXCLUDEs itself, and the member that *received* the route across the
/// route server must be allowed by the setter's decoded policy.
pub fn pinpoint_setter(
    path: &[Asn],
    members: &FxHashSet<Asn>,
    rels: &InferredRelationships,
    actions: &[RsAction],
) -> Option<Asn> {
    let on_path: Vec<usize> = (0..path.len())
        .filter(|&i| members.contains(&path[i]))
        .collect();
    if on_path.len() < 2 {
        return None;
    }
    let policy = mlpeer_ixp::policy::ExportPolicy::from_actions(actions.iter().copied());
    let self_excluded: FxHashSet<Asn> = actions
        .iter()
        .filter_map(|a| match a {
            RsAction::Exclude(p) => Some(*p),
            _ => None,
        })
        .collect();
    // The route-server crossing joins two *adjacent* members (the
    // receiver re-announced the setter's route directly). Candidate
    // crossings are the adjacent member pairs consistent with the
    // decoded filter.
    let adjacent: Vec<usize> = on_path
        .windows(2)
        .filter(|w| w[1] == w[0] + 1)
        .map(|w| w[0])
        .filter(|&i| {
            let (receiver, setter) = (path[i], path[i + 1]);
            policy.allows(receiver) && !self_excluded.contains(&setter)
        })
        .collect();
    if adjacent.is_empty() {
        // Members scattered (partial connectivity hides the receiver):
        // with exactly two members the paper's case 2 picks the one
        // closest to the origin; more than two stays ambiguous.
        return if on_path.len() == 2 && !self_excluded.contains(&path[on_path[1]]) {
            Some(path[on_path[1]])
        } else {
            None
        };
    }
    // Valley-free paths cross at most one peer edge, so prefer the
    // adjacent pair inferred p2p. Failing that, an observer that is
    // *itself* a member (an RS feeder, or the member LG host) received
    // the route on its own RS session, so the crossing is the leading
    // pair — relationship inference cannot help there because the
    // observer never appears mid-path. Then try a pair with no inferred
    // relationship. The setter is always the origin-side member of the
    // chosen pair.
    let rel_of = |i: usize| rels.rel(path[i], path[i + 1]);
    if let Some(&i) = adjacent
        .iter()
        .find(|&&i| rel_of(i) == Some(Relationship::P2p))
    {
        return Some(path[i + 1]);
    }
    if adjacent.first() == Some(&0) {
        return Some(path[1]);
    }
    if let Some(&i) = adjacent.iter().find(|&&i| rel_of(i).is_none()) {
        return Some(path[i + 1]);
    }
    // Every remaining candidate pair is classified as a transit edge. A
    // single one is the hybrid transit-over-RS crossing of §5.6 (it
    // sits closest to the origin). Several mean a member re-announced a
    // customer's route into the RS with its own communities riding on
    // the customer chain — attributing the setter by position would
    // routinely pick the customer and fabricate its reachability, so
    // the case stays ambiguous and is dropped (conservative, like the
    // paper's reciprocity requirement).
    match adjacent[..] {
        [only] => Some(path[only + 1]),
        _ => None,
    }
}

fn has_cycle(path: &[Asn]) -> bool {
    for (i, a) in path.iter().enumerate() {
        for (j, b) in path.iter().enumerate().skip(i + 1) {
            if a == b && j - i > 1 {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::ConnSource;
    use crate::dict::{CommunityDictionary, DictEntry};
    use crate::infer::LinkInferencer;
    use crate::sink::CountingSink;
    use mlpeer_bgp::mrt::{MrtRibEntry, MrtUpdate};
    use mlpeer_bgp::route::RouteAttrs;
    use mlpeer_bgp::update::UpdateMessage;
    use mlpeer_bgp::{AsPath, CommunitySet};
    use mlpeer_ixp::scheme::{CommunityScheme, RsAction, SchemeStyle};
    use mlpeer_topo::infer::{infer_relationships, InferConfig};

    fn dict_and_conn() -> (CommunityDictionary, ConnectivityData) {
        // One DE-CIX-like IXP (6695) with members 101, 102, 103.
        let mut scheme = CommunityScheme::new(Asn(6695), SchemeStyle::AsnBased);
        for m in [101u32, 102, 103] {
            scheme.register_member(Asn(m));
        }
        let mut conn = ConnectivityData::default();
        for m in [101u32, 102, 103] {
            conn.record(IxpId(0), Asn(m), ConnSource::LookingGlass);
        }
        let dict = CommunityDictionary::new(vec![DictEntry {
            ixp: IxpId(0),
            name: "DE-CIX".into(),
            scheme,
            rs_members: conn.rs_members(IxpId(0)),
        }]);
        (dict, conn)
    }

    fn archive_with(entries: Vec<(Vec<u32>, &str, &str)>) -> PassiveDataset {
        // entries: (path, communities, prefix)
        let mut a = MrtArchive::new();
        let idx = a.add_peer(Asn(999), "10.0.0.1".parse().unwrap());
        for (path, comm, prefix) in entries {
            let attrs = RouteAttrs::new(
                AsPath::from_seq(path.into_iter().map(Asn)),
                "10.0.0.2".parse().unwrap(),
            )
            .with_communities(comm.parse::<CommunitySet>().unwrap());
            a.rib.push(MrtRibEntry {
                peer_index: idx,
                originated: 0,
                prefix: prefix.parse().unwrap(),
                attrs,
            });
        }
        PassiveDataset {
            collectors: vec![("rv".into(), a)],
            vps: vec![],
        }
    }

    fn no_rels() -> InferredRelationships {
        infer_relationships(&[], &InferConfig::default())
    }

    fn harvest_collect(
        ds: &PassiveDataset,
        dict: &CommunityDictionary,
        conn: &ConnectivityData,
        rels: &InferredRelationships,
    ) -> (Vec<Observation>, PassiveStats) {
        let mut obs = Vec::new();
        let stats = harvest_passive(ds, dict, conn, rels, &Default::default(), &mut obs);
        (obs, stats)
    }

    #[test]
    fn figure4_feeder_scenario() {
        // E(999) ← D(102) ← {A(101), B(103)} via the route server.
        // Routes: E D A with A's communities, E D B with B's, E D C…
        let (dict, conn) = dict_and_conn();
        let ds = archive_with(vec![
            (
                vec![999, 102, 101],
                "0:6695 6695:102 6695:103",
                "10.1.0.0/24",
            ),
            (vec![999, 102, 103], "6695:6695", "10.3.0.0/24"),
        ]);
        let (obs, stats) = harvest_collect(&ds, &dict, &conn, &no_rels());
        assert_eq!(stats.observations, 2);
        // Setter = member closest to origin (case 2).
        assert_eq!(obs[0].member, Asn(101));
        assert_eq!(obs[0].ixp, IxpId(0));
        assert!(obs[0].actions.contains(&RsAction::None));
        assert!(obs[0].actions.contains(&RsAction::Include(Asn(102))));
        assert_eq!(obs[1].member, Asn(103));
        assert_eq!(obs[1].actions, vec![RsAction::All]);
    }

    #[test]
    fn sanitation_drops_bogons_and_cycles() {
        let (dict, conn) = dict_and_conn();
        let ds = archive_with(vec![
            (vec![999, 23456, 101], "6695:6695", "10.1.0.0/24"),
            (vec![999, 102, 999, 101], "6695:6695", "10.2.0.0/24"),
            (vec![999, 102, 101], "6695:6695", "10.3.0.0/24"),
        ]);
        let (obs, stats) = harvest_collect(&ds, &dict, &conn, &no_rels());
        assert_eq!(stats.dropped_bogon, 1);
        assert_eq!(stats.dropped_cycle, 1);
        assert_eq!(obs.len(), 1);
    }

    #[test]
    fn single_member_on_path_cannot_pinpoint() {
        let (dict, conn) = dict_and_conn();
        // Only member 101 on the path: case 1, dropped.
        let ds = archive_with(vec![(vec![999, 101], "6695:6695", "10.1.0.0/24")]);
        let (obs, stats) = harvest_collect(&ds, &dict, &conn, &no_rels());
        assert!(obs.is_empty());
        assert_eq!(stats.setter_unknown, 1);
    }

    #[test]
    fn case3_uses_relationships() {
        let (dict, conn) = dict_and_conn();
        // Path 999 103 102 101 with all three on path. Teach the
        // relationship inference that 103–102 is c2p (so not the peer
        // edge) and 102–101 is p2p (RS edge): setter = 101.
        let teaching_paths: Vec<Vec<Asn>> = vec![
            // 102 and 101 peer (seen only from below); 103 buys from 102.
            vec![Asn(201), Asn(102), Asn(101), Asn(301)],
            vec![Asn(302), Asn(101), Asn(102), Asn(202)],
            vec![Asn(999), Asn(102), Asn(103)],
            vec![Asn(998), Asn(102), Asn(103)],
            vec![Asn(201), Asn(102), Asn(103)],
        ];
        let rels = infer_relationships(
            &teaching_paths,
            &InferConfig {
                clique_size: 0,
                ..Default::default()
            },
        );
        assert_eq!(rels.rel(Asn(101), Asn(102)), Some(Relationship::P2p));
        let ds = archive_with(vec![(
            vec![999, 103, 102, 101],
            "0:6695 6695:102 6695:103",
            "10.1.0.0/24",
        )]);
        let (obs, _) = harvest_collect(&ds, &dict, &conn, &rels);
        assert_eq!(obs.len(), 1);
        assert_eq!(
            obs[0].member,
            Asn(101),
            "setter is on the origin side of the p2p edge"
        );
    }

    #[test]
    fn transient_updates_filtered() {
        let (dict, conn) = dict_and_conn();
        let mut a = MrtArchive::new();
        let idx = a.add_peer(Asn(999), "10.0.0.1".parse().unwrap());
        let attrs = RouteAttrs::new(
            AsPath::from_seq([Asn(999), Asn(102), Asn(101)]),
            "10.0.0.2".parse().unwrap(),
        )
        .with_communities("6695:6695 0:103".parse().unwrap());
        // Announced at t=100, withdrawn at t=1000 (< 6h): transient.
        a.updates.push(MrtUpdate {
            peer_index: idx,
            timestamp: 100,
            update: UpdateMessage::announce(attrs.clone(), vec!["10.5.0.0/24".parse().unwrap()]),
        });
        a.updates.push(MrtUpdate {
            peer_index: idx,
            timestamp: 1_000,
            update: UpdateMessage::withdraw(vec!["10.5.0.0/24".parse().unwrap()]),
        });
        // A second announcement that stays up.
        a.updates.push(MrtUpdate {
            peer_index: idx,
            timestamp: 2_000,
            update: UpdateMessage::announce(attrs, vec!["10.6.0.0/24".parse().unwrap()]),
        });
        let ds = PassiveDataset {
            collectors: vec![("rv".into(), a)],
            vps: vec![],
        };
        let (obs, stats) = harvest_collect(&ds, &dict, &conn, &no_rels());
        assert_eq!(stats.dropped_transient, 1);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].prefix, "10.6.0.0/24".parse().unwrap());
        assert_eq!(obs[0].source, ObservationSource::Passive);
    }

    #[test]
    fn unidentified_communities_counted() {
        let (dict, conn) = dict_and_conn();
        let ds = archive_with(vec![(vec![999, 102, 101], "3356:2001", "10.1.0.0/24")]);
        let (obs, stats) = harvest_collect(&ds, &dict, &conn, &no_rels());
        assert!(obs.is_empty());
        assert_eq!(stats.unidentified, 1);
    }

    #[test]
    fn stats_add_is_fieldwise() {
        let a = PassiveStats {
            routes_seen: 1,
            dropped_bogon: 2,
            dropped_cycle: 3,
            dropped_transient: 4,
            unidentified: 5,
            setter_unknown: 6,
            observations: 7,
            quarantined: 8,
        };
        let b = PassiveStats {
            routes_seen: 10,
            dropped_bogon: 20,
            dropped_cycle: 30,
            dropped_transient: 40,
            unidentified: 50,
            setter_unknown: 60,
            observations: 70,
            quarantined: 80,
        };
        let sum = a.clone() + b.clone();
        assert_eq!(sum.routes_seen, 11);
        assert_eq!(sum.dropped_bogon, 22);
        assert_eq!(sum.dropped_cycle, 33);
        assert_eq!(sum.dropped_transient, 44);
        assert_eq!(sum.unidentified, 55);
        assert_eq!(sum.setter_unknown, 66);
        assert_eq!(sum.observations, 77);
        let mut via_merge = a;
        via_merge.merge(&b);
        assert_eq!(via_merge, sum);
    }

    /// The sharding contract on a hand-built multi-collector dataset:
    /// identical observations (collector order), stats, and inference
    /// state, at 1, 2 and 4 pinned threads (1 takes the serial
    /// fallback; more fan out whatever the host's CPU count). The
    /// ecosystem-scale version lives in the workspace integration
    /// tests.
    #[test]
    fn sharded_matches_serial_on_multi_collector_dataset() {
        let (dict, conn) = dict_and_conn();
        let ds_a = archive_with(vec![
            (
                vec![999, 102, 101],
                "0:6695 6695:102 6695:103",
                "10.1.0.0/24",
            ),
            (vec![999, 102, 103], "6695:6695", "10.3.0.0/24"),
        ]);
        let ds_b = archive_with(vec![
            (vec![999, 23456, 101], "6695:6695", "10.4.0.0/24"),
            (vec![999, 103, 102], "6695:6695 0:101", "10.5.0.0/24"),
        ]);
        let dataset = PassiveDataset {
            collectors: vec![
                ("rv".into(), ds_a.collectors[0].1.clone()),
                ("ris".into(), ds_b.collectors[0].1.clone()),
            ],
            vps: vec![],
        };
        let rels = no_rels();

        let mut serial_sink: (Vec<Observation>, LinkInferencer) = Default::default();
        let serial_stats = harvest_passive(
            &dataset,
            &dict,
            &conn,
            &rels,
            &Default::default(),
            &mut serial_sink,
        );
        assert!(serial_stats.observations > 0);
        let serial_links = serial_sink.1.finalize(&conn);
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (sharded_sink, sharded_stats) = pool.install(|| {
                harvest_passive_sharded::<(Vec<Observation>, LinkInferencer)>(
                    &dataset,
                    &dict,
                    &conn,
                    &rels,
                    &Default::default(),
                )
            });
            assert_eq!(sharded_stats, serial_stats, "{threads} threads");
            assert_eq!(
                sharded_sink.0, serial_sink.0,
                "observations in collector order at {threads} threads"
            );
            assert_eq!(
                sharded_sink.1.finalize(&conn),
                serial_links,
                "identical inference state at {threads} threads"
            );
        }
    }

    /// The distributable-unit contract: enumerating every [`WorkUnit`]
    /// and harvesting them in order — whole, or split across disjoint
    /// contiguous slices and folded in slice order — reproduces
    /// [`harvest_passive`] exactly, for any chunk length. Out-of-range
    /// units are ignored, never panic.
    #[test]
    fn work_units_in_order_match_serial() {
        let (dict, conn) = dict_and_conn();
        let ds_a = archive_with(vec![
            (
                vec![999, 102, 101],
                "0:6695 6695:102 6695:103",
                "10.1.0.0/24",
            ),
            (vec![999, 102, 103], "6695:6695", "10.3.0.0/24"),
            (vec![999, 103, 101], "6695:6695", "10.6.0.0/24"),
        ]);
        let ds_b = archive_with(vec![
            (vec![999, 23456, 101], "6695:6695", "10.4.0.0/24"),
            (vec![999, 103, 102], "6695:6695 0:101", "10.5.0.0/24"),
        ]);
        let dataset = PassiveDataset {
            collectors: vec![
                ("rv".into(), ds_a.collectors[0].1.clone()),
                ("ris".into(), ds_b.collectors[0].1.clone()),
            ],
            vps: vec![],
        };
        let rels = no_rels();
        let cfg = PassiveConfig::default();

        let mut serial_sink: (Vec<Observation>, LinkInferencer) = Default::default();
        let serial_stats = harvest_passive(&dataset, &dict, &conn, &rels, &cfg, &mut serial_sink);
        let serial_links = serial_sink.1.finalize(&conn);

        for chunk_len in [1usize, 2, 1024] {
            let units = passive_work_units(&dataset, chunk_len);
            assert!(units.iter().all(
                |u| work_unit_weight(&dataset, u) > 0 || matches!(u, WorkUnit::Updates { .. })
            ));
            // Whole list in one call.
            let mut whole: (Vec<Observation>, LinkInferencer) = Default::default();
            let whole_stats =
                harvest_passive_units(&dataset, &dict, &conn, &rels, &cfg, &units, &mut whole);
            assert_eq!(whole_stats, serial_stats);
            assert_eq!(whole.0, serial_sink.0);
            assert_eq!(whole.1.finalize(&conn), serial_links);

            // Split into contiguous slices (incl. an empty middle one),
            // folded in slice order via the merge sink.
            let mid = units.len() / 2;
            let slices: [&[WorkUnit]; 3] = [&units[..mid], &[], &units[mid..]];
            let mut folded: (Vec<Observation>, LinkInferencer) = Default::default();
            let mut folded_stats = PassiveStats::default();
            for slice in slices {
                let mut shard: (Vec<Observation>, LinkInferencer) = Default::default();
                let stats =
                    harvest_passive_units(&dataset, &dict, &conn, &rels, &cfg, slice, &mut shard);
                folded.0.extend(shard.0);
                crate::sink::MergeSink::merge(&mut folded.1, shard.1);
                folded_stats.merge(&stats);
            }
            assert_eq!(folded_stats, serial_stats);
            assert_eq!(folded.0, serial_sink.0);
            assert_eq!(folded.1.finalize(&conn), serial_links);
        }

        // Stale indices are ignored or clamped, never a panic.
        let stale = [
            WorkUnit::Rib {
                collector: 99,
                start: 0,
                end: 10,
            },
            WorkUnit::Updates { collector: 99 },
            WorkUnit::Rib {
                collector: 0,
                start: 1_000,
                end: 2_000,
            },
        ];
        let mut sink: (Vec<Observation>, LinkInferencer) = Default::default();
        let stats = harvest_passive_units(&dataset, &dict, &conn, &rels, &cfg, &stale, &mut sink);
        assert_eq!(stats, PassiveStats::default());
        assert!(sink.0.is_empty());
    }

    #[test]
    fn counting_sink_matches_stats() {
        let (dict, conn) = dict_and_conn();
        let ds = archive_with(vec![
            (vec![999, 102, 101], "6695:6695", "10.1.0.0/24"),
            (vec![999, 102, 103], "6695:6695", "10.3.0.0/24"),
        ]);
        let mut sink = CountingSink::default();
        let stats = harvest_passive(
            &ds,
            &dict,
            &conn,
            &no_rels(),
            &Default::default(),
            &mut sink,
        );
        assert_eq!(sink.0, stats.observations);
        assert_eq!(sink.0, 2);
    }
}
