//! Live mode: incremental inference over a BGP update stream, with
//! retraction.
//!
//! The batch pipeline (§4.1) folds a finished harvest; live mode folds
//! the route server's *session traffic* as it happens. A
//! [`LiveEvent`] — member join/leave, per-prefix announce with its
//! community-decoded filter actions, withdraw — is applied by
//! [`LiveInferencer::apply`], which updates `N_{a,p}`, the per-member
//! reach summaries, and the reciprocal link set *for the touched member
//! only*, returning the [`LinkDelta`] (links appearing/disappearing)
//! instead of recomputing the world.
//!
//! **The correctness anchor** (property-tested in this module and in
//! `tests/` over random churn schedules): after *any* event sequence,
//! [`LiveInferencer::current`] is byte-identical — same deterministic
//! JSON — to [`crate::infer::infer_links`] over [`full_harvest`] of the
//! final ecosystem state. Retraction exactly inverts observation:
//! a withdraw (or leave) leaves no residue that a from-scratch harvest
//! would not also see.
//!
//! Why retraction is possible here when [`crate::infer::LinkInferencer`]
//! cannot: the batch inferencer folds an *unordered multiset* of
//! observations (any vantage point may re-observe a route), so its
//! per-prefix state is a monotone union that cannot forget. The live
//! stream is a *session*: BGP's implicit-withdraw rule means the latest
//! announcement for `(member, prefix)` replaces everything before it,
//! so per-prefix state is "latest policy", and withdraw simply deletes
//! it.

use std::collections::{BTreeMap, BTreeSet};

use mlpeer_bgp::stream::TimedMessage;
use mlpeer_bgp::update::BgpMessage;
use mlpeer_bgp::{Asn, Prefix};
use mlpeer_ixp::ixp::IxpId;
use mlpeer_ixp::policy::ExportPolicy;
use mlpeer_ixp::route_server::RouteServer;
use mlpeer_ixp::scheme::{CommunityScheme, RsAction};
use mlpeer_ixp::Ecosystem;

use crate::connectivity::{ConnSource, ConnectivityData};
use crate::hash::FxHashMap;
use crate::index::Announcement;
use crate::infer::{MlpLinkSet, Observation, ObservationSource};
use crate::sink::ObservationSink;

/// One decoded event on a route server's session stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveEvent {
    /// A member opened its RS session (no reachability data yet).
    Join {
        /// The IXP whose route server the session is with.
        ixp: IxpId,
        /// The member.
        member: Asn,
    },
    /// A member closed its RS session; all its state retracts.
    Leave {
        /// The IXP.
        ixp: IxpId,
        /// The member.
        member: Asn,
    },
    /// A member announced `prefix` with these decoded filter actions
    /// (BGP implicit withdraw: replaces any earlier announcement of the
    /// same prefix).
    Announce {
        /// The IXP.
        ixp: IxpId,
        /// The RS setter.
        member: Asn,
        /// The announced prefix.
        prefix: Prefix,
        /// Decoded RS actions (empty = default ALL).
        actions: Vec<RsAction>,
    },
    /// A member withdrew `prefix`; its per-prefix state retracts.
    Withdraw {
        /// The IXP.
        ixp: IxpId,
        /// The member.
        member: Asn,
        /// The withdrawn prefix.
        prefix: Prefix,
    },
}

/// Decode one session message from `ixp`'s route server into live
/// events, using the IXP's documented community scheme — the same
/// decoding step the passive pipeline applies to archived routes
/// (§4.2), minus the IXP-identification problem (a session stream knows
/// its IXP).
pub fn decode_message(ixp: IxpId, scheme: &CommunityScheme, m: &TimedMessage) -> Vec<LiveEvent> {
    match &m.msg {
        BgpMessage::Open { asn, .. } => vec![LiveEvent::Join { ixp, member: *asn }],
        BgpMessage::Notification { .. } => vec![LiveEvent::Leave {
            ixp,
            member: m.from,
        }],
        BgpMessage::Keepalive => Vec::new(),
        BgpMessage::Update(u) => {
            let mut out: Vec<LiveEvent> = u
                .withdrawn
                .iter()
                .map(|p| LiveEvent::Withdraw {
                    ixp,
                    member: m.from,
                    prefix: *p,
                })
                .collect();
            if let Some(attrs) = &u.attrs {
                let actions: Vec<RsAction> = attrs
                    .communities
                    .iter()
                    .filter_map(|c| scheme.decode(c))
                    .collect();
                for p in &u.nlri {
                    out.push(LiveEvent::Announce {
                        ixp,
                        member: m.from,
                        prefix: *p,
                        actions: actions.clone(),
                    });
                }
            }
            out
        }
    }
}

/// The link-level difference one event (or one batch) produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkDelta {
    /// Links that appeared, as `(ixp, a, b)` with `a < b`.
    pub added: Vec<(IxpId, Asn, Asn)>,
    /// Links that disappeared.
    pub removed: Vec<(IxpId, Asn, Asn)>,
}

impl LinkDelta {
    /// No change at all?
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// The link-level diff turning `old` into `new`: what a restart
    /// bridge must publish so `/v1/changes` composes across the last
    /// persisted link set and a freshly bootstrapped one.
    pub fn between(old: &MlpLinkSet, new: &MlpLinkSet) -> LinkDelta {
        let empty = BTreeSet::new();
        let ixps: BTreeSet<IxpId> = old
            .per_ixp
            .keys()
            .chain(new.per_ixp.keys())
            .copied()
            .collect();
        let mut delta = LinkDelta::default();
        for ixp in ixps {
            let o = old.per_ixp.get(&ixp).unwrap_or(&empty);
            let n = new.per_ixp.get(&ixp).unwrap_or(&empty);
            for &(a, b) in n.difference(o) {
                delta.added.push((ixp, a, b));
            }
            for &(a, b) in o.difference(n) {
                delta.removed.push((ixp, a, b));
            }
        }
        delta
    }

    /// Fold another delta in (sequential composition). An add then
    /// remove of the same link cancels out, and vice versa.
    pub fn merge(&mut self, other: LinkDelta) {
        for l in other.added {
            if let Some(i) = self.removed.iter().position(|x| *x == l) {
                self.removed.swap_remove(i);
            } else {
                self.added.push(l);
            }
        }
        for l in other.removed {
            if let Some(i) = self.added.iter().position(|x| *x == l) {
                self.added.swap_remove(i);
            } else {
                self.removed.push(l);
            }
        }
    }
}

/// The effective export reach of one member, folded over all its
/// announced prefixes: `N_a` as a *predicate* rather than a
/// materialized set, so membership churn elsewhere never invalidates
/// it. `⋂_p (A_RS − E_p)` stays "everyone except ∪E_p"; one
/// `NONE + INCLUDE` prefix collapses it to an explicit allow set.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Reach {
    /// Allowed unless excluded on some prefix.
    Excl(BTreeSet<Asn>),
    /// Allowed only if included on every include-mode prefix (and never
    /// excluded).
    Incl(BTreeSet<Asn>),
}

impl Reach {
    fn allows(&self, x: Asn) -> bool {
        match self {
            Reach::Excl(e) => !e.contains(&x),
            Reach::Incl(i) => i.contains(&x),
        }
    }

    /// Fold the per-prefix policies into the intersection predicate.
    fn summarize<'a, I: IntoIterator<Item = &'a ExportPolicy>>(policies: I) -> Reach {
        let mut excl: BTreeSet<Asn> = BTreeSet::new();
        let mut incl: Option<BTreeSet<Asn>> = None;
        for p in policies {
            match p {
                ExportPolicy::AllMembers => {}
                ExportPolicy::AllExcept(e) => excl.extend(e.iter().copied()),
                ExportPolicy::OnlyTo(i) => {
                    incl = Some(match incl {
                        None => i.clone(),
                        Some(prev) => prev.intersection(i).copied().collect(),
                    });
                }
                ExportPolicy::Nobody => incl = Some(BTreeSet::new()),
            }
        }
        match incl {
            Some(i) => Reach::Incl(i.difference(&excl).copied().collect()),
            None => Reach::Excl(excl),
        }
    }
}

/// The incremental link inferencer behind live mode.
///
/// Holds the per-session reachability state (latest policy per
/// `(ixp, member, prefix)`), per-member reach summaries, and the
/// *maintained* [`MlpLinkSet`]; [`apply`](LiveInferencer::apply)
/// updates all three per event and reports the [`LinkDelta`].
#[derive(Debug, Clone, Default)]
pub struct LiveInferencer {
    /// Open RS sessions per IXP (the live analog of `A_RS`).
    members: FxHashMap<IxpId, BTreeSet<Asn>>,
    /// Latest effective policy per announced prefix.
    reach: FxHashMap<(IxpId, Asn), BTreeMap<Prefix, ExportPolicy>>,
    /// Cached reach predicate per covered member.
    summaries: FxHashMap<(IxpId, Asn), Reach>,
    /// The maintained link set (always equal to a from-scratch
    /// finalize over the current state).
    links: MlpLinkSet,
    /// Events applied since construction.
    events: u64,
    /// Bumped whenever the *served* state (reach data) actually
    /// mutates — i.e. whenever a fresh snapshot would render
    /// differently. Pure no-ops (re-announces of the same policy,
    /// messages for unknown sessions, membership-only changes) do not
    /// bump it.
    state_version: u64,
}

impl LiveInferencer {
    /// An empty inferencer (no sessions, no links).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bootstrap from an ecosystem's current route-server state — the
    /// live-mode equivalent of the one-shot harvest. Built by folding
    /// [`full_harvest`]'s own output (sessions from its connectivity,
    /// one policy per observation), so the equivalence anchor and the
    /// bootstrap share one encode→decode path by construction; links
    /// are rebuilt once at the end instead of per event.
    pub fn from_ecosystem(eco: &Ecosystem) -> Self {
        let (conn, observations) = full_harvest(eco);
        let mut li = LiveInferencer::new();
        for ixp in conn.ixps() {
            li.members
                .entry(ixp)
                .or_default()
                .extend(conn.rs_members(ixp));
        }
        for obs in observations {
            li.reach
                .entry((obs.ixp, obs.member))
                .or_default()
                .insert(obs.prefix, ExportPolicy::from_actions(obs.actions));
        }
        li.rebuild();
        li
    }

    /// Events applied so far.
    pub fn event_count(&self) -> u64 {
        self.events
    }

    /// Monotone version of the served state: advances exactly when a
    /// snapshot rendered now would differ from one rendered before the
    /// last event (new/changed/withdrawn per-prefix policies) — links
    /// may or may not have moved. The live refresher publishes when
    /// either this advanced or the link delta is non-empty.
    pub fn state_version(&self) -> u64 {
        self.state_version
    }

    /// The maintained link set. Always identical to what a from-scratch
    /// harvest of the current state would infer.
    pub fn current(&self) -> &MlpLinkSet {
        &self.links
    }

    /// Materialize the canonical observation list of the current state
    /// (one observation per `(ixp, member, prefix)`, sorted) — what a
    /// from-scratch harvest would stream, used to build indexed
    /// snapshots over live state.
    pub fn observations(&self) -> Vec<Observation> {
        let mut keys: Vec<&(IxpId, Asn)> = self.reach.keys().collect();
        keys.sort_unstable();
        let mut out = Vec::new();
        for key in keys {
            for (prefix, policy) in &self.reach[key] {
                out.push(Observation {
                    ixp: key.0,
                    member: key.1,
                    prefix: *prefix,
                    actions: canonical_actions(policy),
                    source: ObservationSource::ActiveRsLg,
                });
            }
        }
        out
    }

    /// The announcement set of the current state, sorted and
    /// deduplicated: exactly [`crate::index::scan::announcements`] over
    /// [`current`](LiveInferencer::current) and
    /// [`observations`](LiveInferencer::observations), without
    /// materializing either. Every `(ixp, member)` with reach data is
    /// covered (an announce covers its member, and losing the last
    /// prefix uncovers it), so no filter is needed.
    pub fn announcements(&self) -> Vec<Announcement> {
        let mut out: Vec<Announcement> = Vec::with_capacity(self.observation_count());
        for (&(ixp, member), prefixes) in &self.reach {
            out.extend(prefixes.keys().map(|&prefix| (prefix, ixp, member)));
        }
        out.sort_unstable();
        out
    }

    /// How many observations [`observations`](LiveInferencer::observations)
    /// would materialize: one per `(ixp, member, prefix)`.
    pub fn observation_count(&self) -> usize {
        self.reach.values().map(BTreeMap::len).sum()
    }

    /// Apply one event; returns the links that appeared/disappeared.
    pub fn apply(&mut self, event: &LiveEvent) -> LinkDelta {
        self.events += 1;
        match event {
            LiveEvent::Join { ixp, member } => {
                self.members.entry(*ixp).or_default().insert(*member);
                LinkDelta::default()
            }
            LiveEvent::Leave { ixp, member } => {
                let present = self.members.get_mut(ixp).is_some_and(|s| s.remove(member));
                if !present {
                    return LinkDelta::default();
                }
                self.retract_member(*ixp, *member)
            }
            LiveEvent::Announce {
                ixp,
                member,
                prefix,
                actions,
            } => {
                // Announcements from an AS without an open session are
                // dropped, exactly as finalize() drops observations for
                // members outside `A_RS`.
                if !self.members.get(ixp).is_some_and(|s| s.contains(member)) {
                    return LinkDelta::default();
                }
                let policy = ExportPolicy::from_actions(actions.iter().copied());
                let map = self.reach.entry((*ixp, *member)).or_default();
                let newly_covered = map.is_empty();
                if map.get(prefix) == Some(&policy) {
                    return LinkDelta::default(); // re-announce, nothing changed
                }
                map.insert(*prefix, policy);
                self.state_version += 1;
                if newly_covered {
                    self.links.covered.entry(*ixp).or_default().insert(*member);
                    self.links.per_ixp.entry(*ixp).or_default();
                }
                self.refresh_member(*ixp, *member)
            }
            LiveEvent::Withdraw {
                ixp,
                member,
                prefix,
            } => {
                let Some(map) = self.reach.get_mut(&(*ixp, *member)) else {
                    return LinkDelta::default();
                };
                if map.remove(prefix).is_none() {
                    return LinkDelta::default();
                }
                self.state_version += 1;
                if map.is_empty() {
                    self.reach.remove(&(*ixp, *member));
                    self.uncover(*ixp, *member)
                } else {
                    self.refresh_member(*ixp, *member)
                }
            }
        }
    }

    /// Recompute `member`'s summary, default policy, and links after
    /// its per-prefix state changed (it is covered).
    fn refresh_member(&mut self, ixp: IxpId, member: Asn) -> LinkDelta {
        let map = &self.reach[&(ixp, member)];
        let summary = Reach::summarize(map.values());
        let default_policy = map
            .first_key_value()
            .map(|(_, p)| p.clone())
            .expect("covered member announces at least one prefix");
        self.links.policies.insert((ixp, member), default_policy);
        let unchanged = self.summaries.get(&(ixp, member)) == Some(&summary);
        self.summaries.insert((ixp, member), summary);
        if unchanged {
            // Policy shuffle with the same net reach (e.g. a withdraw
            // of a redundant prefix): links cannot have moved.
            return LinkDelta::default();
        }
        self.relink(ixp, member)
    }

    /// Remove a member's session state entirely (leave).
    fn retract_member(&mut self, ixp: IxpId, member: Asn) -> LinkDelta {
        if self.reach.remove(&(ixp, member)).is_some() {
            self.state_version += 1;
        }
        self.uncover(ixp, member)
    }

    /// Drop a member from the covered set (no reachability data left)
    /// and retract its links.
    fn uncover(&mut self, ixp: IxpId, member: Asn) -> LinkDelta {
        self.summaries.remove(&(ixp, member));
        self.links.policies.remove(&(ixp, member));
        let was_covered = self
            .links
            .covered
            .get_mut(&ixp)
            .is_some_and(|s| s.remove(&member));
        if !was_covered {
            return LinkDelta::default();
        }
        let delta = self.relink(ixp, member);
        // Finalize-shape invariant: the per-IXP entries exist iff the
        // IXP has a covered member.
        if self.links.covered.get(&ixp).is_some_and(BTreeSet::is_empty) {
            self.links.covered.remove(&ixp);
            let links = self.links.per_ixp.remove(&ixp);
            debug_assert!(links.is_none_or(|l| l.is_empty()));
        }
        delta
    }

    /// Re-derive every link involving `member` at `ixp` against the
    /// maintained set — O(covered members), the per-event hot path.
    fn relink(&mut self, ixp: IxpId, member: Asn) -> LinkDelta {
        let mut delta = LinkDelta::default();
        let Some(covered) = self.links.covered.get(&ixp) else {
            return delta;
        };
        let me_covered = covered.contains(&member);
        let my_summary = self.summaries.get(&(ixp, member));
        let others: Vec<Asn> = covered.iter().copied().filter(|&b| b != member).collect();
        let links = self.links.per_ixp.entry(ixp).or_default();
        for b in others {
            let want = me_covered
                && my_summary.is_some_and(|s| s.allows(b))
                && self.summaries[&(ixp, b)].allows(member);
            let pair = if member < b { (member, b) } else { (b, member) };
            if want {
                if links.insert(pair) {
                    delta.added.push((ixp, pair.0, pair.1));
                }
            } else if links.remove(&pair) {
                delta.removed.push((ixp, pair.0, pair.1));
            }
        }
        delta
    }

    /// Rebuild summaries and the link set from the session state — the
    /// bootstrap path (per-event maintenance takes over afterwards).
    fn rebuild(&mut self) {
        self.summaries.clear();
        self.links = MlpLinkSet::default();
        for ((ixp, member), map) in &self.reach {
            self.summaries
                .insert((*ixp, *member), Reach::summarize(map.values()));
            self.links.covered.entry(*ixp).or_default().insert(*member);
            self.links.per_ixp.entry(*ixp).or_default();
            let default_policy = map
                .first_key_value()
                .map(|(_, p)| p.clone())
                .expect("reach entries are non-empty");
            self.links.policies.insert((*ixp, *member), default_policy);
        }
        let per_ixp_covered: Vec<(IxpId, Vec<Asn>)> = self
            .links
            .covered
            .iter()
            .map(|(ixp, s)| (*ixp, s.iter().copied().collect()))
            .collect();
        for (ixp, asns) in per_ixp_covered {
            let links = self.links.per_ixp.entry(ixp).or_default();
            for (i, &a) in asns.iter().enumerate() {
                let sa = &self.summaries[&(ixp, a)];
                for &b in &asns[i + 1..] {
                    if sa.allows(b) && self.summaries[&(ixp, b)].allows(a) {
                        links.insert((a, b));
                    }
                }
            }
        }
    }
}

/// Live state is itself a sink: streaming an observation is an
/// announce. Note the session gate still applies — an observation for
/// a member with no open `Join`ed session is dropped, mirroring how
/// `finalize()` drops observations for members outside `A_RS`. Feeding
/// a harvest into a live instance therefore requires opening the
/// sessions first (e.g. a `Join` per member in the connectivity data);
/// without that, every observation is silently ignored.
impl ObservationSink for LiveInferencer {
    fn push(&mut self, obs: Observation) {
        self.apply(&LiveEvent::Announce {
            ixp: obs.ixp,
            member: obs.member,
            prefix: obs.prefix,
            actions: obs.actions,
        });
    }
}

/// The canonical action encoding of a policy (what
/// [`LiveInferencer::observations`] emits): round-trips through
/// [`ExportPolicy::from_actions`] to the same policy.
fn canonical_actions(policy: &ExportPolicy) -> Vec<RsAction> {
    match policy {
        ExportPolicy::AllMembers => vec![RsAction::All],
        ExportPolicy::AllExcept(e) => std::iter::once(RsAction::All)
            .chain(e.iter().map(|&a| RsAction::Exclude(a)))
            .collect(),
        ExportPolicy::OnlyTo(i) => std::iter::once(RsAction::None)
            .chain(i.iter().map(|&a| RsAction::Include(a)))
            .collect(),
        ExportPolicy::Nobody => vec![RsAction::None],
    }
}

/// The from-scratch harvest of an ecosystem's *current* route-server
/// state: connectivity is exactly the open RS sessions, and every
/// `(member, prefix)` yields one observation whose actions are the
/// member's communities decoded under the IXP's scheme — the same
/// encode→decode path the live stream takes, so the two agree on every
/// representability edge case (unregistered 32-bit EXCLUDE targets,
/// implicit ALL).
///
/// This is live mode's equivalence anchor: for any event sequence,
/// `infer_links` over this harvest of the final state must equal the
/// incrementally-maintained [`LiveInferencer::current`] byte for byte.
pub fn full_harvest(eco: &Ecosystem) -> (ConnectivityData, Vec<Observation>) {
    let mut conn = ConnectivityData::default();
    let mut observations = Vec::new();
    for ixp in &eco.ixps {
        for m in ixp.members.values().filter(|m| m.rs_member) {
            conn.record(ixp.id, m.asn, ConnSource::LookingGlass);
            for ann in &m.announcements {
                let actions: Vec<RsAction> =
                    RouteServer::communities_for(m, &ann.prefix, &ixp.scheme)
                        .iter()
                        .filter_map(|c| ixp.scheme.decode(c))
                        .collect();
                observations.push(Observation {
                    ixp: ixp.id,
                    member: m.asn,
                    prefix: ann.prefix,
                    actions,
                    source: ObservationSource::ActiveRsLg,
                });
            }
        }
    }
    (conn, observations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer_links;
    use crate::report;

    fn ev_announce(member: u32, prefix: &str, actions: Vec<RsAction>) -> LiveEvent {
        LiveEvent::Announce {
            ixp: IxpId(0),
            member: Asn(member),
            prefix: prefix.parse().unwrap(),
            actions,
        }
    }

    fn join(member: u32) -> LiveEvent {
        LiveEvent::Join {
            ixp: IxpId(0),
            member: Asn(member),
        }
    }

    /// Three open members; the link set is the triangle.
    fn triangle() -> LiveInferencer {
        let mut li = LiveInferencer::new();
        for m in 1..=3 {
            li.apply(&join(m));
            let d = li.apply(&ev_announce(
                m,
                &format!("10.{m}.0.0/24"),
                vec![RsAction::All],
            ));
            assert!(d.removed.is_empty());
        }
        li
    }

    #[test]
    fn links_form_incrementally_with_exact_deltas() {
        let mut li = LiveInferencer::new();
        li.apply(&join(1));
        li.apply(&join(2));
        assert!(li.apply(&ev_announce(1, "10.1.0.0/24", vec![])).is_empty());
        let d = li.apply(&ev_announce(2, "10.2.0.0/24", vec![]));
        assert_eq!(d.added, vec![(IxpId(0), Asn(1), Asn(2))]);
        assert!(d.removed.is_empty());
        assert_eq!(li.current().links_at(IxpId(0)).len(), 1);
    }

    #[test]
    fn policy_retune_retracts_and_restores_links() {
        let mut li = triangle();
        assert_eq!(li.current().links_at(IxpId(0)).len(), 3);
        // 1 retunes to exclude 3: announce replaces the old policy.
        let d = li.apply(&ev_announce(
            1,
            "10.1.0.0/24",
            vec![RsAction::All, RsAction::Exclude(Asn(3))],
        ));
        assert_eq!(d.removed, vec![(IxpId(0), Asn(1), Asn(3))]);
        assert!(d.added.is_empty());
        // Retune back to open: the link returns.
        let d = li.apply(&ev_announce(1, "10.1.0.0/24", vec![RsAction::All]));
        assert_eq!(d.added, vec![(IxpId(0), Asn(1), Asn(3))]);
    }

    #[test]
    fn reannounce_with_same_policy_is_a_noop() {
        let mut li = triangle();
        let d = li.apply(&ev_announce(2, "10.2.0.0/24", vec![RsAction::All]));
        assert!(d.is_empty());
    }

    #[test]
    fn withdraw_retracts_per_prefix_intersection() {
        let mut li = triangle();
        // 1 announces a second prefix excluding 2: the intersection
        // drops the 1–2 link.
        let d = li.apply(&ev_announce(
            1,
            "10.9.0.0/24",
            vec![RsAction::All, RsAction::Exclude(Asn(2))],
        ));
        assert_eq!(d.removed, vec![(IxpId(0), Asn(1), Asn(2))]);
        // Withdrawing that prefix is an exact retraction.
        let d = li.apply(&LiveEvent::Withdraw {
            ixp: IxpId(0),
            member: Asn(1),
            prefix: "10.9.0.0/24".parse().unwrap(),
        });
        assert_eq!(d.added, vec![(IxpId(0), Asn(1), Asn(2))]);
        assert!(d.removed.is_empty());
    }

    #[test]
    fn leave_retracts_everything_and_rejoin_starts_clean() {
        let mut li = triangle();
        let d = li.apply(&LiveEvent::Leave {
            ixp: IxpId(0),
            member: Asn(2),
        });
        assert_eq!(d.removed.len(), 2, "both links of member 2 retract");
        assert!(!li.current().covered[&IxpId(0)].contains(&Asn(2)));
        // Rejoin: no state resurrects until it re-announces.
        li.apply(&join(2));
        assert_eq!(li.current().links_at(IxpId(0)).len(), 1);
        let d = li.apply(&ev_announce(2, "10.2.0.0/24", vec![]));
        assert_eq!(d.added.len(), 2);
    }

    #[test]
    fn withdrawing_last_prefix_uncovers_member() {
        let mut li = LiveInferencer::new();
        li.apply(&join(1));
        li.apply(&join(2));
        li.apply(&ev_announce(1, "10.1.0.0/24", vec![]));
        li.apply(&ev_announce(2, "10.2.0.0/24", vec![]));
        let d = li.apply(&LiveEvent::Withdraw {
            ixp: IxpId(0),
            member: Asn(1),
            prefix: "10.1.0.0/24".parse().unwrap(),
        });
        assert_eq!(d.removed.len(), 1);
        // Matches a from-scratch harvest where member 1 has no data:
        // still covered? No — no observations at all.
        assert!(!li.current().covered[&IxpId(0)].contains(&Asn(1)));
        assert!(!li.current().policies.contains_key(&(IxpId(0), Asn(1))));
    }

    #[test]
    fn announces_without_session_are_dropped() {
        let mut li = LiveInferencer::new();
        li.apply(&join(1));
        li.apply(&ev_announce(1, "10.1.0.0/24", vec![]));
        // 99 never joined.
        let d = li.apply(&ev_announce(99, "10.9.0.0/24", vec![]));
        assert!(d.is_empty());
        assert!(!li.current().covered[&IxpId(0)].contains(&Asn(99)));
    }

    #[test]
    fn empty_state_shape_matches_finalize() {
        let mut li = triangle();
        for m in 1..=3 {
            li.apply(&LiveEvent::Leave {
                ixp: IxpId(0),
                member: Asn(m),
            });
        }
        // No covered members → no per-IXP entries at all (the exact
        // shape finalize produces for an empty harvest).
        let expected = MlpLinkSet::default();
        assert_eq!(
            report::to_json(li.current()),
            report::to_json(&expected),
            "fully-retracted state must be byte-identical to empty"
        );
    }

    #[test]
    fn figure3_scenario_matches_batch_inferencer() {
        // The Fig. 3 worked example, through the live path.
        let mut li = LiveInferencer::new();
        for m in 1..=4 {
            li.apply(&join(m));
        }
        li.apply(&ev_announce(
            1,
            "10.1.0.0/24",
            vec![
                RsAction::None,
                RsAction::Include(Asn(2)),
                RsAction::Include(Asn(4)),
            ],
        ));
        for m in 2..=4 {
            li.apply(&ev_announce(
                m,
                &format!("10.{m}.0.0/24"),
                vec![RsAction::All],
            ));
        }
        let at0 = li.current().links_at(IxpId(0));
        assert_eq!(at0.len(), 5);
        assert!(!at0.contains(&(Asn(1), Asn(3))), "A blocks C (Fig. 3)");
    }

    #[test]
    fn bootstrap_equals_full_harvest() {
        let eco = Ecosystem::generate(mlpeer_ixp::EcosystemConfig::tiny(11));
        let li = LiveInferencer::from_ecosystem(&eco);
        let (conn, obs) = full_harvest(&eco);
        let expected = infer_links(&conn, &obs);
        assert_eq!(
            report::to_json(li.current()),
            report::to_json(&expected),
            "bootstrap must match the one-shot harvest byte for byte"
        );
        assert!(!li.current().unique_links().is_empty());
    }

    #[test]
    fn observations_rebuild_the_same_links() {
        let eco = Ecosystem::generate(mlpeer_ixp::EcosystemConfig::tiny(12));
        let li = LiveInferencer::from_ecosystem(&eco);
        let (conn, _) = full_harvest(&eco);
        let rebuilt = infer_links(&conn, &li.observations());
        assert_eq!(
            report::to_json(li.current()),
            report::to_json(&rebuilt),
            "materialized observations must round-trip the link set"
        );
    }

    #[test]
    fn sink_impl_feeds_announces() {
        let mut li = LiveInferencer::new();
        li.apply(&join(1));
        li.apply(&join(2));
        for m in 1..=2u32 {
            li.push(Observation {
                ixp: IxpId(0),
                member: Asn(m),
                prefix: format!("10.{m}.0.0/24").parse().unwrap(),
                actions: vec![],
                source: ObservationSource::Passive,
            });
        }
        assert_eq!(li.current().links_at(IxpId(0)).len(), 1);
        assert_eq!(li.event_count(), 4);
    }

    #[test]
    fn state_version_tracks_served_mutations_only() {
        let mut li = triangle();
        let v = li.state_version();
        // No-ops: re-announce of the same policy, unknown session,
        // membership-only join.
        li.apply(&ev_announce(2, "10.2.0.0/24", vec![RsAction::All]));
        li.apply(&ev_announce(99, "10.9.0.0/24", vec![]));
        li.apply(&join(9));
        assert_eq!(li.state_version(), v);
        // Link-neutral but served-state-changing: an open member
        // originates another open prefix. No link moves, but a
        // snapshot rendered now would differ — the live refresher
        // must publish for this.
        let d = li.apply(&ev_announce(2, "10.22.0.0/24", vec![RsAction::All]));
        assert!(d.is_empty(), "no link moved");
        assert_eq!(li.state_version(), v + 1);
        li.apply(&LiveEvent::Withdraw {
            ixp: IxpId(0),
            member: Asn(2),
            prefix: "10.22.0.0/24".parse().unwrap(),
        });
        assert_eq!(li.state_version(), v + 2);
        // Leave of a member with data bumps; leave of a data-less one
        // does not.
        li.apply(&LiveEvent::Leave {
            ixp: IxpId(0),
            member: Asn(3),
        });
        assert_eq!(li.state_version(), v + 3);
        li.apply(&LiveEvent::Leave {
            ixp: IxpId(0),
            member: Asn(9),
        });
        assert_eq!(li.state_version(), v + 3);
    }

    #[test]
    fn delta_merge_cancels() {
        let mut d = LinkDelta {
            added: vec![(IxpId(0), Asn(1), Asn(2))],
            removed: vec![],
        };
        d.merge(LinkDelta {
            added: vec![],
            removed: vec![(IxpId(0), Asn(1), Asn(2))],
        });
        assert!(d.is_empty());
        d.merge(LinkDelta {
            added: vec![(IxpId(0), Asn(2), Asn(3))],
            removed: vec![(IxpId(0), Asn(4), Asn(5))],
        });
        d.merge(LinkDelta {
            added: vec![(IxpId(0), Asn(4), Asn(5))],
            removed: vec![(IxpId(0), Asn(2), Asn(3))],
        });
        assert!(d.is_empty());
    }

    #[test]
    fn delta_between_diffs_link_sets() {
        let mut old = MlpLinkSet::default();
        old.per_ixp
            .entry(IxpId(0))
            .or_default()
            .extend([(Asn(1), Asn(2)), (Asn(1), Asn(3))]);
        old.per_ixp
            .entry(IxpId(1))
            .or_default()
            .insert((Asn(7), Asn(8)));
        let mut new = MlpLinkSet::default();
        new.per_ixp
            .entry(IxpId(0))
            .or_default()
            .extend([(Asn(1), Asn(2)), (Asn(2), Asn(3))]);
        new.per_ixp
            .entry(IxpId(2))
            .or_default()
            .insert((Asn(9), Asn(10)));

        let d = LinkDelta::between(&old, &new);
        assert_eq!(
            d.added,
            vec![(IxpId(0), Asn(2), Asn(3)), (IxpId(2), Asn(9), Asn(10))]
        );
        assert_eq!(
            d.removed,
            vec![(IxpId(0), Asn(1), Asn(3)), (IxpId(1), Asn(7), Asn(8))]
        );
        assert!(LinkDelta::between(&new, &new).is_empty());

        // Applying the delta to `old` reproduces `new` exactly.
        let mut applied: BTreeSet<(IxpId, Asn, Asn)> = old
            .per_ixp
            .iter()
            .flat_map(|(ixp, s)| s.iter().map(move |&(a, b)| (*ixp, a, b)))
            .collect();
        for l in &d.removed {
            assert!(applied.remove(l));
        }
        for l in &d.added {
            assert!(applied.insert(*l));
        }
        let want: BTreeSet<_> = new
            .per_ixp
            .iter()
            .flat_map(|(ixp, s)| s.iter().map(move |&(a, b)| (*ixp, a, b)))
            .collect();
        assert_eq!(applied, want);
    }
}
