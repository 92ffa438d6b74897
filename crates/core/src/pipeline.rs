//! The serving pipeline and the deterministic stages it is made of.
//!
//! [`run`] is the one §4.1 sequence every caller shares: [`prepare`]
//! every input substrate (seeded deterministically from `(ecosystem,
//! seed)`), fold the passive harvest, run the Eq. 2 active queries
//! ([`run_active_stage`]) into the same tee, and finalize the link set.
//! That is everything a served snapshot reads. The passive harvest is
//! the one stage callers swap — thread-sharded in-process
//! ([`harvest_sharded`]) or across worker processes (`mlpeer-dist`) —
//! while the stages around it stay byte-identical: a worker process
//! given the same `(scale, seed)` regenerates exactly this prep and
//! harvests its assigned slice of it.
//!
//! The paper's figures need more than serving does (traceroute,
//! PeeringDB, geolocation); `mlpeer_bench::run_pipeline_with` wraps
//! [`run`] and builds those on top.

use std::collections::{BTreeMap, BTreeSet};

use mlpeer_bgp::{Asn, Prefix};
use mlpeer_data::collector::{build_passive, CollectorConfig, PassiveDataset};
use mlpeer_data::irr::{build_irr, IrrConfig, IrrDatabase, Source};
use mlpeer_data::lg::{build_lg_roster, LgTarget, LookingGlassHost};
use mlpeer_data::Sim;
use mlpeer_ixp::ixp::IxpId;
use mlpeer_ixp::{Ecosystem, EcosystemConfig};
use mlpeer_topo::infer::{infer_relationships, InferConfig, InferredRelationships};

use crate::active::{query_member_lgs, query_rs_lg, ActiveConfig, ActiveStats};
use crate::connectivity::{gather_connectivity, ConnectivityData};
use crate::dict::{dictionary_from_connectivity, CommunityDictionary};
use crate::infer::{LinkInferencer, MlpLinkSet, Observation, ObservationSource};
use crate::passive::{harvest_passive_sharded, PassiveConfig, PassiveStats};

/// Ecosystem scale presets, shared by the serving and experiment
/// binaries. Boot times are for one cold `mlpeer-serve` boot (release
/// build, 2 vCPUs): the serving pipeline plus validation and the
/// snapshot build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~8 % of Table 2 (~0.1 s).
    Tiny,
    /// ~25 % of Table 2 (~0.45 s) — the `mlpeer-serve` default.
    Small,
    /// ~50 % of Table 2 (~1.1 s) — the serving/indexing bench scale.
    Medium,
    /// ~75 % of Table 2 (~2.6 s) — the second point of the benchmark
    /// scale axis (`BENCH_*.json` records at Medium *and* Large).
    Large,
    /// Table 2 scale (~4.2 s).
    Paper,
}

impl Scale {
    /// Ecosystem config for this scale.
    pub fn config(self, seed: u64) -> EcosystemConfig {
        match self {
            Scale::Tiny => EcosystemConfig::tiny(seed),
            Scale::Small => EcosystemConfig::small(seed),
            Scale::Medium => EcosystemConfig::medium(seed),
            Scale::Large => EcosystemConfig::large(seed),
            Scale::Paper => EcosystemConfig::paper_scale(seed),
        }
    }

    /// Parse from a CLI word.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The lowercase word used in CLI flags, snapshots and BENCH
    /// records.
    pub fn word(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
            Scale::Paper => "paper",
        }
    }
}

/// The tee every pipeline variant folds into: the retained observation
/// list (the per-figure analyses read it) plus the incremental link
/// inferencer.
pub type TeeSink = (Vec<Observation>, LinkInferencer);

/// Every input substrate one pipeline run needs, built deterministically
/// from `(ecosystem, seed)` — the part a distributed worker regenerates
/// locally instead of receiving over the wire.
pub struct PipelinePrep<'e> {
    /// The shared routing simulation.
    pub sim: Sim<'e>,
    /// IRR registries.
    pub irr: BTreeMap<Source, IrrDatabase>,
    /// All looking glasses (RS + member).
    pub lgs: Vec<LookingGlassHost>,
    /// Connectivity data.
    pub conn: ConnectivityData,
    /// The community dictionary.
    pub dict: CommunityDictionary,
    /// Archived collector data.
    pub passive: PassiveDataset,
    /// Relationship inference over public paths.
    pub rels: InferredRelationships,
}

/// Build every input substrate of one pipeline run. The seed offsets
/// (`^0x11` IRR, `^0x22` LG roster, `^0x33` collectors) are part of the
/// determinism contract: any process given the same `(eco, seed)`
/// reproduces byte-identical substrates.
pub fn prepare(eco: &Ecosystem, seed: u64) -> PipelinePrep<'_> {
    let sim = Sim::new(eco);
    let irr = build_irr(
        eco,
        &IrrConfig {
            seed: seed ^ 0x11,
            ..IrrConfig::default()
        },
    );
    let lgs = build_lg_roster(&sim, seed ^ 0x22, 70, 0.2);
    let conn = gather_connectivity(&sim, &lgs, &irr);
    let dict = dictionary_from_connectivity(eco, &conn);
    let passive = build_passive(&sim, &CollectorConfig::paper_like(seed ^ 0x33));
    let public_paths: Vec<Vec<Asn>> = passive
        .collectors
        .iter()
        .flat_map(|(_, a)| a.rib.iter().map(|e| e.attrs.as_path.dedup_prepends()))
        .collect();
    let rels = infer_relationships(&public_paths, &InferConfig::default());
    PipelinePrep {
        sim,
        irr,
        lgs,
        conn,
        dict,
        passive,
        rels,
    }
}

/// The active stage (§4.1, Eq. 2), streaming into the same tee the
/// passive harvest filled: per IXP, query the RS looking glass when one
/// exists, otherwise fall back to third-party member LGs. The
/// passively-covered skip sets come from one pass over the harvest in
/// the tee, so this runs identically whether the passive stage executed
/// in-process or across worker processes.
pub fn run_active_stage(
    eco: &Ecosystem,
    prep: &PipelinePrep<'_>,
    sink: &mut TeeSink,
) -> Vec<(IxpId, ActiveStats)> {
    let mut passive_covered: crate::hash::FxHashMap<IxpId, BTreeSet<Asn>> = Default::default();
    for o in sink
        .0
        .iter()
        .filter(|o| o.source == ObservationSource::Passive)
    {
        passive_covered.entry(o.ixp).or_default().insert(o.member);
    }
    let mut active_stats = Vec::new();
    for ixp in &eco.ixps {
        let covered: BTreeSet<Asn> = passive_covered.get(&ixp.id).cloned().unwrap_or_default();
        let rs_lg = prep
            .lgs
            .iter()
            .find(|l| matches!(l.target, LgTarget::RouteServer(id) if id == ixp.id));
        if let Some(lg) = rs_lg {
            let stats = query_rs_lg(
                &prep.sim,
                lg,
                ixp.id,
                &prep.dict,
                &covered,
                &ActiveConfig::default(),
                sink,
            );
            active_stats.push((ixp.id, stats));
        } else {
            // Third-party member LGs (§4.1 fallback). Candidates: route
            // objects of known members plus passively-seen prefixes.
            let members = prep.conn.rs_members(ixp.id);
            let hosts: Vec<&LookingGlassHost> = prep
                .lgs
                .iter()
                .filter(|l| match l.target {
                    LgTarget::Member(a) => members.contains(&a),
                    _ => false,
                })
                .take(3)
                .collect();
            let mut candidates: Vec<Prefix> = prep
                .irr
                .values()
                .flat_map(|db| {
                    db.objects.iter().filter_map(|o| match o {
                        mlpeer_data::irr::RpslObject::Route { prefix, origin, .. }
                            if members.contains(origin) =>
                        {
                            Some(*prefix)
                        }
                        _ => None,
                    })
                })
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            let stats = query_member_lgs(
                &prep.sim,
                &hosts,
                ixp.id,
                &prep.dict,
                &prep.rels,
                &candidates,
                400,
                sink,
            );
            active_stats.push((ixp.id, stats));
        }
    }
    active_stats
}

/// What one serving pipeline run produced: the prepared substrates and
/// the harvest folded over them.
pub struct PipelineRun<'e> {
    /// Every input substrate the run was prepared from.
    pub prep: PipelinePrep<'e>,
    /// All observations (passive + active), in fold order.
    pub observations: Vec<Observation>,
    /// Passive-harvest statistics.
    pub passive_stats: PassiveStats,
    /// Active statistics per IXP.
    pub active_stats: Vec<(IxpId, ActiveStats)>,
    /// The inferred links.
    pub links: MlpLinkSet,
}

/// The serving pipeline: [`prepare`], the passive harvest supplied by
/// `passive` (given the prepared substrates, it returns the filled tee
/// and its stats), the active stage into the same tee, then finalize.
/// Passive runs first because it reduces the active cost (Eq. 2).
pub fn run<'e>(
    eco: &'e Ecosystem,
    seed: u64,
    passive: impl FnOnce(&PipelinePrep<'e>) -> (TeeSink, PassiveStats),
) -> PipelineRun<'e> {
    let prep = prepare(eco, seed);
    let (mut sink, passive_stats) = passive(&prep);
    let active_stats = run_active_stage(eco, &prep, &mut sink);
    let (observations, inferencer) = sink;
    let links = inferencer.finalize(&prep.conn);
    PipelineRun {
        prep,
        observations,
        passive_stats,
        active_stats,
        links,
    }
}

/// The in-process passive stage for [`run`]: the thread-sharded
/// harvest with the default config.
pub fn harvest_sharded(prep: &PipelinePrep<'_>) -> (TeeSink, PassiveStats) {
    harvest_passive_sharded::<TeeSink>(
        &prep.passive,
        &prep.dict,
        &prep.conn,
        &prep.rels,
        &PassiveConfig::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The split stages compose to a working end-to-end run (the
    /// byte-identity of its variants is asserted in `mlpeer-bench` and
    /// the serving tests).
    #[test]
    fn prep_plus_active_stage_compose() {
        let eco = Ecosystem::generate(Scale::Tiny.config(2024));
        let run = run(&eco, 2024, harvest_sharded);
        assert!(run.passive_stats.observations > 0);
        assert!(run.observations.len() > run.passive_stats.observations);
        assert_eq!(run.active_stats.len(), eco.ixps.len());
        assert!(!run.links.unique_links().is_empty());
    }

    #[test]
    fn scale_words_round_trip() {
        for s in [
            Scale::Tiny,
            Scale::Small,
            Scale::Medium,
            Scale::Large,
            Scale::Paper,
        ] {
            assert_eq!(Scale::parse(s.word()), Some(s));
            assert_eq!(s.word(), format!("{s:?}").to_lowercase());
        }
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }
}
