//! # `mlpeer-bench` — experiment harness
//!
//! Wires the full reproduction pipeline together: generate the
//! calibrated ecosystem, build every data-source substrate, run the
//! passive and active inference stages (§4.1–§4.3), and hand the
//! results to the per-figure analyses (§5). The `experiments` binary
//! renders every table and figure of the paper; the Criterion benches
//! are `benches/benches.rs` (RS engine, planner, pipeline),
//! `benches/harvest_hot.rs` (interned fold and serial vs sharded
//! harvest → `BENCH_hot.json`), `benches/live_churn.rs` (live-mode
//! delta apply vs full re-harvest → `BENCH_live.json`),
//! `benches/dist_load.rs` (multi-process harvest → `BENCH_dist.json`)
//! and `benches/validate_load.rs` (IRR/RPKI corpus parse and scoring →
//! `BENCH_validate.json`).
//!
//! The serving pipeline lives in [`mlpeer::pipeline`] (shared with
//! `mlpeer-serve` and the multi-process coordinator); this crate wraps
//! it with the figure-only substrates (traceroute, PeeringDB, geo) —
//! serially in [`run_pipeline`], or with the passive stage swapped out
//! via [`run_pipeline_with`] / [`run_pipeline_dist`]. Every variant is
//! byte-identical by construction: only the passive harvest's
//! execution strategy differs, never its fold.

use mlpeer::active::ActiveStats;
use mlpeer::connectivity::ConnectivityData;
use mlpeer::dict::CommunityDictionary;
use mlpeer::infer::{MlpLinkSet, Observation};
use mlpeer::passive::PassiveStats;
use mlpeer::pipeline::{harvest_sharded, PipelinePrep, PipelineRun, TeeSink};
use mlpeer_data::collector::PassiveDataset;
use mlpeer_data::geo::GeoDb;
use mlpeer_data::irr::{IrrDatabase, Source};
use mlpeer_data::lg::LookingGlassHost;
use mlpeer_data::peeringdb::{PeeringDb, PeeringDbConfig};
use mlpeer_data::traceroute::{build_traceroute, TracerouteDataset};
use mlpeer_data::Sim;
use mlpeer_dist::{harvest_passive_dist, DistConfig, DistStats};
use mlpeer_ixp::ixp::IxpId;
use mlpeer_ixp::Ecosystem;
use mlpeer_topo::infer::InferredRelationships;

pub use mlpeer::pipeline::Scale;

/// Everything the analyses need, produced by one pipeline run.
pub struct Pipeline<'e> {
    /// The shared routing simulation.
    pub sim: Sim<'e>,
    /// IRR registries.
    pub irr: std::collections::BTreeMap<Source, IrrDatabase>,
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
    /// All observations (passive + active).
    pub observations: Vec<Observation>,
    /// Passive-pipeline statistics.
    pub passive_stats: PassiveStats,
    /// Active statistics per IXP.
    pub active_stats: Vec<(IxpId, ActiveStats)>,
    /// The inferred links.
    pub links: MlpLinkSet,
    /// Traceroute dataset (Ark/DIMES stand-in).
    pub traceroute: TracerouteDataset,
    /// PeeringDB.
    pub pdb: PeeringDb,
    /// Geolocation.
    pub geo: GeoDb,
}

/// Run the complete inference pipeline over an ecosystem, with the
/// passive stage supplied by `passive`: the serving pipeline
/// ([`mlpeer::pipeline::run`]) plus the substrates only the paper's
/// figures read — traceroute, PeeringDB and geolocation. Every stage
/// around the passive one is identical across callers, which is what
/// makes the serial, thread-sharded, and multi-process variants
/// byte-identical end to end.
pub fn run_pipeline_with<'e>(
    eco: &'e Ecosystem,
    seed: u64,
    passive: impl FnOnce(&PipelinePrep<'e>) -> (TeeSink, PassiveStats),
) -> Pipeline<'e> {
    let PipelineRun {
        prep,
        observations,
        passive_stats,
        active_stats,
        links,
    } = mlpeer::pipeline::run(eco, seed, passive);
    let traceroute = build_traceroute(&prep.sim, seed ^ 0x44, 60);
    let pdb = PeeringDb::build(
        eco,
        &PeeringDbConfig {
            seed: seed ^ 0x55,
            ..Default::default()
        },
    );
    let geo = GeoDb::build(eco);

    let PipelinePrep {
        sim,
        irr,
        lgs,
        conn,
        dict,
        passive,
        rels,
    } = prep;
    Pipeline {
        sim,
        irr,
        lgs,
        conn,
        dict,
        passive,
        rels,
        observations,
        passive_stats,
        active_stats,
        links,
        traceroute,
        pdb,
        geo,
    }
}

/// Run the complete inference pipeline over an ecosystem (the serial /
/// thread-sharded passive stage).
pub fn run_pipeline(eco: &Ecosystem, seed: u64) -> Pipeline<'_> {
    run_pipeline_with(eco, seed, harvest_sharded)
}

/// Run the pipeline with the passive stage distributed across worker
/// processes per `cfg` (see `mlpeer_dist` for the fault model).
/// `scale` must be the scale word `eco` was generated from. Byte-
/// identical to [`run_pipeline`] on the same `(eco, seed)`.
pub fn run_pipeline_dist<'e>(
    eco: &'e Ecosystem,
    scale: &str,
    seed: u64,
    cfg: &DistConfig,
    stats: &DistStats,
) -> Pipeline<'e> {
    run_pipeline_with(eco, seed, |prep| {
        harvest_passive_dist(scale, seed, prep, cfg, stats)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpeer_ixp::EcosystemConfig;

    #[test]
    fn pipeline_runs_end_to_end_on_tiny() {
        let eco = Ecosystem::generate(EcosystemConfig::tiny(2024));
        let p = run_pipeline(&eco, 2024);
        assert!(!p.observations.is_empty());
        assert!(!p.links.unique_links().is_empty());
        assert!(p.links.per_ixp_total() >= p.links.unique_links().len());
        // Soundness: every inferred link is a ground-truth link.
        let truth = eco.all_ground_truth_links();
        for l in p.links.unique_links() {
            assert!(truth.contains(&l), "false link {l:?}");
        }
    }

    #[test]
    fn inference_recovers_most_mutual_links_at_lg_ixps() {
        let eco = Ecosystem::generate(EcosystemConfig::tiny(2025));
        let p = run_pipeline(&eco, 2025);
        for ixp in &eco.ixps {
            if !ixp.has_lg || ixp.filter_portal {
                continue;
            }
            let mutual = ixp.mutual_links();
            let got = p.links.links_at(ixp.id);
            let hit = mutual.iter().filter(|l| got.contains(l)).count();
            let frac = hit as f64 / mutual.len().max(1) as f64;
            assert!(
                frac > 0.95,
                "{}: recovered only {frac:.2} of mutual links ({hit}/{})",
                ixp.name,
                mutual.len()
            );
        }
    }

    /// The dist wrapper with `workers: 1` (pure in-process) produces
    /// the same links and observations as the serial pipeline —
    /// the equivalence the fault-injection e2e suite then extends to
    /// real worker processes.
    #[test]
    fn dist_pipeline_with_one_worker_matches_serial() {
        let eco = Ecosystem::generate(EcosystemConfig::tiny(2024));
        let serial = run_pipeline(&eco, 2024);
        let cfg = DistConfig {
            workers: 1,
            worker_cmd: None,
            ..DistConfig::new(1)
        };
        let stats = DistStats::new(1);
        let dist = run_pipeline_dist(&eco, "tiny", 2024, &cfg, &stats);
        assert_eq!(dist.links, serial.links);
        assert_eq!(dist.observations, serial.observations);
        assert_eq!(dist.passive_stats, serial.passive_stats);
    }
}
