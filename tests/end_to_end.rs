//! Cross-crate integration tests: the full pipeline against ground
//! truth, the paper-shape invariants, the serial/sharded equivalence
//! contract, and the failure-injection cases.

use std::collections::BTreeSet;

use mlpeer::analysis;
use mlpeer::connectivity::gather_connectivity;
use mlpeer::dict::dictionary_from_connectivity;
use mlpeer::infer::LinkInferencer;
use mlpeer::passive::{harvest_passive, harvest_passive_sharded, PassiveConfig};
use mlpeer::validate::{validate_links, ValidationConfig};
use mlpeer::Observation;
use mlpeer_bench::run_pipeline;
use mlpeer_bgp::Asn;
use mlpeer_data::collector::{build_passive, CollectorConfig};
use mlpeer_data::geo::GeoDb;
use mlpeer_data::irr::{build_irr, IrrConfig};
use mlpeer_data::lg::{build_lg_roster, LgTarget, LookingGlassHost};
use mlpeer_data::Sim;
use mlpeer_ixp::{Ecosystem, EcosystemConfig, PeeringPolicy};
use mlpeer_topo::infer::{infer_relationships, InferConfig};

fn tiny_eco(seed: u64) -> Ecosystem {
    Ecosystem::generate(EcosystemConfig::tiny(seed))
}

#[test]
fn inference_is_sound_and_nearly_complete() {
    let eco = tiny_eco(1001);
    let p = run_pipeline(&eco, 1001);
    let truth = eco.all_ground_truth_links();
    let mutual = eco.all_mutual_links();
    let got = p.links.unique_links();
    // Soundness: no false links (the §4.4 conservativeness).
    for l in &got {
        assert!(truth.contains(l), "false positive {l:?}");
    }
    // Completeness at LG-covered IXPs: nearly every mutual link found.
    let lg_mutual: BTreeSet<_> = eco
        .ixps
        .iter()
        .filter(|x| x.has_lg)
        .flat_map(|x| x.mutual_links())
        .collect();
    let hit = lg_mutual.iter().filter(|l| got.contains(l)).count();
    assert!(
        hit as f64 >= lg_mutual.len() as f64 * 0.95,
        "recovered {hit}/{} at LG IXPs",
        lg_mutual.len()
    );
    let _ = mutual;
}

#[test]
fn headline_shape_holds_more_links_than_public_bgp() {
    let eco = tiny_eco(1002);
    let p = run_pipeline(&eco, 1002);
    let vis = analysis::visibility(&eco, &p.links, &p.passive, &p.traceroute, &p.rels);
    // The paper's headline: the method reveals far more p2p links than
    // the public view, with small overlap.
    assert!(
        vis.mlp_links.len() as f64 > vis.public_p2p.len() as f64 * 1.5,
        "MLP {} vs public p2p {}",
        vis.mlp_links.len(),
        vis.public_p2p.len()
    );
    assert!(
        vis.invisible_frac() > 0.5,
        "invisible fraction {}",
        vis.invisible_frac()
    );
    // Traceroute overlap stays marginal (the RS-ASN artifact).
    assert!(
        vis.overlap_traceroute < vis.mlp_links.len() / 4,
        "traceroute overlap {} of {}",
        vis.overlap_traceroute,
        vis.mlp_links.len()
    );
}

#[test]
fn stub_heavy_edge_as_in_fig7() {
    let eco = tiny_eco(1003);
    let p = run_pipeline(&eco, 1003);
    let vis = analysis::visibility(&eco, &p.links, &p.passive, &p.traceroute, &p.rels);
    let deg = analysis::degrees(&eco, &p.links, &vis.public_links);
    assert!(
        deg.involves_stub_frac > 0.3,
        "stub involvement {}",
        deg.involves_stub_frac
    );
    assert!(
        deg.stub_stub_frac > 0.02,
        "stub–stub {}",
        deg.stub_stub_frac
    );
    assert!(
        deg.stub_stub_public_frac < 0.2,
        "stub–stub links are invisible: {}",
        deg.stub_stub_public_frac
    );
}

#[test]
fn validation_confirms_vast_majority() {
    let eco = tiny_eco(1004);
    let p = run_pipeline(&eco, 1004);
    let geo = GeoDb::build(&eco);
    let lgs: Vec<LookingGlassHost> = p
        .lgs
        .iter()
        .filter(|l| matches!(l.target, LgTarget::Member(_)))
        .map(|l| LookingGlassHost::new(l.name.clone(), l.target, l.display))
        .collect();
    let report = validate_links(&p.sim, &p.links, &lgs, &geo, &ValidationConfig::default());
    assert!(report.links_tested > 20);
    assert!(
        report.confirm_rate() > 0.9,
        "confirm rate {:.3} (paper: 0.984)",
        report.confirm_rate()
    );
}

#[test]
fn open_policies_dominate_rs_usage_as_in_fig9() {
    let eco = tiny_eco(1005);
    let p = run_pipeline(&eco, 1005);
    let pol = analysis::policy_participation(&eco, &p.pdb);
    let frac = |p: PeeringPolicy| {
        pol.rs_usage
            .get(&p)
            .map(|(n, r)| *r as f64 / (*n).max(1) as f64)
            .unwrap_or(0.0)
    };
    let open = frac(PeeringPolicy::Open);
    let restrictive = frac(PeeringPolicy::Restrictive);
    assert!(open > 0.7, "open RS usage {open}");
    assert!(
        open > restrictive,
        "open {open} vs restrictive {restrictive}"
    );
    assert!(pol.single_ixp_with_rs_frac() > 0.25);
}

#[test]
fn stripping_ixp_defeats_passive_inference() {
    // §5.8: a Netnod-style IXP strips communities; passive inference
    // must find nothing there while normal IXPs still work.
    let mut cfg = EcosystemConfig::tiny(1006);
    cfg.include_stripping_ixp = true;
    let eco = Ecosystem::generate(cfg);
    let p = run_pipeline(&eco, 1006);
    let netnod = eco.ixp_by_name("NETNOD-SIM").unwrap();
    let passive_there = p
        .observations
        .iter()
        .filter(|o| o.ixp == netnod.id && o.source == mlpeer::ObservationSource::Passive)
        .count();
    assert_eq!(
        passive_there, 0,
        "stripped communities must yield no passive observations"
    );
}

#[test]
fn portal_ixp_invisible_everywhere() {
    // A VIX-style portal IXP never emits communities at all: neither
    // passive nor active inference can see its filters.
    let mut cfg = EcosystemConfig::tiny(1007);
    cfg.include_portal_ixp = true;
    let eco = Ecosystem::generate(cfg);
    let p = run_pipeline(&eco, 1007);
    let vix = eco.ixp_by_name("VIX-SIM").unwrap();
    // Observations may exist (empty community sets decode to default
    // ALL via the RS LG), but no EXCLUDE/INCLUDE can ever be seen.
    for o in &p.observations {
        if o.ixp == vix.id {
            assert!(
                o.actions.is_empty(),
                "portal IXP leaked actions: {:?}",
                o.actions
            );
        }
    }
}

#[test]
fn per_ixp_links_sum_exceeds_unique_by_overlap() {
    let eco = tiny_eco(1008);
    let p = run_pipeline(&eco, 1008);
    let sum = p.links.per_ixp_total();
    let unique = p.links.unique_links().len();
    assert!(sum >= unique);
    assert!(sum - unique >= p.links.overlap_links().len());
}

/// The sharding contract at ecosystem scale: fanning the passive
/// harvest out one-shard-per-collector must reproduce the serial path
/// byte for byte — identical `MlpLinkSet` (links, covered, policies),
/// identical merged `PassiveStats`, identical observation stream in
/// collector order — at 1, 2 and 4 pinned threads.
#[test]
fn sharded_passive_matches_serial_at_ecosystem_scale() {
    let eco = tiny_eco(31337);
    let sim = Sim::new(&eco);
    let irr = build_irr(&eco, &IrrConfig::default());
    let lgs = build_lg_roster(&sim, 31337 ^ 0x22, 70, 0.2);
    let conn = gather_connectivity(&sim, &lgs, &irr);
    let dict = dictionary_from_connectivity(&eco, &conn);
    let passive = build_passive(&sim, &CollectorConfig::paper_like(31337 ^ 0x33));
    assert!(
        passive.collectors.len() > 1,
        "sharding needs several collectors"
    );
    let public_paths: Vec<Vec<Asn>> = passive
        .collectors
        .iter()
        .flat_map(|(_, a)| a.rib.iter().map(|e| e.attrs.as_path.dedup_prepends()))
        .collect();
    let rels = infer_relationships(&public_paths, &InferConfig::default());
    let cfg = PassiveConfig::default();

    let mut serial: (Vec<Observation>, LinkInferencer) = Default::default();
    let serial_stats = harvest_passive(&passive, &dict, &conn, &rels, &cfg, &mut serial);
    assert!(
        serial_stats.observations > 0,
        "the dataset must exercise the pipeline"
    );
    let serial_links = serial.1.finalize(&conn);
    // Pinned thread counts: 1 takes the serial fallback, 2 and 4 fan
    // out whatever the host's CPU count.
    for threads in [1, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (sharded, sharded_stats) = pool.install(|| {
            harvest_passive_sharded::<(Vec<Observation>, LinkInferencer)>(
                &passive, &dict, &conn, &rels, &cfg,
            )
        });
        assert_eq!(
            sharded_stats, serial_stats,
            "per-shard stats merge to the serial totals at {threads} threads"
        );
        assert_eq!(
            sharded.0, serial.0,
            "observation stream in collector order at {threads} threads"
        );
        let sharded_links = sharded.1.finalize(&conn);
        assert_eq!(sharded_links, serial_links, "identical MlpLinkSet");
        // Byte-identical, not just Eq: the rendered reports match too.
        assert_eq!(format!("{sharded_links:?}"), format!("{serial_links:?}"));
    }
}

#[test]
fn deterministic_end_to_end() {
    let eco1 = tiny_eco(1009);
    let eco2 = tiny_eco(1009);
    let p1 = run_pipeline(&eco1, 1009);
    let p2 = run_pipeline(&eco2, 1009);
    assert_eq!(p1.links.unique_links(), p2.links.unique_links());
    assert_eq!(p1.observations.len(), p2.observations.len());
}
