//! The live loop's validation against the batch reference, over random
//! churn: after every checked tick, the fold [`CorpusFold::derive`]
//! builds from the churned ecosystem equals the fold of
//! `parse_corpus(derive_corpus(..))`, and its report equals
//! [`validate_harvest`] over the ecosystem, the inferencer's links and
//! its observations. The report reads the inferencer's own
//! announcement set, so each check also asserts that set equals the
//! scan of its observations, and that its observation count is theirs.
//!
//! The loop is the live tick's: each event is drawn and applied, and
//! its BGP messages are decoded into the [`LiveInferencer`].

use mlpeer::index::scan;
use mlpeer::live::{decode_message, LiveInferencer};
use mlpeer::validate::cross::{
    derive_corpus, parse_corpus, validate_harvest, CorpusConfig, CorpusFold,
};
use mlpeer_data::churn::{event_messages, ChurnConfig, ChurnGen};
use mlpeer_ixp::{Ecosystem, EcosystemConfig};

/// Events per tick (the serving binary's default is 100 at any scale;
/// fewer keep the debug-build checks affordable).
const EVENTS: usize = 20;

/// Run `ticks` ticks and compare against the batch path after every
/// `check_every`-th tick and after the last one.
fn run(eco_cfg: EcosystemConfig, churn: ChurnConfig, ticks: usize, check_every: usize) {
    let cfg = CorpusConfig::seeded(eco_cfg.seed);
    let mut eco = Ecosystem::generate(eco_cfg);
    let mut gen = ChurnGen::new(&eco, churn);
    let mut li = LiveInferencer::from_ecosystem(&eco);
    check(&eco, &li, &cfg, "bootstrap");

    let mut clock = 0u64;
    for tick in 1..=ticks {
        for _ in 0..EVENTS {
            let event = gen.next_event(&eco);
            assert!(eco.apply_churn(&event), "tick {tick}: invalid {event:?}");
            let ixp = event.ixp();
            let scheme = &eco.ixp(ixp).scheme;
            for msg in event_messages(&eco, &event, clock) {
                for live_event in decode_message(ixp, scheme, &msg) {
                    li.apply(&live_event);
                }
            }
            clock += 1;
        }
        if tick % check_every == 0 || tick == ticks {
            check(&eco, &li, &cfg, &format!("tick {tick}"));
        }
    }
}

fn check(eco: &Ecosystem, li: &LiveInferencer, cfg: &CorpusConfig, when: &str) {
    let fold = CorpusFold::derive(eco, cfg);
    assert!(
        fold == CorpusFold::of(&parse_corpus(&derive_corpus(eco, cfg))),
        "{when}: the derived fold diverged from the parsed corpus's fold"
    );
    let observations = li.observations();
    let announcements = li.announcements();
    assert_eq!(
        announcements,
        scan::announcements(li.current(), &observations),
        "{when}: the inferencer's announcement set diverged from the scan"
    );
    assert_eq!(
        li.observation_count(),
        observations.len(),
        "{when}: the observation count diverged from the observations"
    );
    let expected = validate_harvest(eco, li.current(), &observations, cfg);
    assert!(
        !expected.corpus.degraded(),
        "{when}: the derived corpus parses clean"
    );
    assert_eq!(
        fold.report(li.current(), &announcements),
        expected,
        "{when}: the live report diverged from validate_harvest"
    );
}

fn churn(seed: u64) -> ChurnConfig {
    ChurnConfig {
        seed,
        ..ChurnConfig::default()
    }
}

#[test]
fn tiny_matches_the_batch_path_after_every_tick() {
    run(EcosystemConfig::tiny(7), churn(20131007), 50, 1);
    run(EcosystemConfig::tiny(42), churn(3), 50, 1);
}

#[test]
fn small_matches_the_batch_path_every_fifth_tick() {
    run(EcosystemConfig::small(20130501), churn(20131007), 50, 5);
    run(EcosystemConfig::small(11), churn(5), 50, 5);
}

#[test]
fn medium_bootstrap_matches_the_batch_path() {
    // The scale the live benchmark serves, and the fold the batch boot
    // scores with: one check, at bootstrap.
    run(EcosystemConfig::medium(20130501), churn(20131007), 0, 1);
}

#[test]
fn membership_heavy_churn_matches_the_batch_path() {
    // Joins and leaves move the most registry state per event: rosters,
    // aut-nums, and every filtering member's lines toward the mover.
    run(
        EcosystemConfig::tiny(99),
        ChurnConfig {
            seed: 9,
            w_join: 5,
            w_leave: 5,
            w_policy: 1,
            w_originate: 1,
            w_withdraw: 1,
            ..ChurnConfig::default()
        },
        60,
        1,
    );
}
