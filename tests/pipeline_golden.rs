//! Golden fixture for the serving pipeline, with ground-truth pins.
//!
//! The committed fixture (`tests/golden/pipeline_golden.txt`) pins,
//! per `(scale, seed)`, what the serving boot computes on its way to
//! the published snapshot:
//!
//! * the collector RIB entry count and the FxHash of the MRT arenas
//!   (each collector's name and its `MrtArchive` through the derived
//!   `Hash`), so a propagation change that moves a single path,
//!   community, peer or timestamp shows up here;
//! * the folded observation count, the unique link count and the
//!   snapshot ETag;
//! * integer ground-truth counts from the simulator: links inferred
//!   (summed per IXP), inferred links found in
//!   `Ecosystem::all_ground_truth_links` (precision), and mutual links
//!   recovered out of `Ecosystem::all_mutual_links` (recall).
//!
//! The pinned ETags also hold for `Snapshot::of_pipeline` at 1, 2 and
//! 4 threads, so the served answer does not depend on the thread
//! count.
//!
//! An optimisation that silently changes inference fails here even if
//! the ETag were regenerated. Deliberate changes regenerate the fixture
//! with `MLPEER_REGEN_GOLDEN=1 cargo test --test pipeline_golden`.

use std::hash::{Hash, Hasher};

use mlpeer::hash::FxHasher;
use mlpeer::pipeline::{harvest_sharded, run, Scale};
use mlpeer::validate::cross::{validate_harvest, CorpusConfig};
use mlpeer_ixp::Ecosystem;
use mlpeer_serve::Snapshot;

const GOLDEN: &str = include_str!("golden/pipeline_golden.txt");

/// The `(scale, seed)` grid the fixture pins.
const GRID: [(Scale, u64); 4] = [
    (Scale::Tiny, 7),
    (Scale::Tiny, 42),
    (Scale::Small, 20130501),
    (Scale::Medium, 20130501),
];

/// Compute the fixture line for one `(scale, seed)` cell from the
/// stages `Snapshot::of_pipeline` runs, validating through the
/// reference `validate_harvest` (the fixture pins nothing the report
/// feeds, and `tests/validate_golden.rs` checks the served report).
fn record_line(scale: Scale, seed: u64) -> String {
    let eco = Ecosystem::generate(scale.config(seed));
    let run = run(&eco, seed, harvest_sharded);
    let passive = &run.prep.passive;
    let mut h = FxHasher::default();
    for (name, archive) in &passive.collectors {
        h.write(name.as_bytes());
        archive.hash(&mut h);
    }
    let (rib_entries, arena_hash) = (passive.rib_len(), h.finish());
    let validation = validate_harvest(
        &eco,
        &run.links,
        &run.observations,
        &CorpusConfig::seeded(seed),
    );
    let snap = Snapshot::build_validated(
        scale.word(),
        seed,
        Snapshot::names_of(&eco),
        run.links,
        &run.observations,
        run.passive_stats,
        validation,
    );

    let unique = snap.links.unique_links();
    let truth = eco.all_ground_truth_links();
    let mutual = eco.all_mutual_links();
    let true_links = unique.iter().filter(|l| truth.contains(l)).count();
    let mutual_found = mutual.iter().filter(|l| unique.contains(l)).count();
    format!(
        "{} {seed} {rib_entries} {arena_hash:016x} {} {} {} {} {true_links} {mutual_found} {}",
        scale.word(),
        snap.observation_count,
        snap.unique_link_count,
        snap.etag,
        snap.links.per_ixp_total(),
        mutual.len(),
    )
}

#[test]
fn pipeline_outputs_and_ground_truth_counts_are_pinned() {
    let actual: Vec<String> = GRID
        .iter()
        .map(|&(scale, seed)| record_line(scale, seed))
        .collect();
    if std::env::var("MLPEER_REGEN_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/pipeline_golden.txt"
        );
        let mut out = String::from(
            "# scale seed rib_entries arena_fxhash observations unique_links etag \
             links_inferred true_links mutual_found mutual_total\n",
        );
        for line in &actual {
            out.push_str(line);
            out.push('\n');
        }
        std::fs::write(path, out).expect("write golden fixture");
        eprintln!("regenerated {path}");
    }
    let committed: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert_eq!(
        committed.len(),
        actual.len(),
        "fixture must cover the whole grid"
    );
    for (want, got) in committed.iter().zip(&actual) {
        assert_eq!(
            want, got,
            "golden mismatch — if the change is deliberate, regenerate with \
             MLPEER_REGEN_GOLDEN=1 cargo test --test pipeline_golden"
        );
    }
}

/// The ETag the fixture pins for one `(scale, seed)` cell.
fn pinned_etag(scale: Scale, seed: u64) -> &'static str {
    GOLDEN
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 11 && f[0] == scale.word() && f[1] == seed.to_string())
        .map(|f| f[6])
        .unwrap_or_else(|| panic!("no fixture line for {} {seed}", scale.word()))
}

#[test]
fn served_etag_is_pinned_at_every_thread_count() {
    for (scale, seed) in [(Scale::Tiny, 7), (Scale::Small, 20130501)] {
        let pinned = pinned_etag(scale, seed);
        let eco = Ecosystem::generate(scale.config(seed));
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let snap = pool.install(|| Snapshot::of_pipeline(&eco, scale, seed));
            assert_eq!(
                snap.etag,
                pinned,
                "{} {seed} at {threads} threads",
                scale.word()
            );
        }
    }
}

#[test]
fn fixture_ground_truth_counts_are_consistent() {
    // A count drawn from a set can never exceed the set: true links and
    // recovered mutual links are subsets of the inferred links, and the
    // per-IXP total counts every unique link at least once. A corrupted
    // fixture fails here rather than matching equally corrupted output.
    for line in GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields.len(), 11, "malformed fixture line: {line}");
        let n = |i: usize| -> u64 { fields[i].parse().expect("integer field") };
        let (unique, inferred, true_links) = (n(5), n(7), n(8));
        let (mutual_found, mutual_total) = (n(9), n(10));
        assert!(true_links <= unique, "{line}");
        assert!(inferred >= unique, "per-IXP total below unique: {line}");
        assert!(mutual_found <= mutual_total.min(unique), "{line}");
        assert!(mutual_found > 0, "no mutual link recovered: {line}");
    }
}
