//! # `mlpeer-repro` — the reproduction harness root
//!
//! Umbrella crate of the *Inferring Multilateral Peering* (CoNEXT
//! 2013) reproduction: it hosts the repo-wide examples (`examples/`)
//! and integration tests (`tests/end_to_end.rs`, `tests/serve_e2e.rs`,
//! `tests/live_e2e.rs`, `tests/engine_equivalence.rs`,
//! `tests/durability_e2e.rs`, `tests/dist_faults.rs`) that exercise
//! the whole workspace together. The crate map, data flows, layer
//! invariants, and the hot path (the sharded harvest over decoded
//! collector archives, interned [`mlpeer::intern`] ids, the
//! publish-time serve body cache) are documented in
//! `docs/ARCHITECTURE.md`; per-module reference docs live in each
//! crate (`cargo doc --no-deps --workspace --open`).
//!
//! The README's quickstart, as a tested example — the Figure 3
//! scenario: member A includes only B and D, everyone else is open,
//! and the reciprocal inference (§4.1) finds every link except A–C:
//!
//! ```
//! use mlpeer::connectivity::{ConnSource, ConnectivityData};
//! use mlpeer::infer::{infer_links, Observation, ObservationSource};
//! use mlpeer_bgp::Asn;
//! use mlpeer_ixp::ixp::IxpId;
//! use mlpeer_ixp::scheme::RsAction;
//!
//! let (a, b, c, d) = (Asn(1), Asn(2), Asn(3), Asn(4));
//! let mut conn = ConnectivityData::default();
//! for m in [a, b, c, d] {
//!     conn.record(IxpId(0), m, ConnSource::LookingGlass);
//! }
//! let obs = |member: Asn, prefix: &str, actions: Vec<RsAction>| Observation {
//!     ixp: IxpId(0),
//!     member,
//!     prefix: prefix.parse().unwrap(),
//!     actions,
//!     source: ObservationSource::ActiveRsLg,
//! };
//! let observations = vec![
//!     obs(a, "10.1.0.0/24", vec![
//!         RsAction::None, RsAction::Include(b), RsAction::Include(d),
//!     ]),
//!     obs(b, "10.2.0.0/24", vec![RsAction::All]),
//!     obs(c, "10.3.0.0/24", vec![]), // empty = default ALL
//!     obs(d, "10.4.0.0/24", vec![RsAction::All]),
//! ];
//! let links = infer_links(&conn, &observations);
//! let at0 = links.links_at(IxpId(0));
//! assert_eq!(at0.len(), 5);
//! assert!(!at0.contains(&(a, c)), "A blocks C (Fig. 3)");
//! ```
//!
//! And live mode's incremental counterpart: the same scenario built
//! event by event, where A's retune to open *retracts nothing and adds
//! exactly the missing A–C link*:
//!
//! ```
//! use mlpeer::live::{LiveEvent, LiveInferencer};
//! use mlpeer_bgp::Asn;
//! use mlpeer_ixp::ixp::IxpId;
//! use mlpeer_ixp::scheme::RsAction;
//!
//! let mut live = LiveInferencer::new();
//! for m in 1..=4u32 {
//!     live.apply(&LiveEvent::Join { ixp: IxpId(0), member: Asn(m) });
//! }
//! live.apply(&LiveEvent::Announce {
//!     ixp: IxpId(0), member: Asn(1), prefix: "10.1.0.0/24".parse().unwrap(),
//!     actions: vec![RsAction::None, RsAction::Include(Asn(2)), RsAction::Include(Asn(4))],
//! });
//! for m in 2..=4u32 {
//!     live.apply(&LiveEvent::Announce {
//!         ixp: IxpId(0), member: Asn(m),
//!         prefix: format!("10.{m}.0.0/24").parse().unwrap(),
//!         actions: vec![RsAction::All],
//!     });
//! }
//! assert_eq!(live.current().links_at(IxpId(0)).len(), 5);
//!
//! // A retunes to open: the delta is exactly the A–C link.
//! let delta = live.apply(&LiveEvent::Announce {
//!     ixp: IxpId(0), member: Asn(1), prefix: "10.1.0.0/24".parse().unwrap(),
//!     actions: vec![RsAction::All],
//! });
//! assert_eq!(delta.added, vec![(IxpId(0), Asn(1), Asn(3))]);
//! assert!(delta.removed.is_empty());
//! ```
