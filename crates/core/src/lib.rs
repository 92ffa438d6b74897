//! # `mlpeer` — Inferring Multilateral Peering
//!
//! A production-quality implementation of the inference framework from
//! *Inferring Multilateral Peering* (Giotsas, Zhou, Luckie, claffy —
//! CoNEXT 2013): discover the peer-to-peer links established over IXP
//! route servers by mining the BGP community values members use to
//! control their route-server export filters.
//!
//! ## Pipeline
//!
//! ```text
//!  connectivity (who sessions with the RS)        reachability (export filters)
//!  ───────────────────────────────────────        ─────────────────────────────
//!  LG `show ip bgp summary`   [connectivity]      passive: Route Views / RIS
//!  IRR AS-SETs                                    archives  [passive]
//!  IXP member lists                               active: LG prefix queries
//!          └──────────────┬───────────────────────────────┘ [active]
//!                         ▼
//!         community dictionary + IXP identification  [dict]
//!                         ▼
//!         RS-setter pinpointing, policy reconstruction
//!             N_a = ⋂_p N_{a,p}   [passive, infer]
//!                         ▼
//!         reciprocal link inference (a ∈ N_b ∧ b ∈ N_a)  [infer]
//!                         ▼
//!         validation via public LGs [validate] · analyses [analysis]
//! ```
//!
//! [`live`] is the pipeline's incremental counterpart: it folds a
//! time-stepped BGP session stream (member churn, filter retunes,
//! announce/withdraw) with *retraction*, keeping the link set
//! byte-identical to a from-scratch harvest of the evolving state.
//!
//! Module → paper-section map: [`connectivity`] §4 (who sessions with
//! each RS), [`dict`] §4.2 (community dictionary + IXP
//! identification), [`passive`] §4.2 (archive mining, setter
//! pin-pointing), [`active`] §4.1/§4.3 (LG querying and its economics),
//! [`infer`] §4.1 steps 4–5 (export reach + reciprocal links),
//! [`live`] the §5.1-churn-driven incremental variant, [`validate`]
//! §5.1, [`reciprocity`] §4.4, [`analysis`] §5; [`index`], [`sink`],
//! [`hash`], [`intern`] and [`report`] are serving/engineering
//! substrate ([`intern`] is the dense-id layer the hot paths key on;
//! see the "Hot path & memory layout" section of
//! `docs/ARCHITECTURE.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod analysis;
pub mod connectivity;
pub mod dict;
pub mod hash;
pub mod index;
pub mod infer;
pub mod intern;
pub mod live;
pub mod passive;
pub mod pipeline;
pub mod reciprocity;
pub mod report;
pub mod sink;
pub mod validate;

pub use connectivity::{ConnSource, ConnectivityData};
pub use dict::CommunityDictionary;
pub use index::{LinkIndex, PrefixMatches, PrefixRuns};
pub use infer::{infer_links, LinkInferencer, MlpLinkSet, Observation, ObservationSource};
pub use intern::{AsnId, AsnTable, MemberId, MemberTable, PrefixId, PrefixTable};
pub use live::{decode_message, full_harvest, LinkDelta, LiveEvent, LiveInferencer};
pub use sink::{CountingSink, MergeSink, ObservationSink};
