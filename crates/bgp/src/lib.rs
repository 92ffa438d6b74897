//! # `mlpeer-bgp` — BGP substrate
//!
//! Foundation types and codecs for the `mlpeer` multilateral-peering
//! inference toolkit (a reproduction of *Inferring Multilateral Peering*,
//! Giotsas et al., CoNEXT 2013).
//!
//! This crate models the parts of BGP that the paper's data pipeline
//! touches:
//!
//! * [`Asn`] — 32-bit autonomous system numbers, including the reserved
//!   and private ranges the paper filters out of AS paths (§5: AS 23456
//!   and 63488–131071).
//! * [`Prefix`] — IPv4 CIDR prefixes announced by IXP members.
//! * [`Community`] — the 32-bit BGP community attribute (RFC 1997) whose
//!   IXP-documented values encode route-server export filters (§3).
//! * [`AsPath`] — AS path segments with loop detection and adjacency
//!   extraction (the primary public source of AS links, §2.2).
//! * [`RouteAttrs`] / [`Announcement`] — a route as carried in an UPDATE.
//! * [`rib`] — Adj-RIB-In / Loc-RIB with deterministic best-path
//!   selection, used by the route-server and looking-glass substrates.
//! * [`wire`] — a compact BGP-4-style binary codec (length-delimited
//!   framing over [`bytes`]) used wherever the simulation serializes
//!   routing data.
//! * [`mrt`] — an MRT-inspired archive format for collector RIB dumps
//!   and update streams, mirroring what Route Views / RIPE RIS publish.
//! * [`stream`] — time-stepped BGP message streams ([`stream::TimedMessage`],
//!   [`stream::UpdateStream`]) carrying the OPEN/UPDATE/NOTIFICATION
//!   traffic live mode folds incrementally (member churn, §5.1).
//!
//! The crate is deliberately synchronous and allocation-conscious: the
//! workload is CPU-bound analysis of in-memory routing tables, which the
//! async guides themselves direct toward plain threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod aspath;
pub mod community;
pub mod error;
pub mod mrt;
pub mod prefix;
pub mod rib;
pub mod route;
pub mod stream;
pub mod update;
pub mod wire;

pub use asn::Asn;
pub use aspath::AsPath;
pub use community::{Community, CommunitySet};
pub use error::BgpError;
pub use prefix::Prefix;
pub use rib::{Rib, RibEntry};
pub use route::{Announcement, Origin, RouteAttrs};
pub use update::{BgpMessage, UpdateMessage};
