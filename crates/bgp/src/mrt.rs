//! MRT-style archives.
//!
//! Route Views and RIPE RIS publish RIB snapshots and update streams in
//! the MRT format (RFC 6396). The collector substrate reproduces that
//! interface as plain values: a *peer index table* naming the vantage
//! points, per-prefix RIB entries referencing peers by index, and
//! update records.

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::asn::Asn;
use crate::prefix::Prefix;
use crate::route::RouteAttrs;
use crate::update::UpdateMessage;

/// A vantage-point peer of the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MrtPeer {
    /// Peer ASN.
    pub asn: Asn,
    /// Peer address.
    pub addr: Ipv4Addr,
}

/// One RIB entry: a route to `prefix` as learned from peer `peer_index`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MrtRibEntry {
    /// Index into the archive's peer table.
    pub peer_index: u16,
    /// Snapshot timestamp (seconds; simulation time).
    pub originated: u32,
    /// The prefix.
    pub prefix: Prefix,
    /// Path attributes as seen at the collector.
    pub attrs: RouteAttrs,
}

/// One archived update: `peer_index` sent `update` at `timestamp`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MrtUpdate {
    /// Index into the archive's peer table.
    pub peer_index: u16,
    /// Receive timestamp (seconds; simulation time).
    pub timestamp: u32,
    /// The update message.
    pub update: UpdateMessage,
}

/// An MRT-style archive: peers, a RIB snapshot, and an update stream.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MrtArchive {
    /// Vantage points feeding this collector.
    pub peers: Vec<MrtPeer>,
    /// RIB snapshot entries.
    pub rib: Vec<MrtRibEntry>,
    /// Update stream, in timestamp order.
    pub updates: Vec<MrtUpdate>,
}

impl MrtArchive {
    /// New empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a peer, returning its index. Re-registers are deduped.
    pub fn add_peer(&mut self, asn: Asn, addr: Ipv4Addr) -> u16 {
        let peer = MrtPeer { asn, addr };
        if let Some(i) = self.peers.iter().position(|p| *p == peer) {
            return i as u16;
        }
        self.peers.push(peer);
        (self.peers.len() - 1) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_peer_dedupes() {
        let mut a = MrtArchive::new();
        let i0 = a.add_peer(Asn(1), "10.0.0.1".parse().unwrap());
        let i1 = a.add_peer(Asn(2), "10.0.0.2".parse().unwrap());
        let i2 = a.add_peer(Asn(1), "10.0.0.1".parse().unwrap());
        assert_eq!((i0, i1, i2), (0, 1, 0));
        assert_eq!(a.peers.len(), 2);
    }
}
