//! MRT-style archives.
//!
//! Route Views and RIPE RIS publish RIB snapshots and update streams in
//! the MRT format (RFC 6396). The collector substrate reproduces that
//! interface: a *peer index table* naming the vantage points, followed
//! by per-prefix RIB entries referencing peers by index, plus update
//! records. The encoding reuses the path-attribute layout from
//! [`crate::wire`] by embedding whole UPDATE frames, which keeps the two
//! codecs consistent and exercises the frame decoder on every archive
//! read.

use std::net::Ipv4Addr;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::asn::Asn;
use crate::error::BgpError;
use crate::prefix::Prefix;
use crate::route::RouteAttrs;
use crate::update::{BgpMessage, UpdateMessage};
use crate::wire;

/// A vantage-point peer of the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MrtPeer {
    /// Peer ASN.
    pub asn: Asn,
    /// Peer address.
    pub addr: Ipv4Addr,
}

/// One RIB entry: a route to `prefix` as learned from peer `peer_index`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MrtUpdate {
    /// Index into the archive's peer table.
    pub peer_index: u16,
    /// Receive timestamp (seconds; simulation time).
    pub timestamp: u32,
    /// The update message.
    pub update: UpdateMessage,
}

/// An MRT-style archive: peers, a RIB snapshot, and an update stream.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MrtArchive {
    /// Vantage points feeding this collector.
    pub peers: Vec<MrtPeer>,
    /// RIB snapshot entries.
    pub rib: Vec<MrtRibEntry>,
    /// Update stream, in timestamp order.
    pub updates: Vec<MrtUpdate>,
}

const REC_PEER_TABLE: u16 = 1;
const REC_RIB_ENTRY: u16 = 2;
const REC_UPDATE: u16 = 3;

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

    /// Look up a peer by index.
    pub fn peer(&self, index: u16) -> Result<&MrtPeer, BgpError> {
        self.peers
            .get(index as usize)
            .ok_or(BgpError::UnknownPeerIndex(index))
    }

    /// Serialize the whole archive.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        // Peer index table record.
        let mut body = BytesMut::new();
        body.put_u16(self.peers.len() as u16);
        for p in &self.peers {
            body.put_u32(p.asn.value());
            body.put_u32(u32::from(p.addr));
        }
        put_record(&mut buf, REC_PEER_TABLE, &body);

        for e in &self.rib {
            let mut body = BytesMut::new();
            body.put_u16(e.peer_index);
            body.put_u32(e.originated);
            // Reuse the wire codec: embed a single-NLRI UPDATE frame.
            let upd = UpdateMessage::announce(e.attrs.clone(), vec![e.prefix]);
            let frame = wire::encode_to_bytes(&BgpMessage::Update(upd));
            body.put_u32(frame.len() as u32);
            body.put_slice(&frame);
            put_record(&mut buf, REC_RIB_ENTRY, &body);
        }

        for u in &self.updates {
            let mut body = BytesMut::new();
            body.put_u16(u.peer_index);
            body.put_u32(u.timestamp);
            let frame = wire::encode_to_bytes(&BgpMessage::Update(u.update.clone()));
            body.put_u32(frame.len() as u32);
            body.put_slice(&frame);
            put_record(&mut buf, REC_UPDATE, &body);
        }
        buf.freeze()
    }

    /// Deserialize an archive.
    pub fn decode(mut data: Bytes) -> Result<Self, BgpError> {
        let mut archive = MrtArchive::new();
        while data.has_remaining() {
            if data.remaining() < 6 {
                return Err(BgpError::Truncated {
                    context: "MRT record header",
                    needed: 6,
                });
            }
            let rtype = data.get_u16();
            let rlen = data.get_u32() as usize;
            if data.remaining() < rlen {
                return Err(BgpError::Truncated {
                    context: "MRT record body",
                    needed: rlen - data.remaining(),
                });
            }
            let mut body = data.slice(..rlen);
            data.advance(rlen);
            match rtype {
                REC_PEER_TABLE => {
                    if body.remaining() < 2 {
                        return Err(BgpError::Truncated {
                            context: "peer table",
                            needed: 2,
                        });
                    }
                    let n = body.get_u16() as usize;
                    if body.remaining() < n * 8 {
                        return Err(BgpError::Truncated {
                            context: "peer table entries",
                            needed: n * 8 - body.remaining(),
                        });
                    }
                    for _ in 0..n {
                        let asn = Asn(body.get_u32());
                        let addr = Ipv4Addr::from(body.get_u32());
                        archive.peers.push(MrtPeer { asn, addr });
                    }
                }
                REC_RIB_ENTRY => {
                    let (peer_index, ts, update) = decode_framed_update(&mut body)?;
                    if peer_index as usize >= archive.peers.len() {
                        return Err(BgpError::UnknownPeerIndex(peer_index));
                    }
                    let attrs = update
                        .attrs
                        .ok_or(BgpError::MalformedAttribute("RIB entry without attributes"))?;
                    let prefix = *update
                        .nlri
                        .first()
                        .ok_or(BgpError::MalformedAttribute("RIB entry without NLRI"))?;
                    archive.rib.push(MrtRibEntry {
                        peer_index,
                        originated: ts,
                        prefix,
                        attrs,
                    });
                }
                REC_UPDATE => {
                    let (peer_index, ts, update) = decode_framed_update(&mut body)?;
                    if peer_index as usize >= archive.peers.len() {
                        return Err(BgpError::UnknownPeerIndex(peer_index));
                    }
                    archive.updates.push(MrtUpdate {
                        peer_index,
                        timestamp: ts,
                        update,
                    });
                }
                other => return Err(BgpError::UnknownMrtType(other)),
            }
        }
        Ok(archive)
    }

    /// Total number of records (for progress reporting).
    pub fn record_count(&self) -> usize {
        1 + self.rib.len() + self.updates.len()
    }
}

fn put_record(buf: &mut BytesMut, rtype: u16, body: &[u8]) {
    buf.put_u16(rtype);
    buf.put_u32(body.len() as u32);
    buf.put_slice(body);
}

fn decode_framed_update(body: &mut Bytes) -> Result<(u16, u32, UpdateMessage), BgpError> {
    if body.remaining() < 10 {
        return Err(BgpError::Truncated {
            context: "MRT framed update",
            needed: 10,
        });
    }
    let peer_index = body.get_u16();
    let ts = body.get_u32();
    let flen = body.get_u32() as usize;
    if body.remaining() < flen {
        return Err(BgpError::Truncated {
            context: "embedded frame",
            needed: flen - body.remaining(),
        });
    }
    let frame = body.slice(..flen);
    body.advance(flen);
    match wire::decode_frame(frame)? {
        BgpMessage::Update(u) => Ok((peer_index, ts, u)),
        _ => Err(BgpError::MalformedAttribute(
            "embedded frame is not an UPDATE",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspath::AsPath;

    fn attrs(path: &str) -> RouteAttrs {
        RouteAttrs::new(
            path.parse::<AsPath>().unwrap(),
            "80.81.192.1".parse().unwrap(),
        )
        .with_communities("0:6695 6695:8447".parse().unwrap())
    }

    fn sample_archive() -> MrtArchive {
        let mut a = MrtArchive::new();
        let p0 = a.add_peer(Asn(11666), "203.0.113.1".parse().unwrap());
        let p1 = a.add_peer(Asn(3356), "203.0.113.2".parse().unwrap());
        a.rib.push(MrtRibEntry {
            peer_index: p0,
            originated: 1_000,
            prefix: "193.34.0.0/22".parse().unwrap(),
            attrs: attrs("11666 8714 8359"),
        });
        a.rib.push(MrtRibEntry {
            peer_index: p1,
            originated: 1_005,
            prefix: "193.34.0.0/22".parse().unwrap(),
            attrs: attrs("3356 8359"),
        });
        a.updates.push(MrtUpdate {
            peer_index: p1,
            timestamp: 2_000,
            update: UpdateMessage::withdraw(vec!["193.34.0.0/22".parse().unwrap()]),
        });
        a
    }

    #[test]
    fn add_peer_dedupes() {
        let mut a = MrtArchive::new();
        let i0 = a.add_peer(Asn(1), "10.0.0.1".parse().unwrap());
        let i1 = a.add_peer(Asn(2), "10.0.0.2".parse().unwrap());
        let i2 = a.add_peer(Asn(1), "10.0.0.1".parse().unwrap());
        assert_eq!((i0, i1, i2), (0, 1, 0));
        assert_eq!(a.peers.len(), 2);
        assert!(a.peer(0).is_ok());
        assert_eq!(a.peer(9), Err(BgpError::UnknownPeerIndex(9)));
    }

    #[test]
    fn archive_roundtrip() {
        let a = sample_archive();
        let encoded = a.encode();
        let b = MrtArchive::decode(encoded).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.record_count(), 4);
    }

    #[test]
    fn communities_survive_archival() {
        let a = sample_archive();
        let b = MrtArchive::decode(a.encode()).unwrap();
        assert_eq!(b.rib[0].attrs.communities.to_string(), "0:6695 6695:8447");
    }

    #[test]
    fn decode_rejects_dangling_peer_index() {
        let mut a = sample_archive();
        a.rib[0].peer_index = 77;
        let err = MrtArchive::decode(a.encode()).unwrap_err();
        assert_eq!(err, BgpError::UnknownPeerIndex(77));
    }

    #[test]
    fn decode_rejects_truncation() {
        let a = sample_archive();
        let encoded = a.encode();
        for cut in [1usize, 5, 9, encoded.len() - 1] {
            let sliced = encoded.slice(..cut.min(encoded.len() - 1));
            assert!(MrtArchive::decode(sliced).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_archive_roundtrip() {
        let a = MrtArchive::new();
        let b = MrtArchive::decode(a.encode()).unwrap();
        assert_eq!(a, b);
    }
}
