//! Binary codec for BGP messages.
//!
//! A faithful-in-shape subset of the RFC 4271 wire format, used by the
//! collector substrate to archive update streams and by the MRT module.
//! Messages are length-delimited exactly as on a real session: a 19-byte
//! header (16-byte all-ones marker, 2-byte length, 1-byte type) followed
//! by the body. The decoder is incremental in the style of the Tokio
//! framing guide: feed bytes into a buffer, pull out complete frames.
//!
//! Simplifications, documented per the smoltcp "explicit feature
//! inventory" idiom:
//!
//! * AS numbers are always 4 octets (as if the 4-octet-AS capability is
//!   negotiated — true of every route server the paper studies).
//! * Only the attributes the pipeline uses are encoded: ORIGIN, AS_PATH,
//!   NEXT_HOP, MED, LOCAL_PREF, COMMUNITIES. Unknown attributes are
//!   skipped on decode (flags honored), never generated on encode.
//! * IPv4 only, matching the paper's measurements.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::asn::Asn;
use crate::aspath::{AsPath, Segment};
use crate::community::{Community, CommunitySet};
use crate::error::BgpError;
use crate::prefix::Prefix;
use crate::route::{Origin, RouteAttrs};
use crate::update::{BgpMessage, NotificationCode, UpdateMessage};

/// Header length: marker (16) + length (2) + type (1).
pub const HEADER_LEN: usize = 19;
/// Largest legal message (RFC 4271).
pub const MAX_MESSAGE_LEN: usize = 4096;

const TYPE_OPEN: u8 = 1;
const TYPE_UPDATE: u8 = 2;
const TYPE_NOTIFICATION: u8 = 3;
const TYPE_KEEPALIVE: u8 = 4;

const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const ATTR_MED: u8 = 4;
const ATTR_LOCAL_PREF: u8 = 5;
const ATTR_COMMUNITIES: u8 = 8;

const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_EXTENDED: u8 = 0x10;

const SEG_SET: u8 = 1;
const SEG_SEQUENCE: u8 = 2;

/// Encode a message, appending the full frame (header + body) to `dst`.
pub fn encode_message(msg: &BgpMessage, dst: &mut BytesMut) {
    let body_start = dst.len() + HEADER_LEN;
    // Header: marker + placeholder length + type.
    dst.put_bytes(0xFF, 16);
    dst.put_u16(0); // patched below
    dst.put_u8(msg.type_code());
    match msg {
        BgpMessage::Open {
            asn,
            hold_time,
            router_id,
        } => {
            dst.put_u8(4); // version
                           // My-AS field: AS_TRANS when the ASN needs 32 bits.
            let wire_as = if asn.is_16bit() {
                asn.value() as u16
            } else {
                23456
            };
            dst.put_u16(wire_as);
            dst.put_u16(*hold_time);
            dst.put_u32(u32::from(*router_id));
            // One optional parameter: capability 65 (4-octet AS) with the
            // real ASN, as modern speakers send.
            dst.put_u8(8); // opt params len
            dst.put_u8(2); // param type: capability
            dst.put_u8(6); // param len
            dst.put_u8(65); // capability: 4-octet AS
            dst.put_u8(4); // capability len
            dst.put_u32(asn.value());
        }
        BgpMessage::Update(u) => encode_update_body(u, dst),
        BgpMessage::Notification { code, subcode } => {
            dst.put_u8(code.code());
            dst.put_u8(*subcode);
        }
        BgpMessage::Keepalive => {}
    }
    let total = dst.len() - (body_start - HEADER_LEN);
    debug_assert!(total <= MAX_MESSAGE_LEN, "message too large: {total}");
    let len_pos = body_start - 3;
    dst[len_pos..len_pos + 2].copy_from_slice(&(total as u16).to_be_bytes());
}

fn encode_prefix(p: &Prefix, dst: &mut BytesMut) {
    dst.put_u8(p.len());
    let nbytes = (p.len() as usize).div_ceil(8);
    let octets = p.network_u32().to_be_bytes();
    dst.put_slice(&octets[..nbytes]);
}

fn decode_prefix(src: &mut Bytes) -> Result<Prefix, BgpError> {
    if src.remaining() < 1 {
        return Err(BgpError::Truncated {
            context: "prefix length",
            needed: 1,
        });
    }
    let len = src.get_u8();
    if len > 32 {
        return Err(BgpError::PrefixLenOutOfRange(len));
    }
    let nbytes = (len as usize).div_ceil(8);
    if src.remaining() < nbytes {
        return Err(BgpError::Truncated {
            context: "prefix octets",
            needed: nbytes - src.remaining(),
        });
    }
    let mut octets = [0u8; 4];
    src.copy_to_slice(&mut octets[..nbytes]);
    Prefix::from_u32(u32::from_be_bytes(octets), len)
}

fn encode_attr(dst: &mut BytesMut, flags: u8, ty: u8, body: &[u8]) {
    if body.len() > 255 {
        dst.put_u8(flags | FLAG_EXTENDED);
        dst.put_u8(ty);
        dst.put_u16(body.len() as u16);
    } else {
        dst.put_u8(flags);
        dst.put_u8(ty);
        dst.put_u8(body.len() as u8);
    }
    dst.put_slice(body);
}

fn encode_update_body(u: &UpdateMessage, dst: &mut BytesMut) {
    // Withdrawn routes.
    let mut wd = BytesMut::new();
    for p in &u.withdrawn {
        encode_prefix(p, &mut wd);
    }
    dst.put_u16(wd.len() as u16);
    dst.put_slice(&wd);

    // Path attributes.
    let mut attrs = BytesMut::new();
    if let Some(a) = &u.attrs {
        let mut b = BytesMut::new();
        b.put_u8(a.origin.code());
        encode_attr(&mut attrs, FLAG_TRANSITIVE, ATTR_ORIGIN, &b);

        let mut b = BytesMut::new();
        for seg in a.as_path.segments() {
            let (code, asns) = match seg {
                Segment::Set(v) => (SEG_SET, v),
                Segment::Sequence(v) => (SEG_SEQUENCE, v),
            };
            // RFC 4271 caps a segment at 255 ASNs; chunk longer ones.
            for chunk in asns.chunks(255) {
                b.put_u8(code);
                b.put_u8(chunk.len() as u8);
                for asn in chunk {
                    b.put_u32(asn.value());
                }
            }
        }
        encode_attr(&mut attrs, FLAG_TRANSITIVE, ATTR_AS_PATH, &b);

        let mut b = BytesMut::new();
        b.put_u32(u32::from(a.next_hop));
        encode_attr(&mut attrs, FLAG_TRANSITIVE, ATTR_NEXT_HOP, &b);

        if a.med != 0 {
            let mut b = BytesMut::new();
            b.put_u32(a.med);
            encode_attr(&mut attrs, FLAG_OPTIONAL, ATTR_MED, &b);
        }

        let mut b = BytesMut::new();
        b.put_u32(a.local_pref);
        encode_attr(&mut attrs, FLAG_TRANSITIVE, ATTR_LOCAL_PREF, &b);

        if !a.communities.is_empty() {
            let mut b = BytesMut::new();
            for c in a.communities.iter() {
                b.put_u32(c.value());
            }
            encode_attr(
                &mut attrs,
                FLAG_OPTIONAL | FLAG_TRANSITIVE,
                ATTR_COMMUNITIES,
                &b,
            );
        }
    }
    dst.put_u16(attrs.len() as u16);
    dst.put_slice(&attrs);

    // NLRI.
    for p in &u.nlri {
        encode_prefix(p, dst);
    }
}

/// Encode a message into a fresh buffer.
pub fn encode_to_bytes(msg: &BgpMessage) -> Bytes {
    let mut buf = BytesMut::new();
    encode_message(msg, &mut buf);
    buf.freeze()
}

/// An incremental frame decoder: feed bytes, pull complete messages.
///
/// Mirrors the `Decoder` pattern from the Tokio framing guide, without
/// the async machinery (the simulation is synchronous).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: BytesMut,
}

impl FrameDecoder {
    /// New empty decoder.
    pub fn new() -> Self {
        FrameDecoder {
            buf: BytesMut::new(),
        }
    }

    /// Append raw bytes received from the peer.
    pub fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Try to decode one complete message from the buffer. Returns
    /// `Ok(None)` if more bytes are needed.
    pub fn next_message(&mut self) -> Result<Option<BgpMessage>, BgpError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        if self.buf[..16].iter().any(|&b| b != 0xFF) {
            return Err(BgpError::BadMarker);
        }
        let total = u16::from_be_bytes([self.buf[16], self.buf[17]]) as usize;
        if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&total) {
            return Err(BgpError::LengthMismatch {
                declared: total,
                actual: self.buf.len(),
            });
        }
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame = self.buf.split_to(total).freeze();
        decode_frame(frame).map(Some)
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Decode one complete frame (header + body).
pub fn decode_frame(mut frame: Bytes) -> Result<BgpMessage, BgpError> {
    if frame.len() < HEADER_LEN {
        return Err(BgpError::Truncated {
            context: "header",
            needed: HEADER_LEN - frame.len(),
        });
    }
    let declared = u16::from_be_bytes([frame[16], frame[17]]) as usize;
    if declared != frame.len() {
        return Err(BgpError::LengthMismatch {
            declared,
            actual: frame.len(),
        });
    }
    frame.advance(18);
    let ty = frame.get_u8();
    match ty {
        TYPE_OPEN => decode_open(frame),
        TYPE_UPDATE => decode_update(frame).map(BgpMessage::Update),
        TYPE_NOTIFICATION => {
            if frame.remaining() < 2 {
                return Err(BgpError::Truncated {
                    context: "notification",
                    needed: 2,
                });
            }
            let code = frame.get_u8();
            let subcode = frame.get_u8();
            let code = NotificationCode::from_code(code)
                .ok_or(BgpError::MalformedAttribute("notification code"))?;
            Ok(BgpMessage::Notification { code, subcode })
        }
        TYPE_KEEPALIVE => Ok(BgpMessage::Keepalive),
        other => Err(BgpError::UnknownMessageType(other)),
    }
}

fn decode_open(mut b: Bytes) -> Result<BgpMessage, BgpError> {
    if b.remaining() < 10 {
        return Err(BgpError::Truncated {
            context: "OPEN",
            needed: 10 - b.remaining(),
        });
    }
    let _version = b.get_u8();
    let wire_as = b.get_u16();
    let hold_time = b.get_u16();
    let router_id = std::net::Ipv4Addr::from(b.get_u32());
    let opt_len = b.get_u8() as usize;
    if b.remaining() < opt_len {
        return Err(BgpError::Truncated {
            context: "OPEN options",
            needed: opt_len - b.remaining(),
        });
    }
    let mut asn = Asn(wire_as as u32);
    let mut opts = b.slice(..opt_len);
    // Scan optional parameters for capability 65 (4-octet AS).
    while opts.remaining() >= 2 {
        let ptype = opts.get_u8();
        let plen = opts.get_u8() as usize;
        if opts.remaining() < plen {
            return Err(BgpError::MalformedAttribute("OPEN optional parameter"));
        }
        let mut pbody = opts.slice(..plen);
        opts.advance(plen);
        if ptype != 2 {
            continue;
        }
        while pbody.remaining() >= 2 {
            let cap = pbody.get_u8();
            let clen = pbody.get_u8() as usize;
            if pbody.remaining() < clen {
                return Err(BgpError::MalformedAttribute("capability length"));
            }
            if cap == 65 && clen == 4 {
                asn = Asn(pbody.get_u32());
            } else {
                pbody.advance(clen);
            }
        }
    }
    Ok(BgpMessage::Open {
        asn,
        hold_time,
        router_id,
    })
}

fn decode_update(mut b: Bytes) -> Result<UpdateMessage, BgpError> {
    if b.remaining() < 2 {
        return Err(BgpError::Truncated {
            context: "withdrawn length",
            needed: 2,
        });
    }
    let wd_len = b.get_u16() as usize;
    if b.remaining() < wd_len {
        return Err(BgpError::Truncated {
            context: "withdrawn routes",
            needed: wd_len - b.remaining(),
        });
    }
    let mut wd = b.slice(..wd_len);
    b.advance(wd_len);
    let mut withdrawn = Vec::new();
    while wd.has_remaining() {
        withdrawn.push(decode_prefix(&mut wd)?);
    }

    if b.remaining() < 2 {
        return Err(BgpError::Truncated {
            context: "attribute length",
            needed: 2,
        });
    }
    let at_len = b.get_u16() as usize;
    if b.remaining() < at_len {
        return Err(BgpError::Truncated {
            context: "path attributes",
            needed: at_len - b.remaining(),
        });
    }
    let mut ab = b.slice(..at_len);
    b.advance(at_len);

    let mut attrs: Option<RouteAttrs> = if at_len > 0 {
        Some(RouteAttrs::default())
    } else {
        None
    };
    while ab.remaining() >= 3 {
        let flags = ab.get_u8();
        let ty = ab.get_u8();
        let alen = if flags & FLAG_EXTENDED != 0 {
            if ab.remaining() < 2 {
                return Err(BgpError::Truncated {
                    context: "extended attr length",
                    needed: 2,
                });
            }
            ab.get_u16() as usize
        } else {
            if ab.remaining() < 1 {
                return Err(BgpError::Truncated {
                    context: "attr length",
                    needed: 1,
                });
            }
            ab.get_u8() as usize
        };
        if ab.remaining() < alen {
            return Err(BgpError::Truncated {
                context: "attr body",
                needed: alen - ab.remaining(),
            });
        }
        let mut body = ab.slice(..alen);
        ab.advance(alen);
        let a = attrs.as_mut().expect("attrs present when at_len > 0");
        match ty {
            ATTR_ORIGIN => {
                if body.remaining() < 1 {
                    return Err(BgpError::MalformedAttribute("ORIGIN empty"));
                }
                a.origin = Origin::from_code(body.get_u8())
                    .ok_or(BgpError::MalformedAttribute("ORIGIN code"))?;
            }
            ATTR_AS_PATH => {
                let mut segs = Vec::new();
                while body.remaining() >= 2 {
                    let sty = body.get_u8();
                    let count = body.get_u8() as usize;
                    if body.remaining() < count * 4 {
                        return Err(BgpError::MalformedAttribute("AS_PATH segment"));
                    }
                    let mut asns = Vec::with_capacity(count);
                    for _ in 0..count {
                        asns.push(Asn(body.get_u32()));
                    }
                    match sty {
                        SEG_SET => segs.push(Segment::Set(asns)),
                        SEG_SEQUENCE => {
                            // Merge chunked sequences back together.
                            if let Some(Segment::Sequence(prev)) = segs.last_mut() {
                                prev.extend(asns);
                            } else {
                                segs.push(Segment::Sequence(asns));
                            }
                        }
                        _ => return Err(BgpError::MalformedAttribute("AS_PATH segment type")),
                    }
                }
                a.as_path = AsPath::from_segments(segs);
            }
            ATTR_NEXT_HOP => {
                if body.remaining() < 4 {
                    return Err(BgpError::MalformedAttribute("NEXT_HOP length"));
                }
                a.next_hop = std::net::Ipv4Addr::from(body.get_u32());
            }
            ATTR_MED => {
                if body.remaining() < 4 {
                    return Err(BgpError::MalformedAttribute("MED length"));
                }
                a.med = body.get_u32();
            }
            ATTR_LOCAL_PREF => {
                if body.remaining() < 4 {
                    return Err(BgpError::MalformedAttribute("LOCAL_PREF length"));
                }
                a.local_pref = body.get_u32();
            }
            ATTR_COMMUNITIES => {
                if alen % 4 != 0 {
                    return Err(BgpError::MalformedAttribute("COMMUNITIES length"));
                }
                let mut set = CommunitySet::new();
                while body.remaining() >= 4 {
                    set.insert(Community(body.get_u32()));
                }
                a.communities = set;
            }
            // Unknown attribute: skip (body already advanced past).
            _ => {}
        }
    }

    let mut nlri = Vec::new();
    while b.has_remaining() {
        nlri.push(decode_prefix(&mut b)?);
    }
    Ok(UpdateMessage {
        withdrawn,
        attrs,
        nlri,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::RouteAttrs;

    fn sample_update() -> UpdateMessage {
        let attrs = RouteAttrs::new(
            "8359 3216".parse::<AsPath>().unwrap(),
            "80.81.192.33".parse().unwrap(),
        )
        .with_communities("0:6695 6695:8447".parse().unwrap())
        .with_local_pref(120);
        UpdateMessage {
            withdrawn: vec!["10.9.0.0/16".parse().unwrap()],
            attrs: Some(attrs),
            nlri: vec![
                "193.34.0.0/22".parse().unwrap(),
                "193.34.4.0/24".parse().unwrap(),
            ],
        }
    }

    fn roundtrip(msg: &BgpMessage) -> BgpMessage {
        let bytes = encode_to_bytes(msg);
        decode_frame(bytes).expect("decode")
    }

    #[test]
    fn keepalive_roundtrip() {
        assert_eq!(roundtrip(&BgpMessage::Keepalive), BgpMessage::Keepalive);
        assert_eq!(encode_to_bytes(&BgpMessage::Keepalive).len(), HEADER_LEN);
    }

    #[test]
    fn open_roundtrip_16bit_and_32bit_asn() {
        for asn in [Asn(6695), Asn(196_608), Asn(4_200_000_001)] {
            let msg = BgpMessage::Open {
                asn,
                hold_time: 90,
                router_id: "10.1.2.3".parse().unwrap(),
            };
            assert_eq!(roundtrip(&msg), msg, "asn {asn}");
        }
    }

    #[test]
    fn update_roundtrip() {
        let msg = BgpMessage::Update(sample_update());
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn withdraw_only_roundtrip() {
        let msg = BgpMessage::Update(UpdateMessage::withdraw(vec!["193.34.0.0/22"
            .parse()
            .unwrap()]));
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn notification_roundtrip() {
        let msg = BgpMessage::Notification {
            code: NotificationCode::Cease,
            subcode: 2,
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn as_set_roundtrip() {
        let path = "3356 {64496,64497} 6695".parse::<AsPath>().unwrap();
        let attrs = RouteAttrs::new(path, "1.2.3.4".parse().unwrap());
        let msg = BgpMessage::Update(UpdateMessage::announce(
            attrs,
            vec!["192.0.2.0/24".parse().unwrap()],
        ));
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn long_path_chunking_roundtrip() {
        // 600 hops forces segment chunking at 255.
        let asns: Vec<Asn> = (1..=600u32).map(Asn).collect();
        let attrs = RouteAttrs::new(AsPath::from_seq(asns), "1.2.3.4".parse().unwrap());
        let msg = BgpMessage::Update(UpdateMessage::announce(
            attrs,
            vec!["192.0.2.0/24".parse().unwrap()],
        ));
        let out = roundtrip(&msg);
        assert_eq!(out, msg);
    }

    #[test]
    fn incremental_decoder_handles_split_frames() {
        let m1 = BgpMessage::Keepalive;
        let m2 = BgpMessage::Update(sample_update());
        let mut wire = BytesMut::new();
        encode_message(&m1, &mut wire);
        encode_message(&m2, &mut wire);
        let wire = wire.freeze();

        let mut dec = FrameDecoder::new();
        // Feed one byte at a time; messages must come out whole, in order.
        let mut got = Vec::new();
        for chunk in wire.chunks(1) {
            dec.extend(chunk);
            while let Some(m) = dec.next_message().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, vec![m1, m2]);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn decoder_rejects_bad_marker() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0u8; 19]);
        assert_eq!(dec.next_message(), Err(BgpError::BadMarker));
    }

    #[test]
    fn decode_rejects_truncated_frame() {
        let bytes = encode_to_bytes(&BgpMessage::Update(sample_update()));
        let cut = bytes.slice(..bytes.len() - 3);
        assert!(decode_frame(cut).is_err());
    }

    #[test]
    fn unknown_attribute_is_skipped() {
        // Hand-craft an update with an unknown attribute type 99.
        let mut body = BytesMut::new();
        body.put_u16(0); // withdrawn len
        let mut attrs = BytesMut::new();
        encode_attr(&mut attrs, FLAG_OPTIONAL | FLAG_TRANSITIVE, 99, &[1, 2, 3]);
        let mut b = BytesMut::new();
        b.put_u8(Origin::Igp.code());
        encode_attr(&mut attrs, FLAG_TRANSITIVE, ATTR_ORIGIN, &b);
        body.put_u16(attrs.len() as u16);
        body.put_slice(&attrs);
        // One NLRI.
        encode_prefix(&"192.0.2.0/24".parse().unwrap(), &mut body);

        let mut frame = BytesMut::new();
        frame.put_bytes(0xFF, 16);
        frame.put_u16((HEADER_LEN + body.len()) as u16);
        frame.put_u8(TYPE_UPDATE);
        frame.put_slice(&body);
        let msg = decode_frame(frame.freeze()).unwrap();
        match msg {
            BgpMessage::Update(u) => {
                assert_eq!(u.nlri.len(), 1);
                assert_eq!(u.attrs.unwrap().origin, Origin::Igp);
            }
            other => panic!("expected update, got {other:?}"),
        }
    }
}
