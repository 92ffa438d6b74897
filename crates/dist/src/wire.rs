//! The merge wire format: checksummed, length-prefixed binary frames
//! carrying jobs and per-shard results between the coordinator and its
//! worker processes.
//!
//! The vendored `serde_json` stand-in cannot parse JSON back (see
//! `vendor/README.md`), so — like the epoch store — the dist layer
//! speaks a hand-rolled little-endian binary format, reusing
//! `mlpeer_store::codec` for every domain type it already covers.
//!
//! ## Frame layout
//!
//! ```text
//! ┌───────┬─────┬──────┬─────────┬───────────┬─────────┬─────────────┐
//! │ MLPD  │ ver │ kind │ seq u32 │ len  u32  │ payload │ checksum u64│
//! │ 4 B   │ 1 B │ 1 B  │ LE      │ LE        │ len B   │ LE          │
//! └───────┴─────┴──────┴─────────┴───────────┴─────────┴─────────────┘
//! ```
//!
//! The checksum is `FxHash` over everything between the magic and the
//! checksum itself (the same span discipline as the store's record
//! checksum), so a flipped bit anywhere — header or payload — is
//! detected before any payload decoding happens. A checksum mismatch,
//! bad magic, unknown kind, or truncation is a **frame error**: the
//! coordinator treats the worker as corrupt and retries its shard; it
//! is never silently folded into a wrong merge.

use std::hash::Hasher;
use std::io::{self, Read, Write};

use mlpeer::hash::FxHasher;
use mlpeer::infer::{InferEntry, InferState, Observation, ObservationSource};
use mlpeer::passive::{PassiveStats, WorkUnit};
use mlpeer_ixp::scheme::RsAction;
use mlpeer_store::codec::{
    get_asn, get_asn_set, get_ixp, get_passive, get_prefix, put_asn, put_asn_set, put_ixp,
    put_passive, put_prefix, CodecError, Reader, Writer,
};

/// Frame magic (`MLPD`).
pub const MAGIC: [u8; 4] = *b"MLPD";
/// Wire format version. Bumped on any layout change; a mismatch is a
/// hard frame error, never a best-effort decode.
pub const VERSION: u8 = 1;
/// Payload size cap (64 MiB): a corrupt length field can cost at most
/// this much allocation, never gigabytes.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Coordinator → worker: a passive-harvest shard.
    PassiveJob,
    /// Worker → coordinator: the harvested shard.
    PassiveResult,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::PassiveJob => 1,
            FrameKind::PassiveResult => 2,
        }
    }

    fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            1 => Some(FrameKind::PassiveJob),
            2 => Some(FrameKind::PassiveResult),
            _ => None,
        }
    }
}

/// Why a frame read failed. Every variant except `Io` means the peer
/// sent bytes that fail validation — the coordinator's cue to retry
/// the shard elsewhere.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The stream did not start with [`MAGIC`].
    BadMagic,
    /// Unknown wire format version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// The stream ended mid-frame.
    Truncated,
    /// The frame checksum did not match its bytes.
    Checksum,
    /// The payload failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::TooLarge(n) => write!(f, "payload of {n} bytes exceeds cap"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Checksum => write!(f, "frame checksum mismatch"),
            WireError::Codec(e) => write!(f, "payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        WireError::Codec(e)
    }
}

/// One parsed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Coordinator-assigned sequence number, echoed by replies — the
    /// duplicate-delivery detector.
    pub seq: u32,
    /// The (already checksum-verified) payload bytes.
    pub payload: Vec<u8>,
}

fn checksum_of(body: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(body);
    h.finish()
}

/// Encode one frame to bytes (the unit the fuzz tests corrupt).
pub fn encode_frame(kind: FrameKind, seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 10 + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind.to_u8());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = checksum_of(&out[MAGIC.len()..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Write one frame, returning the bytes put on the wire.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    seq: u32,
    payload: &[u8],
) -> io::Result<usize> {
    failpoints::failpoint!("dist::frame_write", |msg: String| Err(io::Error::other(
        format!("failpoint dist::frame_write: {msg}")
    )));
    let bytes = encode_frame(kind, seq, payload);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(WireError::Truncated);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Read one frame. `Ok(None)` is a clean EOF at a frame boundary (the
/// peer closed the stream); EOF anywhere *inside* a frame is
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    failpoints::failpoint!("dist::frame_read", |msg: String| Err(WireError::Io(
        io::Error::other(format!("failpoint dist::frame_read: {msg}"))
    )));
    let mut magic = [0u8; 4];
    if !read_exact_or_eof(r, &mut magic)? {
        return Ok(None);
    }
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let mut header = [0u8; 10];
    if !read_exact_or_eof(r, &mut header)? {
        return Err(WireError::Truncated);
    }
    let ver = header[0];
    let kind_raw = header[1];
    let seq = u32::from_le_bytes(header[2..6].try_into().unwrap());
    let len = u32::from_le_bytes(header[6..10].try_into().unwrap());
    if ver != VERSION {
        return Err(WireError::BadVersion(ver));
    }
    let Some(kind) = FrameKind::from_u8(kind_raw) else {
        return Err(WireError::BadKind(kind_raw));
    };
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    if !read_exact_or_eof(r, &mut payload)? {
        return Err(WireError::Truncated);
    }
    let mut sum = [0u8; 8];
    if !read_exact_or_eof(r, &mut sum)? {
        return Err(WireError::Truncated);
    }
    let mut body = Vec::with_capacity(10 + payload.len());
    body.extend_from_slice(&header);
    body.extend_from_slice(&payload);
    if u64::from_le_bytes(sum) != checksum_of(&body) {
        return Err(WireError::Checksum);
    }
    Ok(Some(Frame { kind, seq, payload }))
}

/// Decode one frame from exactly `buf` (trailing bytes rejected) — the
/// in-memory counterpart of [`read_frame`], used by the fuzz suite.
pub fn decode_frame(buf: &[u8]) -> Result<Frame, WireError> {
    let mut cursor = buf;
    let frame = read_frame(&mut cursor)?.ok_or(WireError::Truncated)?;
    if !cursor.is_empty() {
        return Err(WireError::Codec(CodecError::BadValue(
            "trailing bytes after frame",
        )));
    }
    Ok(frame)
}

// ---- payload codecs ----

fn put_action(w: &mut Writer, a: &RsAction) {
    match a {
        RsAction::All => w.put_u8(0),
        RsAction::None => w.put_u8(1),
        RsAction::Include(asn) => {
            w.put_u8(2);
            put_asn(w, *asn);
        }
        RsAction::Exclude(asn) => {
            w.put_u8(3);
            put_asn(w, *asn);
        }
    }
}

fn get_action(r: &mut Reader<'_>) -> Result<RsAction, CodecError> {
    match r.u8()? {
        0 => Ok(RsAction::All),
        1 => Ok(RsAction::None),
        2 => Ok(RsAction::Include(get_asn(r)?)),
        3 => Ok(RsAction::Exclude(get_asn(r)?)),
        _ => Err(CodecError::BadValue("rs action tag")),
    }
}

fn put_actions(w: &mut Writer, actions: &[RsAction]) {
    w.put_u32(actions.len() as u32);
    for a in actions {
        put_action(w, a);
    }
}

fn get_actions(r: &mut Reader<'_>) -> Result<Vec<RsAction>, CodecError> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_action(r)?);
    }
    Ok(out)
}

fn put_source(w: &mut Writer, s: ObservationSource) {
    w.put_u8(match s {
        ObservationSource::Passive => 0,
        ObservationSource::ActiveRsLg => 1,
        ObservationSource::ActiveMemberLg => 2,
    });
}

fn get_source(r: &mut Reader<'_>) -> Result<ObservationSource, CodecError> {
    match r.u8()? {
        0 => Ok(ObservationSource::Passive),
        1 => Ok(ObservationSource::ActiveRsLg),
        2 => Ok(ObservationSource::ActiveMemberLg),
        _ => Err(CodecError::BadValue("observation source tag")),
    }
}

/// Encode one [`Observation`].
pub fn put_observation(w: &mut Writer, o: &Observation) {
    put_ixp(w, o.ixp);
    put_asn(w, o.member);
    put_prefix(w, &o.prefix);
    put_actions(w, &o.actions);
    put_source(w, o.source);
}

/// Decode one [`Observation`].
pub fn get_observation(r: &mut Reader<'_>) -> Result<Observation, CodecError> {
    Ok(Observation {
        ixp: get_ixp(r)?,
        member: get_asn(r)?,
        prefix: get_prefix(r)?,
        actions: get_actions(r)?,
        source: get_source(r)?,
    })
}

fn put_observations(w: &mut Writer, obs: &[Observation]) {
    w.put_u32(obs.len() as u32);
    for o in obs {
        put_observation(w, o);
    }
}

fn get_observations(r: &mut Reader<'_>) -> Result<Vec<Observation>, CodecError> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_observation(r)?);
    }
    Ok(out)
}

/// Encode an exported [`InferState`].
pub fn put_infer_state(w: &mut Writer, s: &InferState) {
    w.put_u32(s.entries.len() as u32);
    for e in &s.entries {
        put_ixp(w, e.ixp);
        put_asn(w, e.member);
        put_prefix(w, &e.prefix);
        w.put_u8(e.saw_none as u8);
        put_asn_set(w, &e.includes);
        put_asn_set(w, &e.excludes);
    }
    w.put_u64(s.observations);
}

/// Decode an [`InferState`].
pub fn get_infer_state(r: &mut Reader<'_>) -> Result<InferState, CodecError> {
    let n = r.count()?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(InferEntry {
            ixp: get_ixp(r)?,
            member: get_asn(r)?,
            prefix: get_prefix(r)?,
            saw_none: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError::BadValue("saw_none flag")),
            },
            includes: get_asn_set(r)?,
            excludes: get_asn_set(r)?,
        });
    }
    let observations = r.u64()?;
    Ok(InferState {
        entries,
        observations,
    })
}

fn put_unit(w: &mut Writer, u: &WorkUnit) {
    match *u {
        WorkUnit::Rib {
            collector,
            start,
            end,
        } => {
            w.put_u8(0);
            w.put_u32(collector);
            w.put_u64(start);
            w.put_u64(end);
        }
        WorkUnit::Updates { collector } => {
            w.put_u8(1);
            w.put_u32(collector);
        }
    }
}

fn get_unit(r: &mut Reader<'_>) -> Result<WorkUnit, CodecError> {
    match r.u8()? {
        0 => Ok(WorkUnit::Rib {
            collector: r.u32()?,
            start: r.u64()?,
            end: r.u64()?,
        }),
        1 => Ok(WorkUnit::Updates {
            collector: r.u32()?,
        }),
        _ => Err(CodecError::BadValue("work unit tag")),
    }
}

// ---- protocol messages ----

/// An injected worker fault, shipped inside the job so the *worker*
/// misbehaves deterministically — the test harness's lever for proving
/// the coordinator's retry/dedup invariants against real processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// Behave normally.
    #[default]
    None,
    /// Abort without replying (a kill -9 mid-shard).
    CrashSilent,
    /// Write half the reply frame, then abort (a torn frame).
    CrashMidFrame,
    /// Sleep this many milliseconds before replying (a stalled worker
    /// the coordinator must time out).
    StallMs(u32),
    /// Reply with one payload byte flipped, leaving the checksum stale
    /// (corruption the frame layer must catch).
    Garbage,
    /// Write the reply frame twice (a double delivery the coordinator
    /// must dedup).
    Duplicate,
}

fn put_fault(w: &mut Writer, f: Fault) {
    match f {
        Fault::None => w.put_u8(0),
        Fault::CrashSilent => w.put_u8(1),
        Fault::CrashMidFrame => w.put_u8(2),
        Fault::StallMs(ms) => {
            w.put_u8(3);
            w.put_u32(ms);
        }
        Fault::Garbage => w.put_u8(4),
        Fault::Duplicate => w.put_u8(5),
    }
}

fn get_fault(r: &mut Reader<'_>) -> Result<Fault, CodecError> {
    match r.u8()? {
        0 => Ok(Fault::None),
        1 => Ok(Fault::CrashSilent),
        2 => Ok(Fault::CrashMidFrame),
        3 => Ok(Fault::StallMs(r.u32()?)),
        4 => Ok(Fault::Garbage),
        5 => Ok(Fault::Duplicate),
        _ => Err(CodecError::BadValue("fault tag")),
    }
}

/// A passive-harvest shard: the worker regenerates the dataset from
/// `(scale, seed)` and harvests exactly `units`, so only indices cross
/// the process boundary — never routing data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassiveJob {
    /// Ecosystem scale word ("tiny", "small", …).
    pub scale: String,
    /// The run's RNG seed (stage offsets derive from it).
    pub seed: u64,
    /// The shard's work units, in serial order.
    pub units: Vec<WorkUnit>,
    /// Injected misbehavior (tests only; [`Fault::None`] in production).
    pub fault: Fault,
}

impl PassiveJob {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str(&self.scale);
        w.put_u64(self.seed);
        w.put_u32(self.units.len() as u32);
        for u in &self.units {
            put_unit(&mut w, u);
        }
        put_fault(&mut w, self.fault);
        w.into_bytes()
    }

    /// Decode from exactly `buf`.
    pub fn decode(buf: &[u8]) -> Result<PassiveJob, CodecError> {
        let mut r = Reader::new(buf);
        let scale = r.str()?;
        let seed = r.u64()?;
        let n = r.count()?;
        let mut units = Vec::with_capacity(n);
        for _ in 0..n {
            units.push(get_unit(&mut r)?);
        }
        let fault = get_fault(&mut r)?;
        if !r.is_done() {
            return Err(CodecError::BadValue("trailing bytes after job"));
        }
        Ok(PassiveJob {
            scale,
            seed,
            units,
            fault,
        })
    }
}

/// One harvested shard: the observation slice (serial order), the
/// shard's exported inferencer state, and its stat counters — exactly
/// what the coordinator folds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassiveResult {
    /// Observations in the shard's serial order.
    pub observations: Vec<Observation>,
    /// The shard inferencer, exported order-insensitively.
    pub state: InferState,
    /// The shard's passive-stat counters.
    pub stats: PassiveStats,
}

impl PassiveResult {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        put_observations(&mut w, &self.observations);
        put_infer_state(&mut w, &self.state);
        put_passive(&mut w, &self.stats);
        w.into_bytes()
    }

    /// Decode from exactly `buf`.
    pub fn decode(buf: &[u8]) -> Result<PassiveResult, CodecError> {
        let mut r = Reader::new(buf);
        let observations = get_observations(&mut r)?;
        let state = get_infer_state(&mut r)?;
        let stats = get_passive(&mut r)?;
        if !r.is_done() {
            return Err(CodecError::BadValue("trailing bytes after result"));
        }
        Ok(PassiveResult {
            observations,
            state,
            stats,
        })
    }
}
