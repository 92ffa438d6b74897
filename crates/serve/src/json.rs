//! The canonical JSON writer behind every served body and the content
//! ETag.
//!
//! [`JsonWriter`] appends pretty JSON straight into a `Vec<u8>`, byte
//! for byte what [`mlpeer::report::to_json`] prints for the same value
//! (the vendored pretty printer over a key-sorted `Value` tree), but
//! without building the tree: no per-node allocation, no clone, no
//! sort. The format rules it reproduces:
//!
//! * an opening bracket, then each item on its own line indented by
//!   2 × depth, `,` between items, and the closing bracket on its own
//!   line at the outer indent; `[]` and `{}` for empty containers;
//! * `"key": value` for object entries;
//! * strings escape `"`, `\`, `\n`, `\r` and `\t`, every other byte
//!   below 0x20 as `\u00xx` (lowercase hex), and copy everything else
//!   raw (UTF-8 included).
//!
//! `to_json` sorts keys; the writer instead takes them in the order
//! the caller writes them, and debug builds assert that the keys of
//! one object arrive in strictly ascending byte order (so `"dist"`
//! precedes `"distinct_asns"`). A field added out of place then fails
//! a test instead of silently changing bytes.
//!
//! The shapes the serde derive gave this repo's types, which the
//! bodies and the ETag corpus keep: a `BTreeMap` is an array of
//! `[key, value]` pairs, one-field tuple structs (`Asn`, `IxpId`) are
//! bare numbers, and an [`ExportPolicy`] is written by
//! [`export_policy`].

use mlpeer_bgp::Prefix;
use mlpeer_ixp::policy::ExportPolicy;

/// Indentation source: sliced, never allocated per line.
static SPACES: [u8; 64] = [b' '; 64];

/// Lowercase hex digits for `\u00xx` escapes.
static HEX: &[u8; 16] = b"0123456789abcdef";

/// One open container.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Whether any item (or entry) has been written into it yet.
    has_items: bool,
    /// Object or array (checked in debug builds only).
    #[cfg(debug_assertions)]
    object: bool,
    /// The object's previous key, for the ascending-order assertion.
    #[cfg(debug_assertions)]
    last_key: Option<&'static str>,
}

/// A streaming pretty-JSON writer over a byte buffer.
///
/// Every value call — [`begin_object`](JsonWriter::begin_object),
/// [`begin_array`](JsonWriter::begin_array), [`u64`](JsonWriter::u64),
/// [`i64`](JsonWriter::i64), [`str`](JsonWriter::str),
/// [`cidr`](JsonWriter::cidr), [`bool`](JsonWriter::bool),
/// [`null`](JsonWriter::null) — places the comma, newline and
/// indentation its position needs; inside an object each value follows
/// a [`key`](JsonWriter::key).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: Vec<u8>,
    frames: Vec<Frame>,
    /// A key was just written: the next value continues its line.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// An empty writer whose buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter {
            out: Vec::with_capacity(bytes),
            ..JsonWriter::default()
        }
    }

    /// The bytes written so far (still pending any open containers).
    pub fn as_bytes(&self) -> &[u8] {
        &self.out
    }

    /// The finished document. Every container must be closed.
    pub fn finish(self) -> Vec<u8> {
        debug_assert!(
            self.frames.is_empty() && !self.after_key,
            "unclosed JSON container or dangling key"
        );
        self.out
    }

    /// Hand the longest prefix of the buffer whose length is a multiple
    /// of 8 to `sink`, then drop it from the buffer. A hasher that pads
    /// only the last partial word of each `write` (FxHash) then sees the
    /// same words as it would over the whole document at once.
    pub fn drain_words(&mut self, sink: impl FnOnce(&[u8])) {
        let n = self.out.len() & !7;
        sink(&self.out[..n]);
        self.out.drain(..n);
    }

    /// Separator, newline and indent before a value or key.
    fn prefix(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let depth = self.frames.len();
        let Some(frame) = self.frames.last_mut() else {
            return; // the top-level value
        };
        #[cfg(debug_assertions)]
        assert!(!frame.object, "a value inside an object needs a key");
        if std::mem::replace(&mut frame.has_items, true) {
            self.out.push(b',');
        }
        self.newline(depth);
    }

    fn newline(&mut self, depth: usize) {
        self.out.push(b'\n');
        let mut n = 2 * depth;
        while n > 0 {
            let k = n.min(SPACES.len());
            self.out.extend_from_slice(&SPACES[..k]);
            n -= k;
        }
    }

    fn open(&mut self, bracket: u8, _object: bool) -> &mut Self {
        self.prefix();
        self.out.push(bracket);
        self.frames.push(Frame {
            has_items: false,
            #[cfg(debug_assertions)]
            object: _object,
            #[cfg(debug_assertions)]
            last_key: None,
        });
        self
    }

    fn close(&mut self, bracket: u8, _object: bool) -> &mut Self {
        debug_assert!(!self.after_key, "a key without a value");
        let frame = self.frames.pop().expect("close without an open container");
        #[cfg(debug_assertions)]
        assert_eq!(frame.object, _object, "mismatched JSON brackets");
        if frame.has_items {
            self.newline(self.frames.len());
        }
        self.out.push(bracket);
        self
    }

    /// Open an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open(b'{', true)
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close(b'}', true)
    }

    /// Open an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open(b'[', false)
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(b']', false)
    }

    /// Start an object entry; the next call writes its value. Debug
    /// builds assert the keys of one object ascend in byte order.
    pub fn key(&mut self, key: &'static str) -> &mut Self {
        debug_assert!(!self.after_key, "two keys in a row");
        let depth = self.frames.len();
        let frame = self.frames.last_mut().expect("a key outside any object");
        #[cfg(debug_assertions)]
        {
            assert!(frame.object, "a key inside an array");
            if let Some(prev) = frame.last_key {
                assert!(
                    prev.as_bytes() < key.as_bytes(),
                    "JSON key {key:?} written after {prev:?}: keys must ascend"
                );
            }
            frame.last_key = Some(key);
        }
        if std::mem::replace(&mut frame.has_items, true) {
            self.out.push(b',');
        }
        self.newline(depth);
        write_escaped(&mut self.out, key);
        self.out.extend_from_slice(b": ");
        self.after_key = true;
        self
    }

    /// An unsigned integer. (The `Value` tree held integers as `i64`
    /// and printed values above `i64::MAX` wrapped negative; no served
    /// count or epoch comes near that, and here they print as they are.)
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.prefix();
        write_u64(&mut self.out, v);
        self
    }

    /// A signed integer.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.prefix();
        if v < 0 {
            self.out.push(b'-');
        }
        write_u64(&mut self.out, v.unsigned_abs());
        self
    }

    /// A string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.prefix();
        write_escaped(&mut self.out, s);
        self
    }

    /// A prefix as its `a.b.c.d/len` string (its `Display` form),
    /// written digit by digit instead of through `fmt`; it never needs
    /// escaping.
    pub fn cidr(&mut self, p: Prefix) -> &mut Self {
        self.prefix();
        self.out.push(b'"');
        let [a, b, c, d] = p.network_u32().to_be_bytes();
        for (octet, sep) in [(a, b'.'), (b, b'.'), (c, b'.'), (d, b'/')] {
            write_u8(&mut self.out, octet);
            self.out.push(sep);
        }
        write_u8(&mut self.out, p.len());
        self.out.push(b'"');
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.prefix();
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
        self
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.prefix();
        self.out.extend_from_slice(b"null");
        self
    }
}

/// Decimal digits through a stack buffer.
fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Decimal digits of one byte.
fn write_u8(out: &mut Vec<u8>, v: u8) {
    if v >= 100 {
        out.push(b'0' + v / 100);
    }
    if v >= 10 {
        out.push(b'0' + v / 10 % 10);
    }
    out.push(b'0' + v % 10);
}

/// A quoted, escaped string.
fn write_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    escape_into(out, s);
    out.push(b'"');
}

/// Append `s` escaped, copying unescaped runs in one piece.
fn escape_into(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        if short.is_empty() {
            out.extend_from_slice(b"\\u00");
            out.push(HEX[usize::from(b >> 4)]);
            out.push(HEX[usize::from(b & 0xf)]);
        } else {
            out.extend_from_slice(short);
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
}

/// An export policy in its derived shape: `"AllMembers"`, `"Nobody"`,
/// `{"AllExcept": [[asn, …]]}` or `{"OnlyTo": [[asn, …]]}`; a missing
/// policy is `null`.
pub fn export_policy(w: &mut JsonWriter, policy: Option<&ExportPolicy>) {
    let (variant, members) = match policy {
        None => {
            w.null();
            return;
        }
        Some(ExportPolicy::AllMembers) => {
            w.str("AllMembers");
            return;
        }
        Some(ExportPolicy::Nobody) => {
            w.str("Nobody");
            return;
        }
        Some(ExportPolicy::AllExcept(members)) => ("AllExcept", members),
        Some(ExportPolicy::OnlyTo(members)) => ("OnlyTo", members),
    };
    w.begin_object().key(variant).begin_array().begin_array();
    for asn in members {
        w.u64(u64::from(asn.value()));
    }
    w.end_array().end_array().end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpeer_bgp::Asn;
    use serde_json::json;

    fn text(w: JsonWriter) -> String {
        String::from_utf8(w.finish()).unwrap()
    }

    #[test]
    fn nested_empty_containers() {
        let mut w = JsonWriter::new();
        w.begin_object().key("a").begin_array().end_array();
        w.key("b").begin_object().end_object();
        w.key("c").begin_array().begin_array().end_array();
        w.begin_object().end_object().end_array();
        w.end_object();
        assert_eq!(
            text(w),
            "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    [],\n    {}\n  ]\n}"
        );
        let mut w = JsonWriter::new();
        w.begin_array().end_array();
        assert_eq!(text(w), "[]");
        let mut w = JsonWriter::new();
        w.begin_object().end_object();
        assert_eq!(text(w), "{}");
    }

    #[test]
    fn escapes_match_the_pretty_printer() {
        let s = "q\"b\\n\nr\rt\tu\u{1}x\u{1f}é→€ \u{7f}";
        let mut w = JsonWriter::new();
        w.str(s);
        let got = text(w);
        assert_eq!(got, "\"q\\\"b\\\\n\\nr\\rt\\tu\\u0001x\\u001fé→€ \u{7f}\"");
        assert_eq!(got, mlpeer::report::to_json(&s));
    }

    /// `cidr` writes the prefix's `Display` form as a string, at every
    /// length and for octets of one, two and three digits.
    #[test]
    fn cidr_matches_display() {
        for addr in ["0.0.0.0", "9.10.99.100", "203.0.113.37", "255.255.255.255"] {
            for len in 0..=32 {
                let p = Prefix::new(addr.parse().unwrap(), len).unwrap();
                let mut fast = JsonWriter::new();
                fast.begin_array().cidr(p).end_array();
                let mut slow = JsonWriter::new();
                slow.begin_array().str(&p.to_string()).end_array();
                assert_eq!(text(fast), text(slow), "{p}");
            }
        }
    }

    #[test]
    fn integer_extremes() {
        for (v, want) in [
            (i64::MIN, "-9223372036854775808"),
            (i64::MAX, "9223372036854775807"),
            (0, "0"),
            (-7, "-7"),
        ] {
            let mut w = JsonWriter::new();
            w.i64(v);
            assert_eq!(text(w), want);
        }
        let mut w = JsonWriter::new();
        w.begin_array().u64(0).u64(u64::MAX).end_array();
        assert_eq!(text(w), "[\n  0,\n  18446744073709551615\n]");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "keys must ascend")]
    fn out_of_order_key_trips_the_assertion() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("distinct_asns")
            .u64(1)
            .key("dist")
            .null();
    }

    /// The writer and the `Value`-tree printer agree on a document
    /// that mixes every call at several depths.
    #[test]
    fn matches_to_json_on_a_mixed_document() {
        let policies = [
            None,
            Some(ExportPolicy::AllMembers),
            Some(ExportPolicy::Nobody),
            Some(ExportPolicy::AllExcept([Asn(3), Asn(1)].into())),
            Some(ExportPolicy::OnlyTo(Default::default())),
        ];
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("dist").null();
        w.key("distinct_asns").u64(12);
        w.key("flags")
            .begin_array()
            .bool(true)
            .bool(false)
            .end_array();
        w.key("name").str("AMS-IX \"main\"");
        w.key("policies").begin_array();
        for p in &policies {
            export_policy(&mut w, p.as_ref());
        }
        w.end_array();
        w.key("prefix").cidr("10.0.0.0/8".parse().unwrap());
        w.end_object();
        let want = mlpeer::report::to_json(&json!({
            "prefix": "10.0.0.0/8",
            "name": "AMS-IX \"main\"",
            "distinct_asns": 12u64,
            "dist": json!(null),
            "flags": [true, false],
            "policies": policies.iter().map(|p| p.as_ref()).collect::<Vec<_>>(),
        }));
        assert_eq!(text(w), want);
    }

    #[test]
    fn drained_words_hash_like_the_whole_document() {
        use mlpeer::hash::FxHasher;
        use std::hash::Hasher;
        let mut whole = JsonWriter::new();
        let mut chunked = JsonWriter::new();
        let mut h = FxHasher::default();
        whole.begin_array();
        chunked.begin_array();
        for i in 0..500u64 {
            whole.u64(i * 7919);
            chunked.u64(i * 7919);
            if i % 37 == 0 {
                chunked.drain_words(|b| h.write(b));
            }
        }
        whole.end_array();
        chunked.end_array();
        h.write(&chunked.finish());
        let mut expect = FxHasher::default();
        expect.write(&whole.finish());
        assert_eq!(h.finish(), expect.finish());
    }
}
