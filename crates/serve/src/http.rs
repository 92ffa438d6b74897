//! Minimal std-only HTTP/1.1 plumbing: the reactor's request-head
//! parser, response framing, and the client-side response reader that
//! the load generator and the tests share.
//!
//! The parser covers exactly what the API needs — GET requests, a path
//! (with the raw remainder preserved so `/v1/prefix/10.0.0.0/8` keeps
//! its slash), and the handful of headers the router reads. It works on
//! the reactor's per-connection buffer: a partial head is only scanned
//! for the blank line that ends it, and the head is parsed once that
//! line has arrived, so a head dribbled in a byte at a time costs time
//! linear in its length.

use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// Longest request head (request line + headers) accepted, bytes.
pub(crate) const MAX_HEAD: usize = 16 * 1024;

/// One parsed request head.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method ("GET").
    pub method: String,
    /// Percent-decoded path, query string stripped.
    pub path: String,
    /// The raw query string after `?` (may be empty).
    pub query: String,
    /// Headers as (lowercased-name, value).
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Did the client ask to drop the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Percent-decode a URL path (`%2F` → `/`, `+` left alone).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let Some(hex) = bytes.get(i + 1..i + 3) {
                if let Ok(b) = u8::from_str_radix(std::str::from_utf8(hex).unwrap_or("zz"), 16) {
                    out.push(b);
                    i += 3;
                    continue;
                }
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Read one `\n`-terminated line, enforcing `limit` *while buffering*:
/// a peer streaming an endless line errors out at `limit` bytes instead
/// of growing memory until a newline arrives. `Ok(None)` is EOF before
/// any byte of the line.
fn read_line_bounded<R: BufRead>(reader: &mut R, limit: usize) -> io::Result<Option<String>> {
    let mut out: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            // A read timeout before any byte of the line is idleness,
            // reported like clean EOF; a timeout mid-line stays an
            // error (the peer abandoned a half-sent request).
            Err(e)
                if out.is_empty()
                    && matches!(
                        e.kind(),
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                    ) =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            if out.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated line",
            ));
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if out.len() + pos > limit {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
            }
            out.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            if out.last() == Some(&b'\r') {
                out.pop();
            }
            return Ok(Some(String::from_utf8_lossy(&out).into_owned()));
        }
        let len = buf.len();
        if out.len() + len > limit {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
        }
        out.extend_from_slice(buf);
        reader.consume(len);
    }
}

/// Parse one request head from the front of `buf`, the reactor's
/// per-connection read buffer. `scanned` is how many leading bytes an
/// earlier call already searched without finding the blank line that
/// ends the head (0 when unknown), so a head that arrives over many
/// reads is scanned once in all rather than once per read.
///
/// `Ok(Some((req, consumed)))` hands back the parsed head and how many
/// buffer bytes it spanned (the caller drains them and calls again for
/// pipelined requests); `Ok(None)` means the head is still incomplete
/// (read more). A head that has not ended within [`MAX_HEAD`] bytes, a
/// malformed request line, or a declared body are all `InvalidData`
/// errors. Nothing is parsed before the blank line arrives, so a
/// malformed request line is reported once its head is complete.
pub(crate) fn parse_head(buf: &[u8], scanned: usize) -> io::Result<Option<(Request, usize)>> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let Some(end) = head_end(&buf[..buf.len().min(MAX_HEAD)], scanned) else {
        // Incomplete, unless the head already blew the limit while
        // buffering: the limit binds before the blank line arrives.
        if buf.len() >= MAX_HEAD {
            return Err(bad("head too large".into()));
        }
        return Ok(None);
    };
    let mut lines = buf[..end]
        .split(|&b| b == b'\n')
        .map(|line| String::from_utf8_lossy(line.strip_suffix(b"\r").unwrap_or(line)));
    let line = lines.next().unwrap_or_default();
    if line.is_empty() {
        return Err(bad("empty request line".into()));
    }
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m, t),
        _ => return Err(bad(format!("bad request line: {line:?}"))),
    };
    let (raw_path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q.to_string()),
        None => (target, String::new()),
    };
    let mut req = Request {
        method: method.to_ascii_uppercase(),
        path: percent_decode(raw_path),
        query,
        headers: Vec::new(),
    };
    for line in lines.take_while(|l| !l.is_empty()) {
        if let Some((name, value)) = line.split_once(':') {
            req.headers
                .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    // This API is GET-only and GET bodies carry no semantics; a
    // declared body is rejected outright (the connection closes after
    // the error response, so framing is moot).
    if req
        .header("content-length")
        .and_then(|v| v.parse::<u64>().ok())
        .is_some_and(|n| n > 0)
        || req.header("transfer-encoding").is_some()
    {
        return Err(bad("request bodies are not accepted".into()));
    }
    Ok(Some((req, end)))
}

/// The index just past the blank line that ends the head at the front
/// of `buf`, looking only at newlines at or after `from`. Whether a
/// line is blank depends only on the two bytes before its newline, so
/// a search can resume where an earlier one stopped.
fn head_end(buf: &[u8], from: usize) -> Option<usize> {
    let mut at = from.min(buf.len());
    while let Some(off) = buf[at..].iter().position(|&b| b == b'\n') {
        let nl = at + off;
        if matches!(
            &buf[nl.saturating_sub(2)..nl],
            [] | [b'\r'] | [.., b'\n'] | [b'\n', b'\r']
        ) {
            return Some(nl + 1);
        }
        at = nl + 1;
    }
    None
}

/// One parsed client-side response: status, headers, length-framed
/// body. The single implementation the load generator and the
/// integration tests share.
#[derive(Debug, Clone, Default)]
pub struct ResponseParts {
    /// HTTP status code.
    pub status: u16,
    /// Headers as (lowercased-name, value).
    pub headers: Vec<(String, String)>,
    /// Body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
}

impl ResponseParts {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read one length-framed response off a client connection (or any
/// buffered byte source).
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<ResponseParts> {
    let status_line = read_line_bounded(reader, MAX_HEAD)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "closed before status line"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut parts = ResponseParts {
        status,
        ..ResponseParts::default()
    };
    loop {
        let h = read_line_bounded(reader, MAX_HEAD)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "truncated head"))?;
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            parts
                .headers
                .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let len: usize = parts
        .header("content-length")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    parts.body = vec![0u8; len];
    reader.read_exact(&mut parts.body)?;
    Ok(parts)
}

/// A response body: either owned bytes (rendered for this response) or
/// a shared slice pinned by an `Arc` — the zero-copy path the reactor
/// writes straight from the snapshot's pre-rendered
/// [`crate::cache::BodyCache`] without ever copying the body.
pub enum Body {
    /// Bytes owned by this response (live renders, error bodies).
    Owned(Vec<u8>),
    /// A shared view (e.g. [`crate::cache::CacheSlice`]): the `Arc`
    /// keeps the backing storage alive for as long as the response is
    /// in flight, including across partial-write continuations.
    Shared(Arc<dyn AsRef<[u8]> + Send + Sync>),
}

impl Body {
    /// The body bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(s) => s.as_ref().as_ref(),
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Is the body empty (304s, long-poll parks)?
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Copy out as owned bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Clone for Body {
    fn clone(&self) -> Body {
        match self {
            Body::Owned(v) => Body::Owned(v.clone()),
            Body::Shared(s) => Body::Shared(Arc::clone(s)),
        }
    }
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Body::Owned(v) => write!(f, "Body::Owned({} bytes)", v.len()),
            Body::Shared(s) => write!(f, "Body::Shared({} bytes)", s.as_ref().as_ref().len()),
        }
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body::Owned(v)
    }
}

/// One response, written with explicit `Content-Length` framing.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (empty for 304).
    pub body: Body,
    /// Extra headers (name, value) — e.g. `ETag`.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response with an owned body.
    pub fn json<S: Into<Vec<u8>>>(status: u16, body: S) -> Response {
        Response {
            status,
            body: Body::Owned(body.into()),
            headers: Vec::new(),
        }
    }

    /// A JSON response whose body is a shared slice — no copy; the
    /// `Arc` pins the backing storage until the response is written.
    pub fn shared<S: AsRef<[u8]> + Send + Sync + 'static>(status: u16, body: S) -> Response {
        Response {
            status,
            body: Body::Shared(Arc::new(body)),
            headers: Vec::new(),
        }
    }

    /// Attach a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            304 => "Not Modified",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            410 => "Gone",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    /// The serialized head (status line + headers + blank line) that
    /// the reactor writes before the body.
    pub fn head_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = Vec::with_capacity(128);
        // Writes into a Vec cannot fail.
        let _ = write!(head, "HTTP/1.1 {} {}\r\n", self.status, self.reason());
        let _ = write!(head, "Content-Type: application/json\r\n");
        let _ = write!(head, "Content-Length: {}\r\n", self.body.len());
        let _ = write!(
            head,
            "Connection: {}\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        );
        for (name, value) in &self.headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.extend_from_slice(b"\r\n");
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::io::Read;
    use std::net::{Shutdown, TcpStream};
    use std::time::Duration;

    /// Parse one complete head from the front of `raw`.
    fn parse(raw: &str) -> io::Result<Option<Request>> {
        Ok(parse_head(raw.as_bytes(), 0)?.map(|(req, _)| req))
    }

    #[test]
    fn parses_request_line_query_and_headers() {
        let req = parse(
            "GET /v1/prefix/10.0.0.0/8?detail=1 HTTP/1.1\r\nHost: x\r\nIf-None-Match: \"abc\"\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(
            req.path, "/v1/prefix/10.0.0.0/8",
            "slash inside prefix survives"
        );
        assert_eq!(req.query, "detail=1");
        assert_eq!(req.header("if-none-match"), Some("\"abc\""));
        assert_eq!(req.header("If-None-Match"), Some("\"abc\""));
        assert!(!req.wants_close());
    }

    #[test]
    fn percent_encoded_paths_decode() {
        let req = parse("GET /v1/prefix/10.0.0.0%2F8 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/v1/prefix/10.0.0.0/8");
        assert_eq!(
            percent_decode("a%20b%zz%4"),
            "a b%zz%4",
            "junk escapes pass through"
        );
    }

    #[test]
    fn eof_and_garbage_are_distinguished() {
        assert!(
            parse("").unwrap().is_none(),
            "an empty buffer is an incomplete head, not an error"
        );
        assert!(parse("NOT-HTTP\r\n\r\n").is_err());
    }

    /// The head limit binds *while buffering*: an endless line (no
    /// newline ever sent) and an oversized header block both error out
    /// at `MAX_HEAD` instead of growing memory.
    #[test]
    fn oversized_heads_are_rejected_without_buffering_them() {
        let endless = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD + 10));
        assert!(parse(&endless).is_err(), "oversized request line");
        let no_newline = "x".repeat(MAX_HEAD + 10);
        assert!(parse(&no_newline).is_err(), "endless line with no newline");
        let fat_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            format!("h: {}\r\n", "v".repeat(1000)).repeat(20)
        );
        assert!(parse(&fat_headers).is_err(), "cumulative header limit");
    }

    /// `parse_head` reports exactly the bytes a head consumed
    /// (pipelining relies on it) and waits for the blank line before
    /// judging a head.
    #[test]
    fn parse_head_is_incremental_and_bounded() {
        let raw = b"GET /v1/ixps?x=1 HTTP/1.1\r\nHost: a\r\n\r\nGET /next HTTP/1.1\r\n\r\n";
        // Every strict prefix short of the first terminator is
        // incomplete, never an error — also when the search resumes
        // where the previous, shorter prefix left it.
        let first_head = b"GET /v1/ixps?x=1 HTTP/1.1\r\nHost: a\r\n\r\n".len();
        for cut in 0..first_head {
            assert!(
                parse_head(&raw[..cut], 0).unwrap().is_none(),
                "cut at {cut} must be incomplete"
            );
            assert!(parse_head(&raw[..cut + 1], cut).is_ok());
        }
        let (req, consumed) = parse_head(raw, 0).unwrap().unwrap();
        assert_eq!(consumed, first_head);
        assert_eq!(req.path, "/v1/ixps");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.header("host"), Some("a"));
        assert_eq!(
            parse_head(raw, first_head - 1).unwrap().unwrap(),
            (req, consumed),
            "a resumed search finds the same head"
        );
        // The remainder parses as the pipelined second request.
        let (req2, consumed2) = parse_head(&raw[consumed..], 0).unwrap().unwrap();
        assert_eq!(req2.path, "/next");
        assert_eq!(consumed + consumed2, raw.len());

        assert!(parse_head(b"\r\n\r\n", 0).is_err(), "empty request line");
        assert!(parse_head(b"NOT-HTTP\r\n\r\n", 0).is_err());
        // A malformed request line is judged once its head is complete.
        assert!(parse_head(b"NOT-HTTP\r\nHost: a\r\n", 0).unwrap().is_none());
        assert!(parse_head(b"NOT-HTTP\r\nHost: a\r\n\r\n", 0).is_err());
        assert!(
            parse_head(b"GET / HTTP/1.1\r\nContent-Length: 3\r\n\r\n", 0).is_err(),
            "declared bodies are rejected"
        );
        let endless = vec![b'a'; MAX_HEAD + 1];
        assert!(
            parse_head(&endless, 0).is_err(),
            "no newline within the limit"
        );
        let fat = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            format!("h: {}\r\n", "v".repeat(1000)).repeat(20)
        );
        assert!(parse_head(fat.as_bytes(), 0).is_err(), "cumulative limit");
    }

    #[test]
    fn shared_bodies_write_identically_to_owned() {
        let owned = Response::json(200, "{\"ok\":true}").with_header("ETag", "\"ff\"");
        let shared = Response::shared(200, b"{\"ok\":true}".to_vec()).with_header("ETag", "\"ff\"");
        assert_eq!(shared.head_bytes(true), owned.head_bytes(true));
        assert_eq!(shared.body.as_slice(), owned.body.as_slice());
        assert_eq!(shared.body.len(), 11);
        assert!(!shared.body.is_empty());
        assert_eq!(shared.body.clone().to_vec(), owned.body.to_vec());
    }

    #[test]
    fn response_writes_length_framing() {
        let resp = Response::json(200, "{\"ok\":true}").with_header("ETag", "\"ff\"");
        let mut out = resp.head_bytes(true);
        out.extend_from_slice(resp.body.as_slice());
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("ETag: \"ff\"\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    /// Valid heads the fuzzers start from.
    const SEED_HEADS: [&str; 6] = [
        "GET /healthz HTTP/1.1\r\nHost: f\r\n\r\n",
        "GET /v1/ixps?at=0 HTTP/1.1\r\nHost: f\r\nIf-None-Match: \"abc\"\r\n\r\n",
        "GET /v1/prefix/10.0.0.0%2F8 HTTP/1.1\r\nConnection: close\r\n\r\n",
        "GET /v1/member/3 HTTP/1.0\nHost: f\n\n",
        "GET /v1/ixp/0/links HTTP/1.1\r\nHost: f\r\nAccept: */*\r\nUser-Agent: fuzz\r\n\r\n",
        "POST /v1/ixps HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    ];

    fn seed_head(rng: &mut StdRng) -> Vec<u8> {
        SEED_HEADS[rng.gen_range(0..SEED_HEADS.len())]
            .as_bytes()
            .to_vec()
    }

    /// A seed head under one to four random edits: byte overwrites
    /// (non-UTF-8 included), insertions, deletions, truncation,
    /// duplicate and oversized headers, and pipelined heads or garbage.
    fn mutated_head(rng: &mut StdRng) -> Vec<u8> {
        let mut buf = seed_head(rng);
        for _ in 0..rng.gen_range(1..=4) {
            let at = rng.gen_range(0..=buf.len());
            let after_first_line = buf
                .iter()
                .position(|&b| b == b'\n')
                .map_or(buf.len(), |p| p + 1);
            match rng.gen_range(0..7) {
                0 if !buf.is_empty() => {
                    let i = rng.gen_range(0..buf.len());
                    buf[i] = rng.gen::<u32>() as u8;
                }
                1 => {
                    let bytes: Vec<u8> = (0..rng.gen_range(1..8))
                        .map(|_| rng.gen::<u32>() as u8)
                        .collect();
                    buf.splice(at..at, bytes);
                }
                2 => {
                    let end = rng.gen_range(at..=buf.len().min(at + 16));
                    buf.drain(at..end);
                }
                3 => buf.truncate(at),
                4 => {
                    let dup = b"Host: dup\r\nHost: dup\r\n".to_vec();
                    buf.splice(after_first_line..after_first_line, dup);
                }
                5 => {
                    let mut big = b"X-Big: ".to_vec();
                    big.resize(big.len() + rng.gen_range(0..20_000usize), b'v');
                    big.extend_from_slice(b"\r\n");
                    buf.splice(after_first_line..after_first_line, big);
                }
                _ if rng.gen_bool(0.5) => {
                    let next = seed_head(rng);
                    buf.extend(next);
                }
                _ => buf.extend((0..rng.gen_range(1..64)).map(|_| rng.gen::<u32>() as u8)),
            }
        }
        buf
    }

    /// Every request parsed from a byte stream, in order, and the
    /// error kind it stopped at, if any.
    type Parsed = (Vec<Request>, Option<io::ErrorKind>);

    /// Parse a stream as the reactor does when `chunks` are its reads:
    /// append each chunk, then take every complete head, resuming the
    /// blank-line search where the previous call stopped.
    fn parse_chunks<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> Parsed {
        let (mut buf, mut scanned, mut reqs) = (Vec::new(), 0, Vec::new());
        for chunk in chunks {
            buf.extend_from_slice(chunk);
            loop {
                match parse_head(&buf, scanned) {
                    Ok(Some((req, n))) => {
                        assert!(0 < n && n <= buf.len(), "consumed {n} of {}", buf.len());
                        buf.drain(..n);
                        scanned = 0;
                        reqs.push(req);
                    }
                    Ok(None) => {
                        scanned = buf.len();
                        break;
                    }
                    Err(e) => return (reqs, Some(e.kind())),
                }
            }
        }
        (reqs, None)
    }

    /// Seeded mutation fuzz of the head parser: no input panics, every
    /// error is `InvalidData`, and feeding the bytes in arbitrary
    /// chunks (one-byte dribbles included) yields the same requests, in
    /// order, as parsing the whole buffer.
    #[test]
    fn fuzzed_heads_parse_the_same_in_any_chunking() {
        let mut rng = StdRng::seed_from_u64(0x6d6c_7065_6572);
        let mut parsed = 0;
        for case in 0..1500 {
            let input = mutated_head(&mut rng);
            let whole = parse_chunks([input.as_slice()]);
            if let Some(kind) = whole.1 {
                assert_eq!(kind, io::ErrorKind::InvalidData, "case {case}");
            }
            parsed += whole.0.len();
            let max_chunk: usize = [1, 2, 7, 64, 4096][rng.gen_range(0..5usize)];
            let mut chunks = Vec::new();
            let mut rest = input.as_slice();
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(rng.gen_range(1..=max_chunk).min(rest.len()));
                chunks.push(chunk);
                rest = tail;
            }
            assert_eq!(
                parse_chunks(chunks),
                whole,
                "case {case}: {:?}",
                String::from_utf8_lossy(&input)
            );
        }
        assert!(parsed > 500, "the mutations must leave many heads valid");
    }

    /// Mutated heads against a real reactor: every connection draws
    /// complete responses that `read_response` parses, or a clean
    /// close, within the idle deadline. Some clients half-close after
    /// sending, the others leave the reactor to time them out.
    #[test]
    fn fuzzed_heads_draw_parseable_responses_from_the_reactor() {
        use crate::reactor::{spawn_reactor, ReactorConfig};
        let store = crate::store::SnapshotStore::new(crate::testutil::snapshot_with(3, 3));
        let idle = Duration::from_millis(250);
        let cfg = ReactorConfig {
            idle,
            ..ReactorConfig::default()
        };
        let mut server = spawn_reactor(store, "127.0.0.1:0", cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(0x0072_6561_6374_6f72);
        let mut responses = 0;
        for batch in 0..3 {
            let conns: Vec<(usize, TcpStream)> = (0..100)
                .map(|i| {
                    let case = batch * 100 + i;
                    let mut s = TcpStream::connect(server.addr).unwrap();
                    s.set_read_timeout(Some(idle * 8)).unwrap();
                    s.write_all(&mutated_head(&mut rng)).unwrap();
                    if case % 3 != 0 {
                        s.shutdown(Shutdown::Write).unwrap();
                    }
                    (case, s)
                })
                .collect();
            for (case, mut s) in conns {
                let mut raw = Vec::new();
                s.read_to_end(&mut raw)
                    .unwrap_or_else(|e| panic!("case {case}: no clean close: {e}"));
                let mut rest = raw.as_slice();
                while !rest.is_empty() {
                    let parts = read_response(&mut rest).unwrap_or_else(|e| {
                        panic!("case {case}: {e}: {:?}", String::from_utf8_lossy(&raw))
                    });
                    assert!((200..600).contains(&parts.status), "case {case}");
                    responses += 1;
                }
            }
        }
        assert!(responses > 200, "most fuzzed heads draw a response");
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let parts = read_response(&mut io::BufReader::new(s)).unwrap();
        assert_eq!(parts.status, 200, "the reactor still serves");
        server.stop();
    }
}
