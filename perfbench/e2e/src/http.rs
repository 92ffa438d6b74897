//! A minimal HTTP/1.1 keep-alive client and a Server-Sent Events frame
//! parser — just what the driver needs to talk to `mlpeer-serve`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Resp {
    pub status: u16,
    /// The `ETag` header without its quotes.
    pub etag: Option<String>,
    pub body: Vec<u8>,
}

impl Resp {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// The wire bytes of a `GET`, optionally conditional on an ETag.
pub fn get_request(path: &str, if_none_match: Option<&str>) -> Vec<u8> {
    let mut req = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n");
    if let Some(etag) = if_none_match {
        req.push_str(&format!("If-None-Match: \"{etag}\"\r\n"));
    }
    req.push_str("\r\n");
    req.into_bytes()
}

/// Parsed response head: status, `Content-Length`, `ETag`.
#[derive(Debug, PartialEq)]
pub struct Head {
    pub status: u16,
    pub content_length: Option<usize>,
    pub etag: Option<String>,
    pub event_stream: bool,
}

/// Parse a response head (status line + headers, without the blank
/// line).
pub fn parse_head(head: &str) -> Option<Head> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let mut parts = status_line.splitn(3, ' ');
    if !parts.next()?.starts_with("HTTP/1.") {
        return None;
    }
    let status = parts.next()?.parse().ok()?;
    let mut out = Head {
        status,
        content_length: None,
        etag: None,
        event_stream: false,
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            out.content_length = Some(value.parse().ok()?);
        } else if name.eq_ignore_ascii_case("etag") {
            out.etag = Some(value.trim_matches('"').to_string());
        } else if name.eq_ignore_ascii_case("content-type") {
            out.event_stream = value.starts_with("text/event-stream");
        }
    }
    Some(out)
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Read buffer, allocated once rather than zeroed for every read.
    chunk: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(256 * 1024),
            chunk: vec![0; 64 * 1024],
        })
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Read until the head is complete; returns it and leaves the bytes
    /// after the blank line in the buffer.
    fn read_head(&mut self) -> io::Result<Head> {
        loop {
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..end])
                    .ok()
                    .and_then(parse_head)
                    .ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "malformed response head")
                    })?;
                self.buf.drain(..end + 4);
                return Ok(head);
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> io::Result<usize> {
        let n = self.stream.read(&mut self.chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(n)
    }

    /// Read one `Content-Length`-framed response.
    pub fn recv(&mut self) -> io::Result<Resp> {
        let head = self.read_head()?;
        let len = head
            .content_length
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
        while self.buf.len() < len {
            self.fill()?;
        }
        let body: Vec<u8> = self.buf.drain(..len).collect();
        Ok(Resp {
            status: head.status,
            etag: head.etag,
            body,
        })
    }

    pub fn get(&mut self, path: &str) -> io::Result<Resp> {
        self.send(&get_request(path, None))?;
        self.recv()
    }

    /// Turn this connection into an SSE subscription: send the request,
    /// check the stream head, and hand back the socket plus whatever
    /// stream bytes arrived with the head.
    pub fn into_event_stream(mut self, path: &str) -> io::Result<(TcpStream, Vec<u8>)> {
        let req =
            format!("GET {path} HTTP/1.1\r\nHost: bench\r\nAccept: text/event-stream\r\n\r\n");
        self.send(req.as_bytes())?;
        let head = self.read_head()?;
        if head.status != 200 || !head.event_stream {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("SSE subscribe answered {}", head.status),
            ));
        }
        Ok((self.stream, self.buf))
    }
}

/// One Server-Sent Events frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SseFrame {
    pub id: Option<u64>,
    pub event: String,
    /// `data:` lines joined with `\n`.
    pub data: String,
}

/// Incremental SSE parser: feed raw stream bytes, get complete frames.
#[derive(Debug, Default)]
pub struct SseParser {
    buf: Vec<u8>,
}

impl SseParser {
    pub fn push(&mut self, bytes: &[u8]) -> Vec<SseFrame> {
        self.buf.extend_from_slice(bytes);
        let mut frames = Vec::new();
        while let Some(end) = find(&self.buf, b"\n\n") {
            let raw: Vec<u8> = self.buf.drain(..end + 2).collect();
            let text = String::from_utf8_lossy(&raw[..end]);
            let mut frame = SseFrame {
                id: None,
                event: "message".to_string(),
                data: String::new(),
            };
            let mut data_lines = Vec::new();
            for line in text.split('\n') {
                let line = line.strip_suffix('\r').unwrap_or(line);
                let (field, value) = line.split_once(':').unwrap_or((line, ""));
                let value = value.strip_prefix(' ').unwrap_or(value);
                match field {
                    "id" => frame.id = value.parse().ok(),
                    "event" => frame.event = value.to_string(),
                    "data" => data_lines.push(value),
                    _ => {}
                }
            }
            frame.data = data_lines.join("\n");
            frames.push(frame);
        }
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_heads() {
        let h = parse_head(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\
             Connection: keep-alive\r\nETag: \"dd8b62f414b3abbd\"",
        )
        .unwrap();
        assert_eq!(h.status, 200);
        assert_eq!(h.content_length, Some(12));
        assert_eq!(h.etag.as_deref(), Some("dd8b62f414b3abbd"));
        assert!(!h.event_stream);
        let sse = parse_head("HTTP/1.1 200 OK\r\nContent-Type: text/event-stream").unwrap();
        assert!(sse.event_stream);
        assert_eq!(sse.content_length, None);
        assert!(parse_head("garbage").is_none());
        assert!(parse_head("HTTP/1.1 200 OK\r\nContent-Length: x").is_none());
    }

    #[test]
    fn request_bytes() {
        assert_eq!(
            get_request("/v1/ixps", Some("abc")),
            b"GET /v1/ixps HTTP/1.1\r\nHost: bench\r\nIf-None-Match: \"abc\"\r\n\r\n"
        );
    }

    #[test]
    fn sse_frames_across_split_reads() {
        let stream = "id: 3\nevent: changes\ndata: {\ndata:   \"since\": 2\ndata: }\n\n\
                      id: 4\nevent: changes\ndata: {}\n\nid: 5\nevent: shut";
        let mut p = SseParser::default();
        let mut frames = Vec::new();
        // Feed byte by byte: frame boundaries may fall anywhere.
        for b in stream.as_bytes() {
            frames.extend(p.push(std::slice::from_ref(b)));
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].id, Some(3));
        assert_eq!(frames[0].event, "changes");
        assert_eq!(frames[0].data, "{\n  \"since\": 2\n}");
        assert_eq!(frames[1].id, Some(4));
        assert_eq!(frames[1].data, "{}");
        let rest = p.push(b"down\ndata: {}\n\n");
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].event, "shutdown");
        assert_eq!(rest[0].id, Some(5));
    }
}
