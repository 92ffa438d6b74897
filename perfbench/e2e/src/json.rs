//! String-scan extractors for the server's JSON bodies.
//!
//! The driver links no JSON library: it reads the handful of fields it
//! needs by scanning for `"key":` and parsing the value after it. The
//! server pretty-prints with sorted keys, so whitespace may follow the
//! colon. [`object`] narrows a scan to one nested object, so a key that
//! appears at several depths is read from the intended one.

/// Byte offset of the first value after `"key":` at or after `from`.
fn value_at(json: &str, key: &str, from: usize) -> Option<usize> {
    let pat = format!("\"{key}\":");
    let rel = json.get(from..)?.find(&pat)?;
    let mut i = from + rel + pat.len();
    let bytes = json.as_bytes();
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    (i < bytes.len()).then_some(i)
}

/// Parse the unsigned integer starting at `i`; returns it and the end.
fn u64_from(json: &str, i: usize) -> Option<(u64, usize)> {
    let digits = json.as_bytes()[i..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    let n = json.get(i..i + digits)?.parse().ok()?;
    Some((n, i + digits))
}

/// Parse the string literal (no escapes) starting at the quote at `i`.
fn str_from(json: &str, i: usize) -> Option<(&str, usize)> {
    let rest = json.get(i..)?.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some((&rest[..end], i + 1 + end + 1))
}

/// The first `"key": <unsigned integer>`.
pub fn u64_field(json: &str, key: &str) -> Option<u64> {
    u64_from(json, value_at(json, key, 0)?).map(|(n, _)| n)
}

/// The first `"key": <number>` (sign, fraction and exponent allowed).
pub fn f64_field(json: &str, key: &str) -> Option<f64> {
    let i = value_at(json, key, 0)?;
    let len = json.as_bytes()[i..]
        .iter()
        .take_while(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        .count();
    json.get(i..i + len)?.parse().ok()
}

/// The first `"key": "<string>"`.
pub fn str_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    str_from(json, value_at(json, key, 0)?).map(|(s, _)| s)
}

/// The first `"key": true|false`.
pub fn bool_field(json: &str, key: &str) -> Option<bool> {
    let rest = json.get(value_at(json, key, 0)?..)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Every `"key": "<string>"`, in document order.
pub fn str_values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = value_at(json, key, from) {
        match str_from(json, i) {
            Some((s, end)) => {
                out.push(s);
                from = end;
            }
            None => from = i,
        }
    }
    out
}

/// Every `"key": <unsigned integer>`, in document order.
pub fn u64_values(json: &str, key: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = value_at(json, key, from) {
        match u64_from(json, i) {
            Some((n, end)) if end > i => {
                out.push(n);
                from = end;
            }
            _ => from = i,
        }
    }
    out
}

/// The `{...}` value of the first `"key":`, brace-matched and aware of
/// string literals. `None` when the value is not an object (`null`).
pub fn object<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = value_at(json, key, 0)?;
    if json.as_bytes()[start] != b'{' {
        return None;
    }
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (off, &b) in json.as_bytes()[start..].iter().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..=start + off]);
                }
            }
            _ => {}
        }
    }
    None
}

/// The `[[a, b], ...]` pairs of the first `"key":` (the link lists of
/// `/v1/ixp/{id}/links`).
pub fn u64_pairs(json: &str, key: &str) -> Vec<(u64, u64)> {
    let Some(start) = value_at(json, key, 0) else {
        return Vec::new();
    };
    let mut nums = Vec::new();
    let mut depth = 0usize;
    let bytes = json.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b'0'..=b'9' => {
                if let Some((n, end)) = u64_from(json, i) {
                    nums.push(n);
                    i = end;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    nums.chunks_exact(2).map(|c| (c[0], c[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: &str = r#"{
  "epoch": 17,
  "etag": "f9892918815bb4ad",
  "live": {
    "events": 1700,
    "published_epochs": 17,
    "restarts": 0,
    "ticks": 17
  },
  "reactor": {
    "shed": 0,
    "wakeups": 14
  },
  "server": {
    "client_errors": 2,
    "requests": 5
  }
}"#;

    #[test]
    fn scalar_fields() {
        assert_eq!(u64_field(STATS, "epoch"), Some(17));
        assert_eq!(str_field(STATS, "etag"), Some("f9892918815bb4ad"));
        assert_eq!(u64_field(STATS, "missing"), None);
        assert_eq!(str_field(STATS, "epoch"), None);
        assert_eq!(bool_field(r#"{"resync": false}"#, "resync"), Some(false));
        assert_eq!(bool_field(r#"{"resync":true}"#, "resync"), Some(true));
        let flat = r#"{"a.b_ms": -1.5e-3, "n": 42, "x": "y"}"#;
        assert_eq!(f64_field(flat, "a.b_ms"), Some(-0.0015));
        assert_eq!(f64_field(flat, "n"), Some(42.0));
        assert_eq!(f64_field(flat, "x"), None);
    }

    #[test]
    fn key_match_is_exact_not_suffix() {
        // "published_epochs" must not satisfy a scan for "epochs".
        assert_eq!(u64_field(STATS, "epochs"), None);
    }

    #[test]
    fn nested_objects_scope_the_scan() {
        let live = object(STATS, "live").unwrap();
        assert!(live.starts_with('{') && live.ends_with('}'));
        assert_eq!(u64_field(live, "published_epochs"), Some(17));
        let server = object(STATS, "server").unwrap();
        assert_eq!(u64_field(server, "client_errors"), Some(2));
        assert_eq!(object(r#"{"live": null}"#, "live"), None);
        let tricky = r#"{"a": {"name": "x}{", "n": 3}, "n": 9}"#;
        assert_eq!(u64_field(object(tricky, "a").unwrap(), "n"), Some(3));
    }

    #[test]
    fn repeated_string_values_and_pairs() {
        let body = r#"{"covered": [{"prefix": "20.1.0.0/18"}, {"prefix": "20.2.0.0/20"}],
            "prefix": "0.0.0.0/0"}"#;
        assert_eq!(
            str_values(body, "prefix"),
            vec!["20.1.0.0/18", "20.2.0.0/20", "0.0.0.0/0"]
        );
        let links = r#"{"count": 2, "id": 3, "links": [
            [1013, 12449],
            [7, 8]
        ], "name": "LINX"}"#;
        assert_eq!(u64_pairs(links, "links"), vec![(1013, 12449), (7, 8)]);
        assert_eq!(u64_values(r#"[{"id": 0}, {"id": 12}]"#, "id"), vec![0, 12]);
    }
}
