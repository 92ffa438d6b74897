//! Error types for the BGP substrate.
//!
//! Errors are hand-rolled enums (no `thiserror`) to keep the dependency
//! budget at the workspace's allowed set (see `vendor/README.md`).

use std::fmt;

/// Any error produced by the `mlpeer-bgp` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpError {
    /// A textual ASN could not be parsed.
    InvalidAsn(String),
    /// A textual prefix could not be parsed.
    InvalidPrefix(String),
    /// A prefix length was out of range for the address family.
    PrefixLenOutOfRange(u8),
    /// A textual community could not be parsed.
    InvalidCommunity(String),
}

impl fmt::Display for BgpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BgpError::InvalidAsn(s) => write!(f, "invalid ASN: {s:?}"),
            BgpError::InvalidPrefix(s) => write!(f, "invalid prefix: {s:?}"),
            BgpError::PrefixLenOutOfRange(l) => {
                write!(f, "prefix length {l} out of range (0..=32)")
            }
            BgpError::InvalidCommunity(s) => write!(f, "invalid community: {s:?}"),
        }
    }
}

impl std::error::Error for BgpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(BgpError::InvalidAsn("x".into()).to_string().contains('x'));
        let s = BgpError::InvalidPrefix("10.0.0.0/33".into()).to_string();
        assert!(s.contains("10.0.0.0/33"), "got: {s}");
        assert!(BgpError::PrefixLenOutOfRange(40).to_string().contains("40"));
        assert!(BgpError::InvalidCommunity("1:x".into())
            .to_string()
            .contains("1:x"));
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn std::error::Error> = Box::new(BgpError::PrefixLenOutOfRange(33));
        assert_eq!(e.to_string(), "prefix length 33 out of range (0..=32)");
    }
}
