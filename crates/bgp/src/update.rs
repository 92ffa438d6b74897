//! BGP message model.
//!
//! A pragmatic subset of RFC 4271's session messages: the simulation
//! only needs OPEN (session identity), UPDATE (the data), KEEPALIVE and
//! NOTIFICATION (session health / teardown, used by the churn model in
//! the validation experiments).

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::asn::Asn;
use crate::prefix::Prefix;
use crate::route::{Announcement, RouteAttrs};

/// An UPDATE: withdrawals plus announcements sharing one attribute set.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct UpdateMessage {
    /// Prefixes withdrawn from service.
    pub withdrawn: Vec<Prefix>,
    /// Attributes for the announced NLRI (absent if only withdrawing).
    pub attrs: Option<RouteAttrs>,
    /// Announced prefixes.
    pub nlri: Vec<Prefix>,
}

impl UpdateMessage {
    /// An update announcing `nlri` with `attrs`.
    pub fn announce(attrs: RouteAttrs, nlri: Vec<Prefix>) -> Self {
        UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(attrs),
            nlri,
        }
    }

    /// An update withdrawing `prefixes`.
    pub fn withdraw(prefixes: Vec<Prefix>) -> Self {
        UpdateMessage {
            withdrawn: prefixes,
            attrs: None,
            nlri: Vec::new(),
        }
    }

    /// Explode into per-prefix [`Announcement`]s (attributes cloned).
    pub fn announcements(&self) -> Vec<Announcement> {
        match &self.attrs {
            Some(attrs) => self
                .nlri
                .iter()
                .map(|p| Announcement::new(*p, attrs.clone()))
                .collect(),
            None => Vec::new(),
        }
    }

    /// True if the update carries nothing (invalid on a real session).
    pub fn is_empty(&self) -> bool {
        self.withdrawn.is_empty() && self.nlri.is_empty()
    }
}

/// NOTIFICATION error codes we model (RFC 4271 §4.5, abbreviated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NotificationCode {
    /// Message header error.
    MessageHeader,
    /// OPEN message error.
    OpenMessage,
    /// UPDATE message error.
    UpdateMessage,
    /// Hold timer expired.
    HoldTimerExpired,
    /// Administrative shutdown / session ceased (the common case when a
    /// member leaves the route server — the churn the validation run of
    /// Oct 2013 had to filter, §5.1).
    Cease,
}

/// A BGP session message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BgpMessage {
    /// OPEN: who is speaking. The model always negotiates 4-octet
    /// ASNs, matching modern IXPs.
    Open {
        /// Speaker ASN.
        asn: Asn,
        /// Hold time in seconds.
        hold_time: u16,
        /// BGP identifier (router ID).
        router_id: Ipv4Addr,
    },
    /// UPDATE carrying routing data.
    Update(UpdateMessage),
    /// NOTIFICATION: fatal error, session closes.
    Notification {
        /// Error class.
        code: NotificationCode,
        /// Sub-code (not interpreted by the model).
        subcode: u8,
    },
    /// KEEPALIVE.
    Keepalive,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspath::AsPath;

    #[test]
    fn update_announce_explodes_per_prefix() {
        let attrs = RouteAttrs::new(
            AsPath::from_seq([Asn(8359)]),
            "80.81.192.33".parse().unwrap(),
        );
        let upd = UpdateMessage::announce(
            attrs,
            vec![
                "193.34.0.0/22".parse().unwrap(),
                "193.34.4.0/22".parse().unwrap(),
            ],
        );
        let anns = upd.announcements();
        assert_eq!(anns.len(), 2);
        assert_eq!(anns[0].prefix.to_string(), "193.34.0.0/22");
        assert_eq!(anns[1].prefix.to_string(), "193.34.4.0/22");
        assert!(!upd.is_empty());
    }

    #[test]
    fn update_withdraw_has_no_announcements() {
        let upd = UpdateMessage::withdraw(vec!["193.34.0.0/22".parse().unwrap()]);
        assert!(upd.announcements().is_empty());
        assert!(!upd.is_empty());
        assert!(UpdateMessage::default().is_empty());
    }
}
