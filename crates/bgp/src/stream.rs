//! Time-stepped BGP message streams (live mode).
//!
//! The paper's harvest is a one-shot pass over archived RIBs; live mode
//! instead consumes the *session traffic itself*: a time-ordered
//! sequence of BGP messages — OPENs when members join a route server,
//! UPDATEs when they announce, retune their community-encoded export
//! filters, or withdraw, and NOTIFICATIONs when they leave (the Cease
//! churn the Oct 2013 validation had to filter, §5.1).
//!
//! [`TimedMessage`] stamps one [`BgpMessage`] with a logical timestamp
//! and its speaker; [`UpdateStream`] keeps a stably time-ordered
//! sequence of them and merges streams from several speakers the way a
//! collector interleaves its peers' feeds.
//!
//! ```
//! use mlpeer_bgp::stream::{TimedMessage, UpdateStream};
//! use mlpeer_bgp::update::{BgpMessage, UpdateMessage};
//! use mlpeer_bgp::Asn;
//!
//! let mut stream = UpdateStream::new();
//! stream.push(TimedMessage::new(
//!     2,
//!     Asn(8359),
//!     BgpMessage::Update(UpdateMessage::withdraw(vec![
//!         "193.34.0.0/22".parse().unwrap(),
//!     ])),
//! ));
//! stream.push(TimedMessage::new(1, Asn(8359), BgpMessage::Keepalive));
//! // Iteration is by timestamp, not arrival.
//! let times: Vec<u64> = stream.iter().map(|m| m.at).collect();
//! assert_eq!(times, vec![1, 2]);
//! ```

use crate::asn::Asn;
use crate::update::BgpMessage;

/// One BGP message with its logical timestamp and speaker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedMessage {
    /// Logical time step (monotone within one session).
    pub at: u64,
    /// The member that spoke (the RS-session peer, not the route's
    /// origin).
    pub from: Asn,
    /// The message itself.
    pub msg: BgpMessage,
}

impl TimedMessage {
    /// Stamp a message.
    pub fn new(at: u64, from: Asn, msg: BgpMessage) -> Self {
        TimedMessage { at, from, msg }
    }
}

/// A time-ordered BGP message sequence.
///
/// Ordering is *stable*: messages sharing a timestamp keep their
/// insertion order, which is what makes a withdraw-then-reannounce at
/// one time step deterministic for every consumer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateStream {
    events: Vec<TimedMessage>,
}

impl UpdateStream {
    /// An empty stream.
    pub fn new() -> Self {
        UpdateStream::default()
    }

    /// Append a message, keeping the stream time-ordered (stable for
    /// equal timestamps). Appending in nondecreasing time order is
    /// O(1); out-of-order messages are inserted at their place.
    pub fn push(&mut self, m: TimedMessage) {
        // Find the insertion point after every event with `at <= m.at`.
        let idx = self.events.partition_point(|e| e.at <= m.at);
        if idx == self.events.len() {
            self.events.push(m);
        } else {
            self.events.insert(idx, m);
        }
    }

    /// Merge another stream in (stable two-way merge; `other`'s events
    /// come after this stream's at equal timestamps).
    pub fn merge(&mut self, other: UpdateStream) {
        if self.events.is_empty() {
            self.events = other.events;
            return;
        }
        let mut merged = Vec::with_capacity(self.events.len() + other.events.len());
        let mut mine = std::mem::take(&mut self.events).into_iter().peekable();
        let mut theirs = other.events.into_iter().peekable();
        loop {
            match (mine.peek(), theirs.peek()) {
                (Some(a), Some(b)) => {
                    if a.at <= b.at {
                        merged.push(mine.next().expect("peeked"));
                    } else {
                        merged.push(theirs.next().expect("peeked"));
                    }
                }
                (Some(_), None) => merged.push(mine.next().expect("peeked")),
                (None, Some(_)) => merged.push(theirs.next().expect("peeked")),
                (None, None) => break,
            }
        }
        self.events = merged;
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the stream empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Messages in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, TimedMessage> {
        self.events.iter()
    }

    /// The timestamp of the last (latest) message, if any.
    pub fn last_at(&self) -> Option<u64> {
        self.events.last().map(|e| e.at)
    }
}

impl IntoIterator for UpdateStream {
    type Item = TimedMessage;
    type IntoIter = std::vec::IntoIter<TimedMessage>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a UpdateStream {
    type Item = &'a TimedMessage;
    type IntoIter = std::slice::Iter<'a, TimedMessage>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<TimedMessage> for UpdateStream {
    fn from_iter<I: IntoIterator<Item = TimedMessage>>(iter: I) -> Self {
        let mut s = UpdateStream::new();
        for m in iter {
            s.push(m);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{NotificationCode, UpdateMessage};

    fn msg(at: u64, from: u32) -> TimedMessage {
        TimedMessage::new(at, Asn(from), BgpMessage::Keepalive)
    }

    #[test]
    fn push_keeps_time_order_and_is_stable() {
        let mut s = UpdateStream::new();
        s.push(msg(5, 1));
        s.push(msg(1, 2));
        s.push(msg(5, 3)); // same time as the first: stays after it
        s.push(msg(3, 4));
        let order: Vec<(u64, u32)> = s.iter().map(|m| (m.at, m.from.value())).collect();
        assert_eq!(order, vec![(1, 2), (3, 4), (5, 1), (5, 3)]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.last_at(), Some(5));
    }

    #[test]
    fn merge_interleaves_by_time() {
        let mut a: UpdateStream = [msg(1, 1), msg(4, 1)].into_iter().collect();
        let b: UpdateStream = [msg(2, 2), msg(4, 2), msg(9, 2)].into_iter().collect();
        a.merge(b);
        let order: Vec<(u64, u32)> = a.iter().map(|m| (m.at, m.from.value())).collect();
        // Stable: at t=4 the receiving stream's event comes first.
        assert_eq!(order, vec![(1, 1), (2, 2), (4, 1), (4, 2), (9, 2)]);

        let mut empty = UpdateStream::new();
        empty.merge(a.clone());
        assert_eq!(empty, a);
        assert!(!empty.is_empty());
    }

    #[test]
    fn carries_session_lifecycle_messages() {
        let mut s = UpdateStream::new();
        s.push(TimedMessage::new(
            0,
            Asn(8359),
            BgpMessage::Open {
                asn: Asn(8359),
                hold_time: 90,
                router_id: "10.0.0.1".parse().unwrap(),
            },
        ));
        s.push(TimedMessage::new(
            1,
            Asn(8359),
            BgpMessage::Update(UpdateMessage::withdraw(vec!["193.34.0.0/22"
                .parse()
                .unwrap()])),
        ));
        s.push(TimedMessage::new(
            2,
            Asn(8359),
            BgpMessage::Notification {
                code: NotificationCode::Cease,
                subcode: 0,
            },
        ));
        let msgs: Vec<&BgpMessage> = s.iter().map(|m| &m.msg).collect();
        assert!(matches!(
            msgs[..],
            [
                BgpMessage::Open { .. },
                BgpMessage::Update(_),
                BgpMessage::Notification { .. }
            ]
        ));
    }
}
