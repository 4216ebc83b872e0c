//! Shared event trace: packet-level events and free-form node logs.
//!
//! Capture is off by default, and then a write records nothing at all:
//! long experiments would otherwise accumulate millions of entries. An
//! entry keeps a packet's header facts ([`PacketSummary`]), not its text;
//! [`Trace::render`], [`TraceEvent::line`] and [`Trace::digest`] format at
//! read time. Counts of what was sent, delivered and dropped
//! live in the channels' `ChannelStats` and `FaultStats`.

use std::fmt::{self, Write as _};

use comma_rt::digest::Fnv1a;
use comma_rt::ShedVec;

use crate::node::NodeId;
use crate::packet::PacketSummary;
use crate::time::SimTime;

/// Why a packet was dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Drop-tail queue overflow.
    QueueFull,
    /// Loss-model decision (wireless error).
    Loss,
    /// Channel was administratively down (disconnection).
    LinkDown,
    /// TTL expired at a router.
    TtlExpired,
    /// No route to the destination.
    NoRoute,
    /// A proxy filter dropped the packet.
    Filter,
    /// Injected corruption caught by the receiver's checksum.
    Corrupt,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropReason::QueueFull => "queue-full",
            DropReason::Loss => "loss",
            DropReason::LinkDown => "link-down",
            DropReason::TtlExpired => "ttl-expired",
            DropReason::NoRoute => "no-route",
            DropReason::Filter => "filter",
            DropReason::Corrupt => "corrupt",
        };
        write!(f, "{s}")
    }
}

/// One trace entry.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// Packet handed to a channel by `node`.
    Tx {
        /// Sending node.
        node: NodeId,
        /// The packet's header facts.
        summary: PacketSummary,
    },
    /// Packet delivered to `node`.
    Rx {
        /// Receiving node.
        node: NodeId,
        /// The packet's header facts.
        summary: PacketSummary,
    },
    /// Packet dropped.
    Drop {
        /// Node at which the drop occurred (sender side for link drops).
        node: NodeId,
        /// Why it was dropped.
        reason: DropReason,
        /// The packet's header facts.
        summary: PacketSummary,
    },
    /// Free-form log line from a node.
    Log {
        /// Logging node.
        node: NodeId,
        /// Message text.
        msg: String,
    },
}

impl TraceEvent {
    /// The event's display line, its node rendered by `label`: by id within
    /// one simulator ([`Trace::render`]), by name across shards.
    pub fn line<D: fmt::Display>(&self, label: impl Fn(NodeId) -> D) -> String {
        let mut line = String::new();
        self.write_line(&mut line, label).expect("a String takes any text");
        line
    }

    fn write_line<D: fmt::Display>(
        &self,
        out: &mut impl fmt::Write,
        label: impl Fn(NodeId) -> D,
    ) -> fmt::Result {
        match self {
            TraceEvent::Tx { node, summary } => write!(out, "{} TX {summary}", label(*node)),
            TraceEvent::Rx { node, summary } => write!(out, "{} RX {summary}", label(*node)),
            TraceEvent::Drop { node, reason, summary } => {
                write!(out, "{} DROP({reason}) {summary}", label(*node))
            }
            TraceEvent::Log { node, msg } => write!(out, "{} {msg}", label(*node)),
        }
    }
}

/// A timestamped trace entry.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// When the event occurred.
    pub time: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

/// The entry's line within one simulator: time, node id, event.
impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.time)?;
        self.event.write_line(f, |node| node)
    }
}

/// The shared trace: an optional bounded entry log.
#[derive(Clone, Debug)]
pub struct Trace {
    entries: ShedVec<TraceEntry>,
    capture: bool,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// Creates a trace with capture disabled.
    pub fn new() -> Self {
        Trace {
            entries: ShedVec::new(100_000),
            capture: false,
        }
    }

    /// Enables or disables entry capture.
    pub fn set_capture(&mut self, on: bool) {
        self.capture = on;
    }

    /// Returns whether entry capture is enabled.
    pub fn capturing(&self) -> bool {
        self.capture
    }

    /// Limits the number of retained entries (oldest dropped first).
    pub fn set_max_entries(&mut self, max: usize) {
        self.entries.set_cap(max);
    }

    fn push(&mut self, time: SimTime, event: impl FnOnce() -> TraceEvent) {
        if self.capture {
            self.entries.push(TraceEntry { time, event: event() });
        }
    }

    /// Records a transmission; `summary` runs only while capturing.
    pub fn tx(&mut self, time: SimTime, node: NodeId, summary: impl FnOnce() -> PacketSummary) {
        self.push(time, || TraceEvent::Tx { node, summary: summary() });
    }

    /// Records a delivery; `summary` runs only while capturing.
    pub fn rx(&mut self, time: SimTime, node: NodeId, summary: impl FnOnce() -> PacketSummary) {
        self.push(time, || TraceEvent::Rx { node, summary: summary() });
    }

    /// Records a drop; `summary` runs only while capturing.
    pub fn drop_pkt(
        &mut self,
        time: SimTime,
        node: NodeId,
        reason: DropReason,
        summary: impl FnOnce() -> PacketSummary,
    ) {
        self.push(time, || TraceEvent::Drop { node, reason, summary: summary() });
    }

    /// Records a log line; `msg` is formatted only while capturing.
    pub fn log(&mut self, time: SimTime, node: NodeId, msg: impl fmt::Display) {
        self.push(time, || TraceEvent::Log { node, msg: msg.to_string() });
    }

    /// Returns the captured entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Renders every entry as its display line.
    pub fn render(&self) -> Vec<String> {
        self.entries.iter().map(TraceEntry::to_string).collect()
    }

    /// The trace's fingerprint: FNV-1a over every rendered line, each
    /// followed by `\n`, streamed without building the lines.
    pub fn digest(&self) -> u64 {
        let mut digest = Fnv1a::new();
        for entry in self.entries.iter() {
            writeln!(digest, "{entry}").expect("hashing cannot fail");
        }
        digest.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, TcpFlags, TcpSegment};

    #[test]
    fn nothing_recorded_or_summarized_without_capture() {
        let mut t = Trace::new();
        let unread = || -> PacketSummary { panic!("summarized with capture off") };
        t.tx(SimTime::ZERO, NodeId(0), unread);
        t.rx(SimTime::ZERO, NodeId(1), unread);
        t.drop_pkt(SimTime::ZERO, NodeId(0), DropReason::Loss, unread);
        t.log(SimTime::ZERO, NodeId(0), format_args!("{}", Unprintable));
        assert!(t.entries().is_empty());
    }

    /// A message that fails the test if anyone formats it.
    struct Unprintable;

    impl fmt::Display for Unprintable {
        fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
            panic!("formatted with capture off")
        }
    }

    #[test]
    fn capture_and_render() {
        let mut t = Trace::new();
        t.set_capture(true);
        t.log(SimTime::from_millis(1), NodeId(2), "hello");
        let seg = TcpSegment::new(7, 1169, 0, 0, TcpFlags::SYN);
        let pkt = Packet::tcp("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), seg);
        t.drop_pkt(SimTime::from_millis(2), NodeId(3), DropReason::QueueFull, || pkt.summary());
        let lines = t.render();
        assert_eq!(
            lines,
            [
                "0.001000s n2 hello",
                "0.002000s n3 DROP(queue-full) 10.0.0.1:7 > 10.0.0.2:1169 TCP SYN seq=0 ack=0 win=0 len=0",
            ]
        );
        let mut digest = Fnv1a::new();
        for line in &lines {
            digest.update(line).update("\n");
        }
        assert_eq!(t.digest(), digest.finish(), "the digest hashes the rendering");
    }

    #[test]
    fn entry_cap_respected() {
        let mut t = Trace::new();
        t.set_capture(true);
        t.set_max_entries(10);
        for i in 0..50 {
            t.log(SimTime::from_micros(i), NodeId(0), format_args!("m{i}"));
        }
        assert_eq!(t.entries().len(), 10);
        let lines = t.render();
        assert!(lines[0].contains("m40"));
    }
}
