//! Shared event trace: packet-level events and free-form node logs.
//!
//! Tracing is off by default (counters only) because long experiments would
//! otherwise accumulate millions of entries; Kati and the examples switch it
//! on to show what the thesis's transcripts show.

use std::fmt;

use comma_rt::ShedVec;

use crate::node::NodeId;
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
        /// Packet summary string.
        summary: String,
    },
    /// Packet delivered to `node`.
    Rx {
        /// Receiving node.
        node: NodeId,
        /// Packet summary string.
        summary: String,
    },
    /// Packet dropped.
    Drop {
        /// Node at which the drop occurred (sender side for link drops).
        node: NodeId,
        /// Why it was dropped.
        reason: DropReason,
        /// Packet summary string.
        summary: String,
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
        match self {
            TraceEvent::Tx { node, summary } => format!("{} TX {}", label(*node), summary),
            TraceEvent::Rx { node, summary } => format!("{} RX {}", label(*node), summary),
            TraceEvent::Drop {
                node,
                reason,
                summary,
            } => format!("{} DROP({}) {}", label(*node), reason, summary),
            TraceEvent::Log { node, msg } => format!("{} {}", label(*node), msg),
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

/// Aggregate counters, always maintained.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceCounters {
    /// Packets handed to channels.
    pub tx: u64,
    /// Packets delivered.
    pub rx: u64,
    /// Packets dropped, any reason.
    pub drops: u64,
}

/// The shared trace: counters plus an optional bounded entry log.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Aggregate counters.
    pub counters: TraceCounters,
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
            counters: TraceCounters::default(),
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

    /// Records a transmission.
    pub fn tx(&mut self, time: SimTime, node: NodeId, summary: impl FnOnce() -> String) {
        self.counters.tx += 1;
        if self.capture {
            self.entries.push(TraceEntry {
                time,
                event: TraceEvent::Tx {
                    node,
                    summary: summary(),
                },
            });
        }
    }

    /// Records a delivery.
    pub fn rx(&mut self, time: SimTime, node: NodeId, summary: impl FnOnce() -> String) {
        self.counters.rx += 1;
        if self.capture {
            self.entries.push(TraceEntry {
                time,
                event: TraceEvent::Rx {
                    node,
                    summary: summary(),
                },
            });
        }
    }

    /// Records a drop.
    pub fn drop_pkt(
        &mut self,
        time: SimTime,
        node: NodeId,
        reason: DropReason,
        summary: impl FnOnce() -> String,
    ) {
        self.counters.drops += 1;
        if self.capture {
            self.entries.push(TraceEntry {
                time,
                event: TraceEvent::Drop {
                    node,
                    reason,
                    summary: summary(),
                },
            });
        }
    }

    /// Records a log line (always captured when capture is on).
    pub fn log(&mut self, time: SimTime, node: NodeId, msg: String) {
        if self.capture {
            self.entries.push(TraceEntry {
                time,
                event: TraceEvent::Log { node, msg },
            });
        }
    }

    /// Returns the captured entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Renders entries matching `filter` as display lines.
    pub fn render<F: Fn(&TraceEntry) -> bool>(&self, filter: F) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| filter(e))
            .map(|e| format!("{} {}", e.time, e.event.line(|n| format!("n{}", n.0))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_without_capture() {
        let mut t = Trace::new();
        t.tx(SimTime::ZERO, NodeId(0), || "x".into());
        t.rx(SimTime::ZERO, NodeId(1), || "x".into());
        t.drop_pkt(SimTime::ZERO, NodeId(0), DropReason::Loss, || "x".into());
        assert_eq!(t.counters.tx, 1);
        assert_eq!(t.counters.rx, 1);
        assert_eq!(t.counters.drops, 1);
        assert!(t.entries().is_empty());
    }

    #[test]
    fn capture_and_render() {
        let mut t = Trace::new();
        t.set_capture(true);
        t.log(SimTime::from_millis(1), NodeId(2), "hello".into());
        t.drop_pkt(
            SimTime::from_millis(2),
            NodeId(3),
            DropReason::QueueFull,
            || "pkt".into(),
        );
        let lines = t.render(|_| true);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("hello"));
        assert!(lines[1].contains("DROP(queue-full)"));
    }

    #[test]
    fn entry_cap_respected() {
        let mut t = Trace::new();
        t.set_capture(true);
        t.set_max_entries(10);
        for i in 0..50 {
            t.log(SimTime::from_micros(i), NodeId(0), format!("m{i}"));
        }
        assert_eq!(t.entries().len(), 10);
        let lines = t.render(|_| true);
        assert!(lines[0].contains("m40"));
    }
}
