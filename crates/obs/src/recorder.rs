//! The flight recorder: a bounded ring buffer of structured events with
//! sim-timestamps. When full, the oldest event is evicted (and counted), so
//! a long run keeps the most recent history — the part you want when asking
//! "why did this connection stall".

use std::collections::VecDeque;
use std::fmt;

/// A dynamically-typed event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Free-form text.
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! from_impl {
    ($t:ty, $variant:ident, $conv:expr) => {
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                #[allow(clippy::redundant_closure_call)]
                FieldValue::$variant($conv(v))
            }
        }
    };
}

from_impl!(u64, U64, |v| v);
from_impl!(u32, U64, |v: u32| v as u64);
from_impl!(u16, U64, |v: u16| v as u64);
from_impl!(usize, U64, |v: usize| v as u64);
from_impl!(i64, I64, |v| v);
from_impl!(i32, I64, |v: i32| v as i64);
from_impl!(f64, F64, |v| v);
from_impl!(bool, Bool, |v| v);
from_impl!(String, Str, |v| v);

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Simulated time in microseconds.
    pub t_us: u64,
    /// Scope the event belongs to (node, connection, filter kind, channel).
    pub scope: String,
    /// Event name (static, so the recorder never owns format strings).
    pub name: &'static str,
    /// Named field values.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Renders the event as a single human-readable line.
    pub fn render(&self) -> String {
        let mut out = format!("[{}us] {} {}", self.t_us, self.scope, self.name);
        for (k, v) in &self.fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
        }
        out
    }

    /// Returns the value of a named field, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Default ring capacity: enough for the busiest example runs while staying
/// a few MB at most.
pub const DEFAULT_CAPACITY: usize = 65_536;

pub(crate) struct Recorder {
    cap: usize,
    buf: VecDeque<Event>,
    dropped: u64,
}

impl Recorder {
    pub(crate) fn new(cap: usize) -> Self {
        Recorder {
            cap: cap.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, ev: Event) {
        if self.buf.len() >= self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut r = Recorder::new(2);
        for i in 0..5u64 {
            r.push(Event {
                t_us: i,
                scope: "s".into(),
                name: "e",
                fields: vec![("i", FieldValue::U64(i))],
            });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let ts: Vec<u64> = r.iter().map(|e| e.t_us).collect();
        assert_eq!(ts, vec![3, 4]);
    }

    #[test]
    fn event_render_and_field() {
        let ev = Event {
            t_us: 42,
            scope: "conn".into(),
            name: "state",
            fields: vec![("to", FieldValue::Str("Established".into()))],
        };
        assert_eq!(ev.render(), "[42us] conn state to=Established");
        assert_eq!(
            ev.field("to"),
            Some(&FieldValue::Str("Established".into()))
        );
        assert_eq!(ev.field("missing"), None);
    }
}
