//! Hand-rolled JSONL export (no serde — the workspace is hermetic).
//!
//! One JSON object per line, in a fixed order: a meta header, then
//! counters, gauges, histograms (each sorted by scope then key — `BTreeMap`
//! iteration order), then the flight-recorder events oldest-first. With the
//! same seed, two runs therefore produce byte-identical exports; this is
//! asserted in `tests/determinism.rs`.
//!
//! Wall-clock measurements (anything under the reserved `wall` scope or a
//! `wall.`-prefixed key, e.g. span latencies) are *excluded*: they are real
//! host-machine timings and would break the byte-identity guarantee. They
//! remain visible in [`crate::Obs::summary`].

use crate::recorder::{Event, FieldValue};
use crate::registry::{written, Cell, Histogram, Registry};
use crate::WALL_SCOPE;

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number (non-finite values become `null`).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_field(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(v) => v.to_string(),
        FieldValue::I64(v) => v.to_string(),
        FieldValue::F64(v) => json_f64(*v),
        FieldValue::Bool(v) => v.to_string(),
        FieldValue::Str(s) => format!("\"{}\"", json_escape(s)),
    }
}

/// `true` for metrics that carry host wall-clock time and must stay out of
/// the deterministic export.
pub(crate) fn is_wall(scope: &str, key: &str) -> bool {
    scope == WALL_SCOPE || key.starts_with("wall.")
}

pub(crate) fn export_jsonl<'a>(
    registry: &Registry,
    events: impl Iterator<Item = &'a Event>,
    dropped: u64,
) -> String {
    let mut out = String::new();
    out.push_str("{\"type\":\"meta\",\"format\":\"comma-obs\",\"version\":1}\n");
    for (scope, key, v) in written(&registry.counters, Cell::count) {
        if is_wall(scope, key) {
            continue;
        }
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"scope\":\"{}\",\"key\":\"{}\",\"value\":{}}}\n",
            json_escape(scope),
            json_escape(key),
            v
        ));
    }
    for (scope, key, v) in written(&registry.gauges, Cell::value) {
        if is_wall(scope, key) {
            continue;
        }
        out.push_str(&format!(
            "{{\"type\":\"gauge\",\"scope\":\"{}\",\"key\":\"{}\",\"value\":{}}}\n",
            json_escape(scope),
            json_escape(key),
            json_f64(v)
        ));
    }
    for (scope, m) in &registry.hists {
        for (key, h) in m {
            if is_wall(scope, key) {
                continue;
            }
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"scope\":\"{}\",\"key\":\"{}\",{}}}\n",
                json_escape(scope),
                json_escape(key),
                hist_body(h)
            ));
        }
    }
    for ev in events {
        let mut fields = String::new();
        for (i, (k, v)) in ev.fields.iter().enumerate() {
            if i > 0 {
                fields.push(',');
            }
            fields.push_str(&format!("\"{}\":{}", json_escape(k), json_field(v)));
        }
        out.push_str(&format!(
            "{{\"type\":\"event\",\"t_us\":{},\"scope\":\"{}\",\"name\":\"{}\",\"fields\":{{{}}}}}\n",
            ev.t_us,
            json_escape(&ev.scope),
            json_escape(ev.name),
            fields
        ));
    }
    if dropped > 0 {
        out.push_str(&format!(
            "{{\"type\":\"events_dropped\",\"count\":{dropped}}}\n"
        ));
    }
    out
}

fn hist_body(h: &Histogram) -> String {
    let bounds: Vec<String> = h.bounds().iter().map(|b| b.to_string()).collect();
    let counts: Vec<String> = h.counts().iter().map(|c| c.to_string()).collect();
    format!(
        "\"count\":{},\"sum\":{},\"bounds\":[{}],\"counts\":[{}]",
        h.count(),
        h.sum(),
        bounds.join(","),
        counts.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn f64_formatting() {
        assert_eq!(json_f64(3.5), "3.5");
        assert_eq!(json_f64(3.0), "3");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn wall_metrics_excluded() {
        assert!(is_wall("wall", "anything"));
        assert!(is_wall("engine", "wall.dispatch_ns"));
        assert!(!is_wall("engine", "pkts"));
    }
}
