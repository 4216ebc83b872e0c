//! A JSON *writer* for the bench and CI reports: an insertion-ordered
//! value tree rendered as RFC 8259 text. There is deliberately no parser —
//! every gate runs on the typed value before it is rendered, so nothing in
//! the workspace reads a report back.

use std::fmt::Write;

/// One JSON value. Objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A float rendered with the given number of decimals; NaN and ±∞
    /// (which JSON cannot express) render as `null`.
    F64(f64, usize),
    /// A string, escaped on rendering.
    Str(String),
    /// `{ "key": value, ... }` in insertion order.
    Obj(Vec<(String, Json)>),
    /// `[ value, ... ]`.
    Arr(Vec<Json>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value (no trailing newline). A container holding only
    /// scalars stays on one line; any other nests with two-space indents.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => write!(out, "{n}").expect("write to String"),
            Json::F64(v, decimals) if v.is_finite() => {
                write!(out, "{v:.decimals$}").expect("write to String")
            }
            Json::F64(..) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Obj(members) => {
                let items: Vec<Item> = members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
                write_items(out, depth, ['{', '}'], &items)
            }
            Json::Arr(values) => {
                let items: Vec<Item> = values.iter().map(|v| (None, v)).collect();
                write_items(out, depth, ['[', ']'], &items)
            }
        }
    }
}

/// An object member (`Some(key)`) or an array element (`None`).
type Item<'a> = (Option<&'a str>, &'a Json);

fn write_items(out: &mut String, depth: usize, [open, close]: [char; 2], items: &[Item]) {
    out.push(open);
    if !items.is_empty() {
        let inline = items.iter().all(|(_, v)| !matches!(v, Json::Obj(_) | Json::Arr(_)));
        let sep = |d: usize| if inline { " ".into() } else { format!("\n{}", "  ".repeat(d)) };
        for (i, (key, value)) in items.iter().enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            out.push_str(&sep(depth + 1));
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        out.push_str(&sep(depth));
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_bytes() {
        let s = Json::Str("a\"b\\c\n\t\u{1}é".to_string());
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\u000a\\u0009\\u0001é\"");
        assert_eq!(Json::obj([("k\"", Json::Null)]).render(), "{ \"k\\\"\": null }");
    }

    #[test]
    fn floats_render_fixed_decimals_and_non_finite_as_null() {
        assert_eq!(Json::F64(2.0833, 3).render(), "2.083");
        assert_eq!(Json::F64(0.0, 6).render(), "0.000000");
        assert_eq!(Json::F64(21566.4, 0).render(), "21566");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::F64(v, 1).render(), "null");
        }
    }

    #[test]
    fn objects_keep_insertion_order_and_nest_with_indents() {
        let doc = Json::obj([
            ("z", Json::U64(1)),
            ("a", Json::Bool(true)),
            ("row", Json::obj([("y", Json::U64(2)), ("x", Json::F64(0.5, 1))])),
            ("empty", Json::obj::<&str>([])),
            ("list", Json::Arr(vec![Json::Arr(vec![]), Json::U64(3)])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"z\": 1,\n  \"a\": true,\n  \"row\": { \"y\": 2, \"x\": 0.5 },\n  \
             \"empty\": {},\n  \"list\": [\n    [],\n    3\n  ]\n}"
        );
    }
}
