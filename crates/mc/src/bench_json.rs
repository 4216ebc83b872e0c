//! Records the CI gate's coverage numbers as an `"mc"` block inside
//! `BENCH_macro.json`, alongside the macrobench snapshot (which overwrites
//! the file wholesale and drops the block; the gate re-adds it).

use std::path::Path;

use crate::explore::McReport;

/// Renders the `"mc"` block body for `report` (object only, no key).
pub fn render_mc_block(report: &McReport, wall_ms: f64) -> String {
    format!(
        "{{\n    \"states_explored\": {},\n    \"states_pruned\": {},\n    \
         \"steps_executed\": {},\n    \"max_depth\": {},\n    \
         \"terminal_schedules\": {},\n    \"dedup_ratio\": {:.3},\n    \
         \"states_per_sec\": {:.0},\n    \
         \"violations\": {},\n    \"wall_ms\": {:.1}\n  }}",
        report.states_explored,
        report.states_pruned,
        report.steps_executed,
        report.max_depth_reached,
        report.terminal_states,
        report.dedup_ratio(),
        if wall_ms > 0.0 {
            report.states_explored as f64 / (wall_ms / 1_000.0)
        } else {
            0.0
        },
        report.violation.is_some() as u8,
        wall_ms,
    )
}

/// Inserts or replaces the top-level `"mc"` entry of the JSON object in
/// `text`, returning the new document. The macrobench emits the file as a
/// single top-level object; this does a brace-matched splice, no parser.
fn splice_mc(text: &str, block: &str) -> String {
    let mut doc = text.trim_end().to_string();
    // `"mc": {` — the `loc` block carries a numeric `"mc"` of its own.
    if let Some(start) = doc.find("\"mc\": {") {
        // Remove the existing entry: key through its matched close brace,
        // plus one trailing comma or one leading comma.
        let open = match doc[start..].find('{') {
            Some(o) => start + o,
            None => doc.len(),
        };
        let mut depth = 0usize;
        let mut end = doc.len();
        for (i, c) in doc[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        let mut cut_start = start;
        let mut cut_end = end;
        let rest = doc[end..].trim_start();
        if rest.starts_with(',') {
            cut_end = end + (doc[end..].len() - rest.len()) + 1;
        } else if let Some(prev) = doc[..start].rfind(',') {
            if doc[prev + 1..start].trim().is_empty() {
                cut_start = prev;
            }
        }
        doc.replace_range(cut_start..cut_end, "");
    }
    let close = doc.rfind('}').unwrap_or(doc.len());
    let mut insert_at = close;
    while insert_at > 0 && doc.as_bytes()[insert_at - 1].is_ascii_whitespace() {
        insert_at -= 1;
    }
    let sep = if doc[..insert_at].ends_with('{') { "\n  " } else { ",\n  " };
    doc.replace_range(insert_at..close, "");
    doc.insert_str(insert_at, &format!("{sep}\"mc\": {block}\n"));
    doc.push('\n');
    doc
}

/// Writes the `"mc"` block into `path` (created as a fresh object when the
/// file is missing or not an object).
pub fn write_mc_block(path: &Path, report: &McReport, wall_ms: f64) -> std::io::Result<()> {
    let block = render_mc_block(report, wall_ms);
    let doc = match std::fs::read_to_string(path) {
        Ok(text) if text.trim_start().starts_with('{') => splice_mc(&text, &block),
        _ => format!("{{\n  \"mc\": {block}\n}}\n"),
    };
    std::fs::write(path, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> McReport {
        McReport {
            states_explored: 100,
            states_pruned: 50,
            steps_executed: 150,
            max_depth_reached: 40,
            terminal_states: 7,
            ..McReport::default()
        }
    }

    #[test]
    fn splice_into_existing_snapshot() {
        let base = "{\n  \"schema\": \"comma-macro-bench-v2\",\n  \"cores\": 4,\n  \
                    \"loc\": { \"mc\": 951, \"tests\": 3274 }\n}\n";
        let block = render_mc_block(&report(), 12.0);
        let out = splice_mc(base, &block);
        assert!(out.contains("\"schema\""), "existing keys kept:\n{out}");
        assert!(out.contains("\"mc\": {"), "mc block added:\n{out}");
        assert!(out.contains("\"states_explored\": 100"));
        // Replacing is idempotent: splice again with different numbers.
        let mut r2 = report();
        r2.states_explored = 999;
        let out2 = splice_mc(&out, &render_mc_block(&r2, 1.0));
        assert!(out2.contains("\"states_explored\": 999"));
        assert!(!out2.contains("\"states_explored\": 100"));
        assert_eq!(out2.matches("\"mc\": {").count(), 1);
        assert!(out2.contains("\"schema\""));
        assert!(out2.contains("\"loc\": { \"mc\": 951, \"tests\": 3274 },"), "{out2}");
    }

    #[test]
    fn splice_into_empty_object() {
        let out = splice_mc("{}", &render_mc_block(&report(), 3.0));
        assert!(out.contains("\"mc\": {"), "{out}");
        assert!(!out.contains(",\n  \"mc\""), "no stray comma:\n{out}");
    }
}
