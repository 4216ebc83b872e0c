//! E14: the comparison matrix of Table 3.1, with the rows this
//! reproduction implements marked and cross-referenced to the behavioural
//! evidence in the test suite.

use super::Experiment;
use crate::table::Table;

/// E14 — Table 3.1 re-stated, with implementation status.
pub fn e14_comparison_matrix(_seed: u64) -> Experiment {
    let mut t = Table::new(
        "E14: comparison of the reviewed work (Table 3.1)",
        &[
            "project",
            "protocol transp.",
            "application transp.",
            "general applic.",
            "in this repo",
        ],
    );
    let rows: [(&str, &str, &str, &str, &str); 9] = [
        ("Coda", "Yes", "Yes", "No", "-"),
        ("Rover", "Yes", "No", "Yes", "-"),
        ("WIT", "Yes", "No", "Yes", "-"),
        (
            "I-TCP",
            "No",
            "Yes",
            "No",
            "contrast: tests/end_to_end_semantics.rs",
        ),
        ("Snoop", "Yes", "Yes", "No", "filters::snoop (E06)"),
        ("BSSP", "Yes", "Yes", "No", "filters::wsize (E07, E08)"),
        (
            "TranSend",
            "No",
            "No",
            "No",
            "analog: translate service (E13)",
        ),
        ("MOWGLI", "No", "No", "No", "contrast: split vs TTSF"),
        ("Columbia", "No", "No", "Yes", "generalized by the Comma SP"),
    ];
    for (proj, p, a, g, status) in rows {
        t.row_str(&[proj, p, a, g, status]);
    }
    t.note("Comma itself: protocol transparent (TTSF preserves end-to-end semantics),");
    t.note("application transparent (Kati provides third-party control), generally applicable");
    t.note("(filters span protocol tuning, data manipulation, and partitioning hooks).");
    t.render().into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_nine_projects() {
        let rendered = e14_comparison_matrix(0).block;
        for proj in [
            "Coda", "Rover", "WIT", "I-TCP", "Snoop", "BSSP", "TranSend", "MOWGLI", "Columbia",
        ] {
            assert!(rendered.contains(proj), "{proj} missing");
        }
    }
}
