//! Build parity guard: the benchmark is a workspace of its own, so the
//! root `[profile.release]` does not reach it. It is copied into
//! `benchmark/Cargo.toml`; this test fails when the two drift, because a
//! benchmark built with other codegen settings measures another program.

use std::path::Path;

/// The `key = value` lines of `[section]`, comments and blanks dropped,
/// whitespace normalised, sorted.
fn section(manifest: &str, name: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != format!("[{name}]"))
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = std::fs::read_to_string(here.join("../Cargo.toml")).expect("root manifest");
    let own = std::fs::read_to_string(here.join("Cargo.toml")).expect("benchmark manifest");
    let root_profile = section(&root, "profile.release");
    assert!(
        !root_profile.is_empty(),
        "the root manifest has no [profile.release]"
    );
    assert_eq!(
        section(&own, "profile.release"),
        root_profile,
        "benchmark/Cargo.toml [profile.release] must be a verbatim copy of the root's"
    );
}

#[test]
fn section_parser_reads_what_it_should() {
    let toml = "[a]\nx = 1\n\n# note\n[profile.release]\nlto   = \"thin\" # why\ncodegen-units = 1\n[b]\ny = 2\n";
    assert_eq!(
        section(toml, "profile.release"),
        ["codegen-units = 1", "lto = \"thin\""]
    );
    assert!(section(toml, "profile.dev").is_empty());
}
