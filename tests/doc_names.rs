//! Doc lint (ROADMAP item 8e, first half): a name DESIGN.md or README.md
//! puts in backticks must still exist. A repository path (under `crates/`,
//! `tests/`, `examples/`, `scripts/`, `benchmark/`; ending `.rs`, `.sh`,
//! `.toml`, `.json`, `.md`) names a file, and a `::item` after it something
//! in that file; for a `Type::member`, some source file mentions both
//! words. Brace lists are expanded; a span with `*` or `<` is a pattern,
//! not a name. Loose on purpose — no parser, and a rename still trips it.

use std::fs;
use std::path::Path;

const PATH_ROOTS: [&str; 5] = ["crates/", "tests/", "examples/", "scripts/", "benchmark/"];
const PATH_EXTS: [&str; 5] = [".rs", ".sh", ".toml", ".json", ".md"];
const SOURCE_ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];

fn ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `word` occurs in `text` as a whole identifier.
fn has_word(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(at, _)| {
        !text[..at].ends_with(ident) && !text[at + word.len()..].starts_with(ident)
    })
}

/// Inline code spans outside fenced blocks; a span wrapped over two lines
/// comes back on one, brace lists (`a/{b,c}.rs`) expanded.
fn code_spans(markdown: &str) -> Vec<String> {
    let (mut prose, mut fenced) = (String::new(), false);
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose += line;
            prose.push('\n');
        }
    }
    let pieces: Vec<&str> = prose.split('`').collect();
    assert!(pieces.len() % 2 == 1, "unbalanced backticks outside code fences");
    let spans = pieces.iter().skip(1).step_by(2);
    spans
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" ").replace(":: ", "::"))
        .flat_map(|s| match s.split_once('{').and_then(|(h, r)| Some((h, r.split_once('}')?))) {
            Some((head, (list, tail))) => list.split(',').map(|i| format!("{head}{}{tail}", i.trim())).collect(),
            None => vec![s],
        })
        .collect()
}

fn rust_sources(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() && !path.ends_with("target") {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(fs::read_to_string(&path).expect("source file is UTF-8"));
        }
    }
}

#[test]
fn backticked_paths_and_type_members_in_the_docs_exist() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    SOURCE_ROOTS.iter().for_each(|root| rust_sources(&repo.join(root), &mut sources));
    let (mut stale, mut paths, mut members) = (Vec::new(), 0, 0);
    for doc in ["DESIGN.md", "README.md"] {
        for span in code_spans(&fs::read_to_string(repo.join(doc)).expect("doc exists")) {
            // Rule one: the first word, if a repository path, names a file.
            let word = span.split(' ').next().unwrap_or(&span).trim_start_matches("./");
            let (path, item) = word.split_once("::").unwrap_or((word, ""));
            if PATH_ROOTS.iter().any(|r| path.starts_with(r))
                && PATH_EXTS.iter().any(|e| path.ends_with(e))
                && !path.contains(['*', '<'])
            {
                paths += 1;
                match fs::read_to_string(repo.join(path)) {
                    Err(_) => stale.push(format!("{doc}: `{span}`: no such file")),
                    Ok(text) if item.chars().all(ident) && !has_word(&text, item) => {
                        stale.push(format!("{doc}: `{span}`: {path} has no `{item}`"))
                    }
                    Ok(_) => {}
                }
            }
            // Rule two: `Type::member` — some source file mentions both.
            let Some((ty, rest)) = span.split_once("::") else { continue };
            let (member, after) = rest.split_at(rest.find(|c| !ident(c)).unwrap_or(rest.len()));
            if ty.starts_with(|c: char| c.is_ascii_uppercase())
                && ty.chars().all(ident)
                && !member.is_empty()
                && !after.starts_with('*')
            {
                members += 1;
                if !sources.iter().any(|text| has_word(text, ty) && has_word(text, member)) {
                    stale.push(format!("{doc}: `{span}`: no source file has both `{ty}` and `{member}`"));
                }
            }
        }
    }
    assert!(stale.is_empty(), "stale names in the docs:\n  {}", stale.join("\n  "));
    // The lint is reading what it thinks it is reading.
    assert!(sources.len() > 100 && paths > 40 && members > 50, "{} {paths} {members}", sources.len());
    let md = "a `x/{b, c}.rs`\n```\n`not a span\n```\nwrapped `Type::\n  member(x)` and `./scripts/ci.sh mc`\n";
    assert_eq!(code_spans(md), ["x/b.rs", "x/c.rs", "Type::member(x)", "./scripts/ci.sh mc"]);
    assert!(has_word("fn on_out(", "on_out") && !has_word("fn on_outer(", "on_out"));
}
