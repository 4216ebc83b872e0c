//! The `unsafe` inventory: which files may say `unsafe` at all, and that
//! every use there carries its argument. A new `unsafe` anywhere else fails
//! this test until the set below is extended on purpose.

use std::path::{Path, PathBuf};

/// The only file in `crates/` allowed to contain the token `unsafe`: the
/// counting `GlobalAlloc` wrapper, which cannot be written without it.
const ALLOWED: &[&str] = &["crates/rt/src/alloc.rs"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("crates/ is readable").flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `true` when `line` contains `unsafe` as a whole word (`unsafe_code`, the
/// lint name, is a different token).
fn says_unsafe(line: &str) -> bool {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|tok| tok == "unsafe")
}

#[test]
fn unsafe_lives_in_the_allocator_only_and_every_use_is_argued() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    let mut found: Vec<String> = files
        .iter()
        .filter(|f| std::fs::read_to_string(f).expect("source is UTF-8").lines().any(says_unsafe))
        .map(|f| f.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/"))
        .collect();
    found.sort();
    assert_eq!(found, ALLOWED, "the set of files containing `unsafe` changed");

    for file in ALLOWED {
        let text = std::fs::read_to_string(root.join(file)).unwrap();
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        for (i, line) in lines.iter().enumerate() {
            // Blocks and impls need an argument; an `unsafe fn` states its
            // contract under `# Safety` (here: `GlobalAlloc`'s own).
            let needs_argument = !line.starts_with("//")
                && (line.starts_with("unsafe impl") || line.contains("unsafe {"));
            if !needs_argument {
                continue;
            }
            let mut comment = lines[..i].iter().rev().take_while(|l| l.starts_with("//"));
            assert!(
                comment.any(|l| l.starts_with("// SAFETY:")),
                "{file}:{}: `{line}` has no `// SAFETY:` comment directly above it",
                i + 1
            );
        }
    }
}
