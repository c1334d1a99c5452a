//! Knob inventory: every `MRNET_*` environment variable the library
//! crates read is listed in README's "Environment knobs", and every
//! listed knob is still read somewhere. A new knob must be documented
//! and a dead one deleted, or this test fails.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The environment-variable name `text` starts with.
fn leading_name(text: &str) -> &str {
    let end = text
        .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
        .unwrap_or(text.len());
    &text[..end]
}

/// Every `"MRNET_…"` string literal in `text`.
fn knob_literals(text: &str) -> impl Iterator<Item = String> + '_ {
    text.match_indices("\"MRNET_").filter_map(|(i, _)| {
        let name = leading_name(&text[i + 1..]);
        text[i + 1 + name.len()..]
            .starts_with('"')
            .then(|| name.to_owned())
    })
}

/// The knobs read by the code under `crates/*/src`.
fn knobs_in_code(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files
        .iter()
        .flat_map(|f| knob_literals(&std::fs::read_to_string(f).unwrap()).collect::<Vec<_>>())
        .collect()
}

/// The knobs of README's "Environment knobs" list: its bullets that
/// open with a `` `MRNET_… `` code span.
fn knobs_in_readme(root: &Path) -> BTreeSet<String> {
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let list = readme
        .split_once("Environment knobs:")
        .expect("README has an \"Environment knobs:\" list")
        .1;
    let list = &list[..list.find("\n#").unwrap_or(list.len())];
    list.lines()
        .filter_map(|line| line.strip_prefix("* `"))
        .filter(|rest| rest.starts_with("MRNET_"))
        .map(|rest| leading_name(rest).to_owned())
        .collect()
}

#[test]
fn readme_lists_exactly_the_knobs_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let code = knobs_in_code(root);
    let readme = knobs_in_readme(root);
    assert!(
        !code.is_empty(),
        "no MRNET_* literals found under crates/*/src"
    );
    let undocumented: Vec<_> = code.difference(&readme).collect();
    let dead: Vec<_> = readme.difference(&code).collect();
    assert!(
        undocumented.is_empty() && dead.is_empty(),
        "read but not in README's Environment knobs: {undocumented:?}; \
         listed but never read: {dead:?}"
    );
}
