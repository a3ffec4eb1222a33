//! DESIGN.md's knob inventory and the code agree in both directions: every
//! `"LT_…"` string literal under `crates/*/src` is listed there, and every
//! knob listed there is still read by some crate. Deleted knobs cannot
//! linger in the docs, and new knobs cannot go undocumented.
//!
//! Each row also names, in its `Set by` column, the repository files that
//! set the knob (or says `deployment path`), and each named file must
//! really set it. A knob nothing sets runs at one value everywhere, so it
//! cannot come back unnoticed.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every `LT_[A-Z0-9_]*` name in `text` that starts a word; with `quoted`,
/// only those that open a string literal.
fn knob_names(text: &str, quoted: bool) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let mut names = BTreeSet::new();
    let mut from = 0;
    while let Some(at) = text[from..].find("LT_") {
        let start = from + at;
        let len = bytes[start..]
            .iter()
            .take_while(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || **b == b'_')
            .count();
        let before = start.checked_sub(1).map(|i| bytes[i]);
        let word_start = !before.is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_');
        if word_start && (!quoted || before == Some(b'"')) {
            names.insert(text[start..start + len].to_string());
        }
        from = start + len;
    }
    names
}

/// The `## Knob inventory` section of DESIGN.md, up to the next `## `.
fn inventory_section(design: &str) -> &str {
    let start = design
        .find("\n## Knob inventory\n")
        .expect("DESIGN.md has a `## Knob inventory` section");
    let body = &design[start + 1..];
    match body[3..].find("\n## ") {
        Some(end) => &body[..end + 3],
        None => body,
    }
}

#[test]
fn every_knob_read_under_crates_is_in_the_design_inventory_and_back() {
    let root = repo_root();
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    let mut read = BTreeSet::new();
    for file in &files {
        read.extend(knob_names(&fs::read_to_string(file).unwrap(), true));
    }

    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let listed = knob_names(inventory_section(&design), false);

    let undocumented: Vec<_> = read.difference(&listed).collect();
    let stale: Vec<_> = listed.difference(&read).collect();
    assert!(
        undocumented.is_empty(),
        "knobs read under crates/*/src but missing from DESIGN.md's knob inventory: {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "knobs in DESIGN.md's knob inventory that no crate reads any more: {stale:?}"
    );
}

/// The cells of one markdown table row, trimmed.
fn cells(row: &str) -> Vec<&str> {
    row.trim()
        .trim_matches('|')
        .split('|')
        .map(str::trim)
        .collect()
}

/// `(knob, Set by cell)` for every row of the inventory table.
fn set_by_rows(section: &str) -> Vec<(String, String)> {
    let mut rows = section.lines().filter(|l| l.starts_with('|'));
    let header = cells(rows.next().expect("the inventory has a table"));
    let column = header
        .iter()
        .position(|c| *c == "Set by")
        .expect("the inventory table has a `Set by` column");
    rows.skip(1) // the `|---|` rule
        .map(|row| {
            let cells = cells(row);
            let knob = cells[0].trim_matches('`').to_string();
            (knob, cells.get(column).copied().unwrap_or("").to_string())
        })
        .collect()
}

#[test]
fn every_knob_in_the_inventory_names_the_files_that_set_it() {
    let root = repo_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let rows = set_by_rows(inventory_section(&design));
    assert!(!rows.is_empty(), "the inventory table has no rows");
    for (knob, set_by) in rows {
        assert!(!set_by.is_empty(), "{knob}: the `Set by` cell is empty");
        if set_by == "deployment path" {
            continue;
        }
        for file in set_by.split(',').map(|f| f.trim().trim_matches('`')) {
            let text = fs::read_to_string(root.join(file))
                .unwrap_or_else(|e| panic!("{knob}: `Set by` names {file:?}: {e}"));
            // Set, not merely mentioned: a string literal handed to a
            // child's environment, or a shell assignment.
            assert!(
                text.contains(&format!("\"{knob}\"")) || text.contains(&format!("{knob}=")),
                "{knob}: {file} is listed under `Set by` but does not set it"
            );
        }
    }
}

#[test]
fn set_by_cells_are_read_from_their_column() {
    let table = "intro\n| Knob | Set by | Effect |\n|---|---|---|\n\
                 | `LT_A` | `ci.sh`, `x.rs` | a |\n| `LT_B` |  | b |\n";
    assert_eq!(
        set_by_rows(table),
        [
            ("LT_A".to_string(), "`ci.sh`, `x.rs`".to_string()),
            ("LT_B".to_string(), String::new()),
        ]
    );
}

#[test]
fn knob_names_match_words_and_literals_only() {
    let text = r#"env("LT_A_1") `LT_B` XLT_C "LT_D" x"#;
    let all: Vec<_> = knob_names(text, false).into_iter().collect();
    assert_eq!(all, ["LT_A_1", "LT_B", "LT_D"]);
    let quoted: Vec<_> = knob_names(text, true).into_iter().collect();
    assert_eq!(quoted, ["LT_A_1", "LT_D"]);
}
