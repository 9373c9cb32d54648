//! EXPERIMENTS.md says what the code measures: every table the
//! experiments renderer produces appears in the document byte for byte,
//! and the document has no experiment table the renderer does not
//! produce. A change that moves a row updates the document with it
//! (regenerate with `cargo run --release -p upsilon-scenario --
//! experiments`).
//!
//! Rendering runs every experiment, so this test also runs every
//! `assert_ok` behind the tables.

use upsilon_scenario::experiment::tables::render;

/// The table blocks of a markdown text: a `## E…` heading and the `|`
/// rows right under it.
fn blocks(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut open = false;
    for line in text.lines() {
        if line.starts_with("## E") {
            out.push(format!("{line}\n"));
            open = true;
        } else if open && line.starts_with('|') {
            out.last_mut()
                .expect("a block is open")
                .push_str(&format!("{line}\n"));
        } else {
            open = false;
        }
    }
    out
}

fn heading(block: &str) -> &str {
    block.lines().next().unwrap_or_default()
}

#[test]
fn experiments_md_matches_the_rendered_tables() {
    let rendered = blocks(&render::<&str>(&[]).expect("no ids renders every table"));
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = blocks(&std::fs::read_to_string(doc_path).expect("EXPERIMENTS.md is readable"));
    assert_eq!(rendered.len(), 16, "one table per experiment E1–E16");

    for block in &rendered {
        let stale = doc.iter().find(|d| heading(d) == heading(block));
        assert!(
            doc.contains(block),
            "EXPERIMENTS.md's `{}` differs from the rendered table\nrendered:\n{block}document:\n{}",
            heading(block),
            stale.map_or("(no such table)\n", String::as_str)
        );
    }
    for block in &doc {
        assert!(
            rendered.contains(block),
            "EXPERIMENTS.md has a table the renderer does not produce: `{}`",
            heading(block)
        );
    }
}
