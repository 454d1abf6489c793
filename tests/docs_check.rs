//! Keeps the architecture documentation honest.
//!
//! ARCHITECTURE.md names crates and test files by path; this test fails
//! the build when a named path stops existing (doc rot), a workspace crate
//! is missing from the document (coverage rot), or the crate table lists
//! an item no crate declares, and checks that README links to both
//! ARCHITECTURE.md and docs/PROTOCOL.md.

use std::collections::BTreeSet;
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel))
        .unwrap_or_else(|e| panic!("{rel} must exist: {e}"))
}

/// Every `crates/...` path-like token in the text. Trailing punctuation
/// and markdown syntax are trimmed; `crates/<name>` placeholders are
/// skipped.
fn named_crate_paths(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for raw in text.split(|c: char| c.is_whitespace() || "()[]|`\"',".contains(c)) {
        let Some(rest) = raw.strip_prefix("crates/") else { continue };
        let rest = rest.trim_end_matches(|c: char| !c.is_alphanumeric());
        if rest.is_empty() || rest.contains('<') {
            continue;
        }
        // A path may point into a crate (crates/service/src/wal.rs);
        // existence of the full path is what's claimed.
        out.insert(format!("crates/{rest}"));
    }
    out
}

#[test]
fn architecture_md_names_only_real_paths_and_every_crate() {
    let arch = read("ARCHITECTURE.md");

    let named = named_crate_paths(&arch);
    assert!(!named.is_empty(), "ARCHITECTURE.md no longer names any crates/ paths");
    for path in &named {
        assert!(
            repo_root().join(path).exists(),
            "ARCHITECTURE.md names {path}, which does not exist — update the doc"
        );
    }

    // Coverage: every workspace member must appear. Vendor stand-ins
    // count as covered by naming their subdirectory.
    let manifest = read("Cargo.toml");
    for line in manifest.lines() {
        let line = line.trim().trim_start_matches('"');
        let Some(member) = line.strip_prefix("crates/") else { continue };
        let member = member.trim_end_matches(|c: char| !c.is_alphanumeric() && c != '/');
        let member = format!("crates/{member}");
        assert!(
            named.iter().any(|n| *n == member || n.starts_with(&format!("{member}/"))),
            "workspace member {member} is not named in ARCHITECTURE.md — document it"
        );
    }

    // The docs that ARCHITECTURE.md delegates to must exist too.
    for rel in ["docs/PROTOCOL.md", "README.md", "tests/docs_check.rs"] {
        assert!(arch.contains(rel), "ARCHITECTURE.md must reference {rel}");
        assert!(repo_root().join(rel).exists(), "{rel} must exist");
    }
}

/// The library rows of ARCHITECTURE.md's crate table; the bench and vendor
/// rows name a binary and directories, not items.
const LIBRARY_CRATES: [&str; 8] =
    ["graph", "hindex", "parallel", "nucleus", "metrics", "datasets", "service", "telemetry"];

/// Every `.rs` file under `dir`, concatenated.
fn rust_sources(dir: &Path) -> String {
    let mut out = String::new();
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.push_str(&rust_sources(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push_str(&std::fs::read_to_string(&path).expect("readable source"));
            out.push('\n');
        }
    }
    out
}

/// Whether `src` declares a public item (or exported macro) named `ident`.
/// A grep, not a parser: `<keyword> <ident>` followed by a non-identifier
/// character.
fn declares(src: &str, ident: &str) -> bool {
    ["pub fn", "pub struct", "pub enum", "pub trait", "pub type", "pub mod", "macro_rules!"]
        .iter()
        .any(|kw| {
            let needle = format!("{kw} {ident}");
            src.match_indices(&needle).any(|(at, _)| {
                !src[at + needle.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            })
        })
}

#[test]
fn architecture_md_crate_table_names_real_items() {
    let arch = read("ARCHITECTURE.md");
    let mut rows = 0;
    for line in arch.lines() {
        // | `crates/<name>` | role | load-bearing types |
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let [_, krate, _, items, _] = cells[..] else { continue };
        let Some(name) = krate.strip_prefix("`crates/").and_then(|k| k.strip_suffix('`')) else {
            continue;
        };
        if !LIBRARY_CRATES.contains(&name) {
            continue;
        }
        rows += 1;
        let src = rust_sources(&repo_root().join("crates").join(name).join("src"));
        // Back-ticked spans are the odd pieces of a split on '`'.
        let idents: Vec<&str> = items.split('`').skip(1).step_by(2).collect();
        assert!(!idents.is_empty(), "crate table row for {name} names no items");
        for ticked in idents {
            // `GraphStep<'a>` → GraphStep, `span!` → span.
            let ident = ticked.split(['<', '!']).next().expect("split yields a first piece");
            assert!(
                declares(&src, ident),
                "ARCHITECTURE.md lists `{ticked}` for crates/{name}, but no pub \
                 fn/struct/enum/trait/type/mod or macro_rules! item of that name exists \
                 under crates/{name}/src — update the doc"
            );
        }
    }
    assert_eq!(rows, LIBRARY_CRATES.len(), "crate table lost a library row");
}

#[test]
fn readme_links_the_architecture_and_protocol_docs() {
    let readme = read("README.md");
    for rel in ["ARCHITECTURE.md", "docs/PROTOCOL.md"] {
        assert!(readme.contains(&format!("({rel})")), "README.md must markdown-link {rel}");
        assert!(repo_root().join(rel).exists(), "{rel} must exist");
    }
}
