//! The project lint pass: a text-level rule over the crates that hold
//! shared state. It is deliberately structural (a token scan over
//! comment-/string-stripped source), not semantic — cheap enough to run
//! on every CI push and impossible to silence with an inline attribute.
//!
//! **relaxed-ordering** — `Ordering::Relaxed` appears only in allowlisted
//! files; anywhere else the default is a stronger ordering. Both crates'
//! allowlists are empty, so any `Ordering::Relaxed` is a violation until
//! a file is listed with a written argument for why Relaxed suffices.
//! The allowlist must also stay exact: an entry whose file is missing,
//! or has no Relaxed site, is itself a violation.
//!
//! `unsafe` needs no rule here: `[workspace.lints.rust]` sets
//! `unsafe_code = "forbid"`, which every crate inherits.
//!
//! `#[cfg(test)]` modules are exempt, so unit tests may use any ordering.

use std::fmt;
use std::path::{Path, PathBuf};

/// Number of rules, for the "clean" summary line.
pub const RULE_COUNT: usize = 1;

/// The rule's name, as violations print it.
const RULE: &str = "relaxed-ordering";

/// Per-crate lint configuration: which crate directory to walk and which
/// files may use `Ordering::Relaxed` inside it.
pub struct CrateRules {
    /// Crate directory relative to the workspace root.
    pub dir: &'static str,
    /// Files (relative to the crate root) allowed to use
    /// `Ordering::Relaxed`. Each documents, at the use site, why Relaxed
    /// suffices.
    pub relaxed_allowlist: &'static [&'static str],
}

/// `cfl-match`: the serving engine, the plan cache and the scratch pool.
const CORE_RULES: CrateRules = CrateRules {
    dir: "crates/core",
    relaxed_allowlist: &[],
};

/// `cfl-graph`: no Relaxed anywhere.
const GRAPH_RULES: CrateRules = CrateRules {
    dir: "crates/graph",
    relaxed_allowlist: &[],
};

/// Every crate the lint pass walks.
pub const CRATES: &[&CrateRules] = &[&CORE_RULES, &GRAPH_RULES];

/// One rule violation, displayed as `path:line: [rule] message`.
#[derive(Debug)]
pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Runs the rule over every configured crate (see [`CRATES`]). Returns
/// all violations; I/O trouble (missing tree) is an error, not a
/// violation.
pub fn run(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for rules in CRATES {
        let crate_root = root.join(rules.dir);
        let mut files = Vec::new();
        collect_rs(&crate_root.join("src"), &mut files)?;
        if files.is_empty() {
            return Err(format!("no .rs files under {}", crate_root.display()));
        }
        files.sort();
        let mut sources = Vec::with_capacity(files.len());
        for path in files {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(&crate_root)
                .map_err(|_| "file escaped crate root".to_owned())?
                .to_string_lossy()
                .replace('\\', "/");
            lint_file(&rel, &source, &path, rules, &mut violations);
            sources.push((rel, source));
        }
        stale_allowlist_entries(&sources, rules, &mut violations);
    }
    Ok(violations)
}

/// Flags allowlist entries that no longer earn their place: the file is
/// gone, or it has no Relaxed site outside `#[cfg(test)]` modules. A
/// stale entry would silently pre-approve the next `Ordering::Relaxed`
/// someone adds to that file, so the allowlist must list exactly the
/// files that need it. `files` holds every `(path relative to the crate
/// root, source)` pair of the crate.
pub fn stale_allowlist_entries(
    files: &[(String, String)],
    rules: &CrateRules,
    out: &mut Vec<Violation>,
) {
    let has_site = |source: &str| {
        let code = strip_test_modules(&strip_comments_and_strings(source));
        !relaxed_lines(&code).is_empty()
    };
    for &entry in rules.relaxed_allowlist {
        let message = match files.iter().find(|(rel, _)| rel == entry) {
            None => "allowlisted file does not exist; drop the entry",
            Some((_, source)) if !has_site(source) => {
                "allowlisted file has no site for this rule; drop the entry"
            }
            Some(_) => continue,
        };
        out.push(Violation {
            file: Path::new(rules.dir).join(entry),
            line: 1,
            rule: RULE,
            message: message.to_owned(),
        });
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Applies the rule to one file under `rules`' crate. `rel` is the path
/// relative to the crate root (forward slashes), used against the
/// allowlist; `display` is what violations print.
pub fn lint_file(
    rel: &str,
    source: &str,
    display: &Path,
    rules: &CrateRules,
    out: &mut Vec<Violation>,
) {
    if rules.relaxed_allowlist.contains(&rel) {
        return;
    }
    // Comments and string literals can legally mention anything; blank
    // them first (newlines preserved, so line numbers survive). Then
    // blank `#[cfg(test)]` modules, which are exempt.
    let code = strip_test_modules(&strip_comments_and_strings(source));
    for line in relaxed_lines(&code) {
        out.push(Violation {
            file: display.to_path_buf(),
            line,
            rule: RULE,
            message: format!(
                "`Ordering::Relaxed` outside the allowlist {:?}; use a \
                 stronger ordering, or list the file with a written \
                 argument for why Relaxed suffices",
                rules.relaxed_allowlist
            ),
        });
    }
}

/// Replaces comments (line, nested block) and string/char literals with
/// spaces, preserving newlines so byte offsets map to original lines.
fn strip_comments_and_strings(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = source.as_bytes().to_vec();
    let mut i = 0;
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = source[i..].find('\n').map_or(bytes.len(), |p| i + p);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let j = skip_raw_string(bytes, i);
                blank(&mut out, i, j);
                i = j;
            }
            b'"' => {
                let j = skip_string(bytes, i);
                blank(&mut out, i, j);
                i = j;
            }
            b'\'' => {
                // Lifetime or char literal? A char literal closes with a
                // `'` within a few bytes; a lifetime never does.
                if let Some(j) = char_literal_end(bytes, i) {
                    blank(&mut out, i, j);
                    i = j;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).unwrap_or_else(|_| source.to_owned())
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn skip_raw_string(bytes: &[u8], i: usize) -> usize {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // the opening quote
    while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        j += 1;
    }
    j
}

fn skip_string(bytes: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i + 1)? {
        b'\\' => {
            let mut j = i + 3; // past the escaped char
            while j < bytes.len() && bytes[j] != b'\'' && j - i < 12 {
                j += 1; // e.g. `'\u{1F600}'`
            }
            (bytes.get(j) == Some(&b'\'')).then_some(j + 1)
        }
        _ => (bytes.get(i + 2) == Some(&b'\'')).then_some(i + 3),
    }
}

/// Blanks `#[cfg(test)] mod ... { ... }` (and `#[cfg(all(test, ...))]`
/// variants) from already comment-stripped code. Modules only — a
/// `#[cfg(test)]` on a lone item does not exempt it.
fn strip_test_modules(code: &str) -> String {
    let bytes = code.as_bytes();
    let mut out = code.as_bytes().to_vec();
    let mut i = 0;
    while let Some(p) = code[i..].find("#[cfg(") {
        let attr_start = i + p;
        let args_start = attr_start + "#[cfg(".len();
        let Some(args_end) = matching(bytes, args_start - 1, b'(', b')') else {
            break;
        };
        let args = &code[args_start..args_end];
        let gated_on_test = args
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .any(|w| w == "test");
        // Past the attribute's closing `]`.
        let mut j = args_end + 1;
        while j < bytes.len() && bytes[j] != b']' {
            j += 1;
        }
        j += 1;
        i = j;
        if !gated_on_test {
            continue;
        }
        // Skip whitespace and further attributes, then require `mod`.
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&b'#') && bytes.get(j + 1) == Some(&b'[') {
                while j < bytes.len() && bytes[j] != b']' {
                    j += 1;
                }
                j += 1;
            } else {
                break;
            }
        }
        if !code[j..].starts_with("mod ") {
            continue;
        }
        let Some(open) = code[j..].find(['{', ';']).map(|p| j + p) else {
            continue;
        };
        if bytes[open] != b'{' {
            continue; // `mod name;` — a gated file, nothing inline to blank
        }
        let Some(close) = matching(bytes, open, b'{', b'}') else {
            continue;
        };
        for b in &mut out[attr_start..=close] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        i = close + 1;
    }
    String::from_utf8(out).unwrap_or_else(|_| code.to_owned())
}

/// Index of the delimiter matching `open` at `at` (which must hold `open`).
fn matching(bytes: &[u8], at: usize, open: u8, close: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (j, &b) in bytes.iter().enumerate().skip(at) {
        if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// The 1-based lines of stripped code that name `Ordering::Relaxed`.
fn relaxed_lines(code: &str) -> Vec<usize> {
    code.lines()
        .enumerate()
        .filter(|(_, line)| line.contains("Ordering::Relaxed"))
        .map(|(idx, _)| idx + 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, source: &str) -> Vec<Violation> {
        lint_str_with(rel, source, &CORE_RULES)
    }

    fn lint_str_with(rel: &str, source: &str, rules: &CrateRules) -> Vec<Violation> {
        let mut out = Vec::new();
        lint_file(rel, source, Path::new(rel), rules, &mut out);
        out
    }

    fn fixture(name: &str) -> String {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
    }

    #[test]
    fn the_tree_is_clean() {
        // The real crate must pass — this is the same invocation as
        // `cargo lint`, so the suite fails the moment the tree regresses.
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        let violations = run(&root).expect("lint pass runs");
        assert!(
            violations.is_empty(),
            "tree has lint violations:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn fixture_relaxed_outside_models_fails() {
        let v = lint_str("src/cpi/mod.rs", &fixture("bad_relaxed.rs"));
        assert!(
            v.iter().any(|v| v.rule == RULE),
            "expected a relaxed-ordering violation, got {v:?}"
        );
        // Allowed in an allowlisted file.
        const RULES: CrateRules = CrateRules {
            dir: "crates/core",
            relaxed_allowlist: &["src/cache.rs"],
        };
        let v = lint_str_with("src/cache.rs", &fixture("bad_relaxed.rs"), &RULES);
        assert!(v.is_empty(), "allowlisted file tripped the rule: {v:?}");
    }

    #[test]
    fn fixture_stale_allowlist_entries_fail() {
        // `enumerate.rs` is listed but its only Relaxed sits in a test
        // module; `parallel.rs` is listed but gone. The entry that still
        // covers a real site passes.
        const RULES: CrateRules = CrateRules {
            dir: "crates/core",
            relaxed_allowlist: &[
                "src/cache.rs",
                "src/exec/enumerate.rs",
                "src/exec/parallel.rs",
            ],
        };
        let files = [
            ("src/cache.rs", fixture("bad_relaxed.rs")),
            ("src/exec/enumerate.rs", fixture("good_test_module_std.rs")),
        ]
        .map(|(rel, source)| (rel.to_owned(), source));
        let mut v = Vec::new();
        stale_allowlist_entries(&files, &RULES, &mut v);
        let mut got: Vec<String> = v
            .iter()
            .map(|v| format!("{} [{}]", v.file.display(), v.rule))
            .collect();
        got.sort();
        assert_eq!(
            got,
            [
                "crates/core/src/exec/enumerate.rs [relaxed-ordering]",
                "crates/core/src/exec/parallel.rs [relaxed-ordering]",
            ],
            "{v:?}"
        );
        assert!(v
            .iter()
            .any(|v| v.file.ends_with("parallel.rs") && v.message.contains("does not exist")));
    }

    #[test]
    fn graph_rules_gate_relaxed() {
        let v = lint_str_with("src/intersect.rs", &fixture("bad_relaxed.rs"), &GRAPH_RULES);
        assert!(
            v.iter().any(|v| v.rule == RULE),
            "expected a relaxed-ordering violation, got {v:?}"
        );
    }

    #[test]
    fn every_crate_inherits_the_unsafe_forbid() {
        // The forbid lives in the workspace manifest; a crate that drops
        // `[lints] workspace = true` would silently allow `unsafe` again.
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        let workspace = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(workspace.contains("unsafe_code = \"forbid\""));
        let mut manifests = Vec::new();
        for dir in ["crates", "shims"] {
            for entry in std::fs::read_dir(root.join(dir)).unwrap().flatten() {
                let manifest = entry.path().join("Cargo.toml");
                if manifest.is_file() {
                    manifests.push(manifest);
                }
            }
        }
        assert!(manifests.len() >= 10, "found only {manifests:?}");
        for manifest in manifests {
            let text = std::fs::read_to_string(&manifest).unwrap();
            assert!(
                text.contains("[lints]\nworkspace = true"),
                "{} does not inherit the workspace lints",
                manifest.display()
            );
        }
    }

    #[test]
    fn test_modules_are_exempt() {
        let v = lint_str("src/cpi/mod.rs", &fixture("good_test_module_std.rs"));
        assert!(v.is_empty(), "cfg(test) module should be exempt, got {v:?}");
    }

    #[test]
    fn comments_and_strings_do_not_trip_rules() {
        let src = r#"
//! Mentions std::sync and Ordering::Relaxed and unsafe in docs.
/* block comment: std::thread */
fn f() -> &'static str {
    "std::sync::Mutex and unsafe { } and Ordering::Relaxed"
}
"#;
        let v = lint_str("src/cpi/mod.rs", src);
        assert!(v.is_empty(), "docs/strings tripped rules: {v:?}");
    }
}
