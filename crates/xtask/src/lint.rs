//! The project lint pass: three text-level rules that hold the
//! concurrency-soundness story of `cfl-match` together. They are
//! deliberately structural (token scans over comment-/string-stripped
//! source), not semantic — cheap enough to run on every CI push and
//! impossible to silence with an inline attribute.
//!
//! 1. **sync-shim** — no `std::sync` / `std::thread` outside the crate's
//!    configured gateway module. Everything else must go through
//!    `crate::sync`, which is what lets the loom models swap the
//!    primitives under the exact code production runs. Only enforced for
//!    crates that *have* a loom shim (`cfl-match`).
//! 2. **unsafe-allowlist** — `unsafe` appears only in the crate's
//!    allowlisted files, and every site (block, `impl`, or fn
//!    definition) must have a `SAFETY` comment or a `# Safety` doc
//!    section in the lines right above it.
//! 3. **relaxed-ordering** — `Ordering::Relaxed` appears only in
//!    allowlisted files, i.e. modules whose protocols are driven by a
//!    loom model; anywhere else the default is the stronger ordering
//!    until a model exists.
//!
//! Both allowlists must also stay exact: an entry whose file is missing,
//! or has no site for that rule, is itself a violation of the rule.
//!
//! The rules apply per crate (see [`CRATES`]): `cfl-match` carries all
//! three; `cfl-graph` has no loom shim (no sync-shim rule) and *empty*
//! unsafe and Relaxed allowlists, so any `unsafe` or `Ordering::Relaxed`
//! there is a violation.
//!
//! `#[cfg(test)]` modules are exempt from all three rules: std-only unit
//! tests intentionally use `std::thread`/`std::sync` directly so they
//! stay meaningful when the shimmed primitives are themselves under test.

use std::fmt;
use std::path::{Path, PathBuf};

/// Number of rules, for the "clean" summary line.
pub const RULE_COUNT: usize = 3;

/// Per-crate lint configuration: which crate directory to walk and which
/// allowlists gate each rule inside it.
pub struct CrateRules {
    /// Crate directory relative to the workspace root.
    pub dir: &'static str,
    /// The one file allowed to name `std::sync`/`std::thread` (the
    /// cfg-switched loom gateway). `None` disables the sync-shim rule —
    /// the crate has no shim, so there is nothing to route through.
    pub sync_shim: Option<&'static str>,
    /// Files (relative to the crate root) allowed to contain `unsafe`.
    /// Adding a file here is a review event: the new site needs a written
    /// SAFETY invariant and, if it involves a concurrent protocol, a loom
    /// model.
    pub unsafe_allowlist: &'static [&'static str],
    /// Loom-modeled modules allowed to use `Ordering::Relaxed`. Each file
    /// documents, at the use site, why Relaxed suffices and which model
    /// exercises the claim.
    pub relaxed_allowlist: &'static [&'static str],
}

/// `cfl-match`: the concurrency-bearing crate — all three rules.
const CORE_RULES: CrateRules = CrateRules {
    dir: "crates/core",
    sync_shim: Some("src/sync.rs"),
    unsafe_allowlist: &["src/pool.rs"],
    relaxed_allowlist: &["src/pool.rs", "src/models.rs"],
};

/// `cfl-graph`: safe code only — no `unsafe`, no loom shim, and no
/// Relaxed anywhere.
const GRAPH_RULES: CrateRules = CrateRules {
    dir: "crates/graph",
    sync_shim: None,
    unsafe_allowlist: &[],
    relaxed_allowlist: &[],
};

/// Every crate the lint pass walks.
pub const CRATES: &[&CrateRules] = &[&CORE_RULES, &GRAPH_RULES];

/// How many lines above an `unsafe` site may hold its SAFETY comment.
const SAFETY_WINDOW: usize = 12;

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

/// Runs every rule over every configured crate (see [`CRATES`]). Returns
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
/// gone, or it has no site for that rule outside `#[cfg(test)]` modules.
/// A stale entry would silently pre-approve the next `unsafe` or
/// `Ordering::Relaxed` someone adds to that file, so both the unsafe and
/// the Relaxed allowlists must list exactly the files that need them.
/// `files` holds every `(path relative to the crate root, source)` pair of
/// the crate.
pub fn stale_allowlist_entries(
    files: &[(String, String)],
    rules: &CrateRules,
    out: &mut Vec<Violation>,
) {
    let has_site = |rule: &str, source: &str| {
        let code = strip_test_modules(&strip_comments_and_strings(source));
        if rule == "unsafe-allowlist" {
            !find_unsafe_sites(&code).is_empty()
        } else {
            !find_tokens(&code, &["Ordering::Relaxed"]).is_empty()
        }
    };
    for (rule, allowlist) in [
        ("unsafe-allowlist", rules.unsafe_allowlist),
        ("relaxed-ordering", rules.relaxed_allowlist),
    ] {
        for &entry in allowlist {
            let message = match files.iter().find(|(rel, _)| rel == entry) {
                None => "allowlisted file does not exist; drop the entry",
                Some((_, source)) if !has_site(rule, source) => {
                    "allowlisted file has no site for this rule; drop the entry"
                }
                Some(_) => continue,
            };
            out.push(Violation {
                file: Path::new(rules.dir).join(entry),
                line: 1,
                rule,
                message: message.to_owned(),
            });
        }
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

/// Applies the three rules to one file under `rules`' crate. `rel` is the
/// path relative to the crate root (forward slashes), used against the
/// allowlists; `display` is what violations print.
pub fn lint_file(
    rel: &str,
    source: &str,
    display: &Path,
    rules: &CrateRules,
    out: &mut Vec<Violation>,
) {
    // Comments and string literals can legally mention anything; blank
    // them first (newlines preserved, so line numbers survive). Then
    // blank `#[cfg(test)]` modules — the exemption shared by all rules.
    let code = strip_test_modules(&strip_comments_and_strings(source));
    let original_lines: Vec<&str> = source.lines().collect();

    if let Some(shim) = rules.sync_shim {
        if rel != shim {
            for (line, token) in find_tokens(&code, &["std::sync", "std::thread"]) {
                out.push(Violation {
                    file: display.to_path_buf(),
                    line,
                    rule: "sync-shim",
                    message: format!(
                        "`{token}` outside the `crate::sync` gateway ({shim}); \
                         import the primitive through `crate::sync` so loom models \
                         cover this code"
                    ),
                });
            }
        }
    }

    for (line, kind) in find_unsafe_sites(&code) {
        if !rules.unsafe_allowlist.contains(&rel) {
            out.push(Violation {
                file: display.to_path_buf(),
                line,
                rule: "unsafe-allowlist",
                message: format!(
                    "`unsafe` ({kind}) in a file not on the allowlist \
                     {:?}; new unsafe needs a written SAFETY \
                     invariant and an allowlist entry",
                    rules.unsafe_allowlist
                ),
            });
        } else if !has_safety_comment(&original_lines, line) {
            out.push(Violation {
                file: display.to_path_buf(),
                line,
                rule: "unsafe-allowlist",
                message: format!(
                    "`unsafe` ({kind}) without a SAFETY comment or `# Safety` \
                     doc section in the {SAFETY_WINDOW} lines above it"
                ),
            });
        }
    }

    if !rules.relaxed_allowlist.contains(&rel) {
        for (line, _) in find_tokens(&code, &["Ordering::Relaxed"]) {
            out.push(Violation {
                file: display.to_path_buf(),
                line,
                rule: "relaxed-ordering",
                message: format!(
                    "`Ordering::Relaxed` outside the loom-modeled modules \
                     {:?}; use a stronger ordering or add a \
                     model that exercises the protocol",
                    rules.relaxed_allowlist
                ),
            });
        }
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

/// Finds occurrences of any token in stripped code; returns 1-based lines.
fn find_tokens<'t>(code: &str, tokens: &[&'t str]) -> Vec<(usize, &'t str)> {
    let mut hits = Vec::new();
    for (idx, line) in code.lines().enumerate() {
        for &token in tokens {
            if line.contains(token) {
                hits.push((idx + 1, token));
            }
        }
    }
    hits
}

/// Finds `unsafe` *sites* in stripped code: blocks (`unsafe {`),
/// `unsafe impl`, and unsafe fn definitions (`unsafe fn name`). Bare
/// `unsafe fn(...)` function-pointer *types* are not sites. Returns
/// 1-based lines with a site-kind label.
fn find_unsafe_sites(code: &str) -> Vec<(usize, &'static str)> {
    let mut sites = Vec::new();
    for (idx, line) in code.lines().enumerate() {
        let mut rest = line;
        let mut col = 0usize;
        while let Some(p) = rest.find("unsafe") {
            let abs = col + p;
            let before_ok = abs == 0
                || (!line.as_bytes()[abs - 1].is_ascii_alphanumeric()
                    && line.as_bytes()[abs - 1] != b'_');
            let after = line[abs + "unsafe".len()..].trim_start();
            if before_ok {
                let kind = if after.starts_with('{') || after.is_empty() {
                    // `unsafe {` (brace possibly on the next line).
                    Some("block")
                } else if after.starts_with("impl") {
                    Some("impl")
                } else if let Some(past_fn) = after.strip_prefix("fn") {
                    // `unsafe fn(` is a pointer type, not a definition.
                    (!past_fn.trim_start().starts_with('(')).then_some("fn definition")
                } else {
                    None
                };
                if let Some(kind) = kind {
                    sites.push((idx + 1, kind));
                }
            }
            col = abs + "unsafe".len();
            rest = &line[col..];
        }
    }
    sites
}

/// True if any of the `SAFETY_WINDOW` original lines above `line`
/// (1-based) carries a `SAFETY` comment or a `# Safety` doc heading.
fn has_safety_comment(original_lines: &[&str], line: usize) -> bool {
    let end = line - 1; // index of the site line itself
    let start = end.saturating_sub(SAFETY_WINDOW);
    original_lines[start..end]
        .iter()
        .any(|l| l.contains("SAFETY") || l.contains("# Safety"))
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
    fn fixture_std_sync_outside_shim_fails() {
        let v = lint_str("src/filters.rs", &fixture("bad_std_sync.rs"));
        assert!(
            v.iter().any(|v| v.rule == "sync-shim"),
            "expected a sync-shim violation, got {v:?}"
        );
        // The same text IS allowed in the gateway file.
        let v = lint_str("src/sync.rs", &fixture("bad_std_sync.rs"));
        assert!(v.iter().all(|v| v.rule != "sync-shim"));
    }

    #[test]
    fn fixture_unsafe_outside_allowlist_fails() {
        let v = lint_str("src/cpi/flat.rs", &fixture("bad_unsafe_new_file.rs"));
        assert!(
            v.iter()
                .any(|v| v.rule == "unsafe-allowlist" && v.message.contains("not on the allowlist")),
            "expected an allowlist violation, got {v:?}"
        );
    }

    #[test]
    fn fixture_unsafe_without_safety_comment_fails() {
        let v = lint_str("src/pool.rs", &fixture("bad_unsafe_no_safety.rs"));
        assert!(
            v.iter()
                .any(|v| v.rule == "unsafe-allowlist" && v.message.contains("SAFETY")),
            "expected a missing-SAFETY violation, got {v:?}"
        );
    }

    #[test]
    fn fixture_relaxed_outside_models_fails() {
        let v = lint_str("src/cpi/mod.rs", &fixture("bad_relaxed.rs"));
        assert!(
            v.iter().any(|v| v.rule == "relaxed-ordering"),
            "expected a relaxed-ordering violation, got {v:?}"
        );
        // Allowed in a loom-modeled module.
        let v = lint_str("src/pool.rs", &fixture("bad_relaxed.rs"));
        assert!(v.iter().all(|v| v.rule != "relaxed-ordering"));
    }

    #[test]
    fn fixture_stale_allowlist_entries_fail() {
        // `enumerate.rs` is on both lists but its only `unsafe` and Relaxed
        // sit in a test module; `parallel.rs` is listed but gone. The two
        // entries that still cover a real site pass.
        const RULES: CrateRules = CrateRules {
            dir: "crates/core",
            sync_shim: Some("src/sync.rs"),
            unsafe_allowlist: &["src/pool.rs", "src/exec/enumerate.rs"],
            relaxed_allowlist: &[
                "src/models.rs",
                "src/exec/enumerate.rs",
                "src/exec/parallel.rs",
            ],
        };
        let files = [
            ("src/pool.rs", fixture("bad_unsafe_no_safety.rs")),
            ("src/models.rs", fixture("bad_relaxed.rs")),
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
                "crates/core/src/exec/enumerate.rs [unsafe-allowlist]",
                "crates/core/src/exec/parallel.rs [relaxed-ordering]",
            ],
            "{v:?}"
        );
        assert!(v
            .iter()
            .any(|v| v.file.ends_with("parallel.rs") && v.message.contains("does not exist")));
    }

    #[test]
    fn graph_rules_gate_unsafe_and_relaxed() {
        // No graph file may hold unsafe, not even with a Safety section.
        let commented = "/// # Safety\n/// Caller checked the bounds.\nunsafe fn k() {}\n";
        for file in ["src/bitset.rs", "src/intersect.rs"] {
            let v = lint_str_with(file, commented, &GRAPH_RULES);
            assert!(
                v.iter().any(|v| v.rule == "unsafe-allowlist"),
                "expected an allowlist violation in {file}, got {v:?}"
            );
        }
        // No graph file is loom-modeled, so Relaxed is banned everywhere.
        let v = lint_str_with("src/intersect.rs", &fixture("bad_relaxed.rs"), &GRAPH_RULES);
        assert!(
            v.iter().any(|v| v.rule == "relaxed-ordering"),
            "expected a relaxed-ordering violation, got {v:?}"
        );
        // ... and without a shim, `std::sync` is fine.
        assert!(v.iter().all(|v| v.rule != "sync-shim"));
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

    #[test]
    fn unsafe_fn_pointer_type_is_not_a_site() {
        let src = "struct S { f: unsafe fn(*const ()) }\n";
        assert!(find_unsafe_sites(&strip_comments_and_strings(src)).is_empty());
        let src = "unsafe fn g() {}\n";
        assert_eq!(find_unsafe_sites(src), vec![(1, "fn definition")]);
    }
}
