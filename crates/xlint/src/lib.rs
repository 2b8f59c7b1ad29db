//! Offline static-analysis engine for the d2stgnn workspace.
//!
//! `xlint` lexes every `.rs` source under `crates/` with a self-contained
//! Rust lexer ([`lexer`]), indexes items and `cfg(test)` gating into a
//! workspace-wide symbol table ([`index`]), derives an approximate
//! cross-crate call graph ([`callgraph`]), and runs two rule tiers over the
//! result. It stays dependency-free and fast enough to gate every CI run.
//!
//! **Lexical rules** ([`rules`]), token-accurate versions of the original
//! line rules:
//!
//! * `no-panic` — no `.unwrap()` / `.expect(` / `panic!` / `todo!` /
//!   `unimplemented!` in library code of `serve`, `core`, `graph`, `tensor`,
//!   `data`, `obsv`, and `httpd` (`#[cfg(test)]` modules and `tests/`,
//!   `benches/`, `examples/` directories are exempt).
//! * `no-assert` — no assert-family macros in the recoverable-path files
//!   (`core/src/training.rs`, `core/src/checkpoint.rs`).
//! * `no-print` — no print-family macros outside the `obsv` console funnel.
//! * `cast-in-loop` — no numeric `as` casts inside loop bodies of the two
//!   kernel files `crates/tensor/src/ops.rs` and `crates/tensor/src/sparse.rs`
//!   (the CSR spmm/spgemm loops).
//! * `result-error` — every `pub fn` returning `Result` must name an error
//!   type declared in that crate's `src/error.rs`.
//! * `serve-concurrency` — no `thread::sleep` / unbounded channels in the
//!   request-path crates `serve` and `httpd`.
//! * `no-raw-threads` — no `thread::spawn` / `scope` / `Builder` outside the
//!   sanctioned thread owners (allowlisted by path).
//! * `deny-unsafe` — `#![deny(unsafe_code)]` at each crate root.
//!
//! **Deep rules** ([`deep`]), which need the symbol table and call graph:
//!
//! * `panic-reachability` — no panic-family call reachable from the
//!   serve/httpd request entry points outside the `error.rs` funnels, with
//!   the offending call chain reported; slice-index / assert / arithmetic
//!   sites on those paths are counted per function and ratcheted through the
//!   committed `xlint_report.json` baseline ([`report`]).
//! * `lock-order` — the static lock-acquisition graph must be acyclic.
//! * `float-determinism` — no FMA, hash containers, or unordered
//!   reductions in kernel float code.
//! * `atomic-ordering` — every `Ordering::Relaxed` carries a `// relaxed:`
//!   justification comment.
//! * `unsafe-audit` — `unsafe` appears only in the audited SIMD kernel
//!   module ([`deep::UNSAFE_AUDITED_FILES`]), and every block there carries
//!   a `// SAFETY:` justification comment.

#![deny(unsafe_code)]

pub mod callgraph;
pub mod deep;
pub mod index;
pub mod lexer;
pub mod report;
pub mod rules;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose `src/` trees are subject to the `no-panic` rule.
pub const PANIC_FREE_CRATES: &[&str] =
    &["serve", "core", "graph", "tensor", "data", "obsv", "httpd"];

/// The one crate allowed to print to the console from library code: its
/// `console_line` is the funnel everything else must route through.
pub const PRINT_FUNNEL_CRATE: &str = "obsv";

/// Crates whose `pub fn` Result signatures must use the crate's `error.rs`.
/// `obsv` earned its entry with the trace/slo/sink surface: a fallible
/// telemetry sink must fail as a typed [`ObsvError`], never a panic or a
/// bare `io::Error` leaking through the public API.
pub const RESULT_ERROR_CRATES: &[&str] =
    &["serve", "core", "graph", "tensor", "data", "httpd", "obsv"];

/// Crates on the request path where `thread::sleep` and unbounded channels
/// are banned (the `serve-concurrency` rule): a sleeping worker stalls every
/// queued request behind it. The httpd accept loop's nonblocking poll is the
/// one allowlisted exception.
pub const SLEEP_FREE_CRATES: &[&str] = &["serve", "httpd"];

/// Files whose loop bodies must stay free of numeric `as` casts.
pub const KERNEL_FILES: &[&str] = &["crates/tensor/src/ops.rs", "crates/tensor/src/sparse.rs"];

/// Files on recoverable control paths where even `assert!` is banned in
/// library code: a failed runtime check there must surface as a typed error
/// (`TrainError`, `CheckpointError`), never abort the process. The training
/// loop earned the entry when a non-finite loss `assert!` was downgraded to
/// divergence rollback + `TrainError::Diverged`.
pub const NO_ASSERT_FILES: &[&str] = &[
    "crates/core/src/training.rs",
    "crates/core/src/checkpoint.rs",
];

/// Crates excluded from the deep (symbol-table) analysis: the bench harness
/// owns its own binaries off the request path, and xlint itself is the
/// analyzer. Their sources still run through every lexical rule.
pub const DEEP_EXCLUDED_CRATES: &[&str] = &["bench", "xlint"];

/// All rule identifiers, in report order.
pub const RULES: &[&str] = &[
    "no-panic",
    "no-assert",
    "no-print",
    "cast-in-loop",
    "result-error",
    "serve-concurrency",
    "no-raw-threads",
    "deny-unsafe",
    "panic-reachability",
    "lock-order",
    "float-determinism",
    "atomic-ordering",
    "unsafe-audit",
];

pub(crate) const NUMERIC_TYPES: &[&str] = &[
    "f32", "f64", "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64",
    "i128",
];

/// One lint finding at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Stable symbol key for deep findings (`crate::Type::fn/class`);
    /// empty for lexical findings, which key on path + excerpt instead.
    pub symbol: String,
    /// Site count for aggregated (counted) findings; 1 for point findings.
    pub count: usize,
    /// Supporting context — the call chain for reachability findings.
    pub notes: String,
}

impl Default for Diagnostic {
    fn default() -> Self {
        Diagnostic {
            rule: "",
            path: String::new(),
            line: 0,
            message: String::new(),
            excerpt: String::new(),
            symbol: String::new(),
            count: 1,
            notes: String::new(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    | {}",
            self.path, self.line, self.rule, self.message, self.excerpt
        )?;
        if !self.notes.is_empty() {
            write!(f, "\n    | via {}", self.notes)?;
        }
        Ok(())
    }
}

/// One entry of the `xlint.allow` file: `<rule> <path> [substring]`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule this entry suppresses.
    pub rule: String,
    /// Workspace-relative path it applies to. A trailing `/` makes the
    /// entry a directory prefix covering every file underneath it.
    pub path: String,
    /// Optional substring the offending source line must contain.
    pub pattern: String,
    /// Line number in `xlint.allow` (for unused-entry reporting).
    pub line_no: usize,
}

/// Parsed allowlist with per-entry use tracking.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// All parsed entries.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the `xlint.allow` format: one entry per line,
    /// `<rule> <path> [substring...]`; `#` starts a comment.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (Some(rule), Some(path)) = (parts.next(), parts.next()) else {
                continue;
            };
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path: path.to_string(),
                pattern: parts.next().unwrap_or("").trim().to_string(),
                line_no: i + 1,
            });
        }
        Allowlist { entries }
    }

    fn matches(&self, diag: &Diagnostic, used: &mut [bool]) -> bool {
        let mut hit = false;
        for (i, e) in self.entries.iter().enumerate() {
            if e.rule == diag.rule
                && path_covers(&e.path, &diag.path)
                && (e.pattern.is_empty() || diag.excerpt.contains(&e.pattern))
            {
                used[i] = true;
                hit = true;
            }
        }
        hit
    }
}

/// Allowlist path matching: exact by default; a trailing `/` makes the
/// entry a directory prefix.
fn path_covers(entry: &str, diag_path: &str) -> bool {
    if let Some(prefix) = entry.strip_suffix('/') {
        diag_path
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
    } else {
        entry == diag_path
    }
}

/// Result of linting the workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Diagnostics not covered by the allowlist. Baseline-eligible entries
    /// still need [`report::apply_baseline`] before they count as failures.
    pub active: Vec<Diagnostic>,
    /// Diagnostics suppressed by an allowlist entry.
    pub suppressed: Vec<Diagnostic>,
    /// Allowlist entries that matched nothing — stale debt records, which
    /// fail the run so the allow file can only shrink.
    pub unused_allows: Vec<AllowEntry>,
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
}

impl Report {
    /// Count of active (un-allowlisted) diagnostics for one rule.
    pub fn count(&self, rule: &str) -> usize {
        self.active.iter().filter(|d| d.rule == rule).count()
    }

    /// True when the tree is clean modulo the allowlist (before baseline).
    pub fn is_clean(&self) -> bool {
        self.active.is_empty()
    }
}

/// Replace comments, string literals, and char literals with spaces,
/// preserving the line structure so offsets still map to source lines.
/// Built on the real lexer, so raw strings, nested comments, and
/// lifetime-vs-char ambiguity are all handled exactly.
pub fn sanitize_source(src: &str) -> String {
    let lexed = lexer::lex(src);
    let mut out: Vec<u8> = src.as_bytes().to_vec();
    let blank = |lo: usize, hi: usize, out: &mut Vec<u8>| {
        for b in &mut out[lo..hi.min(src.len())] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    for t in &lexed.toks {
        if matches!(t.kind, lexer::TokKind::Str | lexer::TokKind::Char) {
            blank(t.lo, t.hi, &mut out);
        }
    }
    for c in &lexed.comments {
        blank(c.lo, c.hi, &mut out);
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Byte spans (start, end) of `#[cfg(test)]`-gated items in `source`.
/// Attribute tracking comes from the item indexer, so gating is inherited
/// through nested items and `#[test]` functions count too.
pub fn test_spans(source: &str) -> Vec<(usize, usize)> {
    let mut ws = index::Workspace::default();
    ws.add_file("crates/scratch/src/scratch.rs", source.to_string());
    ws.files.remove(0).test_spans
}

pub(crate) fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

pub(crate) fn raw_line(source: &str, starts: &[usize], line: usize) -> String {
    if line == 0 || line > starts.len() {
        return String::new();
    }
    let begin = starts[line - 1];
    let end = starts.get(line).map_or(source.len(), |&e| e - 1);
    let mut s = source[begin..end].trim().to_string();
    if s.len() > 100 {
        let mut cut = 100;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
        s.push('…');
    }
    s
}

/// Path classification helpers.
pub(crate) fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    rest.split('/').next()
}

pub(crate) fn in_library_src(rel: &str) -> bool {
    // Library code = crates/<name>/src/**; integration tests, benches and
    // examples live outside src/ and are exempt.
    let Some(rest) = rel.strip_prefix("crates/") else {
        return false;
    };
    let mut parts = rest.split('/');
    let _crate_name = parts.next();
    matches!(parts.next(), Some("src"))
}

/// Lint a single source file with the lexical rules. `error_types` holds the
/// names declared in the owning crate's `src/error.rs` (empty set when the
/// crate has none).
pub fn lint_file(rel: &str, source: &str, error_types: &BTreeSet<String>) -> Vec<Diagnostic> {
    if !in_library_src(rel) {
        return Vec::new();
    }
    let mut ws = index::Workspace::default();
    ws.add_file(rel, source.to_string());
    rules::lint_file_index(&ws.files[0], error_types)
}

/// Parse type names declared in an `error.rs` source.
pub fn declared_error_types(source: &str) -> BTreeSet<String> {
    let src = source.to_string();
    let lexed = lexer::lex(&src);
    let mut names = BTreeSet::new();
    let txt = |i: usize| lexed.text(&src, i);
    for i in 0..lexed.toks.len() {
        if lexed.toks[i].kind != lexer::TokKind::Ident || txt(i) != "pub" {
            continue;
        }
        if lexed
            .toks
            .get(i + 1)
            .is_some_and(|t| t.kind == lexer::TokKind::Ident)
            && matches!(txt(i + 1), "enum" | "struct" | "type")
            && lexed
                .toks
                .get(i + 2)
                .is_some_and(|t| t.kind == lexer::TokKind::Ident)
        {
            names.insert(txt(i + 2).to_string());
        }
    }
    names
}

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint every crate under `<root>/crates`: lexical rules over every file,
/// deep rules over the indexed library sources, allowlist applied to both.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> io::Result<Report> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    walk_rs_files(&crates_dir, &mut files)?;
    files.sort();

    let mut all: Vec<Diagnostic> = Vec::new();

    // Per-crate error.rs declarations for the result-error rule.
    let mut crate_errors: std::collections::BTreeMap<String, BTreeSet<String>> = Default::default();
    for entry in fs::read_dir(&crates_dir)? {
        let dir = entry?.path();
        if !dir.is_dir() {
            continue;
        }
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let error_rs = dir.join("src/error.rs");
        let types = if error_rs.is_file() {
            declared_error_types(&fs::read_to_string(&error_rs)?)
        } else {
            BTreeSet::new()
        };
        crate_errors.insert(name, types);

        // Rule: deny-unsafe at each crate root.
        let lib_rs = dir.join("src/lib.rs");
        if lib_rs.is_file() {
            let src = fs::read_to_string(&lib_rs)?;
            let sanitized = sanitize_source(&src);
            if !sanitized.contains("#![deny(unsafe_code)]")
                && !sanitized.contains("#![forbid(unsafe_code)]")
            {
                all.push(Diagnostic {
                    rule: "deny-unsafe",
                    path: rel_path(root, &lib_rs),
                    line: 1,
                    message: "crate root is missing `#![deny(unsafe_code)]`".to_string(),
                    excerpt: src.lines().next().unwrap_or("").trim().to_string(),
                    ..Default::default()
                });
            }
        }
    }

    let empty = BTreeSet::new();
    let files_checked = files.len();
    let mut deep_ws = index::Workspace::default();
    for path in files {
        let rel = rel_path(root, &path);
        let source = fs::read_to_string(&path)?;
        let types = crate_of(&rel)
            .and_then(|c| crate_errors.get(c))
            .unwrap_or(&empty);
        all.extend(lint_file(&rel, &source, types));
        let deep_indexed = in_library_src(&rel)
            && crate_of(&rel).is_some_and(|c| !DEEP_EXCLUDED_CRATES.contains(&c));
        if deep_indexed {
            deep_ws.add_file(&rel, source);
        }
    }
    let graph = callgraph::build(&deep_ws);
    all.extend(deep::deep_diagnostics(&deep_ws, &graph));

    let mut used = vec![false; allow.entries.len()];
    let mut report = Report {
        files_checked,
        ..Default::default()
    };
    for diag in all {
        if allow.matches(&diag, &mut used) {
            report.suppressed.push(diag);
        } else {
            report.active.push(diag);
        }
    }
    report.unused_allows = allow
        .entries
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    report
        .active
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

/// Locate the workspace root: walk up from `start` looking for a `Cargo.toml`
/// that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_errors() -> BTreeSet<String> {
        BTreeSet::new()
    }

    fn tensor_errors() -> BTreeSet<String> {
        let mut s = BTreeSet::new();
        s.insert("TensorError".to_string());
        s
    }

    #[test]
    fn sanitizer_strips_comments_and_strings() {
        let src = "let x = \"panic!\"; // .unwrap()\n/* todo! */ let y = 'a';";
        let clean = sanitize_source(src);
        assert!(!clean.contains("panic!"));
        assert!(!clean.contains(".unwrap()"));
        assert!(!clean.contains("todo!"));
        assert!(clean.contains("let x ="));
        assert!(clean.contains("let y ="));
        assert_eq!(clean.lines().count(), src.lines().count());
    }

    #[test]
    fn sanitizer_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let s = r#\"panic!\"#; }";
        let clean = sanitize_source(src);
        assert!(!clean.contains("panic!"));
        assert!(clean.contains("fn f<'a>"));
    }

    #[test]
    fn sanitizer_handles_nested_block_comments() {
        let src = "/* outer /* inner .unwrap() */ still comment */ fn f() {}";
        let clean = sanitize_source(src);
        assert!(!clean.contains(".unwrap()"));
        assert!(!clean.contains("still comment"));
        assert!(clean.contains("fn f()"));
    }

    #[test]
    fn unwrap_in_library_code_is_flagged() {
        let src = "pub fn f() -> u32 { some().unwrap() }\n";
        let diags = lint_file("crates/core/src/foo.rs", src, &no_errors());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-panic");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn unwrap_split_across_lines_is_still_flagged() {
        // The old line matcher missed `.unwrap\n()`; the token engine doesn't.
        let src = "pub fn f() -> u32 { some()\n    .unwrap\n    () }\n";
        let diags = lint_file("crates/core/src/foo.rs", src, &no_errors());
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn test_modules_and_test_dirs_are_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); panic!(\"\") }\n}\n";
        assert!(lint_file("crates/core/src/foo.rs", src, &no_errors()).is_empty());
        let banned = "fn g() { x.unwrap() }\n";
        assert!(lint_file("crates/core/tests/foo.rs", banned, &no_errors()).is_empty());
        assert!(lint_file("crates/core/benches/foo.rs", banned, &no_errors()).is_empty());
        assert!(lint_file("crates/core/examples/foo.rs", banned, &no_errors()).is_empty());
    }

    #[test]
    fn expect_and_macros_are_flagged_but_lookalikes_are_not() {
        let src = "pub fn f() { a.expect(\"x\"); panic!(\"y\"); todo!(); }\n";
        let diags = lint_file("crates/tensor/src/foo.rs", src, &no_errors());
        assert_eq!(diags.len(), 3, "{diags:?}");
        // Lookalikes: expect_err, should_panic attribute name, unwrap_or_else.
        let ok = "pub fn g() { a.expect_err(\"x\"); b.unwrap_or_else(|_| 0); }\n";
        assert!(lint_file("crates/tensor/src/foo.rs", ok, &no_errors()).is_empty());
    }

    #[test]
    fn data_crate_is_subject_to_no_panic() {
        // PR 7 added `data` to the panic-free set after its hot paths were
        // converted to typed-error propagation.
        let src = "pub fn f() { a.unwrap(); }\n";
        let diags = lint_file("crates/data/src/foo.rs", src, &no_errors());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-panic");
    }

    #[test]
    fn asserts_on_recoverable_paths_are_flagged() {
        let src = "pub fn f(x: f32) { assert!(x.is_finite()); assert_eq!(1, 1); \
                   debug_assert!(true); }\n";
        let diags = lint_file("crates/core/src/training.rs", src, &no_errors());
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "no-assert"));
        // Other core files keep their assert-on-misuse contract.
        assert!(lint_file("crates/core/src/model.rs", src, &no_errors()).is_empty());
        // Test modules inside the designated files stay exempt.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn g() { assert!(true); }\n}\n";
        assert!(lint_file("crates/core/src/training.rs", test_only, &no_errors()).is_empty());
    }

    #[test]
    fn obsv_crate_is_subject_to_no_panic() {
        let src = "pub fn f() { a.unwrap(); }\n";
        let diags = lint_file("crates/obsv/src/foo.rs", src, &no_errors());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-panic");
    }

    #[test]
    fn prints_in_library_code_are_flagged_everywhere_but_obsv() {
        let src =
            "pub fn f() { println!(\"a\"); eprintln!(\"b\"); print!(\"c\"); eprint!(\"d\"); }\n";
        let diags = lint_file("crates/data/src/foo.rs", src, &no_errors());
        assert_eq!(diags.len(), 4, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "no-print"));
        // The funnel crate itself may print.
        assert!(lint_file("crates/obsv/src/foo.rs", src, &no_errors()).is_empty());
        // Test modules and out-of-src test files stay exempt.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn g() { println!(\"x\"); }\n}\n";
        assert!(lint_file("crates/data/src/foo.rs", test_only, &no_errors()).is_empty());
        assert!(lint_file("crates/data/tests/foo.rs", src, &no_errors()).is_empty());
    }

    #[test]
    fn print_lookalikes_are_not_flagged() {
        // `eprintln!` must not double-count as `println!`, and identifiers
        // containing the words are ignored.
        let src = "pub fn f() { eprintln!(\"b\"); my_println!(\"x\"); pretty_print(1); }\n";
        let diags = lint_file("crates/data/src/foo.rs", src, &no_errors());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("eprintln!"));
    }

    #[test]
    fn needles_inside_raw_strings_are_not_flagged() {
        // The classic false-positive class the token engine kills: a raw
        // string containing `panic!` is data, not code.
        let src = "pub fn f() -> &'static str { r#\"panic!(\"x\").unwrap()\"# }\n";
        assert!(lint_file("crates/core/src/foo.rs", src, &no_errors()).is_empty());
    }

    #[test]
    fn allowlist_directory_prefix_covers_contained_files() {
        assert!(path_covers(
            "crates/bench/src/bin/",
            "crates/bench/src/bin/table3.rs"
        ));
        assert!(!path_covers(
            "crates/bench/src/bin/",
            "crates/bench/src/binary.rs"
        ));
        assert!(!path_covers(
            "crates/bench/src/bin/",
            "crates/bench/src/bin"
        ));
        assert!(path_covers(
            "crates/core/src/lib.rs",
            "crates/core/src/lib.rs"
        ));
        assert!(!path_covers(
            "crates/core/src/lib.rs",
            "crates/core/src/lib.rs2"
        ));

        let allow = Allowlist::parse("no-print crates/bench/src/bin/\n");
        let diag = Diagnostic {
            rule: "no-print",
            path: "crates/bench/src/bin/table3.rs".to_string(),
            excerpt: "println!(\"row\");".to_string(),
            ..Default::default()
        };
        let mut used = vec![false; 1];
        assert!(allow.matches(&diag, &mut used));
        assert_eq!(used, vec![true]);
    }

    #[test]
    fn cast_inside_kernel_loop_is_flagged() {
        let src = "pub fn k(n: usize) {\n    for i in 0..n {\n        let x = i as f32;\n    }\n    let y = n as f32;\n}\n";
        let diags = lint_file("crates/tensor/src/ops.rs", src, &tensor_errors());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "cast-in-loop");
        assert_eq!(diags[0].line, 3);
        // Same content in a non-kernel file: clean.
        assert!(lint_file("crates/tensor/src/other.rs", src, &tensor_errors()).is_empty());
    }

    #[test]
    fn cast_outside_loop_is_fine() {
        let src = "pub fn k(n: usize) -> f32 { n as f32 }\n";
        assert!(lint_file("crates/tensor/src/ops.rs", src, &tensor_errors()).is_empty());
    }

    #[test]
    fn result_error_rule_checks_declared_types() {
        let good = "pub fn f() -> Result<(), TensorError> { Ok(()) }\n";
        assert!(lint_file("crates/tensor/src/foo.rs", good, &tensor_errors()).is_empty());
        let foreign = "pub fn f() -> Result<(), String> { Ok(()) }\n";
        let diags = lint_file("crates/tensor/src/foo.rs", foreign, &tensor_errors());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "result-error");
        let alias = "pub fn f() -> Result<u8> { Ok(1) }\n";
        let diags = lint_file("crates/tensor/src/foo.rs", alias, &tensor_errors());
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn result_lookalikes_and_fmt_result_pass() {
        let src = "pub fn t() -> TTestResult { TTestResult }\n";
        assert!(lint_file("crates/data/src/foo.rs", src, &no_errors()).is_empty());
        // fmt::Result appears in Display impls, which are not `pub fn`.
        let src = "impl fmt::Display for X { fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) } }\n";
        assert!(lint_file("crates/data/src/foo.rs", src, &no_errors()).is_empty());
    }

    #[test]
    fn nested_result_in_option_is_checked() {
        let good = "pub fn w() -> Option<Result<u8, TensorError>> { None }\n";
        assert!(lint_file("crates/tensor/src/foo.rs", good, &tensor_errors()).is_empty());
        let bad = "pub fn w() -> Option<Result<u8, String>> { None }\n";
        assert_eq!(
            lint_file("crates/tensor/src/foo.rs", bad, &tensor_errors()).len(),
            1
        );
    }

    #[test]
    fn serve_concurrency_rule() {
        let src = "pub fn f() { std::thread::sleep(d); let (tx, rx) = mpsc::channel(); }\n";
        let diags = lint_file("crates/serve/src/foo.rs", src, &no_errors());
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "serve-concurrency"));
        let ok = "pub fn f() { let (tx, rx) = mpsc::sync_channel(1); }\n";
        assert!(lint_file("crates/serve/src/foo.rs", ok, &no_errors()).is_empty());
    }

    #[test]
    fn raw_threads_are_flagged_in_any_crate() {
        let src = "pub fn f() { std::thread::spawn(|| {}); }\n";
        let diags = lint_file("crates/data/src/foo.rs", src, &no_errors());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-raw-threads");
        let src = "pub fn g() { thread::scope(|s| { s.spawn(|| {}); }); }\n";
        let diags = lint_file("crates/tensor/src/foo.rs", src, &no_errors());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-raw-threads");
        let src = "pub fn h() { let b = thread::Builder::new(); }\n";
        let diags = lint_file("crates/serve/src/foo.rs", src, &no_errors());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-raw-threads");
    }

    #[test]
    fn raw_threads_in_tests_and_lookalikes_pass() {
        let test_only = "#[cfg(test)]\nmod tests {\n    fn g() { std::thread::spawn(|| {}); }\n}\n";
        assert!(lint_file("crates/serve/src/foo.rs", test_only, &no_errors()).is_empty());
        let src = "pub fn f() { std::thread::spawn(|| {}); }\n";
        assert!(lint_file("crates/serve/tests/foo.rs", src, &no_errors()).is_empty());
        // Identifiers that merely contain the words are not flagged.
        let ok = "pub fn f() { my_thread::spawner(); pool_thread::building(); }\n";
        assert!(lint_file("crates/core/src/foo.rs", ok, &no_errors()).is_empty());
    }

    #[test]
    fn declared_error_types_parses_enums_structs_aliases() {
        let src = "pub enum AError { X }\npub struct BError;\npub type CError = AError;\nenum Private {}\n";
        let names = declared_error_types(src);
        assert!(names.contains("AError") && names.contains("BError") && names.contains("CError"));
        assert!(!names.contains("Private"));
    }

    #[test]
    fn allowlist_suppresses_and_tracks_usage() {
        let allow = Allowlist::parse(
            "# comment\nno-panic crates/core/src/foo.rs some().unwrap()\nno-panic crates/core/src/unused.rs\n",
        );
        assert_eq!(allow.entries.len(), 2);
        let diag = Diagnostic {
            rule: "no-panic",
            path: "crates/core/src/foo.rs".to_string(),
            excerpt: "let x = some().unwrap();".to_string(),
            ..Default::default()
        };
        let mut used = vec![false; 2];
        assert!(allow.matches(&diag, &mut used));
        assert_eq!(used, vec![true, false]);
    }

    #[test]
    fn banned_pattern_in_a_synthetic_workspace_fails() {
        // Acceptance demo: introducing a banned pattern makes xlint fail.
        let dir = std::env::temp_dir().join(format!("xlint-demo-{}", std::process::id()));
        let src_dir = dir.join("crates/core/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(
            dir.join("crates/core").join("Cargo.toml"),
            "[package]\nname = \"core\"\n",
        )
        .unwrap();
        std::fs::write(
            src_dir.join("lib.rs"),
            "#![deny(unsafe_code)]\npub fn f() -> u32 { some().unwrap() }\n",
        )
        .unwrap();
        let report = lint_workspace(&dir, &Allowlist::default()).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.count("no-panic"), 1);
        // Allowlisting the single site makes it pass again.
        let allow = Allowlist::parse("no-panic crates/core/src/lib.rs some().unwrap()\n");
        let report = lint_workspace(&dir, &allow).unwrap();
        assert!(report.is_clean(), "{:?}", report.active);
        assert_eq!(report.suppressed.len(), 1);
        // Missing deny(unsafe_code) is caught too.
        std::fs::write(src_dir.join("lib.rs"), "pub fn f() -> u32 { 0 }\n").unwrap();
        let report = lint_workspace(&dir, &Allowlist::default()).unwrap();
        assert_eq!(report.count("deny-unsafe"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_rule_file_list_names_an_existing_file() {
        // A deleted or renamed file would silently switch its rule off.
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root above xlint");
        let lists: [(&str, &[&str]); 4] = [
            ("KERNEL_FILES", KERNEL_FILES),
            ("KERNEL_FLOAT_FILES", deep::KERNEL_FLOAT_FILES),
            ("NO_ASSERT_FILES", NO_ASSERT_FILES),
            ("UNSAFE_AUDITED_FILES", deep::UNSAFE_AUDITED_FILES),
        ];
        for (list, paths) in lists {
            for path in paths {
                assert!(
                    root.join(path).is_file(),
                    "{list} names missing file {path}"
                );
            }
        }
    }

    #[test]
    fn real_workspace_is_clean_modulo_allowlist_and_baseline() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root above xlint");
        let allow_text = std::fs::read_to_string(root.join("xlint.allow")).unwrap_or_default();
        let allow = Allowlist::parse(&allow_text);
        assert!(allow.entries.len() <= 12, "allowlist budget exceeded");
        let rep = lint_workspace(&root, &allow).unwrap();
        // Stale allow entries are themselves failures: the file only shrinks.
        assert!(
            rep.unused_allows.is_empty(),
            "stale xlint.allow entries: {:?}",
            rep.unused_allows
        );
        // Split active into hard failures and baseline-eligible debt.
        let (eligible, hard): (Vec<_>, Vec<_>) = rep
            .active
            .into_iter()
            .partition(report::is_baseline_eligible);
        let rendered: Vec<String> = hard.iter().map(|d| d.to_string()).collect();
        assert!(hard.is_empty(), "xlint debt:\n{}", rendered.join("\n"));
        // The counted debt must be exactly the committed baseline (no growth,
        // no staleness — shrink must be committed).
        let baseline_text = std::fs::read_to_string(root.join("xlint_report.json"))
            .expect("committed xlint_report.json baseline");
        let baseline = report::Baseline::parse(&baseline_text).expect("valid baseline");
        let ratchet = report::apply_baseline(eligible, &baseline);
        let rendered: Vec<String> = ratchet.new_findings.iter().map(|d| d.to_string()).collect();
        assert!(
            ratchet.new_findings.is_empty(),
            "new debt beyond baseline:\n{}",
            rendered.join("\n")
        );
        assert!(
            !ratchet.needs_shrink(),
            "baseline is stale (debt was paid down) — commit the shrunk file: {:?}",
            ratchet.stale
        );
    }
}
