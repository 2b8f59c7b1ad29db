//! Engine-level tests over the fixture corpus: each fixture is registered
//! into a synthetic [`Workspace`] under a realistic `crates/*/src/*` path so
//! crate- and file-scoped rules fire exactly as they would on the real tree.
//! Deep-rule output is pinned by golden files under `tests/golden/`;
//! regenerate with `XLINT_BLESS=1 cargo test -p xlint --test engine`.

use std::collections::BTreeSet;
use std::path::Path;

use xlint::index::Workspace;
use xlint::{callgraph, deep, Diagnostic};

fn deep_diags(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut ws = Workspace::default();
    for (rel, src) in files {
        ws.add_file(rel, src.to_string());
    }
    let graph = callgraph::build(&ws);
    deep::deep_diagnostics(&ws, &graph)
}

fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Compare rendered diagnostics against `tests/golden/<name>.txt`; with
/// `XLINT_BLESS` set, rewrite the golden file instead.
fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("XLINT_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "diagnostics drifted from {} (XLINT_BLESS=1 to regenerate)",
        path.display()
    );
}

#[test]
fn raw_strings_and_comments_hide_banned_patterns() {
    let diags = xlint::lint_file(
        "crates/serve/src/template.rs",
        include_str!("fixtures/raw_strings.rs"),
        &BTreeSet::new(),
    );
    assert!(
        diags.is_empty(),
        "lexer leaked string/comment text: {diags:?}"
    );
}

#[test]
fn panic_chain_is_reported_with_the_full_call_path() {
    let diags = deep_diags(&[(
        "crates/serve/src/server.rs",
        include_str!("fixtures/panic_chain.rs"),
    )]);
    assert_golden("panic_chain", &render(&diags));

    let panic = diags
        .iter()
        .find(|d| d.symbol.ends_with("/panic"))
        .expect("panic! site reported");
    assert!(
        panic
            .notes
            .contains("serve::Server::submit -> serve::stage_one -> serve::stage_two"),
        "chain missing: {}",
        panic.notes
    );
    // `offline_tool` is not reachable from any entry point.
    assert!(
        !diags.iter().any(|d| d.symbol.contains("offline_tool")),
        "unreachable fn reported: {diags:?}"
    );
}

#[test]
fn seeded_lock_order_cycle_is_detected() {
    let diags = deep_diags(&[(
        "crates/serve/src/locks.rs",
        include_str!("fixtures/lock_cycle.rs"),
    )]);
    assert_golden("lock_cycle", &render(&diags));
    let cycles: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "lock-order").collect();
    assert_eq!(cycles.len(), 1, "{diags:?}");
    assert!(
        cycles[0].message.contains("serve.ledger") && cycles[0].message.contains("serve.journal"),
        "{}",
        cycles[0].message
    );
}

#[test]
fn seeded_unordered_reduction_and_ungated_fma_are_flagged() {
    let diags = deep_diags(&[(
        "crates/tensor/src/ops.rs",
        include_str!("fixtures/float_fast.rs"),
    )]);
    assert_golden("float_fast", &render(&diags));
    let float: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "float-determinism")
        .collect();
    // Two HashMap-in-kernel-code sites, the unordered reduction, and both
    // mul_adds — the one behind a `D2_FAST_MATH` check gets no exemption.
    assert_eq!(float.len(), 5, "{diags:?}");
    assert!(
        float.iter().any(|d| d.symbol == "fma" && d.line == 18),
        "mul_add behind a flag check not flagged: {float:?}"
    );
}

#[test]
fn cfg_test_panics_and_shadowed_lock_are_out_of_scope() {
    let diags = deep_diags(&[(
        "crates/serve/src/server.rs",
        include_str!("fixtures/cfg_gated.rs"),
    )]);
    assert!(
        !diags.iter().any(|d| d.rule == "panic-reachability"),
        "cfg(test) panic leaked into reachability: {diags:?}"
    );
    assert!(
        !diags.iter().any(|d| d.rule == "lock-order"),
        "shadowed free fn lock() treated as acquisition: {diags:?}"
    );
}

#[test]
fn relaxed_ordering_needs_a_justification_comment() {
    let diags = deep_diags(&[(
        "crates/serve/src/counters.rs",
        include_str!("fixtures/atomics.rs"),
    )]);
    let atomics: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "atomic-ordering")
        .collect();
    assert_eq!(atomics.len(), 1, "{diags:?}");
    assert!(
        atomics[0].excerpt.contains("counter.load"),
        "wrong site: {:?}",
        atomics[0]
    );
}
