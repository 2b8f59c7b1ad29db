//! The deep rules: analyses that need the symbol table and call graph.
//!
//! Five rules live here, all structurally beyond a line matcher:
//!
//! * **panic-reachability** — walk the call graph from the serve/httpd
//!   request entry points and prove no reachable function contains a
//!   panic-family call outside the sanctioned `error.rs` funnels; report the
//!   offending call chain. Slice-index, assert, and arithmetic sites on the
//!   same paths are *counted* per function and ratcheted via the committed
//!   baseline rather than hard-failed (they are debt, not violations).
//! * **lock-order** — extract the static lock-acquisition graph (which locks
//!   are taken while which others are held, across calls) and fail on any
//!   cycle, including ones no test ever executes. Complements the runtime
//!   `OrderedMutex` sanitizer in `d2stgnn_serve::lockorder`.
//! * **float-determinism** — in kernel float code, flag any FMA (`mul_add`
//!   or an `fmadd` intrinsic), hash-ordered containers, and unordered
//!   reductions over them; bit-exact resume and the paper's reproducibility
//!   claims depend on mul-then-add arithmetic and ordered reductions.
//! * **atomic-ordering** — every `Ordering::Relaxed` must carry a
//!   `// relaxed: …` justification comment in its enclosing function.
//! * **unsafe-audit** — `unsafe` may appear only in the audited SIMD
//!   micro-kernel module ([`UNSAFE_AUDITED_FILES`]); every occurrence there
//!   must carry a `// SAFETY: …` justification comment immediately above,
//!   mirroring the atomic-ordering audit. Everywhere else the crate-root
//!   `#![deny(unsafe_code)]` (lexical `deny-unsafe` rule) keeps unsafe out,
//!   and this rule catches module-level `#![allow(unsafe_code)]` escapes.

use crate::callgraph::{self, CallGraph};
use crate::index::{FileIndex, Workspace};
use crate::lexer::TokKind;
use crate::{line_starts, raw_line, Diagnostic};
use std::collections::{BTreeMap, BTreeSet};

/// Request-path entry points for panic-reachability, as `(crate, fn)`.
pub const PANIC_ENTRY_POINTS: &[(&str, &str)] = &[
    ("serve", "Server::submit"),
    ("serve", "Server::infer"),
    ("serve", "worker_loop"),
    ("httpd", "worker_loop"),
    ("httpd", "handle_connection"),
    ("httpd", "handle_request"),
];

/// Kernel float code subject to the float-determinism rule: the tensor math
/// hot paths and the model forward/backward kernels whose reduction order
/// defines the bit-exact training contract.
pub const KERNEL_FLOAT_FILES: &[&str] = &[
    "crates/tensor/src/ops.rs",
    "crates/tensor/src/gemm.rs",
    "crates/tensor/src/simd.rs",
    "crates/tensor/src/sparse.rs",
    "crates/tensor/src/array.rs",
    "crates/tensor/src/losses.rs",
    "crates/core/src/diffusion.rs",
    "crates/core/src/inherent.rs",
    "crates/core/src/layer.rs",
    "crates/core/src/gate.rs",
    "crates/core/src/forecast.rs",
    "crates/core/src/embeddings.rs",
];

/// The only modules sanctioned to contain `unsafe` code: the explicit-SIMD
/// GEMM micro-kernels, where raw intrinsics are unavoidable and every block
/// is audited via a mandatory `// SAFETY:` comment.
pub const UNSAFE_AUDITED_FILES: &[&str] = &["crates/tensor/src/simd.rs"];

/// Run every deep rule. `ws`/`graph` must be built over library sources only.
pub fn deep_diagnostics(ws: &Workspace, graph: &CallGraph) -> Vec<Diagnostic> {
    let mut out = panic_reachability(ws, graph);
    out.extend(lock_order(ws, graph));
    out.extend(float_determinism(ws));
    out.extend(atomic_ordering(ws));
    out.extend(unsafe_audit(ws));
    out
}

/// A file is a sanctioned panic funnel when it is the crate's `error.rs` and
/// defines the `violation` funnel the funnel convention requires.
fn is_funnel_file(file: &FileIndex) -> bool {
    file.rel.ends_with("src/error.rs") && file.src.contains("fn violation")
}

struct FileCtx {
    starts: Vec<usize>,
}

fn excerpt_at(file: &FileIndex, starts: &[usize], line: usize) -> String {
    raw_line(&file.src, starts, line)
}

// ---------------------------------------------------------------------------
// panic-reachability
// ---------------------------------------------------------------------------

fn panic_reachability(ws: &Workspace, graph: &CallGraph) -> Vec<Diagnostic> {
    let entries: Vec<usize> = PANIC_ENTRY_POINTS
        .iter()
        .filter_map(|&(krate, path)| ws.find(krate, path))
        .collect();
    let mut out = Vec::new();
    if entries.is_empty() {
        return out;
    }
    let reach = callgraph::reachable(graph, &entries);
    let mut ctxs: BTreeMap<usize, FileCtx> = BTreeMap::new();

    for &fn_id in reach.keys() {
        let item = &ws.fns[fn_id];
        let file = &ws.files[item.file];
        if is_funnel_file(file) || item.body.is_none() {
            continue;
        }
        let ctx = ctxs.entry(item.file).or_insert_with(|| FileCtx {
            starts: line_starts(&file.src),
        });
        let sites = scan_sites(file, item.body.unwrap_or((0, 0)));
        let chain = callgraph::chain(ws, &reach, fn_id).join(" -> ");
        // Hard class: each panic-family site is its own diagnostic.
        for &(line, ref what) in &sites.panics {
            out.push(Diagnostic {
                rule: "panic-reachability",
                path: file.rel.clone(),
                line,
                message: format!(
                    "{what} is reachable from a request entry point (route the invariant \
                     through the crate's error.rs funnel or return a typed error)"
                ),
                excerpt: excerpt_at(file, &ctx.starts, line),
                symbol: format!("{}/panic", item.qualified()),
                count: 1,
                notes: chain.clone(),
            });
        }
        // Counted classes: one aggregate diagnostic per (fn, class).
        for (class, sites, what) in [
            (
                "assert",
                &sites.asserts,
                "assert-family macros (abort on failure)",
            ),
            (
                "slice-index",
                &sites.indexing,
                "slice/array index sites (panic when out of bounds)",
            ),
            (
                "arith",
                &sites.arith,
                "overflow-prone arithmetic sites (`.len() - …`, division by a variable)",
            ),
        ] {
            if let Some(&first) = sites.first() {
                out.push(Diagnostic {
                    rule: "panic-reachability",
                    path: file.rel.clone(),
                    line: first,
                    message: format!(
                        "{} {what} on the request path (baseline-ratcheted: the count may \
                         only shrink)",
                        sites.len()
                    ),
                    excerpt: excerpt_at(file, &ctx.starts, first),
                    symbol: format!("{}/{}", item.qualified(), class),
                    count: sites.len(),
                    notes: chain.clone(),
                });
            }
        }
    }
    out
}

/// Panic-relevant sites found in one function body.
#[derive(Default)]
struct Sites {
    /// `(line, what)` for panic-family calls — must be zero modulo allowlist.
    panics: Vec<(usize, String)>,
    /// Lines of assert-family macros (counted, baselined).
    asserts: Vec<usize>,
    /// Lines of slice-index expressions (counted, baselined).
    indexing: Vec<usize>,
    /// Lines of overflow-prone arithmetic (counted, baselined — heuristic:
    /// `.len() - …` underflow shapes and `/`‖`%` by a non-literal).
    arith: Vec<usize>,
}

fn scan_sites(file: &FileIndex, (open, close): (usize, usize)) -> Sites {
    let toks = &file.lexed.toks;
    let src = &file.src;
    let txt = |i: usize| &src[toks[i].lo..toks[i].hi];
    let is_p = |i: usize, p: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && &src[t.lo..t.hi] == p)
    };
    let mut sites = Sites::default();
    let end = close.min(toks.len());
    for i in open + 1..end {
        let t = &toks[i];
        let line = t.line as usize;
        match t.kind {
            TokKind::Ident => {
                let word = txt(i);
                let bang =
                    is_p(i + 1, "!") && (is_p(i + 2, "(") || is_p(i + 2, "[") || is_p(i + 2, "{"));
                let method = i > 0 && is_p(i - 1, ".") && is_p(i + 1, "(");
                match word {
                    "panic" | "todo" | "unimplemented" | "unreachable" if bang => {
                        sites.panics.push((line, format!("`{word}!`")));
                    }
                    "unwrap" if method && is_p(i + 2, ")") => {
                        sites.panics.push((line, "`.unwrap()`".to_string()));
                    }
                    "expect" if method => {
                        sites.panics.push((line, "`.expect(..)`".to_string()));
                    }
                    "assert" | "assert_eq" | "assert_ne" if bang => {
                        sites.asserts.push(line);
                    }
                    _ => {}
                }
            }
            TokKind::Punct => match txt(i) {
                // Indexing: `expr[` — the previous token ends an expression.
                "[" if i > open + 1 => {
                    let prev = &toks[i - 1];
                    let prev_txt = &src[prev.lo..prev.hi];
                    let is_index = matches!(prev.kind, TokKind::Ident)
                        && !matches!(
                            prev_txt,
                            // Keyword or macro-adjacent positions are not
                            // index expressions.
                            "return" | "in" | "else" | "match" | "if" | "mut" | "box"
                        )
                        || (prev.kind == TokKind::Punct && matches!(prev_txt, ")" | "]"));
                    if is_index {
                        sites.indexing.push(line);
                    }
                }
                // `.len() - …`: the canonical usize-underflow shape.
                "-" if i >= 4
                    && is_p(i - 1, ")")
                    && is_p(i - 2, "(")
                    && toks[i - 3].kind == TokKind::Ident
                    && matches!(txt(i - 3), "len" | "capacity" | "count")
                    && is_p(i - 4, ".") =>
                {
                    sites.arith.push(line);
                }
                // Division/modulo by a non-literal divisor (possible /0);
                // `/` only counts in binary position so closures/paths stay
                // quiet.
                "/" | "%" => {
                    let binary = i > open + 1
                        && (matches!(
                            toks[i - 1].kind,
                            TokKind::Ident | TokKind::Int | TokKind::Float
                        ) || (toks[i - 1].kind == TokKind::Punct
                            && matches!(txt(i - 1), ")" | "]")));
                    let divisor_var = toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
                        && !matches!(txt(i + 1), "as");
                    if binary && divisor_var {
                        sites.arith.push(line);
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
    sites
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// One edge of the lock-acquisition graph, with its witness site.
struct LockEdge {
    from: String,
    to: String,
    path: String,
    line: usize,
}

fn lock_order(ws: &Workspace, graph: &CallGraph) -> Vec<Diagnostic> {
    // Pass 1: per-function local acquisitions (names only), for the
    // transitive acquires sets used at call sites.
    let mut local: Vec<BTreeSet<String>> = vec![BTreeSet::new(); ws.fns.len()];
    for (id, item) in ws.fns.iter().enumerate() {
        if item.is_test {
            continue;
        }
        for acq in lock_acquisitions(ws, id) {
            local[id].insert(acq.name);
        }
    }
    // The lock analysis follows only high-confidence call edges, and never
    // edges into functions named `lock`/`lock_recover`: a `.lock()` call
    // site is already modeled as a direct acquisition named after its
    // receiver, and common-name fan-out (`.clone(`, `.push(`, `fn lock`
    // impls) would smear all acquire-sets together and manufacture cycles.
    let follow = |e: &callgraph::Edge| {
        e.confident && !matches!(ws.fns[e.callee].name.as_str(), "lock" | "lock_recover")
    };

    // Fixpoint: acquires*(f) = local(f) ∪ ⋃ acquires*(callees).
    let mut trans = local.clone();
    loop {
        let mut changed = false;
        for id in 0..ws.fns.len() {
            let mut add: Vec<String> = Vec::new();
            for e in &graph.edges[id] {
                if !follow(e) {
                    continue;
                }
                let callee = e.callee;
                for name in &trans[callee] {
                    if !trans[id].contains(name) {
                        add.push(name.clone());
                    }
                }
            }
            for name in add {
                trans[id].insert(name);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 2: walk each body tracking live guards; record edges held → new
    // for direct acquisitions and held → acquires*(callee) for calls.
    let mut edges: Vec<LockEdge> = Vec::new();
    for (id, item) in ws.fns.iter().enumerate() {
        if item.is_test {
            continue;
        }
        let file = &ws.files[item.file];
        let call_targets: BTreeMap<usize, Vec<usize>> = {
            let mut m: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for e in &graph.edges[id] {
                if follow(e) {
                    m.entry(e.tok).or_default().push(e.callee);
                }
            }
            m
        };
        simulate_locks(ws, id, &call_targets, &trans, &mut |from, to, line| {
            if from != to {
                edges.push(LockEdge {
                    from: from.to_string(),
                    to: to.to_string(),
                    path: file.rel.clone(),
                    line,
                });
            }
        });
    }

    // Cycle detection over the edge set.
    let mut adj: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.clone()).or_default().insert(e.to.clone());
    }
    let mut out = Vec::new();
    if let Some(cycle) = callgraph::find_cycle(&adj) {
        // Witness: the edge realizing the first hop of the cycle.
        let witness = edges
            .iter()
            .find(|e| e.from == cycle[0] && e.to == cycle[1])
            .unwrap_or(&edges[0]);
        let file = ws.files.iter().find(|f| f.rel == witness.path);
        let starts = file.map(|f| line_starts(&f.src)).unwrap_or_default();
        out.push(Diagnostic {
            rule: "lock-order",
            path: witness.path.clone(),
            line: witness.line,
            message: format!(
                "lock acquisition cycle: {} (a thread holding `{}` can deadlock against one \
                 holding `{}`; fix the acquisition order or drop before acquiring)",
                cycle.join(" -> "),
                cycle[0],
                cycle[1]
            ),
            excerpt: file
                .map(|f| excerpt_at(f, &starts, witness.line))
                .unwrap_or_default(),
            symbol: cycle.join(" -> "),
            ..Default::default()
        });
    }
    out
}

/// A single `.lock()`-style acquisition inside a function body.
struct Acquisition {
    /// Canonical lock name: `<crate>.<receiver ident>`.
    name: String,
    /// Token index of the `lock` ident.
    tok: usize,
    /// Source line.
    line: usize,
}

/// Receiver-based lock extraction: `queue.lock()`, `self.queue.lock()`,
/// `lock_recover(&self.queue)`-style helpers. A plain `lock()` free-fn call
/// (no receiver) is NOT an acquisition — that is the "shadowed lock()" trap.
fn lock_acquisitions(ws: &Workspace, fn_id: usize) -> Vec<Acquisition> {
    let item = &ws.fns[fn_id];
    let Some((open, close)) = item.body else {
        return Vec::new();
    };
    let file = &ws.files[item.file];
    let toks = &file.lexed.toks;
    let src = &file.src;
    let txt = |i: usize| &src[toks[i].lo..toks[i].hi];
    let is_p = |i: usize, p: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && &src[t.lo..t.hi] == p)
    };
    let mut out = Vec::new();
    let end = close.min(toks.len());
    for i in open + 1..end {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let word = txt(i);
        let receiver = match word {
            // `recv.lock()` — method form only.
            "lock" if i > 0 && is_p(i - 1, ".") && is_p(i + 1, "(") => toks
                .get(i.wrapping_sub(2))
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| src[t.lo..t.hi].to_string()),
            // `lock_recover(&self.queue)` / `lock_recover(&queue)` helper:
            // the lock is the last ident inside the first argument.
            "lock_recover" if is_p(i + 1, "(") => {
                let mut j = i + 2;
                let mut depth = 1i32;
                let mut last = None;
                while j < end && depth > 0 {
                    match (toks[j].kind, txt(j)) {
                        (TokKind::Punct, "(") => depth += 1,
                        (TokKind::Punct, ")") => depth -= 1,
                        (TokKind::Punct, ",") if depth == 1 => break,
                        (TokKind::Ident, w) if w != "self" => last = Some(w.to_string()),
                        _ => {}
                    }
                    j += 1;
                }
                last
            }
            _ => continue,
        };
        let Some(recv) = receiver else { continue };
        if recv == "self" {
            // `self.lock()` — the receiver IS the object; use the type name.
            let name = item.self_ty.clone().unwrap_or_else(|| "self".to_string());
            out.push(Acquisition {
                name: format!("{}.{}", item.krate, name),
                tok: i,
                line: toks[i].line as usize,
            });
            continue;
        }
        out.push(Acquisition {
            name: format!("{}.{}", item.krate, recv),
            tok: i,
            line: toks[i].line as usize,
        });
    }
    out
}

/// Walk one body simulating guard lifetimes; `emit(held, acquired, line)` is
/// called for every ordered pair observed.
fn simulate_locks(
    ws: &Workspace,
    fn_id: usize,
    call_targets: &BTreeMap<usize, Vec<usize>>,
    trans: &[BTreeSet<String>],
    emit: &mut dyn FnMut(&str, &str, usize),
) {
    let item = &ws.fns[fn_id];
    let Some((open, close)) = item.body else {
        return;
    };
    let file = &ws.files[item.file];
    let toks = &file.lexed.toks;
    let src = &file.src;
    let txt = |i: usize| &src[toks[i].lo..toks[i].hi];
    let is_p = |i: usize, p: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && &src[t.lo..t.hi] == p)
    };
    let acquisitions = lock_acquisitions(ws, fn_id);
    let acq_at: BTreeMap<usize, &Acquisition> = acquisitions.iter().map(|a| (a.tok, a)).collect();

    // Live guards: (lock name, binding var or None for temps, brace depth).
    let mut live: Vec<(String, Option<String>, usize)> = Vec::new();
    let mut depth = 0usize;
    // The pending `let` binding var for the current statement, if any.
    let mut stmt_let_var: Option<String> = None;
    let mut stmt_has_let = false;
    let end = close.min(toks.len());
    let mut i = open + 1;
    while i < end {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct => match txt(i) {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    live.retain(|&(_, _, d)| d <= depth);
                }
                ";" => {
                    // Temp guards (no binding) die at end of statement.
                    live.retain(|(_, var, _)| var.is_some());
                    stmt_let_var = None;
                    stmt_has_let = false;
                }
                "=" if stmt_has_let && stmt_let_var.is_none() && !is_p(i + 1, "=") => {
                    // `let <pat> = …`: binding var is the last ident of the
                    // pattern (covers `let mut g`, `let Ok(g)`).
                    let mut j = i - 1;
                    loop {
                        if toks[j].kind == TokKind::Ident && txt(j) != "mut" {
                            stmt_let_var = Some(txt(j).to_string());
                            break;
                        }
                        if j == 0 || txt(j) == "let" {
                            break;
                        }
                        j -= 1;
                    }
                }
                _ => {}
            },
            TokKind::Ident => {
                let word = txt(i);
                if word == "let" {
                    stmt_has_let = true;
                    stmt_let_var = None;
                } else if word == "drop" && is_p(i + 1, "(") {
                    if let Some(v) = toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                        let name = &src[v.lo..v.hi];
                        live.retain(|(_, var, _)| var.as_deref() != Some(name));
                    }
                }
                if let Some(acq) = acq_at.get(&i) {
                    for (held, _, _) in &live {
                        emit(held, &acq.name, acq.line);
                    }
                    // `m.lock().clone()`-style chains consume the guard in
                    // the same expression: the `let` var binds the derived
                    // value, not the guard, so it dies at the statement end.
                    let var = if guard_is_consumed(toks, src, i, end) {
                        None
                    } else {
                        stmt_let_var.clone()
                    };
                    live.push((acq.name.clone(), var, depth));
                }
                if let Some(callees) = call_targets.get(&i) {
                    if !live.is_empty() {
                        for &callee in callees {
                            for target in &trans[callee] {
                                for (held, _, _) in &live {
                                    emit(held, target, t.line as usize);
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// True when the guard produced by the `lock`/`lock_recover` call at token
/// `i` is consumed by a further method call in the same expression chain
/// (e.g. `.lock().clone()`), so the binding holds a derived value rather
/// than the guard. Poison adapters (`unwrap`, `expect`, `unwrap_or_else`)
/// return the guard itself and keep the chain alive.
fn guard_is_consumed(toks: &[crate::lexer::Tok], src: &str, i: usize, end: usize) -> bool {
    let txt = |k: usize| &src[toks[k].lo..toks[k].hi];
    let is_p = |k: usize, p: &str| {
        toks.get(k)
            .is_some_and(|t| t.kind == TokKind::Punct && &src[t.lo..t.hi] == p)
    };
    // Walk to the matching `)` of the call opening at i + 1.
    let mut j = i + 1;
    loop {
        if !is_p(j, "(") {
            return false;
        }
        let mut depth = 0i32;
        while j < end {
            if is_p(j, "(") {
                depth += 1;
            } else if is_p(j, ")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        // j is at the closing paren; look at what follows.
        if !is_p(j + 1, ".")
            || toks.get(j + 2).map(|t| t.kind) != Some(TokKind::Ident)
            || !is_p(j + 3, "(")
        {
            return false;
        }
        if matches!(txt(j + 2), "unwrap" | "expect" | "unwrap_or_else") {
            // Guard-preserving adapter: keep scanning past its call.
            j += 3;
            continue;
        }
        return true;
    }
}

// ---------------------------------------------------------------------------
// float-determinism
// ---------------------------------------------------------------------------

fn float_determinism(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if !KERNEL_FLOAT_FILES.contains(&file.rel.as_str()) {
            continue;
        }
        let toks = &file.lexed.toks;
        let src = &file.src;
        let txt = |i: usize| &src[toks[i].lo..toks[i].hi];
        let is_p = |i: usize, p: &str| {
            toks.get(i)
                .is_some_and(|t| t.kind == TokKind::Punct && &src[t.lo..t.hi] == p)
        };
        let starts = line_starts(src);
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident || file.in_test_span(toks[i].lo) {
                continue;
            }
            let word = txt(i);
            let line = toks[i].line as usize;
            match word {
                // FMA rounds once where the kernels' contract is a separately
                // rounded multiply then add.
                "mul_add" | "fma" if i > 0 && is_p(i - 1, ".") && is_p(i + 1, "(") => {
                    out.push(Diagnostic {
                        rule: "float-determinism",
                        path: file.rel.clone(),
                        line,
                        message: format!(
                            "`.{word}(..)` in kernel float code (FMA changes rounding vs \
                             mul-then-add; bit-exact resume forbids it)"
                        ),
                        excerpt: raw_line(src, &starts, line),
                        symbol: "fma".to_string(),
                        ..Default::default()
                    });
                }
                // Explicit FMA intrinsics (`_mm256_fmadd_ps`, ...) contract
                // the same way `.mul_add` does.
                intrinsic if intrinsic.contains("fmadd") && is_p(i + 1, "(") => {
                    out.push(Diagnostic {
                        rule: "float-determinism",
                        path: file.rel.clone(),
                        line,
                        message: format!(
                            "FMA intrinsic `{intrinsic}(..)` in kernel float code (fused \
                             rounding diverges from the bit-exact mul-then-add contract)"
                        ),
                        excerpt: raw_line(src, &starts, line),
                        symbol: "fma".to_string(),
                        ..Default::default()
                    });
                }
                // Hash containers iterate in arbitrary order; a reduction
                // over them is run-to-run nondeterministic.
                "HashMap" | "HashSet" => {
                    out.push(Diagnostic {
                        rule: "float-determinism",
                        path: file.rel.clone(),
                        line,
                        message: format!(
                            "`{word}` in kernel float code (iteration order is \
                             nondeterministic; use `BTreeMap`/`Vec` so reductions stay \
                             bit-exact)"
                        ),
                        excerpt: raw_line(src, &starts, line),
                        symbol: "hash-container".to_string(),
                        ..Default::default()
                    });
                }
                // `.values().sum()` / `.keys().product()` / `.fold(` over an
                // unordered view: the reduction order is unspecified.
                "values" | "keys"
                    if is_p(i + 1, "(")
                        && is_p(i + 2, ")")
                        && is_p(i + 3, ".")
                        && toks.get(i + 4).is_some_and(|t| {
                            t.kind == TokKind::Ident
                                && matches!(&src[t.lo..t.hi], "sum" | "product" | "fold")
                        }) =>
                {
                    out.push(Diagnostic {
                        rule: "float-determinism",
                        path: file.rel.clone(),
                        line,
                        message: format!(
                            "unordered reduction: `.{}().{}(..)` folds in hash order \
                             (sort the keys or use an ordered container)",
                            word,
                            txt(i + 4)
                        ),
                        excerpt: raw_line(src, &starts, line),
                        symbol: "unordered-reduction".to_string(),
                        ..Default::default()
                    });
                }
                _ => {}
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// atomic-ordering
// ---------------------------------------------------------------------------

fn atomic_ordering(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (file_id, file) in ws.files.iter().enumerate() {
        let toks = &file.lexed.toks;
        let src = &file.src;
        let txt = |i: usize| &src[toks[i].lo..toks[i].hi];
        let starts = line_starts(src);
        for i in 0..toks.len() {
            // `Ordering :: Relaxed` token triple.
            if !(toks[i].kind == TokKind::Ident
                && txt(i) == "Relaxed"
                && i >= 3
                && file.lexed.punct_pair(src, i - 2, ':', ':')
                && toks[i - 3].kind == TokKind::Ident
                && txt(i - 3) == "Ordering")
            {
                continue;
            }
            if file.in_test_span(toks[i].lo) {
                continue;
            }
            let site_line = toks[i].line;
            // Justification window: enclosing fn start → site line, or the
            // three preceding lines for statics/consts outside functions.
            let window_start = match ws.enclosing_fn(file_id, i) {
                Some(fn_id) => ws.fns[fn_id].line,
                None => site_line.saturating_sub(3),
            };
            let justified = file.lexed.comments.iter().any(|c| {
                c.line >= window_start
                    && c.line <= site_line
                    && src[c.lo..c.hi].to_ascii_lowercase().contains("relaxed:")
            });
            if !justified {
                let line = site_line as usize;
                out.push(Diagnostic {
                    rule: "atomic-ordering",
                    path: file.rel.clone(),
                    line,
                    message: "`Ordering::Relaxed` without a `// relaxed: …` justification \
                              comment in the enclosing function (explain why unsynchronized \
                              visibility is acceptable here)"
                        .to_string(),
                    excerpt: raw_line(src, &starts, line),
                    ..Default::default()
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// unsafe-audit
// ---------------------------------------------------------------------------

/// Lines above an `unsafe` token in which its `// SAFETY:` justification
/// must appear (inclusive of the token's own line). Wide enough for a
/// multi-line justification directly above the block, narrow enough that
/// one comment cannot blanket a whole function.
const SAFETY_WINDOW_LINES: u32 = 8;

fn unsafe_audit(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in ws.files.iter() {
        let toks = &file.lexed.toks;
        let src = &file.src;
        let starts = line_starts(src);
        let audited = UNSAFE_AUDITED_FILES.contains(&file.rel.as_str());
        for t in toks.iter() {
            // Keywords lex as `Ident`; comments and strings never reach the
            // token stream, so every hit is a real `unsafe` keyword.
            if t.kind != TokKind::Ident || &src[t.lo..t.hi] != "unsafe" || file.in_test_span(t.lo) {
                continue;
            }
            let site_line = t.line;
            let line = site_line as usize;
            if !audited {
                out.push(Diagnostic {
                    rule: "unsafe-audit",
                    path: file.rel.clone(),
                    line,
                    message: format!(
                        "`unsafe` outside the audited SIMD kernel module ({} is the \
                         only sanctioned site; everything else stays under \
                         `#![deny(unsafe_code)]`)",
                        UNSAFE_AUDITED_FILES.join(", ")
                    ),
                    excerpt: raw_line(src, &starts, line),
                    symbol: "unsanctioned-unsafe".to_string(),
                    ..Default::default()
                });
                continue;
            }
            let window_start = site_line.saturating_sub(SAFETY_WINDOW_LINES);
            let justified = file.lexed.comments.iter().any(|c| {
                c.line >= window_start
                    && c.line <= site_line
                    && src[c.lo..c.hi].to_ascii_uppercase().contains("SAFETY:")
            });
            if !justified {
                out.push(Diagnostic {
                    rule: "unsafe-audit",
                    path: file.rel.clone(),
                    line,
                    message: "`unsafe` without a `// SAFETY: …` justification comment \
                              directly above (state the invariants that make this sound)"
                        .to_string(),
                    excerpt: raw_line(src, &starts, line),
                    symbol: "missing-safety-comment".to_string(),
                    ..Default::default()
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;

    fn deep(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut ws = Workspace::default();
        for (rel, srcr) in files {
            ws.add_file(rel, srcr.to_string());
        }
        let graph = callgraph::build(&ws);
        deep_diagnostics(&ws, &graph)
    }

    #[test]
    fn panic_chain_is_reported_with_call_path() {
        let diags = deep(&[(
            "crates/serve/src/server.rs",
            "pub struct Server;\nimpl Server {\n    pub fn submit(&self) { helper(); }\n}\n\
             fn helper() { deep_helper(); }\nfn deep_helper() { panic!(\"boom\") }\n",
        )]);
        let hard: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == "panic-reachability" && d.symbol.ends_with("/panic"))
            .collect();
        assert_eq!(hard.len(), 1, "{diags:?}");
        assert_eq!(hard[0].line, 6);
        assert!(
            hard[0]
                .notes
                .contains("serve::Server::submit -> serve::helper -> serve::deep_helper"),
            "{}",
            hard[0].notes
        );
    }

    #[test]
    fn funnel_files_are_exempt() {
        let diags = deep(&[
            (
                "crates/serve/src/server.rs",
                "pub struct Server;\nimpl Server { pub fn submit(&self) { fail(1); } }\n",
            ),
            (
                "crates/serve/src/error.rs",
                "pub(crate) fn violation(d: &str) -> ! { panic!(\"{d}\") }\n\
                 pub(crate) fn fail(x: u8) { violation(\"x\") }\n",
            ),
        ]);
        assert!(
            diags.iter().all(|d| !d.symbol.ends_with("/panic")),
            "{diags:?}"
        );
    }

    #[test]
    fn index_and_arith_sites_are_counted_not_failed() {
        let diags = deep(&[(
            "crates/serve/src/server.rs",
            "pub struct Server;\nimpl Server {\n    pub fn submit(&self, v: &[f32], n: usize) -> f32 {\n        v[0] + v[v.len() - 1] / n as f32\n    }\n}\n",
        )]);
        let idx = diags
            .iter()
            .find(|d| d.symbol.ends_with("/slice-index"))
            .expect("index aggregate");
        assert_eq!(idx.count, 2, "{diags:?}");
        let arith = diags
            .iter()
            .find(|d| d.symbol.ends_with("/arith"))
            .expect("arith aggregate");
        assert!(arith.count >= 1);
        assert!(diags.iter().all(|d| !d.symbol.ends_with("/panic")));
    }

    #[test]
    fn seeded_lock_cycle_is_detected() {
        let diags = deep(&[(
            "crates/serve/src/locks.rs",
            "pub fn a(q: &M, r: &M) { let g = q.lock(); let h = r.lock(); use2(g, h) }\n\
             pub fn b(q: &M, r: &M) { let h = r.lock(); let g = q.lock(); use2(g, h) }\n",
        )]);
        let cycle: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "lock-order").collect();
        assert_eq!(cycle.len(), 1, "{diags:?}");
        assert!(cycle[0].symbol.contains("serve.q") && cycle[0].symbol.contains("serve.r"));
    }

    #[test]
    fn drop_releases_the_guard_and_breaks_the_cycle() {
        let diags = deep(&[(
            "crates/serve/src/locks.rs",
            "pub fn a(q: &M, r: &M) { let g = q.lock(); drop(g); let h = r.lock(); use1(h) }\n\
             pub fn b(q: &M, r: &M) { let h = r.lock(); drop(h); let g = q.lock(); use1(g) }\n",
        )]);
        assert!(diags.iter().all(|d| d.rule != "lock-order"), "{diags:?}");
    }

    #[test]
    fn interprocedural_lock_edges_are_seen() {
        let diags = deep(&[(
            "crates/serve/src/locks.rs",
            "pub fn a(q: &M, r: &M) { let g = q.lock(); helper(r); use1(g) }\n\
             fn helper(r: &M) { let h = r.lock(); use1(h) }\n\
             pub fn b(q: &M, r: &M) { let h = r.lock(); let g = q.lock(); use2(g, h) }\n",
        )]);
        assert_eq!(
            diags.iter().filter(|d| d.rule == "lock-order").count(),
            1,
            "{diags:?}"
        );
    }

    #[test]
    fn shadowed_free_fn_lock_is_not_an_acquisition() {
        let diags = deep(&[(
            "crates/serve/src/locks.rs",
            "pub fn a(q: &M) { let g = lock(); let h = q.lock(); use2(g, h) }\n\
             fn lock() -> u8 { 0 }\n\
             pub fn b(q: &M) { let h = q.lock(); other(); use1(h) }\nfn other() {}\n",
        )]);
        assert!(diags.iter().all(|d| d.rule != "lock-order"), "{diags:?}");
    }

    #[test]
    fn unordered_reduction_and_ungated_fma_are_flagged() {
        let diags = deep(&[(
            "crates/tensor/src/ops.rs",
            "use std::collections::HashMap;\npub fn bad(m: &HashMap<u32, f32>, a: f32, b: f32, c: f32) -> f32 {\n    let s: f32 = m.values().sum();\n    s + a.mul_add(b, c)\n}\n",
        )]);
        let rules: Vec<&str> = diags
            .iter()
            .filter(|d| d.rule == "float-determinism")
            .map(|d| d.symbol.as_str())
            .collect();
        assert!(rules.contains(&"unordered-reduction"), "{diags:?}");
        assert!(rules.contains(&"fma"), "{diags:?}");
        assert!(rules.contains(&"hash-container"), "{diags:?}");
    }

    #[test]
    fn relaxed_needs_a_justification_comment() {
        let bad = deep(&[(
            "crates/obsv/src/m.rs",
            "pub fn inc(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n",
        )]);
        assert_eq!(
            bad.iter().filter(|d| d.rule == "atomic-ordering").count(),
            1,
            "{bad:?}"
        );
        let good = deep(&[(
            "crates/obsv/src/m.rs",
            "pub fn inc(c: &AtomicU64) {\n    // relaxed: monotonic counter, read only for reporting.\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
        )]);
        assert!(good.iter().all(|d| d.rule != "atomic-ordering"), "{good:?}");
        // Test code is exempt.
        let test_code = deep(&[(
            "crates/obsv/src/m.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n}\n",
        )]);
        assert!(test_code.iter().all(|d| d.rule != "atomic-ordering"));
    }

    #[test]
    fn fma_intrinsic_is_flagged_even_beside_an_opt_in_comment() {
        let fma_count = |diags: &[Diagnostic]| {
            diags
                .iter()
                .filter(|d| d.rule == "float-determinism" && d.symbol == "fma")
                .count()
        };
        let bare = deep(&[(
            "crates/tensor/src/simd.rs",
            "fn tile(av: __m256, b: __m256, acc: __m256) -> __m256 {\n    _mm256_fmadd_ps(av, b, acc)\n}\n",
        )]);
        assert_eq!(fma_count(&bare), 1, "{bare:?}");
        // No comment or flag check exempts a fused multiply-add.
        let commented = deep(&[(
            "crates/tensor/src/simd.rs",
            "fn tile(av: __m256, b: __m256, acc: __m256) -> __m256 {\n    // D2_FAST_MATH opt-in path: fused rounding is the point here.\n    _mm256_fmadd_ps(av, b, acc)\n}\n",
        )]);
        assert_eq!(fma_count(&commented), 1, "{commented:?}");
    }

    #[test]
    fn unsafe_outside_the_audited_module_is_flagged() {
        let diags = deep(&[(
            "crates/serve/src/server.rs",
            "pub fn f(p: *const f32) -> f32 {\n    // SAFETY: comments do not sanction the location.\n    unsafe { *p }\n}\n",
        )]);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.rule == "unsafe-audit" && d.symbol == "unsanctioned-unsafe")
                .count(),
            1,
            "{diags:?}"
        );
    }

    #[test]
    fn audited_unsafe_needs_a_safety_comment() {
        let bad = deep(&[(
            "crates/tensor/src/simd.rs",
            "pub fn f(p: *const f32) -> f32 {\n    unsafe { *p }\n}\n",
        )]);
        assert_eq!(
            bad.iter()
                .filter(|d| d.rule == "unsafe-audit" && d.symbol == "missing-safety-comment")
                .count(),
            1,
            "{bad:?}"
        );
        let good = deep(&[(
            "crates/tensor/src/simd.rs",
            "pub fn f(p: *const f32) -> f32 {\n    // SAFETY: caller guarantees `p` points at a live f32.\n    unsafe { *p }\n}\n",
        )]);
        assert!(
            good.iter().all(|d| d.rule != "unsafe-audit"),
            "justified unsafe flagged: {good:?}"
        );
        // A comment more than the window above does not count.
        let far_src = format!(
            "pub fn f(p: *const f32) -> f32 {{\n    // SAFETY: too far away.\n{}    unsafe {{ *p }}\n}}\n",
            "    let _x = 0;\n".repeat(9)
        );
        let far = deep(&[("crates/tensor/src/simd.rs", far_src.as_str())]);
        assert_eq!(
            far.iter().filter(|d| d.rule == "unsafe-audit").count(),
            1,
            "{far:?}"
        );
    }
}
