//! The per-file rules, evaluated over the token stream of one file.
//!
//! | rule   | checks |
//! |--------|--------|
//! | GKL001 | nested lock acquisition must strictly descend the declared rank hierarchy |
//! | GKL002 | no blocking call (fsync/sync/sleep/join/bare recv/WAL append) inside a held guard scope |
//!
//! The workspace's other two rules, GKL006 and GKL008, need the symbol
//! index ([`crate::callgraph`], [`crate::taint`]).
//!
//! Guard scopes are tracked *lexically* and intraprocedurally: a guard
//! produced by `.lock()`, `.read()` or `.write()` (empty argument
//! lists — which excludes `io::Read::read(&mut buf)` and friends) on a
//! receiver registered in `lint.toml`'s `[locks]` table is considered
//! held until its binding is dropped, its block closes, or — for
//! statement temporaries — its statement ends. Temporaries in `if
//! let`/`while let`/`match`/`for` headers extend through the
//! construct's body, mirroring Rust's temporary-scope rules (this is
//! exactly the gotcha that turns `while let Some(x) =
//! lock.read().first() { ... }` into a guard held across the body).
//! Nesting that spans function boundaries is the runtime checker's job
//! (`gkfs_common::lock`).

use crate::config::Config;
use crate::lexer::{lex, Tok, TokKind};

/// One finding, formatted as `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Diagnostic {
    /// The waiver key for this diagnostic: `RULE@file:line`.
    pub fn waiver_key(&self) -> String {
        format!("{}@{}:{}", self.rule, self.file, self.line)
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Calls considered blocking under a held guard (GKL002). `join` and
/// `recv` count only with empty argument lists: `handle.join()` blocks
/// but `parts.join(",")` is string joining, and `recv()` blocks where
/// `recv_timeout(..)` is a different identifier altogether. Condvar
/// `wait`/`wait_for` are deliberately absent — they release the lock
/// while blocked.
const BLOCKING: &[&str] = &[
    "sync_all",
    "sync_data",
    "fsync",
    "sleep",
    "join",
    "recv",
    "append_log",
    "sync_log",
    "rotate_log",
];

/// How a tracked guard dies.
#[derive(PartialEq, Debug, Clone, Copy)]
enum Mode {
    /// Let-bound: dies when its block closes (or on `drop`/rebind).
    Block,
    /// `if let`/`while let`/`match`/`for` header temporary: lives
    /// through the construct's body.
    HeaderTemp,
    /// Plain `if`/`while` condition temporary: dies at the `{`.
    CondTemp,
    /// Statement temporary: dies at the next `;` at its depth.
    Stmt,
}

struct Guard {
    binding: Option<String>,
    lock: String,
    rank_name: String,
    rank: u16,
    line: u32,
    depth: i32,
    mode: Mode,
    /// For HeaderTemp: the construct's block has opened.
    opened: bool,
}

/// One lock currently held, as seen by a rule or the symbol index.
#[derive(Debug, Clone)]
pub struct HeldLock {
    pub lock: String,
    pub rank_name: String,
    pub rank: u16,
    pub line: u32,
}

/// A ranked acquisition just observed: what was acquired plus the
/// guards that were already held when it happened.
pub(crate) struct AcqEvent {
    pub lock: String,
    pub rank_name: String,
    pub rank: u16,
    pub line: u32,
    pub held_before: Vec<HeldLock>,
}

/// The lexical guard-scope state machine shared by the per-file rules
/// (GKL001/GKL002) and the symbol index (held-rank context at call
/// sites). Feed it every token in order via [`GuardTracker::observe`];
/// it handles scope opens/closes, `drop(binding)`, header temporaries,
/// and ranked acquisitions, and reports each acquisition as an
/// [`AcqEvent`].
pub(crate) struct GuardTracker {
    guards: Vec<Guard>,
    depth: i32,
    // extends_through_body, set at an `if`/`while`/`match`/`for` keyword
    pending_header: Option<bool>,
}

impl GuardTracker {
    pub fn new() -> GuardTracker {
        GuardTracker {
            guards: Vec::new(),
            depth: 0,
            pending_header: None,
        }
    }

    /// Everything currently held, outermost first.
    pub fn held(&self) -> Vec<HeldLock> {
        self.guards
            .iter()
            .map(|g| HeldLock {
                lock: g.lock.clone(),
                rank_name: g.rank_name.clone(),
                rank: g.rank,
                line: g.line,
            })
            .collect()
    }

    /// The innermost held guard, if any.
    pub fn held_top(&self) -> Option<HeldLock> {
        self.guards.last().map(|g| HeldLock {
            lock: g.lock.clone(),
            rank_name: g.rank_name.clone(),
            rank: g.rank,
            line: g.line,
        })
    }

    pub fn holding(&self) -> bool {
        !self.guards.is_empty()
    }

    /// Process token `i`: scope bookkeeping plus acquisition detection.
    /// Returns the acquisition event when token `i` is the `.` of a
    /// ranked `.lock()`/`.read()`/`.write()`.
    pub fn observe(&mut self, toks: &[Tok], i: usize, cfg: &Config) -> Option<AcqEvent> {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                self.depth += 1;
                if self.pending_header.take().is_some() {
                    for g in &mut self.guards {
                        if !g.opened && g.mode == Mode::HeaderTemp {
                            g.opened = true;
                        }
                    }
                    self.guards.retain(|g| g.mode != Mode::CondTemp || g.opened);
                }
            }
            (TokKind::Punct, "}") => {
                self.depth -= 1;
                let depth = self.depth;
                self.guards.retain(|g| {
                    let block_dead = g.mode == Mode::Block && g.depth > depth;
                    let header_dead =
                        g.mode == Mode::HeaderTemp && g.opened && depth <= g.depth;
                    let stranded = g.depth > depth; // safety net for any mode
                    !(block_dead || header_dead || stranded)
                });
            }
            (TokKind::Punct, ";") => {
                let depth = self.depth;
                self.guards
                    .retain(|g| !(g.mode == Mode::Stmt && g.depth == depth));
                self.pending_header = None; // e.g. `for` inside a generic bound never got a block
            }
            (TokKind::Ident, "if") | (TokKind::Ident, "while") => {
                let extends = toks.get(i + 1).map(|n| n.is_ident("let")).unwrap_or(false);
                self.pending_header = Some(extends);
            }
            (TokKind::Ident, "match") | (TokKind::Ident, "for") => {
                self.pending_header = Some(true);
            }
            (TokKind::Ident, "drop")
                if toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false) =>
            {
                if let Some(name) = toks.get(i + 2).filter(|n| n.kind == TokKind::Ident) {
                    if toks.get(i + 3).map(|n| n.is_punct(')')).unwrap_or(false) {
                        self.guards
                            .retain(|g| g.binding.as_deref() != Some(&name.text));
                    }
                }
            }
            _ => {}
        }

        let acq = match_acquisition(toks, i, cfg)?;
        let held_before = self.held();
        // Determine how this guard lives.
        let after = i + 4; // past `. name ( )`
        let ends_stmt = toks.get(after).map(|n| n.is_punct(';')).unwrap_or(false);
        let (binding, mode) = if ends_stmt {
            match stmt_binding(toks, i) {
                Some(Binding::Let(name)) => (Some(name), Mode::Block),
                Some(Binding::Reassign(name)) => {
                    self.guards.retain(|g| g.binding.as_deref() != Some(&name));
                    (Some(name), Mode::Block)
                }
                None => (None, temp_mode(self.pending_header)),
            }
        } else {
            (None, temp_mode(self.pending_header))
        };
        let line = toks[i].line;
        self.guards.push(Guard {
            binding,
            lock: acq.lock.clone(),
            rank_name: acq.rank_name.clone(),
            rank: acq.rank,
            line,
            depth: self.depth,
            mode,
            opened: false,
        });
        Some(AcqEvent {
            lock: acq.lock,
            rank_name: acq.rank_name,
            rank: acq.rank,
            line,
            held_before,
        })
    }
}

/// Result of checking one file: diagnostics plus the acquisition-order
/// edges (`held rank name → acquired rank name`) observed, for the
/// workspace-wide cycle report.
pub struct FileReport {
    pub diagnostics: Vec<Diagnostic>,
    pub edges: Vec<(String, String)>,
}

/// Run every applicable per-file rule over one file (lexes `src`).
pub fn check_file(rel_path: &str, src: &str, cfg: &Config) -> FileReport {
    check_lexed(rel_path, &lex(src), cfg)
}

/// Run every applicable per-file rule over an already-lexed file — the
/// workspace driver lexes once and shares tokens with the index pass.
pub fn check_lexed(rel_path: &str, toks: &[Tok], cfg: &Config) -> FileReport {
    let skip = find_test_ranges(toks);

    let mut out = FileReport {
        diagnostics: Vec::new(),
        edges: Vec::new(),
    };
    let mut tracker = GuardTracker::new();

    let mut i = 0usize;
    let mut skip_idx = 0usize;
    while i < toks.len() {
        if skip_idx < skip.len() && i == skip.get(skip_idx).map(|r| r.0).unwrap_or(usize::MAX) {
            i = skip[skip_idx].1;
            skip_idx += 1;
            continue;
        }
        let t = &toks[i];
        let acq = tracker.observe(toks, i, cfg);

        // GKL002: blocking call while a guard is held.
        if t.kind == TokKind::Ident
            && BLOCKING.contains(&t.text.as_str())
            && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && !(i > 0 && toks[i - 1].is_ident("fn"))
            && tracker.holding()
        {
            let needs_empty = t.text == "join" || t.text == "recv";
            let empty = toks.get(i + 2).map(|n| n.is_punct(')')).unwrap_or(false);
            if !needs_empty || empty {
                let held = tracker.held_top().expect("guards nonempty");
                out.diagnostics.push(Diagnostic {
                    rule: "GKL002",
                    file: rel_path.to_string(),
                    line: t.line,
                    message: format!(
                        "blocking call `{}` while holding `{}` ({}={}, acquired line {})",
                        t.text, held.lock, held.rank_name, held.rank, held.line
                    ),
                });
            }
        }

        // GKL001: lock acquisition — strictly descending ranks.
        if let Some(acq) = acq {
            for g in &acq.held_before {
                out.edges.push((g.rank_name.clone(), acq.rank_name.clone()));
                if g.rank <= acq.rank {
                    out.diagnostics.push(Diagnostic {
                        rule: "GKL001",
                        file: rel_path.to_string(),
                        line: acq.line,
                        message: format!(
                            "acquiring `{}` ({}={}) while holding `{}` ({}={}, acquired line {}) — \
                             ranks must strictly descend",
                            acq.lock, acq.rank_name, acq.rank, g.lock, g.rank_name, g.rank, g.line
                        ),
                    });
                }
            }
        }

        i += 1;
    }
    out
}

fn temp_mode(pending_header: Option<bool>) -> Mode {
    match pending_header {
        Some(true) => Mode::HeaderTemp,
        Some(false) => Mode::CondTemp,
        None => Mode::Stmt,
    }
}

struct Acq {
    lock: String,
    rank_name: String,
    rank: u16,
}

/// Does the token at `i` start `. lock()` / `. read()` / `. write()`
/// (empty argument list) on a receiver registered in `[locks]`?
fn match_acquisition(toks: &[Tok], i: usize, cfg: &Config) -> Option<Acq> {
    if !toks[i].is_punct('.') {
        return None;
    }
    let m = toks.get(i + 1)?;
    if !(m.is_ident("lock") || m.is_ident("read") || m.is_ident("write")) {
        return None;
    }
    if !toks.get(i + 2)?.is_punct('(') || !toks.get(i + 3)?.is_punct(')') {
        return None;
    }
    let recv = receiver_name(toks, i)?;
    let (rank_name, rank) = cfg.rank_of(&recv)?;
    Some(Acq {
        lock: recv,
        rank_name: rank_name.to_string(),
        rank,
    })
}

/// The receiver identifier of the call whose `.` is at `i`: the ident
/// just before the dot, or — when the receiver is itself a call like
/// `self.shard(path)` — the callee's name.
fn receiver_name(toks: &[Tok], i: usize) -> Option<String> {
    if i == 0 {
        return None;
    }
    let prev = &toks[i - 1];
    if prev.kind == TokKind::Ident {
        return Some(prev.text.clone());
    }
    if prev.is_punct(')') {
        // Walk back over the matched parens, then take the ident
        // before the `(`.
        let mut bal = 1i32;
        let mut j = i - 1;
        while bal > 0 && j > 0 {
            j -= 1;
            if toks[j].is_punct(')') {
                bal += 1;
            } else if toks[j].is_punct('(') {
                bal -= 1;
            }
        }
        if bal == 0 && j > 0 && toks[j - 1].kind == TokKind::Ident {
            return Some(toks[j - 1].text.clone());
        }
    }
    None
}

enum Binding {
    Let(String),
    Reassign(String),
}

/// For an acquisition ending its statement, find the binding pattern
/// at the start of the statement: `let [mut] NAME = …` or `NAME = …`.
fn stmt_binding(toks: &[Tok], acq_dot: usize) -> Option<Binding> {
    // Scan back to the statement start.
    let mut s = acq_dot;
    while s > 0 {
        let t = &toks[s - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        s -= 1;
    }
    let first = toks.get(s)?;
    if first.is_ident("let") {
        let mut n = s + 1;
        if toks.get(n).map(|t| t.is_ident("mut")).unwrap_or(false) {
            n += 1;
        }
        let name = toks.get(n).filter(|t| t.kind == TokKind::Ident)?;
        // The next token must introduce `=` directly or via a type
        // ascription; anything else (tuple/struct patterns) is not a
        // guard binding.
        let next = toks.get(n + 1)?;
        if next.is_punct('=') || next.is_punct(':') {
            return Some(Binding::Let(name.text.clone()));
        }
        return None;
    }
    if first.kind == TokKind::Ident
        && toks.get(s + 1).map(|t| t.is_punct('=')).unwrap_or(false)
        && !toks.get(s + 2).map(|t| t.is_punct('=')).unwrap_or(false)
    {
        return Some(Binding::Reassign(first.text.clone()));
    }
    None
}

/// Token index ranges `[start, end)` covering `#[test]` functions and
/// `#[cfg(test)]` items (plus any attribute mentioning `test` without
/// `not`, e.g. `#[cfg(all(test, …))]`), which every rule skips.
pub(crate) fn find_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).map(|t| t.is_punct('[')).unwrap_or(false) {
            let mut j = i + 2;
            let mut bal = 1i32;
            let mut has_test = false;
            let mut has_not = false;
            while j < toks.len() && bal > 0 {
                if toks[j].is_punct('[') {
                    bal += 1;
                } else if toks[j].is_punct(']') {
                    bal -= 1;
                } else if toks[j].is_ident("test") {
                    has_test = true;
                } else if toks[j].is_ident("not") {
                    has_not = true;
                }
                j += 1;
            }
            if has_test && !has_not {
                // Skip to the end of the annotated item: a `;` before
                // any `{`, or the matching `}` of the first `{`.
                let mut k = j;
                while k < toks.len() {
                    if toks[k].is_punct(';') {
                        k += 1;
                        break;
                    }
                    if toks[k].is_punct('{') {
                        let mut b = 1i32;
                        k += 1;
                        while k < toks.len() && b > 0 {
                            if toks[k].is_punct('{') {
                                b += 1;
                            } else if toks[k].is_punct('}') {
                                b -= 1;
                            }
                            k += 1;
                        }
                        break;
                    }
                    k += 1;
                }
                ranges.push((i, k));
                i = k;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn cfg() -> Config {
        let mut ranks = HashMap::new();
        ranks.insert("HIGH".to_string(), 200u16);
        ranks.insert("MID".to_string(), 100u16);
        ranks.insert("LOW".to_string(), 50u16);
        let mut locks = HashMap::new();
        locks.insert("outer".to_string(), "HIGH".to_string());
        locks.insert("inner".to_string(), "MID".to_string());
        locks.insert("leaf".to_string(), "LOW".to_string());
        Config {
            ranks,
            locks,
            allow: HashSet::new(),
        }
    }

    fn rules(src: &str) -> Vec<Diagnostic> {
        check_file("crates/x/src/lib.rs", src, &cfg()).diagnostics
    }

    // ---- GKL001 ----

    #[test]
    fn gkl001_fires_on_ascending_ranks() {
        let d = rules("fn f(&self) { let a = self.inner.lock(); let b = self.outer.lock(); }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "GKL001");
        assert!(d[0].message.contains("outer"));
    }

    #[test]
    fn gkl001_clean_on_descending_ranks() {
        let d = rules("fn f(&self) { let a = self.outer.lock(); let b = self.inner.read(); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn gkl001_equal_rank_fires() {
        let d = rules("fn f(&self) { let a = self.inner.lock(); let b = self.inner.lock(); }");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn gkl001_drop_releases() {
        let d = rules(
            "fn f(&self) { let a = self.inner.lock(); drop(a); let b = self.outer.lock(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn gkl001_block_scope_releases() {
        let d = rules("fn f(&self) { { let a = self.inner.lock(); } let b = self.outer.lock(); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn gkl001_statement_temp_releases_at_semicolon() {
        let d = rules("fn f(&self) { self.inner.lock().push(1); let b = self.outer.lock(); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn gkl001_while_let_temp_extends_through_body() {
        // The classic gotcha: the scrutinee guard lives through the
        // body, so the inner acquisition nests under it.
        let d = rules(
            "fn f(&self) { while let Some(x) = self.inner.read().first() { \
             let g = self.outer.lock(); } }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "GKL001");
    }

    #[test]
    fn gkl001_plain_if_condition_temp_dies_at_block() {
        let d = rules(
            "fn f(&self) { if self.inner.read().is_empty() { let g = self.outer.lock(); } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn gkl001_reassignment_tracks_new_guard() {
        let d = rules(
            "fn f(&self) { let mut g = self.inner.lock(); drop(g); \
             g = self.inner.lock(); let h = self.leaf.lock(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn gkl001_method_receiver_via_parens() {
        let d = rules("fn f(&self) { let a = self.leaf.lock(); let b = self.inner(0).write(); }");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn gkl001_unknown_receiver_is_ignored() {
        let d = rules("fn f(&self) { let a = self.mystery.lock(); let b = self.outer.lock(); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn gkl001_io_read_with_args_is_not_a_lock() {
        let d = rules("fn f(&self) { let a = self.outer.lock(); inner.read(&mut buf); }");
        assert!(d.is_empty(), "{d:?}");
    }

    // ---- GKL002 ----

    #[test]
    fn gkl002_fires_on_sync_under_guard() {
        let d = rules("fn f(&self) { let g = self.inner.lock(); file.sync_data(); }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "GKL002");
    }

    #[test]
    fn gkl002_fires_on_join_in_header_temp() {
        let d = rules(
            "fn f(&self) { if let Some(t) = self.inner.lock().take() { let _ = t.join(); } }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "GKL002");
    }

    #[test]
    fn gkl002_clean_after_guard_dropped() {
        let d = rules("fn f(&self) { let g = self.inner.lock(); drop(g); file.sync_data(); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn gkl002_string_join_with_args_is_fine() {
        let d = rules("fn f(&self) { let g = self.inner.lock(); let s = parts.join(sep); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn gkl002_recv_timeout_is_fine() {
        let d = rules("fn f(&self) { let g = self.inner.lock(); rx.recv_timeout(d); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn guards_in_test_code_are_skipped() {
        let d = rules(
            "#[cfg(test)] mod tests { fn f(&self) { let g = self.inner.lock(); f.sync_data(); } }\n\
             #[test]\nfn t(&self) { let a = self.leaf.lock(); let b = self.outer.lock(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    // ---- edges ----

    #[test]
    fn edges_are_reported_for_nested_acquisition() {
        let r = check_file(
            "crates/x/src/lib.rs",
            "fn f(&self) { let a = self.outer.lock(); let b = self.inner.lock(); }",
            &cfg(),
        );
        assert_eq!(r.edges, vec![("HIGH".to_string(), "MID".to_string())]);
    }
}
