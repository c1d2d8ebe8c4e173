//! Phase 2, rule GKL007: completions must be consumed.
//!
//! A `BatchCompletion`/`ReplyHandle`/`ReplyFuture` (plus anything in
//! `lint.toml [completions] types`) that reaches end of scope without
//! an explicit `wait`/`recv`/`abandon` either blocks silently in its
//! `Drop` (the storage batch case — correct but invisible latency) or
//! strands a reply slot. Producers are found through the symbol index:
//! any fn whose return type mentions a completion type.
//!
//! The rule is deliberately lenient to stay `--deny-all`-clean:
//!
//! * flagged: `let _ = produce(..);`, a bare `produce(..);` statement,
//!   a binding that is *never mentioned again* in its scope, and a
//!   binding whose first later mention is `drop(name)` (a hidden
//!   blocking wait — spell it `abandon`/`wait` instead);
//! * consumed: anything else — chaining (`produce(..).wait()`),
//!   passing the value on, returning it, or any later mention of the
//!   binding. Data flow through fields or collections is out of scope.

use crate::config::Config;
use crate::index::SymbolIndex;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules::Diagnostic;

/// Run GKL007 over one file, using the workspace producer set.
pub fn check_file(rel_path: &str, lexed: &Lexed, sym: &SymbolIndex, cfg: &Config) -> Vec<Diagnostic> {
    let toks = &lexed.toks;
    let mut out = Vec::new();

    for f in sym.fns.iter().filter(|f| f.file == rel_path && !f.is_test) {
        let (start, end) = f.body;
        let end = end.min(toks.len());
        let mut depth: i32 = 0;
        let mut stmt_start = start;
        let mut i = start;
        while i < end {
            let t = &toks[i];
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{") => {
                    depth += 1;
                    stmt_start = i + 1;
                }
                (TokKind::Punct, "}") => {
                    depth -= 1;
                    stmt_start = i + 1;
                }
                (TokKind::Punct, ";") => stmt_start = i + 1,
                _ => {}
            }

            if t.kind == TokKind::Ident
                && sym.completion_producers.contains(&t.text)
                && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                && !prev_is(toks, i, "fn")
                && !prev_punct(toks, i, '!')
            {
                let close = match matching_paren(toks, i + 1, end) {
                    Some(c) => c,
                    None => {
                        i += 1;
                        continue;
                    }
                };
                // `?` is transparent: `produce(..)?` is still the value.
                let mut after = close + 1;
                while after < end && toks[after].is_punct('?') {
                    after += 1;
                }

                if let Some(d) = classify(
                    toks, stmt_start, i, after, end, depth, &t.text, t.line, rel_path, cfg,
                ) {
                    out.push(d);
                }
                // Fall through token-by-token so brace depth and
                // statement starts inside the argument list stay
                // tracked (closure args contain `{}`).
            }
            i += 1;
        }
    }
    out
}

/// Decide whether the producer call at `call` (statement starting at
/// `stmt_start`, value ending before `after`) leaks its completion.
#[allow(clippy::too_many_arguments)]
fn classify(
    toks: &[Tok],
    stmt_start: usize,
    call: usize,
    after: usize,
    body_end: usize,
    depth: i32,
    callee: &str,
    line: u32,
    file: &str,
    cfg: &Config,
) -> Option<Diagnostic> {
    let diag = |message: String| {
        Some(Diagnostic {
            rule: "GKL007",
            file: file.to_string(),
            line,
            message,
        })
    };

    // Chained immediately: `produce(..).wait()` or `produce(..).into()`
    // — the completion flows onward; consumed.
    if toks.get(after).map(|t| t.is_punct('.')).unwrap_or(false) {
        return None;
    }

    // A closure argument (`pool.submit(move || ..)`) marks a job-queue
    // submit, not a completion producer sharing the name — skip.
    let first_arg = toks.get(call + 2);
    if first_arg
        .map(|t| t.is_punct('|') || t.is_ident("move"))
        .unwrap_or(false)
    {
        return None;
    }

    let stmt = &toks[stmt_start..call];

    // `let _ = produce(..);` — explicit discard.
    if stmt.len() >= 3 && stmt[0].is_ident("let") && stmt[1].is_ident("_") && stmt[2].is_punct('=')
    {
        return diag(format!(
            "completion from `{callee}` is discarded with `let _` — call one of \
             {} or bind and consume it",
            consume_list(cfg)
        ));
    }

    // `let NAME = produce(..);` (or `let mut NAME`, `let NAME: T =`).
    if let Some(name) = simple_binding(stmt) {
        // Find the end of this statement, then scan the rest of the
        // enclosing block for a mention of the binding.
        let mut j = after;
        while j < body_end && !toks[j].is_punct(';') {
            j += 1;
        }
        let mut scan_depth = depth;
        let mut k = j + 1;
        while k < body_end {
            let t = &toks[k];
            if t.is_punct('{') {
                scan_depth += 1;
            } else if t.is_punct('}') {
                scan_depth -= 1;
                if scan_depth < depth {
                    break;
                }
            } else if t.is_ident(name) {
                // First later mention. `drop(name)` is a hidden
                // blocking wait, not a consume.
                if prev_punct(toks, k, '(') && prev_is(toks, k - 1, "drop") {
                    return diag(format!(
                        "completion `{name}` from `{callee}` is `drop`ped — that blocks \
                         silently in Drop; call one of {} instead",
                        consume_list(cfg)
                    ));
                }
                return None;
            }
            k += 1;
        }
        return diag(format!(
            "completion `{name}` from `{callee}` reaches end of scope unconsumed — \
             call one of {}",
            consume_list(cfg)
        ));
    }

    // Bare statement: `produce(..);` with the value at statement level
    // (not nested inside a larger expression) and nothing consuming it.
    let bare_stmt = toks.get(after).map(|t| t.is_punct(';')).unwrap_or(false)
        && !stmt.iter().any(|t| {
            t.is_ident("let") || t.is_ident("return") || t.is_punct('(') || t.is_punct('=')
        });
    if bare_stmt {
        return diag(format!(
            "completion from `{callee}` is dropped at the end of the statement — \
             call one of {} on the result",
            consume_list(cfg)
        ));
    }

    None
}

/// `let (mut)? NAME (: T)? =` → NAME; anything fancier (destructuring)
/// is treated as consumed.
fn simple_binding(stmt: &[Tok]) -> Option<&str> {
    if stmt.first().map(|t| t.is_ident("let")) != Some(true) {
        return None;
    }
    let mut i = 1;
    if stmt.get(i).map(|t| t.is_ident("mut")) == Some(true) {
        i += 1;
    }
    let name = stmt.get(i).filter(|t| t.kind == TokKind::Ident && t.text != "_")?;
    match stmt.get(i + 1) {
        Some(t) if t.is_punct('=') => Some(&name.text),
        Some(t) if t.is_punct(':') => Some(&name.text),
        _ => None,
    }
}

fn matching_paren(toks: &[Tok], open: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(end).skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

fn prev_is(toks: &[Tok], i: usize, s: &str) -> bool {
    i > 0 && toks[i - 1].is_ident(s)
}

fn prev_punct(toks: &[Tok], i: usize, c: char) -> bool {
    i > 0 && toks[i - 1].is_punct(c)
}

fn consume_list(cfg: &Config) -> String {
    let mut v: Vec<&str> = cfg.completion_consume.iter().map(|s| s.as_str()).collect();
    v.sort_unstable();
    v.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::index_file;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Diagnostic> {
        run_with(src, &Config::default())
    }

    fn run_with(src: &str, cfg: &Config) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let mut sym = SymbolIndex::default();
        sym.add_file(index_file("crates/x/src/lib.rs", &lexed, cfg));
        check_file("crates/x/src/lib.rs", &lexed, &sym, cfg)
    }

    const PRODUCER: &str = "fn produce(&self) -> BatchCompletion { x() }\n";

    #[test]
    fn unconsumed_binding_fires() {
        let d = run(&format!(
            "{PRODUCER}fn user(&self) {{ let c = produce(self); other_work(); }}"
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "GKL007");
        assert!(d[0].message.contains("`c`"));
    }

    #[test]
    fn let_underscore_fires() {
        let d = run(&format!("{PRODUCER}fn user(&self) {{ let _ = produce(self); }}"));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("let _"));
    }

    #[test]
    fn bare_statement_fires() {
        let d = run(&format!("{PRODUCER}fn user(&self) {{ produce(self); }}"));
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn drop_of_binding_fires() {
        let d = run(&format!(
            "{PRODUCER}fn user(&self) {{ let c = produce(self); drop(c); }}"
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("drop"));
    }

    #[test]
    fn waited_binding_is_clean() {
        let d = run(&format!(
            "{PRODUCER}fn user(&self) {{ let c = produce(self); c.wait(); }}"
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn immediate_chain_is_clean() {
        let d = run(&format!(
            "{PRODUCER}fn user(&self) {{ let out = produce(self).wait(); use_it(out); }}"
        ));
        assert!(d.is_empty(), "chained consume, `out` is no completion: {d:?}");
    }

    #[test]
    fn question_mark_then_chain_is_clean() {
        let d = run(&format!(
            "{PRODUCER}fn user(&self) -> Result<()> {{ let out = produce(self)?.wait()?; Ok(out) }}"
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn returning_the_completion_is_clean() {
        let d = run(&format!(
            "{PRODUCER}fn fwd(&self) -> BatchCompletion {{ produce(self) }}"
        ));
        assert!(d.is_empty(), "tail expression (no `;`) passes it on: {d:?}");
    }

    #[test]
    fn passing_as_argument_is_clean() {
        let d = run(&format!(
            "{PRODUCER}fn user(&self) {{ collect(produce(self)); }}"
        ));
        assert!(d.is_empty(), "nested in a call, the value flows on: {d:?}");
    }

    #[test]
    fn mention_in_nested_block_counts() {
        let d = run(&format!(
            "{PRODUCER}fn user(&self) {{ let c = produce(self); if ready() {{ c.abandon(); }} }}"
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn scope_ends_at_enclosing_block() {
        // `c` lives in the inner block; the mention afterwards is a
        // different variable.
        let d = run(&format!(
            "{PRODUCER}fn user(&self) {{ {{ let c = produce(self); }} let c = 1; touch(c); }}"
        ));
        assert_eq!(d.len(), 1, "inner `c` leaks: {d:?}");
    }

    #[test]
    fn test_fns_are_skipped() {
        let d = run(&format!(
            "{PRODUCER}#[test]\nfn t(&self) {{ let c = produce(self); }}"
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn closure_args_mark_job_submission_not_production() {
        let d = run(&format!(
            "{}fn user(&self) {{ pool.produce(move || work()); pool.produce(|| work()); }}",
            PRODUCER
        ));
        assert!(d.is_empty(), "job-queue submit sharing a producer name: {d:?}");
    }

    #[test]
    fn non_producers_are_ignored() {
        let d = run("fn plain(&self) -> u32 { 1 }\nfn user(&self) { let c = plain(self); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn the_clients_completions_are_registered_in_the_repository_config() {
        // `lint.toml` as checked in: a `QuorumCall` or a `WriteInFlight`
        // that reaches end of scope un-awaited fires, and the message
        // names the calls that consume one.
        let cfg = Config::parse(include_str!("../../../lint.toml")).unwrap();
        let producers = "fn quorum_submit<'a, T>(&self) -> QuorumCall<'a, T> { x() }\n\
                         fn submit_write<'a>(&self) -> Result<WriteInFlight<'a>> { x() }\n";
        let d = run_with(
            &format!(
                "{producers}fn user(&self) -> Result<()> {{ \
                 let call = self.quorum_submit(); let write = self.submit_write()?; other_work() }}"
            ),
            &cfg,
        );
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("`call`") && d[0].message.contains("quorum_wait"), "{d:?}");
        assert!(d[1].message.contains("`write`") && d[1].message.contains("finish_write"), "{d:?}");
        let d = run_with(
            &format!(
                "{producers}fn user(&self) -> Result<()> {{ \
                 let call = self.quorum_submit(); let write = self.submit_write()?; \
                 self.finish_write(write)?; self.quorum_wait(call, deadline) }}"
            ),
            &cfg,
        );
        assert!(d.is_empty(), "{d:?}");
        // Without the registration neither is a completion at all.
        let d = run(&format!("{producers}fn user(&self) {{ let call = self.quorum_submit(); }}"));
        assert!(d.is_empty(), "{d:?}");
    }
}
