//! Phase 1: the workspace symbol index.
//!
//! One token pass per file (sharing the [`GuardTracker`] with the
//! per-file rules) collects, for every `fn` definition:
//!
//! * its name, location, and body token range,
//! * whether it is test code (inside a `#[test]`/`#[cfg(test)]` range),
//! * the ranked locks it acquires *directly* (receiver registered in
//!   `lint.toml [locks]`),
//! * every call site inside it, with the set of ranked guards held at
//!   that point (the interprocedural rules' anchor).
//!
//! [`SymbolIndex`] aggregates the per-file indexes and answers the
//! question phase 2 asks: *which definition can this bare call name
//! resolve to*.

use crate::config::Config;
use crate::lexer::{Tok, TokKind};
use crate::rules::{find_test_ranges, GuardTracker, HeldLock};
use std::collections::HashMap;

/// One direct ranked acquisition inside a fn body.
#[derive(Debug, Clone)]
pub struct AcqSite {
    pub lock: String,
    pub rank_name: String,
    pub rank: u16,
    pub line: u32,
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee identifier (last path segment / method name).
    pub callee: String,
    pub line: u32,
    /// `x.callee(...)` rather than `callee(...)` / `path::callee(...)`.
    pub is_method: bool,
    /// Ranked guards held when the call is made, outermost first.
    pub held: Vec<HeldLock>,
}

/// One `fn` definition with everything phase 2 needs.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    pub file: String,
    pub line: u32,
    /// Token range of the body: `[body_start, body_end)` brackets the
    /// `{ ... }` including both braces. Empty for bodyless trait fns.
    pub body: (usize, usize),
    pub is_test: bool,
    pub acquires: Vec<AcqSite>,
    pub calls: Vec<CallSite>,
}

/// Per-file slice of the index.
#[derive(Debug, Default)]
pub struct FileIndex {
    pub fns: Vec<FnDef>,
}

/// The workspace-wide symbol index.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    /// fn name → indices into `fns`.
    pub by_name: HashMap<String, Vec<usize>>,
    pub fns: Vec<FnDef>,
}

impl SymbolIndex {
    /// Fold one file's definitions in.
    pub fn add_file(&mut self, fi: FileIndex) {
        for f in fi.fns {
            self.by_name
                .entry(f.name.clone())
                .or_default()
                .push(self.fns.len());
            self.fns.push(f);
        }
    }

    /// Resolve a bare callee name to its unique non-test definition.
    /// Ambiguous names (trait fn + several impls, helpers repeated
    /// across crates) resolve to `None` — the documented precision
    /// limit: GKL006 only reasons through calls whose target is
    /// unambiguous workspace-wide.
    pub fn resolve_unique(&self, name: &str) -> Option<&FnDef> {
        let ids = self.by_name.get(name)?;
        let mut non_test = ids.iter().map(|&i| &self.fns[i]).filter(|f| !f.is_test);
        let first = non_test.next()?;
        if non_test.next().is_some() {
            return None;
        }
        Some(first)
    }
}

/// Track which fn body the cursor is inside (fns can nest via closures
/// holding fn items; a simple stack keeps attribution right).
struct OpenFn {
    def: FnDef,
    /// Brace depth at the body's `{`; the body closes when depth
    /// returns below it.
    open_depth: i32,
}

/// Build the per-file index. `rel_path` uses `/` separators.
pub fn index_file(rel_path: &str, toks: &[Tok], cfg: &Config) -> FileIndex {
    let tests = find_test_ranges(toks);
    let in_test = |i: usize| tests.iter().any(|&(s, e)| i >= s && i < e);

    let mut out = FileIndex::default();
    let mut tracker = GuardTracker::new();
    let mut stack: Vec<OpenFn> = Vec::new();
    let mut depth: i32 = 0;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];

        // Maintain a brace depth of our own (the tracker's is private
        // and advances inside observe()).
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => depth += 1,
            (TokKind::Punct, "}") => {
                depth -= 1;
                while let Some(top) = stack.last() {
                    if depth < top.open_depth {
                        let mut done = stack.pop().expect("stack nonempty").def;
                        done.body.1 = i + 1;
                        out.fns.push(done);
                    } else {
                        break;
                    }
                }
            }
            _ => {}
        }

        // fn definition: `fn NAME` (skip `fn` in fn-pointer types,
        // which has no name ident after it).
        if t.is_ident("fn") {
            if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                if let Some(body_start) = signature_end(toks, i + 2) {
                    stack.push(OpenFn {
                        def: FnDef {
                            name: name.text.clone(),
                            file: rel_path.to_string(),
                            line: name.line,
                            body: (body_start, body_start),
                            is_test: in_test(i),
                            acquires: Vec::new(),
                            calls: Vec::new(),
                        },
                        // The body's `{` hasn't been stepped over yet;
                        // it will take depth to open_depth.
                        open_depth: depth + 1,
                    });
                    // Jump the tracker and cursor to the body `{` so
                    // signature tokens (`where` bounds, defaults) never
                    // register as acquisitions or calls.
                    for j in i..body_start {
                        let _ = tracker.observe(toks, j, cfg);
                        match (toks[j].kind, toks[j].text.as_str()) {
                            (TokKind::Punct, "{") => depth += 1,
                            (TokKind::Punct, "}") => depth -= 1,
                            _ => {}
                        }
                    }
                    i = body_start;
                    continue;
                }
                // Bodyless (trait signature / extern): still record the
                // definition, so a trait method's name stays ambiguous
                // beside its implementations and forms no call edge.
                if let Some(sig_end) = bodyless_end(toks, i + 2) {
                    out.fns.push(FnDef {
                        name: name.text.clone(),
                        file: rel_path.to_string(),
                        line: name.line,
                        body: (sig_end, sig_end),
                        is_test: in_test(i),
                        acquires: Vec::new(),
                        calls: Vec::new(),
                    });
                    i = sig_end;
                    continue;
                }
            }
        }

        let acq = tracker.observe(toks, i, cfg);
        if let (Some(acq), Some(top)) = (acq, stack.last_mut()) {
            top.def.acquires.push(AcqSite {
                lock: acq.lock,
                rank_name: acq.rank_name,
                rank: acq.rank,
                line: acq.line,
            });
        }

        if let Some(top) = stack.last_mut() {
            // Call site: IDENT `(` that isn't a definition, macro
            // (`name!(`), or struct-ish construct. Method calls keep
            // their flag so phase 2 can be stricter about them.
            if t.kind == TokKind::Ident
                && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                && !is_keyword(&t.text)
            {
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let is_def = prev.map(|p| p.is_ident("fn")).unwrap_or(false);
                let is_macro = false; // `name!(` lexes as IDENT `!` `(` — prev check below
                let after_bang = prev.map(|p| p.is_punct('!')).unwrap_or(false);
                if !is_def && !is_macro && !after_bang {
                    let is_method = prev.map(|p| p.is_punct('.')).unwrap_or(false);
                    // `recv.lock()` on a `[locks]`-registered receiver
                    // is an acquisition (the tracker's business), not a
                    // call edge — a workspace fn named `lock`/`read`/
                    // `write` would otherwise alias it.
                    if is_method
                        && matches!(t.text.as_str(), "lock" | "read" | "write")
                        && i >= 2
                        && toks[i - 2].kind == TokKind::Ident
                        && cfg.locks.contains_key(&toks[i - 2].text)
                    {
                        i += 1;
                        continue;
                    }
                    top.def.calls.push(CallSite {
                        callee: t.text.clone(),
                        line: t.line,
                        is_method,
                        held: tracker.held(),
                    });
                }
            }
        }

        i += 1;
    }

    // Unterminated bodies (lexer saw unbalanced braces): close at EOF.
    while let Some(mut open) = stack.pop() {
        open.def.body.1 = toks.len();
        out.fns.push(open.def);
    }
    out
}

/// For a fn whose name sits at `start-1`: the index of the body `{`
/// that ends its signature. Returns `None` when the item has no body
/// (trait signature).
fn signature_end(toks: &[Tok], start: usize) -> Option<usize> {
    let mut j = start;
    let mut paren = 0i32;
    let mut angle = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            // `->` lexes as `-` `>`: don't count the arrow's `>`.
            let arrow = j > 0 && toks[j - 1].is_punct('-');
            if !arrow && angle > 0 {
                angle -= 1;
            }
        } else if paren == 0 && t.is_punct('{') {
            return Some(j);
        } else if paren == 0 && angle <= 0 && t.is_punct(';') {
            return None;
        }
        j += 1;
    }
    None
}

/// End index (past the `;`) of a bodyless fn signature.
fn bodyless_end(toks: &[Tok], start: usize) -> Option<usize> {
    let mut j = start;
    let mut paren = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if paren == 0 && t.is_punct(';') {
            return Some(j + 1);
        } else if paren == 0 && t.is_punct('{') {
            return None;
        }
        j += 1;
    }
    None
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "match"
            | "for"
            | "loop"
            | "return"
            | "fn"
            | "let"
            | "mut"
            | "pub"
            | "impl"
            | "struct"
            | "enum"
            | "trait"
            | "mod"
            | "use"
            | "unsafe"
            | "move"
            | "as"
            | "in"
            | "where"
            | "else"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
            | "Box"
            | "Vec"
            | "String"
            | "Arc"
            | "Rc"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn cfg() -> Config {
        let mut c = Config::default();
        c.ranks.insert("HIGH".into(), 200);
        c.ranks.insert("LOW".into(), 50);
        c.locks.insert("outer".into(), "HIGH".into());
        c.locks.insert("leaf".into(), "LOW".into());
        c
    }

    fn index(src: &str) -> FileIndex {
        index_file("crates/x/src/lib.rs", &lex(src), &cfg())
    }

    #[test]
    fn fn_defs_and_acquisitions_are_indexed() {
        let fi = index(
            "fn a(&self) { let g = self.outer.lock(); helper(); }\n\
             fn helper() { let l = self.leaf.lock(); }",
        );
        assert_eq!(fi.fns.len(), 2);
        let a = &fi.fns.iter().find(|f| f.name == "a").unwrap();
        assert_eq!(a.acquires.len(), 1);
        assert_eq!(a.acquires[0].rank_name, "HIGH");
        let call = a.calls.iter().find(|c| c.callee == "helper").unwrap();
        assert!(!call.is_method);
        assert_eq!(call.held.len(), 1, "guard held at the call site");
        assert_eq!(call.held[0].rank, 200);
        let h = &fi.fns.iter().find(|f| f.name == "helper").unwrap();
        assert_eq!(h.acquires[0].rank_name, "LOW");
        assert!(h.calls.iter().all(|c| c.callee != "lock"), "ranked acquisitions are not calls");
    }

    #[test]
    fn method_calls_are_flagged() {
        let fi = index("fn a(&self) { self.b(1); c(); }");
        let a = &fi.fns[0];
        let b = a.calls.iter().find(|c| c.callee == "b").unwrap();
        assert!(b.is_method);
        let c = a.calls.iter().find(|c| c.callee == "c").unwrap();
        assert!(!c.is_method);
    }

    #[test]
    fn bodyless_trait_fns_are_defined() {
        let fi = index(
            "trait T { fn r(&self) -> u32; }\n\
             impl T for X { fn r(&self) -> u32 { 0 } }",
        );
        assert_eq!(fi.fns.iter().filter(|f| f.name == "r").count(), 2);
    }

    #[test]
    fn test_code_is_marked() {
        let fi = index("#[test]\nfn t() { x(); }\nfn real() { y(); }");
        let t = fi.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.is_test);
        let r = fi.fns.iter().find(|f| f.name == "real").unwrap();
        assert!(!r.is_test);
    }

    #[test]
    fn macros_are_not_calls() {
        let fi = index("fn f() { format!(\"x\"); assert!(true); real(); }");
        let f = &fi.fns[0];
        assert!(f.calls.iter().any(|c| c.callee == "real"));
        assert!(f.calls.iter().all(|c| c.callee != "format" && c.callee != "assert"));
    }

    #[test]
    fn nested_fns_attribute_to_the_inner_def() {
        let fi = index("fn outer_fn() { fn inner() { q(); } p(); }");
        let o = fi.fns.iter().find(|f| f.name == "outer_fn").unwrap();
        let i = fi.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(o.calls.iter().any(|c| c.callee == "p"));
        assert!(o.calls.iter().all(|c| c.callee != "q"));
        assert!(i.calls.iter().any(|c| c.callee == "q"));
    }

    #[test]
    fn resolve_unique_rejects_ambiguity() {
        let mut sym = SymbolIndex::default();
        sym.add_file(index("fn once_only() {}\nfn twice() {}\n"));
        sym.add_file(index_file(
            "crates/y/src/lib.rs",
            &lex("fn twice() {}"),
            &cfg(),
        ));
        assert!(sym.resolve_unique("once_only").is_some());
        assert!(sym.resolve_unique("twice").is_none());
        assert!(sym.resolve_unique("absent").is_none());
    }
}
