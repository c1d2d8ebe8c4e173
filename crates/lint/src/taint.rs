//! Phase 2, rule GKL008: wire data must be bounded before it sizes an
//! allocation.
//!
//! A length decoded from a frame
//! (`d.u32()?`, `d.varint()?`, …) that flows into `with_capacity`,
//! `reserve`, or `vec![x; n]` without an intervening bound check lets
//! a 24-byte packet request a multi-gigabyte allocation. Taint starts
//! at `let n = …d.u32()?…` (the empty-argument `Decoder` getters —
//! `Encoder`'s same-named methods take a value, so they never match),
//! propagates through simple `let` rebinds, and dies at the first
//! statement that compares the value (`if n > MAX_… { … }`,
//! `n.min(..)`, `n.clamp(..)`, `try_from`, a `MAX_*` const, or
//! `d.remaining()`).

use crate::index::SymbolIndex;
use crate::lexer::{Tok, TokKind};
use crate::rules::Diagnostic;

/// Empty-argument `Decoder` getters — the taint sources.
const DECODE_GETTERS: &[&str] = &["u8", "u16", "u32", "u64", "i64", "varint"];

/// Run GKL008 over one file: a statement-linear taint walk over each
/// non-test fn body.
pub fn check_file(rel_path: &str, toks: &[Tok], sym: &SymbolIndex) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    for f in sym.fns.iter().filter(|f| f.file == rel_path && !f.is_test) {
        let (start, end) = f.body;
        let end = end.min(toks.len());

        // tainted name → source line.
        let mut tainted: Vec<(String, u32)> = Vec::new();
        for (s, e) in statements(toks, start, end) {
            let stmt = &toks[s..e];
            check_sinks(stmt, &tainted, rel_path, &mut out);

            let sanitizes = has_sanitizer(stmt);
            if sanitizes {
                tainted.retain(|(name, _)| !stmt.iter().any(|t| t.is_ident(name)));
            }
            if let Some((name, line)) = binding_of(stmt) {
                let rhs_decodes = has_decode_getter(stmt);
                let rhs_tainted = tainted
                    .iter()
                    .any(|(n, _)| stmt.iter().skip(1).any(|t| t.is_ident(n)));
                tainted.retain(|(n, _)| n != &name);
                if rhs_decodes || (rhs_tainted && !sanitizes) {
                    tainted.push((name, line));
                }
            }
        }
    }
    out
}

/// Split a body token range into statements: boundaries at `;` (outside
/// brackets — `vec![x; n]` stays whole), `{`, and `}`.
fn statements(toks: &[Tok], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut s = start;
    let mut bracket = 0i32;
    let mut paren = 0i32;
    #[allow(clippy::needless_range_loop)] // `i` is also a boundary index
    for i in start..end {
        let t = &toks[i];
        if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if (t.is_punct(';') && bracket == 0 && paren == 0)
            || t.is_punct('{')
            || t.is_punct('}')
        {
            if i > s {
                out.push((s, i));
            }
            s = i + 1;
            bracket = 0;
            paren = 0;
        }
    }
    if end > s {
        out.push((s, end));
    }
    out
}

/// `.u32()` / `.varint()` — a `Decoder` getter call with no argument.
fn has_decode_getter(stmt: &[Tok]) -> bool {
    stmt.windows(4).any(|w| {
        w[0].is_punct('.')
            && w[1].kind == TokKind::Ident
            && DECODE_GETTERS.contains(&w[1].text.as_str())
            && w[2].is_punct('(')
            && w[3].is_punct(')')
    })
}

/// Does this statement bound a value? Comparisons, `.min`/`.clamp`,
/// `try_from`/`try_into`, `MAX_*`/`MIN_*` consts, `remaining()`.
fn has_sanitizer(stmt: &[Tok]) -> bool {
    stmt.iter().enumerate().any(|(i, t)| {
        match t.kind {
            TokKind::Punct => {
                // `<` / `>` as comparisons — but not `->`, `=>`, `::<`,
                // or generic turbofish; requiring an adjacent ident or
                // literal operand filters the arrows.
                (t.is_punct('<') || t.is_punct('>'))
                    && i > 0
                    && matches!(stmt[i - 1].kind, TokKind::Ident | TokKind::Lit)
            }
            TokKind::Ident => {
                matches!(t.text.as_str(), "min" | "clamp" | "try_from" | "try_into" | "remaining")
                    || t.text.starts_with("MAX_")
                    || t.text.starts_with("MIN_")
            }
            _ => false,
        }
    })
}

/// `let (mut)? NAME (: T)? = …` → (NAME, line).
fn binding_of(stmt: &[Tok]) -> Option<(String, u32)> {
    if stmt.first().map(|t| t.is_ident("let")) != Some(true) {
        return None;
    }
    let mut i = 1;
    if stmt.get(i).map(|t| t.is_ident("mut")) == Some(true) {
        i += 1;
    }
    let name = stmt.get(i).filter(|t| t.kind == TokKind::Ident && t.text != "_")?;
    match stmt.get(i + 1) {
        Some(t) if t.is_punct('=') || t.is_punct(':') => Some((name.text.clone(), name.line)),
        _ => None,
    }
}

/// GKL008 sinks inside one statement.
fn check_sinks(
    stmt: &[Tok],
    tainted: &[(String, u32)],
    file: &str,
    out: &mut Vec<Diagnostic>,
) {
    let mut i = 0;
    while i < stmt.len() {
        let t = &stmt[i];
        // with_capacity(E) / reserve(E) / reserve_exact(E)
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "with_capacity" | "reserve" | "reserve_exact")
            && stmt.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        {
            if let Some(close) = matching(stmt, i + 1, '(', ')') {
                flag_sink(&stmt[i + 2..close], &t.text, t.line, tainted, file, out);
                i = close + 1;
                continue;
            }
        }
        // vec![x; E]
        if t.is_ident("vec")
            && stmt.get(i + 1).map(|n| n.is_punct('!')).unwrap_or(false)
            && stmt.get(i + 2).map(|n| n.is_punct('[')).unwrap_or(false)
        {
            if let Some(close) = matching(stmt, i + 2, '[', ']') {
                if let Some(semi) = (i + 3..close).find(|&j| stmt[j].is_punct(';')) {
                    flag_sink(&stmt[semi + 1..close], "vec![_; n]", t.line, tainted, file, out);
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
}

fn flag_sink(
    arg: &[Tok],
    sink: &str,
    line: u32,
    tainted: &[(String, u32)],
    file: &str,
    out: &mut Vec<Diagnostic>,
) {
    if has_sanitizer(arg) {
        return;
    }
    if let Some((name, src_line)) = tainted
        .iter()
        .find(|(n, _)| arg.iter().any(|t| t.is_ident(n)))
    {
        out.push(Diagnostic {
            rule: "GKL008",
            file: file.to_string(),
            line,
            message: format!(
                "`{sink}` sized by `{name}` decoded from the wire at line {src_line} \
                 without a bound check — compare against a MAX_* const or \
                 `remaining()` before allocating"
            ),
        });
    }
}

fn matching(toks: &[Tok], open: usize, o: char, c: char) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::index::index_file;
    use crate::lexer::lex;

    fn run_at(path: &str, src: &str) -> Vec<Diagnostic> {
        let toks = lex(src);
        let mut sym = SymbolIndex::default();
        sym.add_file(index_file(path, &toks, &Config::default()));
        check_file(path, &toks, &sym)
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        run_at("crates/kvstore/src/lib.rs", src)
    }

    // ---- GKL008 ----

    #[test]
    fn wire_sized_with_capacity_fires() {
        let d = run(
            "fn decode(d: &mut Decoder) { let n = d.u32()? as usize; \
             let mut v = Vec::with_capacity(n); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "GKL008");
        assert!(d[0].message.contains("`n`"));
    }

    #[test]
    fn wire_sized_vec_macro_fires() {
        let d = run("fn f(d: &mut Decoder) { let len = d.u64()?; let buf = vec![0u8; len]; }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("vec!"));
    }

    #[test]
    fn taint_propagates_through_rebind() {
        let d = run(
            "fn f(d: &mut Decoder) { let n = d.u32()?; let m = n as usize; \
             let v = Vec::with_capacity(m); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`m`"));
    }

    #[test]
    fn bound_check_kills_the_taint() {
        let d = run(
            "fn f(d: &mut Decoder) -> Result<()> { let n = d.u32()? as usize; \
             if n > MAX_ENTRIES { return Err(Error::Corruption); } \
             let v = Vec::with_capacity(n); Ok(()) }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn remaining_check_kills_the_taint() {
        let d = run(
            "fn f(d: &mut Decoder) -> Result<()> { let n = d.u32()? as usize; \
             if n > d.remaining() / 20 { return Err(Error::Corruption); } \
             let v = Vec::with_capacity(n); Ok(()) }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn min_clamp_in_the_sink_is_clean() {
        let d = run(
            "fn f(d: &mut Decoder) { let n = d.u32()? as usize; \
             let v = Vec::with_capacity(n.min(MAX_BATCH)); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn untainted_allocation_is_clean() {
        let d = run("fn f(cfg: &Config) { let v = Vec::with_capacity(cfg.entries); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn encoder_u32_with_argument_is_not_a_source() {
        let d = run("fn f(e: &mut Encoder, n: usize) { e.u32(n as u32); let v = Vec::with_capacity(n); }");
        assert!(d.is_empty(), "`u32(arg)` is the Encoder, not a source: {d:?}");
    }

    #[test]
    fn gkl008_skips_test_fns() {
        let d = run(
            "#[test]\nfn t() { let n = d.u32()?; let v = Vec::with_capacity(n); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    /// Every message's element count is read in one place — the
    /// generic `Vec<T>::get` in `gkfs_common::wire` — so that one site
    /// is the whole of what GKL008 still has to guard. The fixture is
    /// the real file: clean as written, flagged the moment its bound
    /// goes.
    #[test]
    fn the_one_wire_count_site_is_flagged_without_its_bound() {
        let path = "crates/common/src/wire.rs";
        let real = include_str!("../../common/src/wire.rs");
        let gkl008 = |src: &str| -> Vec<Diagnostic> {
            run_at(path, src).into_iter().filter(|d| d.rule == "GKL008").collect()
        };
        assert!(gkl008(real).is_empty(), "{:?}", gkl008(real));

        let start = real
            .find("if n > d.remaining() / T::MIN_LEN {")
            .expect("Vec<T>::get bounds its count by remaining() / T::MIN_LEN");
        let end = start + real[start..].find("\n        }\n").expect("end of the bound") + 10;
        let unbounded = format!("{}{}", &real[..start], &real[end..]);
        let d = gkl008(&unbounded);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`n`"), "{d:?}");
    }
}
