//! Phase 2, rule GKL006: rank descent across call edges.
//!
//! GKL001 sees nested acquisitions inside one fn body; this rule sees
//! the same bug split across a call: a caller holding a ranked guard
//! invokes a fn that (possibly transitively) acquires an equal or
//! higher rank. The per-fn **may-acquire set** is computed as a
//! bounded fixpoint over the call graph — [`DEPTH`] propagation rounds,
//! so chains up to `DEPTH + 1` fns deep are seen — and every entry
//! remembers a witness chain so the diagnostic can show *how* the
//! callee reaches the lock.
//!
//! Precision limits (documented in DESIGN.md): calls resolve through
//! [`SymbolIndex::resolve_unique`], so a name defined more than once in
//! the workspace (trait methods with several impls, repeated helper
//! names) contributes no edge. That trades recall for a near-zero
//! false-positive rate, which is what lets `--deny-all` gate CI.

use crate::config::Config;
use crate::index::SymbolIndex;
use crate::rules::Diagnostic;
use std::collections::HashMap;

/// Propagation rounds for the may-acquire fixpoint (the issue's depth
/// bound): chains longer than this many call edges are not followed.
pub const DEPTH: usize = 4;

/// Method names that are overwhelmingly std collection/guard/fs calls
/// (`map.insert(..)`, `set.clear()`, `OpenOptions::create(true)`, …). A workspace fn sharing one of
/// these names would alias every such call site, so method calls with
/// these names never form a call edge; bare calls still resolve.
const STD_METHODS: &[&str] = &[
    "insert", "remove", "get", "get_mut", "clear", "push", "pop", "extend", "drain",
    "entry", "contains", "contains_key", "retain", "append", "take", "len", "is_empty",
    "iter", "keys", "values", "split_off", "truncate", "resize", "reserve", "push_back",
    "pop_front", "sort", "swap", "read", "write", "lock", "send", "recv", "wait", "next",
    "clone", "flush", "poll", "create",
];

/// Can this call site form an interprocedural edge?
fn resolvable(call: &crate::index::CallSite) -> bool {
    !(call.is_method && STD_METHODS.contains(&call.callee.as_str()))
}

/// One entry of a fn's may-acquire set: the rank it can take, with a
/// witness call chain (empty for a direct acquisition).
#[derive(Debug, Clone)]
struct MayAcq {
    rank: u16,
    line: u32,
    /// Call chain from the fn to the acquisition, callee names
    /// outermost first; empty means the fn acquires it directly.
    chain: Vec<String>,
}

/// rank name → witness, per fn (indexed like `SymbolIndex::fns`).
type MaySet = HashMap<String, MayAcq>;

fn may_acquire_sets(sym: &SymbolIndex) -> Vec<MaySet> {
    let mut sets: Vec<MaySet> = sym
        .fns
        .iter()
        .map(|f| {
            let mut s = MaySet::new();
            for a in &f.acquires {
                // Keep the first (outermost) direct acquisition per rank.
                s.entry(a.rank_name.clone()).or_insert(MayAcq {
                    rank: a.rank,
                    line: a.line,
                    chain: Vec::new(),
                });
            }
            s
        })
        .collect();

    // Resolve each call edge once.
    let edges: Vec<Vec<(usize, String)>> = sym
        .fns
        .iter()
        .map(|f| {
            let mut out = Vec::new();
            for c in &f.calls {
                if !resolvable(c) {
                    continue;
                }
                if let Some(def) = sym.resolve_unique(&c.callee) {
                    if let Some(id) = sym
                        .by_name
                        .get(&c.callee)
                        .and_then(|ids| ids.iter().find(|&&i| std::ptr::eq(&sym.fns[i], def)))
                    {
                        out.push((*id, c.callee.clone()));
                    }
                }
            }
            out
        })
        .collect();

    for _round in 0..DEPTH {
        let mut changed = false;
        for i in 0..sets.len() {
            let mut grown: Vec<(String, MayAcq)> = Vec::new();
            for (j, callee_name) in &edges[i] {
                for (rank_name, acq) in &sets[*j] {
                    if sets[i].contains_key(rank_name)
                        || grown.iter().any(|(n, _)| n == rank_name)
                    {
                        continue;
                    }
                    if acq.chain.len() >= DEPTH {
                        continue;
                    }
                    let mut chain = vec![callee_name.clone()];
                    chain.extend(acq.chain.iter().cloned());
                    grown.push((
                        rank_name.clone(),
                        MayAcq {
                            rank: acq.rank,
                            line: acq.line,
                            chain,
                        },
                    ));
                }
            }
            if !grown.is_empty() {
                changed = true;
                sets[i].extend(grown);
            }
        }
        if !changed {
            break;
        }
    }
    sets
}

/// Run GKL006 over the workspace index.
pub fn check(sym: &SymbolIndex, _cfg: &Config) -> Vec<Diagnostic> {
    let sets = may_acquire_sets(sym);
    let mut out = Vec::new();

    for f in &sym.fns {
        if f.is_test {
            continue;
        }
        for call in &f.calls {
            if call.held.is_empty() || !resolvable(call) {
                continue;
            }
            let Some(callee) = sym.resolve_unique(&call.callee) else {
                continue;
            };
            let callee_id = sym.by_name[&call.callee]
                .iter()
                .copied()
                .find(|&i| std::ptr::eq(&sym.fns[i], callee))
                .expect("resolved fn is indexed");
            // Worst offending entry: the highest callee rank that
            // equals or exceeds a held rank.
            let mut worst: Option<(&str, &MayAcq, &crate::rules::HeldLock)> = None;
            for (rank_name, acq) in &sets[callee_id] {
                // The call edge itself is one more hop: entries already
                // at the bound would make the effective chain DEPTH+1.
                if acq.chain.len() >= DEPTH {
                    continue;
                }
                for held in &call.held {
                    if acq.rank >= held.rank
                        && worst.map(|(_, w, _)| acq.rank > w.rank).unwrap_or(true)
                    {
                        worst = Some((rank_name, acq, held));
                    }
                }
            }
            if let Some((rank_name, acq, held)) = worst {
                let via = if acq.chain.is_empty() {
                    "directly".to_string()
                } else {
                    format!("via {}", acq.chain.join(" → "))
                };
                out.push(Diagnostic {
                    rule: "GKL006",
                    file: f.file.clone(),
                    line: call.line,
                    message: format!(
                        "call to `{}` may acquire `{}` (rank {}) {} while `{}` \
                         (`{}`, rank {}) is held — rank must strictly descend \
                         across call edges",
                        call.callee, rank_name, acq.rank, via, held.lock, held.rank_name, held.rank
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{index_file, SymbolIndex};
    use crate::lexer::lex;

    fn cfg() -> Config {
        let mut c = Config::default();
        c.ranks.insert("HIGH".into(), 200);
        c.ranks.insert("MID".into(), 100);
        c.ranks.insert("LOW".into(), 50);
        c.locks.insert("high_l".into(), "HIGH".into());
        c.locks.insert("mid_l".into(), "MID".into());
        c.locks.insert("low_l".into(), "LOW".into());
        c
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        let c = cfg();
        let mut sym = SymbolIndex::default();
        sym.add_file(index_file("crates/x/src/lib.rs", &lex(src), &c));
        check(&sym, &c)
    }

    #[test]
    fn ascending_rank_across_a_call_fires() {
        let d = run(
            "fn caller(&self) { let g = self.low_l.lock(); helper(self); }\n\
             fn helper(&self) { let h = self.high_l.lock(); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "GKL006");
        assert!(d[0].message.contains("`helper`"));
        assert!(d[0].message.contains("directly"));
    }

    #[test]
    fn descending_rank_across_a_call_is_fine() {
        let d = run(
            "fn caller(&self) { let g = self.high_l.lock(); helper(self); }\n\
             fn helper(&self) { let h = self.low_l.lock(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn transitive_chain_is_followed_with_witness() {
        let d = run(
            "fn caller(&self) { let g = self.mid_l.lock(); a(self); }\n\
             fn a(&self) { b(self); }\n\
             fn b(&self) { c(self); }\n\
             fn c(&self) { let h = self.high_l.lock(); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("via b → c"), "{}", d[0].message);
    }

    #[test]
    fn chains_beyond_the_depth_bound_are_dropped() {
        // caller → a → b → c → d → e(acquires): chain length 5 > DEPTH.
        let d = run(
            "fn caller(&self) { let g = self.mid_l.lock(); a(self); }\n\
             fn a(&self) { b(self); }\n\
             fn b(&self) { c(self); }\n\
             fn c(&self) { d(self); }\n\
             fn d(&self) { e(self); }\n\
             fn e(&self) { let h = self.high_l.lock(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn ambiguous_callee_names_contribute_no_edge() {
        let c = cfg();
        let mut sym = SymbolIndex::default();
        sym.add_file(index_file(
            "crates/x/src/lib.rs",
            &lex("fn caller(&self) { let g = self.low_l.lock(); dup(self); }\n\
                  fn dup(&self) { let h = self.high_l.lock(); }"),
            &c,
        ));
        sym.add_file(index_file(
            "crates/y/src/lib.rs",
            &lex("fn dup(&self) {}"),
            &c,
        ));
        assert!(check(&sym, &c).is_empty());
    }

    #[test]
    fn std_collection_method_names_form_no_edges() {
        // `map.insert(..)` under the guard is HashMap::insert, not the
        // workspace fn `insert`, even though the name resolves.
        let d = run(
            "fn caller(&self) { self.low_l.lock().insert(k, v); }\n\
             fn insert(&self) { let h = self.high_l.lock(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn bare_call_to_a_denied_name_still_resolves() {
        let d = run(
            "fn caller(&self) { let g = self.low_l.lock(); insert(self); }\n\
             fn insert(&self) { let h = self.high_l.lock(); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn equal_rank_reacquisition_fires() {
        let d = run(
            "fn caller(&self) { let g = self.mid_l.lock(); helper(self); }\n\
             fn helper(&self) { let h = self.mid_l.lock(); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("rank 100"));
    }

    #[test]
    fn calls_without_held_guards_are_ignored() {
        let d = run(
            "fn caller(&self) { { let g = self.low_l.lock(); } helper(self); }\n\
             fn helper(&self) { let h = self.high_l.lock(); }",
        );
        assert!(d.is_empty(), "guard dropped before the call: {d:?}");
    }

    #[test]
    fn test_callers_are_skipped() {
        let d = run(
            "#[test]\nfn caller_t(&self) { let g = self.low_l.lock(); helper(self); }\n\
             fn helper(&self) { let h = self.high_l.lock(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
