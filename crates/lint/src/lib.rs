//! # gkfs-lint — the workspace's lock-order and wire-bound analyzer
//!
//! A from-scratch static pass (hand-rolled lexer, no `syn`, no
//! external deps) that walks every `crates/*/src/**.rs` and enforces
//! the four rules no compiler lint can state:
//!
//! * GKL001 — nested lock acquisitions strictly descend the declared
//!   rank hierarchy within a function ([`rules`]);
//! * GKL006 — the same across call edges ([`callgraph`]);
//! * GKL002 — no blocking call while a ranked guard is held ([`rules`]);
//! * GKL008 — no allocation sized from unchecked wire data ([`taint`]).
//!
//! What else the workspace checks statically is declared to rustc and
//! clippy — crate-root `#![deny]`s, `[workspace.lints]`, `clippy.toml`,
//! `#[must_use]` (DESIGN.md "Static analysis"). DESIGN.md
//! ("Concurrency invariants & lock hierarchy") describes the declared
//! lock hierarchy the rank rules check against. The runtime half of the
//! story lives in `gkfs_common::lock` — this pass catches what it can
//! lexically at CI time; the ranked wrappers catch cross-function
//! nesting in debug-build tests.
//!
//! Configuration and waivers live in `lint.toml` at the workspace
//! root: `[locks]` maps guard receiver identifiers to ranks and
//! `allow = ["RULE@file:line"]` waives individual findings (e.g. the
//! WAL store syncing under its own log lock — that *is* the
//! group-commit design). The hierarchy itself is not configuration: it
//! is read from the `ranks!` table in `crates/common/src/lock.rs`, the
//! same rows the runtime checker is generated from.

pub mod callgraph;
pub mod config;
pub mod index;
pub mod lexer;
pub mod rules;
pub mod taint;

pub use config::Config;
pub use rules::{check_file, Diagnostic};

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// Result of a workspace run.
pub struct Outcome {
    /// Diagnostics that were not waived, ready to print.
    pub diagnostics: Vec<Diagnostic>,
    /// Waivers in `lint.toml` (or `--allow`) that matched nothing —
    /// stale entries that should be removed.
    pub unused_waivers: Vec<String>,
    /// Number of files scanned.
    pub files_checked: usize,
}

/// Scan `crates/*/src/**.rs` under `root`, applying `lint.toml` from
/// `root` if present plus `extra_allow` waivers. Phase 1 runs the
/// per-file rules and builds the workspace symbol index; phase 2 runs
/// the interprocedural rules (GKL006, GKL008) over it.
pub fn run_workspace(root: &Path, extra_allow: &[String]) -> Result<Outcome, String> {
    let mut cfg = match std::fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => Config::parse(&text).map_err(|e| format!("lint.toml: {e}"))?,
        Err(_) => Config::default(),
    };
    for a in extra_allow {
        cfg.allow.insert(a.clone());
    }
    if let Ok(src) = std::fs::read_to_string(root.join(LOCK_RS)) {
        cfg.ranks = declared_ranks(&lexer::lex(&src));
    }
    cfg.check_locks().map_err(|e| format!("lint.toml: {e} in {LOCK_RS}"))?;

    let files = workspace_files(root)?;
    let mut all: Vec<Diagnostic> = Vec::new();
    let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
    let mut sym = index::SymbolIndex::default();
    let mut lexed_files: Vec<(String, Vec<lexer::Tok>)> = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("{}: {e}", rel.display()))?;
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let toks = lexer::lex(&src);
        let report = rules::check_lexed(&rel_str, &toks, &cfg);
        all.extend(report.diagnostics);
        edges.extend(report.edges);
        sym.add_file(index::index_file(&rel_str, &toks, &cfg));
        lexed_files.push((rel_str, toks));
    }

    // Phase 2: interprocedural rules over the symbol index.
    all.extend(callgraph::check(&sym, &cfg));
    for (rel_str, toks) in &lexed_files {
        all.extend(taint::check_file(rel_str, toks, &sym));
    }

    // Nested fn bodies are walked both as themselves and as part of
    // their parent's range — collapse exact duplicates.
    let mut seen: BTreeSet<(String, String, u32, String)> = BTreeSet::new();
    all.retain(|d| seen.insert((d.rule.to_string(), d.file.clone(), d.line, d.message.clone())));

    // Workspace-wide acquisition-graph cycle report. With numeric
    // ranks every individually-legal edge descends, so a cycle here
    // means the per-site rule already fired somewhere — but report it
    // explicitly: a cycle is the actual deadlock shape.
    if let Some(cycle) = find_cycle(&edges) {
        all.push(Diagnostic {
            rule: "GKL001",
            file: "(workspace)".into(),
            line: 0,
            message: format!(
                "lock acquisition graph contains a cycle: {}",
                cycle.join(" → ")
            ),
        });
    }

    let mut used: BTreeSet<String> = BTreeSet::new();
    let diagnostics: Vec<Diagnostic> = all
        .into_iter()
        .filter(|d| {
            let key = d.waiver_key();
            if cfg.allow.contains(&key) {
                used.insert(key);
                false
            } else {
                true
            }
        })
        .collect();
    let unused_waivers: Vec<String> = cfg
        .allow
        .iter()
        .filter(|w| !used.contains(*w))
        .cloned()
        .collect();

    Ok(Outcome {
        diagnostics,
        unused_waivers,
        files_checked: files.len(),
    })
}

/// Where the lock hierarchy is declared, relative to the workspace root.
const LOCK_RS: &str = "crates/common/src/lock.rs";

/// The declared hierarchy: every `NAME = N;` row of the `ranks! { … }`
/// table in `lock.rs` (doc comments between rows are not tokens).
fn declared_ranks(toks: &[lexer::Tok]) -> HashMap<String, u16> {
    let is_table = |w: &[lexer::Tok]| {
        w[0].is_ident("ranks") && w[1].is_punct('!') && w[2].is_punct('{')
    };
    let Some(open) = toks.windows(3).position(is_table) else {
        return HashMap::new();
    };
    let rows = toks[open + 3..].chunks(4).map_while(|row| match row {
        [name, eq, rank, semi] if eq.is_punct('=') && semi.is_punct(';') => {
            Some((name.text.clone(), rank.text.replace('_', "").parse().ok()?))
        }
        _ => None,
    });
    rows.collect()
}

/// Every `crates/*/src/**.rs` under `root`, sorted for stable output.
fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e} (run from the workspace root or pass --root)", crates_dir.display()))?;
    let mut files = Vec::new();
    for entry in entries.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    let files = files
        .into_iter()
        .map(|f| {
            f.strip_prefix(root)
                .map(|p| p.to_path_buf())
                .unwrap_or(f)
        })
        .collect();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
    Ok(())
}

/// DFS cycle search over the rank-name acquisition graph.
fn find_cycle(edges: &BTreeSet<(String, String)>) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    // For each node, walk its reachable set looking for a path back.
    for &start in adj.keys() {
        let mut stack: Vec<Vec<&str>> = vec![vec![start]];
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        while let Some(path) = stack.pop() {
            let last = *path.last().expect("path never empty");
            for next in adj.get(last).map(|v| v.as_slice()).unwrap_or(&[]) {
                if *next == start {
                    let mut cycle: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                    cycle.push(start.to_string());
                    return Some(cycle);
                }
                if seen.insert(next) {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push(p);
                }
            }
        }
    }
    None
}

/// The `gkfs-lint` binary's entry point. Returns the process exit code:
/// 0 clean, 1 diagnostics (or, under `--deny-all`, stale waivers), 2
/// usage or I/O errors.
pub fn cli_main(args: &[String]) -> i32 {
    let mut root = PathBuf::from(".");
    let mut deny_all = false;
    let mut github = false;
    let mut extra_allow: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root needs a path"),
            },
            "--allow" => match it.next() {
                Some(w) => extra_allow.push(w.clone()),
                None => return usage("--allow needs RULE@file:line"),
            },
            "--deny-all" => deny_all = true,
            "--github" => github = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    match run_workspace(&root, &extra_allow) {
        Ok(outcome) => {
            for d in &outcome.diagnostics {
                if github {
                    // GitHub Actions workflow-command annotations:
                    // shown inline on the PR diff, no problem
                    // matcher registration needed.
                    println!(
                        "::error file={},line={}::[{}] {}",
                        d.file, d.line, d.rule, d.message
                    );
                } else {
                    println!("{d}");
                }
            }
            for w in &outcome.unused_waivers {
                let msg = format!("stale waiver `{w}` matches nothing — remove it");
                if github {
                    println!("::error file=lint.toml::{msg}");
                } else {
                    println!("lint.toml: {msg}");
                }
            }
            println!(
                "gkfs-lint: {} file(s), {} diagnostic(s), {} stale waiver(s)",
                outcome.files_checked,
                outcome.diagnostics.len(),
                outcome.unused_waivers.len()
            );
            let stale = !outcome.unused_waivers.is_empty();
            if !outcome.diagnostics.is_empty() || (deny_all && stale) {
                1
            } else {
                0
            }
        }
        Err(e) => {
            eprintln!("gkfs-lint: {e}");
            2
        }
    }
}

const USAGE: &str = "\
gkfs-lint — lock-order and wire-bound analyzer for the GekkoFS workspace

USAGE: gkfs-lint [--root DIR] [--deny-all] [--github] [--allow RULE@file:line]...

  --root DIR    workspace root (default: current directory)
  --deny-all    also fail on stale waivers in lint.toml
  --github      GitHub Actions ::error annotations instead of plain text
  --allow W     extra waiver, same syntax as lint.toml's allow list

Rules: GKL001 lock-rank order within a function · GKL006 rank descent
across call edges · GKL002 blocking call under a guard · GKL008
allocation sized from unchecked wire data.
The lock hierarchy is the `ranks!` table in crates/common/src/lock.rs.
unwrap/expect, wall clock in crates/sim, SAFETY comments, must-use
completions and narrowing casts are rustc's and clippy's (DESIGN.md
\"Static analysis\").

Exit codes: 0 clean · 1 diagnostics · 2 usage/config error.";

fn usage(err: &str) -> i32 {
    eprintln!("gkfs-lint: {err}\n{USAGE}");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_detection_finds_inversion() {
        let mut edges = BTreeSet::new();
        edges.insert(("A".to_string(), "B".to_string()));
        edges.insert(("B".to_string(), "C".to_string()));
        assert!(find_cycle(&edges).is_none());
        edges.insert(("C".to_string(), "A".to_string()));
        let cycle = find_cycle(&edges).expect("cycle");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() == 4);
    }

    #[test]
    fn hierarchy_is_read_from_the_ranks_table() {
        let src = "macro_rules! ranks { ($($n:ident = $r:literal;)*) => {}; }\n\
                   ranks! {\n    /// docs are comments\n    A_B = 1_000;\n    C = 36;\n}\n\
                   fn x() {}";
        let ranks = declared_ranks(&lexer::lex(src));
        assert_eq!(ranks.len(), 2);
        assert_eq!((ranks["A_B"], ranks["C"]), (1000, 36));
        assert!(declared_ranks(&lexer::lex("fn no_table() {}")).is_empty());
    }

    /// The real workspace: lock.rs declares every rank lint.toml names,
    /// so a renamed or deleted rank fails the run instead of silently
    /// un-ranking its locks.
    #[test]
    fn workspace_lint_toml_names_only_declared_ranks() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap();
        let mut cfg = Config::parse(&read("lint.toml")).unwrap();
        cfg.ranks = declared_ranks(&lexer::lex(&read(LOCK_RS)));
        assert!(cfg.ranks.len() >= 30, "parsed {} ranks", cfg.ranks.len());
        cfg.check_locks().unwrap();
        cfg.ranks.remove("KV_WAL_LOG");
        assert!(cfg.check_locks().unwrap_err().contains("KV_WAL_LOG"));
    }

    /// The real workspace: the rules that left this analyzer (GKL003,
    /// GKL004, GKL005, GKL007, GKL009) stay declared where rustc and
    /// clippy read them. `cargo test` runs neither clippy nor a check
    /// of these files, so a deleted declaration fails here instead of
    /// silently un-checking its rule.
    #[test]
    fn moved_rules_stay_declared() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap();
        let unwrap = "#![deny(clippy::unwrap_used, clippy::expect_used)]";
        let cast = "#![deny(clippy::cast_possible_truncation)]";
        let declared = [
            ("crates/rpc/src/lib.rs", unwrap),
            ("crates/daemon/src/lib.rs", unwrap),
            ("crates/daemon/src/bin/gkfs-daemon.rs", unwrap),
            ("crates/client/src/lib.rs", unwrap),
            ("crates/sim/clippy.toml", "{ path = \"std::time::Instant::now\""),
            ("crates/sim/clippy.toml", "{ path = \"std::time::SystemTime::now\""),
            ("Cargo.toml", "undocumented_unsafe_blocks = \"deny\""),
            ("Cargo.toml", "unused_must_use = \"deny\""),
            ("crates/rpc/src/lib.rs", cast),
            ("crates/storage/src/lib.rs", cast),
            ("crates/common/src/wire.rs", cast),
        ];
        for (file, decl) in declared {
            let found = read(file).lines().any(|l| l.trim_start().starts_with(decl));
            assert!(found, "{file} no longer declares `{decl}`");
        }
        let completions = [
            ("crates/rpc/src/transport/mod.rs", "pub struct ReplyHandle "),
            ("crates/client/src/rpc.rs", "pub struct ReplyFuture<"),
            ("crates/storage/src/lib.rs", "pub struct BatchCompletion "),
            ("crates/client/src/meta_frames.rs", "pub(crate) struct QuorumCall<"),
            ("crates/client/src/data.rs", "pub(crate) struct WriteInFlight<"),
        ];
        for (file, item) in completions {
            let src = read(file);
            let lines: Vec<&str> = src.lines().collect();
            let at = lines.iter().position(|l| l.starts_with(item));
            let at = at.unwrap_or_else(|| panic!("{file} no longer declares `{item}`"));
            assert!(at > 0 && lines[at - 1].starts_with("#[must_use"), "`{item}` is not #[must_use]");
        }
    }

    /// Two files, violating GKL001 (a mis-ordered acquisition), GKL006
    /// (an ascending call) and GKL008 (a wire-sized allocation).
    const FIX_COMMON: &str = r#"
pub struct L;
impl L {
    pub fn lock(&self) -> u32 { 0 }
}
pub struct S { pub hi: L, pub lo: L }

pub fn takes_high(s: &S) {
    let _g = s.hi.lock();
}

pub fn ascends(s: &S) {
    let _g = s.lo.lock();
    takes_high(s);
}

pub fn misordered(s: &S) {
    let _lo = s.lo.lock();
    let _hi = s.hi.lock();
}
"#;

    const FIX_RPC: &str = r#"
pub fn alloc_from_wire(d: &mut Decoder) -> Vec<u8> {
    let n = d.u32() as usize;
    Vec::with_capacity(n)
}
"#;

    /// End-to-end over a fixture workspace: the rank rules and the wire
    /// rule fire, and waiving exactly what fired yields a clean run with
    /// no stale waivers — the full lifecycle of a deliberate exception.
    #[test]
    fn interprocedural_rules_fire_and_waive_end_to_end() {
        let root =
            std::env::temp_dir().join(format!("gkfs-lint-fixture-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/fix/src")).unwrap();
        std::fs::create_dir_all(root.join("crates/rpc/src")).unwrap();
        std::fs::write(root.join("crates/fix/src/lib.rs"), FIX_COMMON).unwrap();
        std::fs::write(root.join("crates/rpc/src/wire_fix.rs"), FIX_RPC).unwrap();
        // The hierarchy comes from the fixture's lock.rs, as it does
        // for the real workspace; lint.toml only names the receivers.
        std::fs::create_dir_all(root.join("crates/common/src")).unwrap();
        let lock_rs = "ranks! {\n    /// Taken first.\n    HIGH = 100;\n    LOW = 50;\n}\n";
        std::fs::write(root.join(LOCK_RS), lock_rs).unwrap();
        let base = "[locks]\nhi = \"HIGH\"\nlo = \"LOW\"\n";
        std::fs::write(root.join("lint.toml"), base).unwrap();

        let out = run_workspace(&root, &[]).unwrap();
        let fired: Vec<String> = out
            .diagnostics
            .iter()
            .map(|d| format!("{}@{}:{}", d.rule, d.file, d.line))
            .collect();
        for rule in ["GKL001", "GKL006", "GKL008"] {
            assert!(
                out.diagnostics.iter().any(|d| d.rule == rule),
                "{rule} must fire on the fixture; got {fired:?}"
            );
        }

        // Waive exactly what fired; the rerun must be clean and every
        // waiver must count as used.
        let allow: BTreeSet<String> = out
            .diagnostics
            .iter()
            .map(|d| format!("    \"{}\",\n", d.waiver_key()))
            .collect();
        let allow: String = allow.into_iter().collect();
        std::fs::write(root.join("lint.toml"), format!("allow = [\n{allow}]\n\n{base}"))
            .unwrap();
        let out = run_workspace(&root, &[]).unwrap();
        let leftover: Vec<String> = out
            .diagnostics
            .iter()
            .map(|d| format!("{}@{}:{} {}", d.rule, d.file, d.line, d.message))
            .collect();
        assert!(leftover.is_empty(), "waived run must be clean: {leftover:?}");
        assert!(
            out.unused_waivers.is_empty(),
            "every waiver matched a finding: {:?}",
            out.unused_waivers
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
