//! `lint.toml` parsing — a deliberately small TOML subset (no
//! external deps): `[section]` headers, `key = int`, `key = "string"`,
//! and `key = [ "..." , ... ]` arrays that may span lines. Comments
//! start with `#` outside strings.
//!
//! Recognized content:
//!
//! ```toml
//! # Waivers, checked as RULE@path:line.
//! allow = [
//!   "GKL002@crates/kvstore/src/blobstore.rs:140",
//! ]
//!
//! [locks]        # receiver identifier -> rank name
//! version = "KV_VERSION"
//! ```

use std::collections::{HashMap, HashSet};

/// Parsed lint configuration.
#[derive(Debug, Default)]
pub struct Config {
    /// Rank name → numeric rank (higher = acquired first). Not parsed
    /// from `lint.toml`: the workspace run fills it from the `ranks!`
    /// table in `crates/common/src/lock.rs`.
    pub ranks: HashMap<String, u16>,
    /// Lock receiver identifier → rank name.
    pub locks: HashMap<String, String>,
    /// Waivers in `RULE@path:line` form.
    pub allow: HashSet<String>,
}

impl Config {
    /// The numeric rank for a receiver identifier, with its rank name.
    pub fn rank_of(&self, receiver: &str) -> Option<(&str, u16)> {
        let name = self.locks.get(receiver)?;
        let rank = self.ranks.get(name)?;
        Some((name.as_str(), *rank))
    }

    /// Parse `lint.toml` content. Unknown sections and keys are
    /// ignored so the format can grow.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                let end = line
                    .find(']')
                    .ok_or_else(|| format!("line {}: unterminated section header", n + 1))?;
                section = line[1..end].trim().to_string();
                continue;
            }
            let eq = line
                .find('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", n + 1))?;
            let key = line[..eq].trim().to_string();
            let mut value = line[eq + 1..].trim().to_string();
            // An array may span lines: keep consuming until the
            // closing bracket (outside strings; our arrays hold only
            // simple waiver strings, which never contain brackets).
            if value.starts_with('[') {
                while !value.contains(']') {
                    match lines.next() {
                        Some((_, more)) => {
                            value.push(' ');
                            value.push_str(strip_comment(more).trim());
                        }
                        None => return Err(format!("line {}: unterminated array", n + 1)),
                    }
                }
            }
            match section.as_str() {
                "locks" => {
                    cfg.locks.insert(key, parse_string(&value, n + 1)?);
                }
                _ => {
                    if key == "allow" {
                        for s in parse_string_array(&value, n + 1)? {
                            cfg.allow.insert(s);
                        }
                    }
                }
            }
        }
        Ok(cfg)
    }

    /// Every `[locks]` entry must name a declared rank.
    pub fn check_locks(&self) -> Result<(), String> {
        match self.locks.iter().find(|(_, name)| !self.ranks.contains_key(*name)) {
            Some((recv, name)) => Err(format!("lock `{recv}` maps to undeclared rank `{name}`")),
            None => Ok(()),
        }
    }
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(v: &str, line: usize) -> Result<String, String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("line {line}: expected a quoted string, got `{v}`"))
    }
}

fn parse_string_array(v: &str, line: usize) -> Result<Vec<String>, String> {
    let v = v.trim();
    if !v.starts_with('[') || !v.ends_with(']') {
        return Err(format!("line {line}: expected an array of strings"));
    }
    let inner = &v[1..v.len() - 1];
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, line)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_arrays() {
        let mut cfg = Config::parse(
            r#"
# waivers
allow = [
  "GKL002@crates/a.rs:10", # trailing comment
  "GKL008@crates/b.rs:20",
]

[locks]
version = "KV_VERSION"
mem = "KV_MEMTABLE"
"#,
        )
        .unwrap();
        assert_eq!(cfg.locks["version"], "KV_VERSION");
        assert_eq!(cfg.rank_of("mem"), None, "no hierarchy loaded yet");
        cfg.ranks.insert("KV_MEMTABLE".into(), 104);
        assert_eq!(cfg.rank_of("mem"), Some(("KV_MEMTABLE", 104)));
        assert!(cfg.allow.contains("GKL002@crates/a.rs:10"));
        assert_eq!(cfg.allow.len(), 2);
        assert_eq!(cfg.rank_of("nope"), None);
    }

    #[test]
    fn undeclared_rank_is_an_error() {
        let mut cfg = Config::parse("[locks]\nx = \"NOPE\"\n").unwrap();
        assert!(cfg.check_locks().unwrap_err().contains("undeclared rank"));
        cfg.ranks.insert("NOPE".into(), 7);
        cfg.check_locks().unwrap();
    }

    #[test]
    fn empty_config_is_fine() {
        let cfg = Config::parse("").unwrap();
        assert!(cfg.ranks.is_empty() && cfg.locks.is_empty() && cfg.allow.is_empty());
    }
}
