//! The JSON `gkfs-bench pairs` reads: the ledger's result lines,
//! `BENCHMARK.json`, and the files it writes itself (no crate for it
//! resolves offline). Numbers are `f64`; strings take the escapes a
//! JSON writer emits.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, its members by name.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse one document; anything but whitespace after it is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        match p.i == p.s.len() {
            true => Ok(v),
            false => Err(format!("trailing input at byte {}", p.i)),
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array (else none).
    pub fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }
}

/// Compact JSON text, which [`Json::parse`] reads back as it was.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => f.write_str(&quote(s)),
            Json::Arr(a) => {
                let items: Vec<String> = a.iter().map(Json::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Json::Obj(m) => {
                let members: Vec<String> = m.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
                write!(f, "{{{}}}", members.join(", "))
            }
        }
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    /// Skip whitespace, then take `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let next = self.s.get(self.i) == Some(&c);
        self.i += usize::from(next);
        next
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.eat(c) {
            true => Ok(()),
            false => Err(format!("expected '{}' at byte {}", c as char, self.i)),
        }
    }

    /// The elements of an array or the members of an object, up to
    /// `close`: `item` parses each.
    fn list(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Result<(), String>) -> Result<(), String> {
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let rest = &self.s[self.i..];
        for (lit, v) in [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)] {
            if rest.starts_with(lit.as_bytes()) {
                self.i += lit.len();
                return Ok(v);
            }
        }
        match rest.first() {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.list(b'}', |p| {
                    p.ws();
                    let k = p.string()?;
                    p.expect(b':')?;
                    m.insert(k, p.value()?);
                    Ok(())
                })?;
                Ok(Json::Obj(m))
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.list(b']', |p| {
                    a.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(a))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) => {
                let start = self.i;
                let numeric = |c: &u8| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E');
                while self.s.get(self.i).is_some_and(numeric) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let c = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                            self.i += 4;
                        }
                        b'"' | b'\\' | b'/' => out.push(esc),
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line_and_reads_back_what_it_quotes() {
        let line = r#"{"correct": true, "failed": 0, "metrics": {"peak_rss_mib": {"value": 22.5, "unit": "MiB"}}, "n": [1, -2e3], "x": null}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let rss = v.get("metrics").and_then(|m| m.get("peak_rss_mib")).unwrap();
        assert_eq!(rss.get("value").and_then(Json::num), Some(22.5));
        assert_eq!(v.get("n").unwrap().arr(), &[Json::Num(1.0), Json::Num(-2000.0)]);
        assert_eq!(v.get("x"), Some(&Json::Null));
        let odd = "a \"quoted\" \\ line\n\u{1}";
        assert_eq!(Json::parse(&quote(odd)).unwrap().str(), Some(odd));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "written as it was read");
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
    }
}
