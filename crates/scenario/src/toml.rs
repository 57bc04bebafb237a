//! A practical TOML subset — parser and serializer over [`Value`].
//!
//! Supports everything the scenario specs use: bare/quoted keys,
//! `key = value` pairs, `[table]` and `[[array-of-tables]]` headers,
//! strings with escapes, integers (with `_` separators), floats,
//! booleans, (possibly multi-line) arrays, inline tables, and `#`
//! comments. Not supported (and not needed here): dotted keys, dates,
//! multi-line strings, and preserving key order (tables sort their keys).

use crate::value::{Value, MAX_NESTING};
use std::collections::BTreeMap;
use std::fmt;

/// Parse error with a 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    /// 1-based line where parsing failed.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl TomlError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        TomlError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TOML parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TomlError {}

/// Parses a TOML document into a [`Value::Table`].
pub fn parse(text: &str) -> Result<Value, TomlError> {
    Parser::new(text).document()
}

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    /// Arrays and inline tables currently open.
    depth: usize,
    _text: &'a str,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            chars: text.chars().collect(),
            pos: 0,
            line: 1,
            depth: 0,
            _text: text,
        }
    }

    fn err(&self, message: impl Into<String>) -> TomlError {
        TomlError::new(self.line, message)
    }

    /// Opens one more array or inline table, refusing input nested
    /// deeper than [`MAX_NESTING`].
    fn descend(&mut self) -> Result<(), TomlError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.err(format!(
                "arrays and inline tables nest deeper than {MAX_NESTING} levels"
            )));
        }
        Ok(())
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Skips spaces/tabs and comments, NOT newlines.
    fn skip_inline_ws(&mut self) {
        while let Some(c) = self.peek() {
            match c {
                ' ' | '\t' | '\r' => {
                    self.bump();
                }
                '#' => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    /// Skips all whitespace including newlines and comments.
    fn skip_ws(&mut self) {
        loop {
            self.skip_inline_ws();
            if self.peek() == Some('\n') {
                self.bump();
            } else {
                break;
            }
        }
    }

    fn expect_line_end(&mut self) -> Result<(), TomlError> {
        self.skip_inline_ws();
        match self.peek() {
            None => Ok(()),
            Some('\n') => {
                self.bump();
                Ok(())
            }
            Some(c) => Err(self.err(format!("expected end of line, found `{c}`"))),
        }
    }

    fn document(&mut self) -> Result<Value, TomlError> {
        let mut root = BTreeMap::new();
        // Path of the table currently receiving keys; empty = root.
        let mut current: Vec<String> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => break,
                Some('[') => {
                    self.bump();
                    let array_of_tables = self.peek() == Some('[');
                    if array_of_tables {
                        self.bump();
                    }
                    let path = self.key_path(']')?;
                    if self.bump() != Some(']') {
                        return Err(self.err("expected `]`"));
                    }
                    if array_of_tables && self.bump() != Some(']') {
                        return Err(self.err("expected `]]`"));
                    }
                    self.expect_line_end()?;
                    if array_of_tables {
                        push_array_table(&mut root, &path).map_err(|m| self.err(m))?;
                    } else {
                        ensure_table(&mut root, &path).map_err(|m| self.err(m))?;
                    }
                    current = path;
                }
                Some(_) => {
                    let key = self.key()?;
                    self.skip_inline_ws();
                    if self.bump() != Some('=') {
                        return Err(self.err(format!("expected `=` after key `{key}`")));
                    }
                    self.skip_inline_ws();
                    let value = self.value()?;
                    self.expect_line_end()?;
                    let table = resolve_mut(&mut root, &current).map_err(|m| self.err(m))?;
                    if table.insert(key.clone(), value).is_some() {
                        return Err(self.err(format!("duplicate key `{key}`")));
                    }
                }
            }
        }
        Ok(Value::Table(root))
    }

    /// A dotted path of keys, terminated by `stop` (not consumed).
    fn key_path(&mut self, stop: char) -> Result<Vec<String>, TomlError> {
        let mut path = Vec::new();
        loop {
            self.skip_inline_ws();
            path.push(self.key()?);
            if path.len() > MAX_NESTING {
                return Err(self.err(format!(
                    "table header nests deeper than {MAX_NESTING} levels"
                )));
            }
            self.skip_inline_ws();
            match self.peek() {
                Some('.') => {
                    self.bump();
                }
                Some(c) if c == stop => break,
                other => {
                    return Err(self.err(format!("unexpected {other:?} in table header")));
                }
            }
        }
        Ok(path)
    }

    fn key(&mut self) -> Result<String, TomlError> {
        match self.peek() {
            Some('"') => self.string(),
            Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-' => {
                let mut s = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                        s.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(s)
            }
            other => Err(self.err(format!("expected key, found {other:?}"))),
        }
    }

    fn string(&mut self) -> Result<String, TomlError> {
        if self.bump() != Some('"') {
            return Err(self.err("expected `\"`"));
        }
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => break,
                Some('\\') => match self.bump() {
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('r') => s.push('\r'),
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('u') => {
                        let mut code = String::new();
                        for _ in 0..4 {
                            code.push(self.bump().ok_or_else(|| self.err("bad \\u escape"))?);
                        }
                        let n = u32::from_str_radix(&code, 16)
                            .map_err(|_| self.err(format!("bad \\u escape `{code}`")))?;
                        s.push(char::from_u32(n).ok_or_else(|| self.err("bad \\u code point"))?);
                    }
                    other => return Err(self.err(format!("bad escape {other:?}"))),
                },
                Some(c) => s.push(c),
            }
        }
        Ok(s)
    }

    fn value(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('[') => self.array(),
            Some('{') => self.inline_table(),
            Some('t') | Some('f') => self.boolean(),
            Some(c) if c == '+' || c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(self.err(format!("expected value, found {other:?}"))),
        }
    }

    fn boolean(&mut self) -> Result<Value, TomlError> {
        let mut word = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphabetic() {
                word.push(c);
                self.bump();
            } else {
                break;
            }
        }
        match word.as_str() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            other => Err(self.err(format!("expected boolean, found `{other}`"))),
        }
    }

    fn number(&mut self) -> Result<Value, TomlError> {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, '+' | '-' | '.' | 'e' | 'E' | '_') {
                if c != '_' {
                    text.push(c);
                }
                self.bump();
            } else {
                break;
            }
        }
        if text.contains('.') || text.contains('e') || text.contains('E') {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("invalid float `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err(format!("invalid integer `{text}`")))
        }
    }

    fn array(&mut self) -> Result<Value, TomlError> {
        if self.bump() != Some('[') {
            return Err(self.err("expected `[`"));
        }
        self.descend()?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(']') {
                self.bump();
                break;
            }
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {}
                other => return Err(self.err(format!("expected `,` or `]`, found {other:?}"))),
            }
        }
        self.depth -= 1;
        Ok(Value::Array(items))
    }

    fn inline_table(&mut self) -> Result<Value, TomlError> {
        if self.bump() != Some('{') {
            return Err(self.err("expected `{`"));
        }
        self.descend()?;
        let mut map = BTreeMap::new();
        loop {
            self.skip_inline_ws();
            if self.peek() == Some('}') {
                self.bump();
                break;
            }
            let key = self.key()?;
            self.skip_inline_ws();
            if self.bump() != Some('=') {
                return Err(self.err("expected `=` in inline table"));
            }
            self.skip_inline_ws();
            let value = self.value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(self.err(format!("duplicate key `{key}` in inline table")));
            }
            self.skip_inline_ws();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some('}') => {}
                other => return Err(self.err(format!("expected `,` or `}}`, found {other:?}"))),
            }
        }
        self.depth -= 1;
        Ok(Value::Table(map))
    }
}

type Table = BTreeMap<String, Value>;

/// Walks (creating as needed) to the table at `path`.
fn ensure_table<'t>(root: &'t mut Table, path: &[String]) -> Result<&'t mut Table, String> {
    let mut cur = root;
    for key in path {
        let entry = cur
            .entry(key.clone())
            .or_insert_with(|| Value::Table(BTreeMap::new()));
        cur = match entry {
            Value::Table(map) => map,
            Value::Array(items) => match items.last_mut() {
                Some(Value::Table(map)) => map,
                _ => return Err(format!("`{key}` is not a table")),
            },
            _ => return Err(format!("`{key}` is not a table")),
        };
    }
    Ok(cur)
}

/// Appends a fresh table to the array-of-tables at `path`.
fn push_array_table(root: &mut Table, path: &[String]) -> Result<(), String> {
    let (last, parents) = path.split_last().expect("non-empty header path");
    let parent = ensure_table(root, parents)?;
    let entry = parent
        .entry(last.clone())
        .or_insert_with(|| Value::Array(Vec::new()));
    match entry {
        Value::Array(items) => {
            items.push(Value::Table(BTreeMap::new()));
            Ok(())
        }
        _ => Err(format!("`{last}` is not an array of tables")),
    }
}

/// Resolves the table at `path` for key insertion (must already exist).
fn resolve_mut<'t>(root: &'t mut Table, path: &[String]) -> Result<&'t mut Table, String> {
    ensure_table(root, path)
}

/// Serializes a [`Value::Table`] as a TOML document.
///
/// Layout: scalar and scalar-array keys first (in sorted order), then
/// `[sub.table]` sections, then `[[array.of.tables]]` sections. Guaranteed
/// to round-trip through [`parse`] for values produced by the spec
/// encoders (no heterogeneous arrays mixing tables and scalars).
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    let table = match value {
        Value::Table(map) => map,
        other => panic!("TOML document must be a table, got {}", other.type_name()),
    };
    write_table(&mut out, table, &mut Vec::new());
    out
}

fn is_table_array(v: &Value) -> bool {
    matches!(v, Value::Array(items) if !items.is_empty() && items.iter().all(|x| matches!(x, Value::Table(_))))
}

fn write_table(out: &mut String, table: &Table, path: &mut Vec<String>) {
    // 1. Plain key/value pairs.
    for (key, v) in table {
        match v {
            Value::Table(_) => {}
            v if is_table_array(v) => {}
            v => {
                out.push_str(&format!("{} = {}\n", key_str(key), scalar(v)));
            }
        }
    }
    // 2. Sub-tables.
    for (key, v) in table {
        if let Value::Table(sub) = v {
            path.push(key.clone());
            out.push_str(&format!("\n[{}]\n", path_str(path)));
            write_table(out, sub, path);
            path.pop();
        }
    }
    // 3. Arrays of tables.
    for (key, v) in table {
        if is_table_array(v) {
            if let Value::Array(items) = v {
                for item in items {
                    if let Value::Table(sub) = item {
                        path.push(key.clone());
                        out.push_str(&format!("\n[[{}]]\n", path_str(path)));
                        write_table(out, sub, path);
                        path.pop();
                    }
                }
            }
        }
    }
}

fn key_str(key: &str) -> String {
    let bare = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        key.to_string()
    } else {
        format!("\"{}\"", escape(key))
    }
}

fn path_str(path: &[String]) -> String {
    path.iter()
        .map(|k| key_str(k))
        .collect::<Vec<_>>()
        .join(".")
}

fn scalar(v: &Value) -> String {
    match v {
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(x) => float_str(*x),
        Value::Str(s) => format!("\"{}\"", escape(s)),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(scalar).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Table(map) => {
            // Inline table (only reachable for tables nested inside arrays
            // of scalars, which the spec encoders do not produce — kept for
            // completeness).
            let inner: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("{} = {}", key_str(k), scalar(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

/// Shortest round-trip decimal for `x`; integral floats keep a `.0` so
/// they re-parse as floats.
pub fn float_str(x: f64) -> String {
    if x.is_finite() && x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = r#"
# a scenario
name = "probe"
count = 1_000
ratio = 0.25
flag = true

[region]
kind = "square"
side = 2.0

[[events]]
round = 10
ids = [1, 2, 3]

[[events]]
round = 20
center = [0.5, 0.5]
"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("probe"));
        assert_eq!(v.get("count").unwrap().as_i64(), Some(1000));
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("flag").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("region").unwrap().get("side").unwrap().as_f64(),
            Some(2.0)
        );
        let events = v.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("round").unwrap().as_i64(), Some(10));
        assert_eq!(events[1].get("round").unwrap().as_i64(), Some(20));
    }

    #[test]
    fn multiline_arrays_and_inline_tables() {
        let doc =
            "pts = [\n  [0.0, 0.0],\n  [1.0, 0.5], # comment\n]\nmeta = { a = 1, b = \"x\" }\n";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("pts").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("meta").unwrap().get("a").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn nested_table_headers() {
        let doc = "[a.b]\nx = 1\n[a.c]\ny = 2\n";
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("a")
                .unwrap()
                .get("b")
                .unwrap()
                .get("x")
                .unwrap()
                .as_i64(),
            Some(1)
        );
        assert_eq!(
            v.get("a")
                .unwrap()
                .get("c")
                .unwrap()
                .get("y")
                .unwrap()
                .as_i64(),
            Some(2)
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("ok = 1\nbad =\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse("dup = 1\ndup = 2\n").is_err());
    }

    #[test]
    fn serializer_round_trips() {
        let doc = r#"
name = "rt"
ratio = 0.5
n = 7
tags = ["a", "b"]

[sub]
flag = false
pt = [1.0, 2.5]

[[items]]
id = 1

[[items]]
id = 2
"#;
        let v = parse(doc).unwrap();
        let text = to_string(&v);
        let reparsed = parse(&text).unwrap();
        assert_eq!(v, reparsed, "serialized:\n{text}");
    }

    #[test]
    fn integral_floats_stay_floats() {
        assert_eq!(float_str(2.0), "2.0");
        assert_eq!(float_str(0.5), "0.5");
        let v = parse("x = 2.0\n").unwrap();
        assert_eq!(v.get("x"), Some(&Value::Float(2.0)));
        let rt = parse(&to_string(&v)).unwrap();
        assert_eq!(v, rt);
    }
}
