//! Minimal JSON value, reader and writer for the gate artifacts.
//!
//! The workspace is offline (no serde). The reader is a small
//! recursive-descent parser over the full JSON grammar; the committed
//! `BENCH_*.json` files it reads are external bytes, so nesting is
//! bounded ([`MAX_DEPTH`]) and every malformed input is an `Err`, never a
//! panic. The writer ([`Json::write`]) is the only place report JSON is
//! spelled: commas, escapes and layout live here and nowhere else.

use std::fmt::Write as _;

/// Deepest container nesting [`Json::parse`] accepts. The gate's own
/// documents nest four deep; the bound keeps hostile input (a megabyte
/// of `[`) from overflowing the stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    /// Parses one container body with the nesting depth charged.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (`pos` only ever
                    // advances by whole characters, so it is a boundary).
                    let rest = self
                        .text
                        .get(self.pos..)
                        .ok_or("offset inside a character")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array of strings.
    pub fn strs<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> Json {
        Json::Arr(
            items
                .into_iter()
                .map(|s| Json::Str(s.as_ref().to_string()))
                .collect(),
        )
    }

    /// Serializes the value. Numbers print in their shortest
    /// round-trip form (non-finite ones as `null`). Layout keeps diffs
    /// reviewable: a container whose members are scalars — or, for an
    /// object, flat arrays — stays on one line (a table row, a check),
    /// everything above it gets one member per line, and the top-level
    /// arrays always do.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn height(&self) -> usize {
        match self {
            Json::Arr(items) => 1 + items.iter().map(Json::height).max().unwrap_or(0),
            Json::Obj(members) => 1 + members.iter().map(|(_, v)| v.height()).max().unwrap_or(0),
            _ => 0,
        }
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        let members: Vec<(Option<&str>, &Json)> = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => return out.push_str(&x.to_string()),
            Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(members) => members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        let is_obj = matches!(self, Json::Obj(_));
        let inline = self.height() <= 1 + is_obj as usize && (is_obj || depth != 1);
        let newline = |out: &mut String, depth: usize| {
            if !inline {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
        };
        out.push(if is_obj { '{' } else { '[' });
        for (n, (key, v)) in members.iter().enumerate() {
            if n > 0 {
                out.push_str(if inline { ", " } else { "," });
            }
            newline(out, depth + 1);
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(": ");
            }
            v.write_into(out, depth + 1);
        }
        if !members.is_empty() {
            newline(out, depth);
        }
        out.push(if is_obj { '}' } else { ']' });
    }
}

/// Writes `s` as a JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_the_bench_document_shape() {
        let doc = r#"{
          "bench": "executor_scaling",
          "case": {"scale": 0.16, "nz": 16, "steps": 3},
          "rows": [
            {"mode": "static-tiles", "cached_kernels": false, "workers": 1, "steps_per_s": 4.09},
            {"mode": "work-stealing", "cached_kernels": true, "workers": 8, "steps_per_s": 29.91}
          ],
          "speedup": {"4": 2.377}
        }"#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("bench").unwrap().as_str(), Some("executor_scaling"));
        assert_eq!(
            j.get("case").unwrap().get("scale").unwrap().as_f64(),
            Some(0.16)
        );
        let rows = j.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("workers").unwrap().as_f64(), Some(8.0));
        assert_eq!(
            rows[0].get("cached_kernels").unwrap().as_bool(),
            Some(false)
        );
        assert_eq!(
            j.get("speedup").unwrap().get("4").unwrap().as_f64(),
            Some(2.377)
        );
    }

    #[test]
    fn parses_scalars_escapes_and_rejects_garbage() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(
            Json::parse(r#""a\"b\nA""#).unwrap().as_str(),
            Some("a\"b\nA")
        );
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("12 34").is_err());
        assert_eq!(Json::Str("a\"\\\n".into()).write(), "\"a\\\"\\\\\\n\"\n");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(Json::parse("[ ]").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // The hostile shape: 200 000 unclosed brackets used to abort the
        // process; objects recurse through the same bound.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn writer_layout_is_one_row_per_line() {
        let doc = Json::obj([
            ("gate", Json::Str("x".into())),
            ("case", Json::obj([("ranks", Json::Num(4.0))])),
            (
                "tables",
                Json::obj([(
                    "rows",
                    Json::Arr(vec![
                        Json::obj([("a", Json::Num(1.5)), ("r", Json::strs(["p", "q"]))]),
                        Json::obj([("a", Json::Num(f64::NAN)), ("r", Json::Arr(vec![]))]),
                    ]),
                )]),
            ),
            ("violations", Json::strs(["v1", "v2"])),
            ("empty", Json::Arr(vec![])),
        ]);
        let want = r#"{
  "gate": "x",
  "case": {"ranks": 4},
  "tables": {
    "rows": [
      {"a": 1.5, "r": ["p", "q"]},
      {"a": null, "r": []}
    ]
  },
  "violations": [
    "v1",
    "v2"
  ],
  "empty": []
}
"#;
        assert_eq!(doc.write(), want);
    }

    type Bytes<'a> = std::slice::Iter<'a, u8>;

    fn take(bytes: &mut Bytes<'_>) -> u8 {
        bytes.next().copied().unwrap_or(0)
    }

    /// A short string over control characters, quotes, backslashes,
    /// non-ASCII and plain ASCII.
    fn arbitrary_string(bytes: &mut Bytes<'_>) -> String {
        (0..take(bytes) % 6)
            .map(|_| match take(bytes) % 8 {
                0 => '"',
                1 => '\\',
                2 => char::from(take(bytes) % 0x20),
                3 => char::from_u32(0x80 + take(bytes) as u32 * 97).unwrap_or('\u{fffd}'),
                _ => char::from(b' ' + take(bytes) % 95),
            })
            .collect()
    }

    /// Builds an arbitrary value from a byte stream: every scalar kind,
    /// numbers over arbitrary bit patterns (non-finite ones included),
    /// containers nested a few levels.
    fn arbitrary(bytes: &mut Bytes<'_>, depth: usize) -> Json {
        match take(bytes) % if depth < 3 { 7 } else { 5 } {
            0 => Json::Null,
            1 => Json::Bool(take(bytes) & 1 == 0),
            2 => Json::Num(f64::from_bits(u64::from_le_bytes(
                [(); 8].map(|_| take(bytes)),
            ))),
            3 => Json::Num((take(bytes) as f64 - 128.0) / 8.0),
            4 => Json::Str(arbitrary_string(bytes)),
            5 => Json::Arr(
                (0..take(bytes) % 4)
                    .map(|_| arbitrary(bytes, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..take(bytes) % 4)
                    .map(|_| (arbitrary_string(bytes), arbitrary(bytes, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// What the writer promises to preserve: everything, except that
    /// non-finite numbers are written as `null`.
    fn as_written(j: &Json) -> Json {
        match j {
            Json::Num(x) if !x.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(as_written).collect()),
            Json::Obj(m) => Json::Obj(m.iter().map(|(k, v)| (k.clone(), as_written(v))).collect()),
            other => other.clone(),
        }
    }

    proptest! {
        #[test]
        fn writer_parser_round_trip(bytes in proptest::collection::vec(0u8..=255, 0..400)) {
            let value = arbitrary(&mut bytes.iter(), 0);
            let text = value.write();
            let back = Json::parse(&text);
            prop_assert_eq!(back, Ok(as_written(&value)), "{}", text);
        }

        /// Arbitrary bytes — raw, and folded onto JSON's own alphabet so
        /// the parser gets past the first token — are `Ok` or `Err`,
        /// never a panic.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..300)) {
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
            const ALPHABET: &[u8] = b"[]{}\",:\\u0 19.eE-+tfn\xc3\xa9";
            let folded: Vec<u8> = bytes.iter().map(|b| ALPHABET[*b as usize % ALPHABET.len()]).collect();
            let _ = Json::parse(&String::from_utf8_lossy(&folded));
        }
    }

    /// Every truncated prefix of a real report is an `Err` (and only the
    /// whole document parses).
    #[test]
    fn truncated_reports_are_errors() {
        let report = crate::Report {
            gate: "sample",
            case: vec![("scale", 0.3.into())],
            checks: vec![crate::Check::new("a \"check\"", false, "det\\ail\n").bounded(1.0, 2.0)],
            tables: vec![crate::Table::new(
                "rows",
                "t",
                [vec![
                    ("name", "é".into()),
                    ("order", crate::Cell::strs(["x", "y"])),
                ]],
            )],
        };
        let text = report.to_json();
        assert!(Json::parse(&text).is_ok());
        let body = text.trim_end();
        for end in (0..body.len()).filter(|&n| body.is_char_boundary(n)) {
            assert!(
                Json::parse(&body[..end]).is_err(),
                "prefix of {end} bytes parsed"
            );
        }
    }
}
