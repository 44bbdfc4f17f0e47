//! Minimal JSON value and writer for the gate artifacts.
//!
//! The workspace is offline (no serde). Nothing reads a report back: a
//! committed one is checked by regenerating it and comparing the bytes,
//! so there is no parser. The writer ([`Json::write`]) is the only place
//! report JSON is spelled: commas, escapes and layout live here and
//! nowhere else.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
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

    #[test]
    fn writer_layout_is_one_row_per_line() {
        let doc = Json::obj([
            ("gate", Json::Str("x\"\\\n\u{1}".into())),
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
  "gate": "x\"\\\n\u0001",
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

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Obj(vec![]).write(), "{}\n");
        assert_eq!(Json::Arr(vec![]).write(), "[]\n");
    }
}
