//! The JSON emitter behind `PAPER_RESULTS.json`: a document is a field
//! list, so an entry states *which* fields it reports and with what
//! precision, never how they are quoted or nested.

use std::fmt::Write as _;

/// An ordered field list — one JSON object.
pub type Fields = Vec<(&'static str, Json)>;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Int(u64),
    /// A float with its number of decimals (`{:.N}`): rates are reported
    /// at 0, ratios at 3, seconds at 6.
    Float(f64, usize),
    Bool(bool),
    Str(String),
    List(Vec<Json>),
    Obj(Fields),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The document text. A list of scalars (a sampled curve) stays on
    /// one line, and so does an object of scalars and such lists (a
    /// series entry); anything holding an object nests one field per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::List(_) | Json::Obj(_))
    }

    /// Rendered without a line break.
    fn is_flat(&self) -> bool {
        match self {
            Json::List(items) => items.iter().all(Json::is_scalar),
            other => other.is_scalar(),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| out.extend(std::iter::repeat_n(' ', n));
        match self {
            Json::Int(n) => write!(out, "{n}").unwrap(),
            Json::Float(x, decimals) => write!(out, "{x:.decimals$}").unwrap(),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Str(s) => write_str(out, s),
            Json::List(items) if self.is_flat() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.write(out, indent);
                }
                out.push(']');
            }
            Json::List(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 2);
                    item.write(out, indent + 2);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                let inline = fields.iter().all(|(_, v)| v.is_flat());
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if inline {
                        out.push_str(if i > 0 { ", " } else { "" });
                    } else {
                        out.push_str(if i > 0 { ",\n" } else { "\n" });
                        pad(out, indent + 2);
                    }
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 2);
                }
                if !inline {
                    out.push('\n');
                    pad(out, indent);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Balanced braces and brackets outside strings, every string closed.
    fn assert_balanced(text: &str) {
        let (mut depth, mut brackets, mut in_str, mut esc) = (0i64, 0i64, false, false);
        for c in text.chars() {
            if in_str {
                match (esc, c) {
                    (true, _) => esc = false,
                    (false, '\\') => esc = true,
                    (false, '"') => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => depth += 1,
                '}' => depth -= 1,
                '[' => brackets += 1,
                ']' => brackets -= 1,
                _ => {}
            }
            assert!(depth >= 0 && brackets >= 0, "malformed nesting: {text}");
        }
        assert!(depth == 0 && brackets == 0 && !in_str, "unbalanced: {text}");
    }

    #[test]
    fn strings_are_escaped_and_the_document_stays_balanced() {
        let doc = Json::Obj(vec![
            ("quote", Json::str("a\"b{")),
            ("slash", Json::str("c\\")),
            ("ctl", Json::str("x\ny\u{1}]")),
        ]);
        let text = doc.render();
        assert_eq!(
            text,
            "{\"quote\": \"a\\\"b{\", \"slash\": \"c\\\\\", \"ctl\": \"x\\u000ay\\u0001]\"}\n"
        );
        assert_balanced(&text);
    }

    #[test]
    fn floats_keep_their_declared_precision() {
        let doc = Json::Obj(vec![
            ("rows_per_sec", Json::Float(99722.49, 0)),
            ("speedup", Json::Float(1.2494, 3)),
            ("median_secs", Json::Float(0.09025, 6)),
            ("results", Json::Int(49200)),
            ("memo", Json::Bool(false)),
        ]);
        assert_eq!(
            doc.render(),
            "{\"rows_per_sec\": 99722, \"speedup\": 1.249, \"median_secs\": 0.090250, \
             \"results\": 49200, \"memo\": false}\n"
        );
    }

    #[test]
    fn a_list_of_scalars_stays_on_its_entrys_line() {
        let curve = Json::Obj(vec![
            ("label", Json::str("SteM")),
            (
                "values",
                Json::List(vec![Json::Float(0.0, 1), Json::Int(4)]),
            ),
        ]);
        assert_eq!(
            curve.render(),
            "{\"label\": \"SteM\", \"values\": [0.0, 4]}\n"
        );
    }

    #[test]
    fn nested_workloads_render_one_entry_per_line() {
        let entry = |label: &str| Json::Obj(vec![("label", Json::str(label))]);
        let doc = Json::Obj(vec![
            ("rows", Json::Int(3)),
            (
                "workloads",
                Json::List(vec![Json::Obj(vec![
                    ("name", Json::str("q1")),
                    (
                        "series",
                        Json::List(vec![entry("fold_off"), entry("fold_on")]),
                    ),
                ])]),
            ),
        ]);
        let text = doc.render();
        assert_balanced(&text);
        assert_eq!(
            text,
            "{\n  \"rows\": 3,\n  \"workloads\": [\n    {\n      \"name\": \"q1\",\n      \
             \"series\": [\n        {\"label\": \"fold_off\"},\n        {\"label\": \
             \"fold_on\"}\n      ]\n    }\n  ]\n}\n"
        );
    }
}
