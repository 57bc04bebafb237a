//! JSON serializer over [`Value`].
//!
//! JSON is an output format only: the campaign result store emits JSONL
//! (one JSON object per line), and scenario specs are read from TOML
//! (see [`crate::toml`]). The serializer is deterministic: table keys
//! are sorted (`BTreeMap`) and floats use Rust's shortest round-trip
//! formatting, which is what makes byte-identical campaign reruns
//! possible.

use crate::value::Value;

/// Serializes a [`Value`] as compact single-line JSON (JSONL-friendly).
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => out.push_str(&float_json(*x)),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Table(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

/// JSON float formatting: shortest round-trip, integral values keep a
/// `.0`. JSON has no `NaN`/`inf`, so non-finite values serialize as
/// `null` — loud and unmistakable, rather than a plausible-looking
/// number (scenario metrics are finite in any healthy run).
fn float_json(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_is_deterministic_and_sorted() {
        let mut t = Value::table();
        t.insert("zeta", Value::Int(1));
        t.insert("alpha", Value::Float(0.25));
        assert_eq!(to_string(&t), r#"{"alpha":0.25,"zeta":1}"#);
    }

    #[test]
    fn nested_tables_sort_their_keys() {
        let mut inner = Value::table();
        inner.insert("y", Value::Bool(false));
        inner.insert(
            "b",
            Value::Array(vec![Value::Int(-2), Value::Str("x".into())]),
        );
        let mut t = Value::table();
        t.insert("outer", inner);
        t.insert("a", Value::Array(vec![]));
        assert_eq!(
            to_string(&t),
            r#"{"a":[],"outer":{"b":[-2,"x"],"y":false}}"#
        );
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let s = Value::Str("q\"b\\n\nt\tr\r".into());
        assert_eq!(to_string(&s), r#""q\"b\\n\nt\tr\r""#);
        assert_eq!(to_string(&Value::Str("a\u{1}b".into())), r#""a\u0001b""#);
        assert_eq!(to_string(&Value::Str("\u{1f}".into())), r#""\u001f""#);
    }

    #[test]
    fn non_bmp_characters_pass_through_raw() {
        let s = Value::Str("corner \u{1F600} test".into());
        assert_eq!(to_string(&s), "\"corner \u{1F600} test\"");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(to_string(&Value::Float(3.0)), "3.0");
        assert_eq!(to_string(&Value::Float(-0.0)), "-0.0");
        assert_eq!(to_string(&Value::Float(0.1)), "0.1");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(to_string(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Float(f64::INFINITY)), "null");
        assert_eq!(to_string(&Value::Float(f64::NEG_INFINITY)), "null");
    }
}
