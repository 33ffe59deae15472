//! A minimal recursive-descent JSON reader, just enough to validate the
//! documents this workspace writes: the trace dumps checked by
//! [`check_trace_jsonl`](crate::check_trace_jsonl) and the `perf` harness's
//! `BENCH_perf.json` report.  The build environment cannot fetch
//! `serde_json` (offline container), so validation parses by hand.
//!
//! Nesting is capped at [`MAX_DEPTH`] levels: deeper input is an error,
//! not a stack overflow, so a checker fed a hostile file still exits with a
//! message.

/// Deepest array/object nesting [`parse`] accepts.  The documents the
/// workspace writes nest at most four levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.  Object keys keep insertion order; numbers are
/// `f64` (the documents only carry integers well inside the 2^53 window).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The key/value pairs in insertion order, if this is an object.
    pub fn object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value stored under `key`, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The elements, if this is an array.
    pub fn array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn string(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a complete JSON document: one value, optionally surrounded by
/// whitespace.
pub fn parse(text: &str) -> Result<Value, String> {
    let (value, rest) = parse_value(text, 0)?;
    if !rest.trim().is_empty() {
        return Err("trailing data after the JSON value".into());
    }
    Ok(value)
}

/// Parses one JSON value off the front of `input` at nesting level
/// `depth`, returning it and the unconsumed remainder.
fn parse_value(input: &str, depth: usize) -> Result<(Value, &str), String> {
    let rest = input.trim_start();
    let first = rest.chars().next().ok_or("unexpected end of input")?;
    if matches!(first, '[' | '{') && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    match first {
        'n' => literal(rest, "null", Value::Null),
        't' => literal(rest, "true", Value::Bool(true)),
        'f' => literal(rest, "false", Value::Bool(false)),
        '"' => {
            let (s, rest) = string(rest)?;
            Ok((Value::String(s), rest))
        }
        '[' => {
            let mut rest = rest[1..].trim_start();
            let mut items = Vec::new();
            if let Some(tail) = rest.strip_prefix(']') {
                return Ok((Value::Array(items), tail));
            }
            loop {
                let (item, tail) = parse_value(rest, depth + 1)?;
                items.push(item);
                rest = tail.trim_start();
                if let Some(tail) = rest.strip_prefix(',') {
                    rest = tail.trim_start();
                } else if let Some(tail) = rest.strip_prefix(']') {
                    return Ok((Value::Array(items), tail));
                } else {
                    return Err("expected ',' or ']' in array".into());
                }
            }
        }
        '{' => {
            let mut rest = rest[1..].trim_start();
            let mut fields = Vec::new();
            if let Some(tail) = rest.strip_prefix('}') {
                return Ok((Value::Object(fields), tail));
            }
            loop {
                let (key, tail) = string(rest.trim_start())?;
                let tail = tail.trim_start();
                let tail = tail
                    .strip_prefix(':')
                    .ok_or("expected ':' after object key")?;
                let (value, tail) = parse_value(tail, depth + 1)?;
                fields.push((key, value));
                rest = tail.trim_start();
                if let Some(tail) = rest.strip_prefix(',') {
                    rest = tail.trim_start();
                } else if let Some(tail) = rest.strip_prefix('}') {
                    return Ok((Value::Object(fields), tail));
                } else {
                    return Err("expected ',' or '}' in object".into());
                }
            }
        }
        c if c == '-' || c.is_ascii_digit() => {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
                .unwrap_or(rest.len());
            let number: f64 = rest[..end]
                .parse()
                .map_err(|_| format!("bad number '{}'", &rest[..end]))?;
            Ok((Value::Number(number), &rest[end..]))
        }
        other => Err(format!("unexpected character '{other}'")),
    }
}

fn literal<'a>(rest: &'a str, word: &str, value: Value) -> Result<(Value, &'a str), String> {
    rest.strip_prefix(word)
        .map(|tail| (value, tail))
        .ok_or_else(|| format!("expected '{word}'"))
}

/// Parses a string literal (assumes `rest` starts with `"`).
fn string(rest: &str) -> Result<(String, &str), String> {
    let inner = rest.strip_prefix('"').ok_or("expected string")?;
    let mut out = String::new();
    let mut chars = inner.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &inner[i + 1..])),
            '\\' => {
                let (_, escaped) = chars.next().ok_or("dangling escape")?;
                match escaped {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, d) = chars.next().ok_or("short \\u escape")?;
                            code = code * 16 + d.to_digit(16).ok_or("bad \\u escape")?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape '\\{other}'")),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_the_usual_shapes() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "x\n\"y\""}"#;
        let value = parse(doc).unwrap();
        let a = value.get("a").and_then(Value::array).unwrap();
        assert_eq!(a[2].number(), Some(-300.0));
        assert_eq!(value.get("e").and_then(Value::string), Some("x\n\"y\""));
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1] trailing").is_err());
        // Nesting up to the cap parses; one level more is an error.
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }
}
