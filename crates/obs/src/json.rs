//! Hand-rolled JSON, both directions, with no dependencies.
//!
//! The writer half mirrors the conventions already used by the eval
//! reports ([`str_lit`] escaping, [`num`] six-decimal formatting,
//! deterministic key order is the caller's job), plus [`write_f32`] for
//! tensors that must cross a wire bit-exactly. The reader half is one
//! byte-level pull lexer, [`Reader`]: callers that know their schema walk
//! it directly and never materialise a tree; [`parse`] builds the generic
//! [`Value`] tree on the same lexer for everyone else (CI smoke steps
//! loading a `RunReport` back, the lint and bench reports).
//!
//! Grammar: RFC 8259, with nesting capped at [`MAX_DEPTH`]. Two historical
//! leniencies remain — raw control characters inside strings are accepted,
//! and every `\u` surrogate decodes to U+FFFD rather than pairing up.

use std::collections::BTreeMap;
use std::fmt::Write as _;

mod float;
#[cfg(test)]
mod oracle;
mod reader;
#[cfg(test)]
mod tests;

pub use float::write_f32;
pub use reader::{Reader, MAX_DEPTH};

/// A parsed JSON value. Objects keep keys sorted (BTreeMap), which is
/// fine for assertions — we never re-emit parsed documents.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements of an array value.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numbers that round-trip as integers (counts, ids).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Some(n as u64)
        } else {
            None
        }
    }
}

/// Parses a complete JSON document, requiring it to consume all input.
///
/// # Errors
///
/// The first offence against the grammar, by byte offset.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut reader = Reader::new(input.as_bytes());
    let value = read_value(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Builds the tree for the value under the cursor. The recursion is as
/// deep as the document nests, which [`Reader`] caps at [`MAX_DEPTH`].
fn read_value(r: &mut Reader<'_>) -> Result<Value, ParseError> {
    Ok(match r.peek() {
        None => return Err(r.err("unexpected end of input")),
        Some(b'{') => {
            r.begin_object()?;
            let mut map = BTreeMap::new();
            while let Some(key) = r.next_key()? {
                let value = read_value(r)?;
                map.insert(key.into_owned(), value);
            }
            Value::Object(map)
        }
        Some(b'[') => {
            r.begin_array()?;
            let mut items = Vec::new();
            while r.next_element()? {
                items.push(read_value(r)?);
            }
            Value::Array(items)
        }
        Some(b'"') => Value::String(r.read_str()?.into_owned()),
        Some(b't' | b'f') => Value::Bool(r.read_bool()?),
        Some(b'n') => {
            r.read_null()?;
            Value::Null
        }
        Some(_) => Value::Number(r.read_f64()?),
    })
}

/// Parse failure: byte offset plus a short reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: &'static str,
}

impl ParseError {
    fn at(offset: usize, message: &'static str) -> ParseError {
        ParseError { offset, message }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Writes a JSON string literal with the repo's escaping conventions.
pub fn str_lit(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes a float with six decimals, `null` for non-finite values —
/// matching the eval report convention.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}
