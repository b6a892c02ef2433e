//! A minimal JSON reader for the committed `BENCH_*.json` baselines.
//!
//! The workspace is dependency-free by design (no serde), and the bench
//! harnesses write their JSON with [`symsysc_core::Emission`]; this is the
//! matching hand-rolled reader used by the `bench_gate` regression check.
//! It supports the full JSON grammar the harnesses produce — objects,
//! arrays, strings with basic escapes, numbers, booleans and null — and
//! reports parse errors with a byte offset. Parsing is linear in the
//! input, and arrays and objects nest at most [`MAX_DEPTH`] deep, so a
//! malformed file is an error, never a stack overflow.

use std::collections::BTreeMap;
use std::fmt;

/// How deep arrays and objects may nest. The baselines nest three levels
/// deep; the parser recurses once per level.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; the baselines stay well within its
    /// integer-exact range).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is irrelevant to the gate, so a sorted map
    /// keeps lookups simple.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.error("trailing content after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`; it sits on a char boundary whenever the
    /// text is sliced.
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses an array or object one level deeper, past [`MAX_DEPTH`] an
    /// error.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
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
            self.skip_ws();
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut elements = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(elements));
        }
        loop {
            self.skip_ws();
            elements.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(elements));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        _ => return Err(self.error("unsupported escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape: both
                    // are ASCII, so the run ends on a char boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_harness_shapes() {
        let doc = parse(
            "{\n  \"harness\": \"solver_stack\",\n  \"sources\": 32,\n  \
             \"equivalent\": true,\n  \"rate\": 0.7209,\n  \
             \"workloads\": [{\"name\": \"t1\", \"paths\": 32}]\n}\n",
        )
        .unwrap();
        assert_eq!(doc.get("harness").unwrap().as_str(), Some("solver_stack"));
        assert_eq!(doc.get("sources").unwrap().as_f64(), Some(32.0));
        assert_eq!(doc.get("equivalent").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("rate").unwrap().as_f64(), Some(0.7209));
        let w = &doc.get("workloads").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.get("name").unwrap().as_str(), Some("t1"));
    }

    #[test]
    fn parses_negative_and_escaped() {
        let doc = parse("{\"corr\": -0.6496, \"s\": \"a\\\"b\", \"n\": null}").unwrap();
        assert_eq!(doc.get("corr").unwrap().as_f64(), Some(-0.6496));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("a\"b"));
        assert_eq!(doc.get("n"), Some(&Json::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1, 2").is_err());
        let err = parse("nope").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn a_megabyte_of_long_multibyte_strings_parses() {
        // 1,300 strings of 500 characters, two- and three-byte UTF-8 among
        // them, each followed by an escape and its index: about 1 MB.
        let raw: String = "aé€xy".chars().cycle().take(500).collect();
        let doc = format!(
            "[{}]",
            (0..1300)
                .map(|i| format!("\"{raw}\\n{i}\""))
                .collect::<Vec<_>>()
                .join(", ")
        );
        assert!(doc.len() > 1_000_000, "{} bytes", doc.len());
        let parsed = parse(&doc).unwrap();
        let strings = parsed.as_arr().unwrap();
        assert_eq!(strings.len(), 1300);
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(s.as_str(), Some(format!("{raw}\n{i}").as_str()));
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
        // 100,000 levels, closed or not, are an error and no crash.
        assert!(parse(&nested(100_000)).is_err());
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\": ".repeat(100_000)).is_err());
    }
}
