//! The repository's one JSON: a value tree, a parser, compact and
//! pretty writers and the [`json!`] literal macro, with zero
//! dependencies. The job service's wire protocol, `RunReport::to_json`
//! and every `repro` report go through it.
//!
//! Numbers are kept as `f64`; every integer the repository ships (ids,
//! counts, budgets, nanoseconds) stays well under 2^53, and the one
//! value that does not — the graph digest — travels as a hex string.
//! Non-finite numbers are written as `null`, as JSON has no spelling
//! for them. Parsing is strict on structure (balanced brackets, string
//! escapes) and permissive on whitespace; input comes from our own
//! client or a curl-wielding operator, not an adversary, but malformed
//! input returns `Err`, never panics.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::{Index, IndexMut};

/// A JSON value. Objects keep sorted keys (`BTreeMap`) so encoding is
/// deterministic — byte-stable responses make the smoke gates' digest
/// comparisons trivial.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (see module docs for the 2^53 caveat).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number from a u64 (callers keep values under 2^53).
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integral number
    /// below 2^53. From 2^53 up an `f64` may be the rounding of a
    /// different integer, so those read as `None`, never as a wrong
    /// value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < EXACT_INT_LIMIT => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as an f64 number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's key → value map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialize to a compact single-line string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serialize over several lines, nested values indented two spaces
    /// a level.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Write the value; `indent` is the nesting depth when pretty
    /// printing and `None` for the compact form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        // Start an item of a container at nesting depth `depth`.
        let item = |out: &mut String, first: bool, depth: Option<usize>| {
            if !first {
                out.push(',');
            }
            if let Some(depth) = depth {
                out.push('\n');
                (0..depth).for_each(|_| out.push_str("  "));
            }
        };
        let inner = indent.map(|depth| depth + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) if x.is_finite() => {
                // `Display` for f64 never uses an exponent and prints an
                // integral value without a fraction: always valid JSON.
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, value) in items.iter().enumerate() {
                    item(out, i == 0, inner);
                    value.write(out, inner);
                }
                item(out, true, indent);
                out.push(']');
            }
            Json::Obj(map) if map.is_empty() => out.push_str("{}"),
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    item(out, i == 0, inner);
                    write_string(k, out);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                item(out, true, indent);
                out.push('}');
            }
        }
    }
}

/// Integers below this (2^53) are exactly the integral `f64`s that no
/// other integer rounds to.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

static NULL: Json = Json::Null;

impl Index<&str> for Json {
    type Output = Json;

    /// The field `key`; `Null` on a missing key or a non-object.
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Json {
    type Output = Json;

    /// The array item `idx`; `Null` past the end or on a non-array.
    fn index(&self, idx: usize) -> &Json {
        self.as_arr()
            .and_then(|items| items.get(idx))
            .unwrap_or(&NULL)
    }
}

impl IndexMut<&str> for Json {
    /// The field `key` for assignment, inserted as `Null` when missing.
    /// A `Null` becomes an empty object first; any other non-object
    /// panics.
    fn index_mut(&mut self, key: &str) -> &mut Json {
        if self.is_null() {
            *self = Json::Obj(BTreeMap::new());
        }
        match self {
            Json::Obj(map) => map.entry(key.to_string()).or_insert(Json::Null),
            other => panic!("cannot index into {other:?} with a string key"),
        }
    }
}

macro_rules! impl_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            /// Numbers are `f64`: exact below 2^53 (see the module docs).
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
impl_from_number!(u32, u64, usize, i32, i64, f64);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Json>> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        items.to_vec().into()
    }
}

impl<T: Clone + Into<Json>> From<&T> for Json {
    /// By reference, for fields borrowed from a struct being rendered.
    fn from(value: &T) -> Json {
        value.clone().into()
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` is `null`.
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

/// Build a [`Json`] from a JSON-shaped literal: `null`, `[..]` and
/// `{"key": ..}` nest, and anything else is an expression converted with
/// `Json::from` (numbers, strings, bools, `Vec`s and `Option`s of those,
/// or a `Json`). Keys are string literals; trailing commas are allowed.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Json::Null };
    ([ $($items:tt)* ]) => {
        $crate::Json::Arr($crate::json_items!([] $($items)*))
    };
    ({ $($fields:tt)* }) => {{
        #[allow(unused_mut)]
        let mut fields = ::std::collections::BTreeMap::<::std::string::String, $crate::Json>::new();
        $crate::json_fields!(fields; $($fields)*);
        $crate::Json::Obj(fields)
    }};
    ($value:expr) => { $crate::Json::from($value) };
}

/// The items of a [`json!`] array as a `Vec<Json>`: converted items
/// accumulate in the leading `[..]`; a nested literal is one token tree,
/// anything else is an expression up to the next comma.
#[doc(hidden)]
#[macro_export]
macro_rules! json_items {
    ([$($done:expr,)*]) => { ::std::vec![$($done),*] };
    ([$($done:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::json_items!([$($done,)* $crate::Json::Null,] $($($rest)*)?)
    };
    ([$($done:expr,)*] [ $($value:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_items!([$($done,)* $crate::json!([ $($value)* ]),] $($($rest)*)?)
    };
    ([$($done:expr,)*] { $($value:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_items!([$($done,)* $crate::json!({ $($value)* }),] $($($rest)*)?)
    };
    ([$($done:expr,)*] $value:expr $(, $($rest:tt)*)?) => {
        $crate::json_items!([$($done,)* $crate::Json::from($value),] $($($rest)*)?)
    };
}

/// The fields of a [`json!`] object, inserted into `$fields`; values as
/// in [`json_items!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_fields {
    ($fields:ident;) => {};
    ($fields:ident; $key:literal : null $(, $($rest:tt)*)?) => {
        $fields.insert($key.to_string(), $crate::Json::Null);
        $($crate::json_fields!($fields; $($rest)*);)?
    };
    ($fields:ident; $key:literal : [ $($value:tt)* ] $(, $($rest:tt)*)?) => {
        $fields.insert($key.to_string(), $crate::json!([ $($value)* ]));
        $($crate::json_fields!($fields; $($rest)*);)?
    };
    ($fields:ident; $key:literal : { $($value:tt)* } $(, $($rest:tt)*)?) => {
        $fields.insert($key.to_string(), $crate::json!({ $($value)* }));
        $($crate::json_fields!($fields; $($rest)*);)?
    };
    ($fields:ident; $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $fields.insert($key.to_string(), $crate::Json::from($value));
        $($crate::json_fields!($fields; $($rest)*);)?
    };
}

fn write_string(s: &str, out: &mut String) {
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

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so a cap keeps a hostile line from
/// overflowing the stack of the thread that reads it; no value this
/// workspace writes nests more than a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document; trailing non-whitespace, and nesting deeper
/// than [`MAX_DEPTH`], are errors.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => self.nested(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at offset {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// An array or object one level deeper than the current position.
    fn nested(&mut self) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = if self.peek() == Some(b'[') {
            self.array()
        } else {
            self.object()
        };
        self.depth -= 1;
        value
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
            self.skip_ws();
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

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by this protocol.
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_values() {
        let text = r#"{"op":"submit","job":{"graph":{"type":"er","n":200,"m":800},"budget":{"visit_rate":0.5},"p":2,"tags":["a","b\n\"c\""],"inline":[[0,1],[1,2]],"flag":true,"none":null}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("submit"));
        let job = v.get("job").unwrap();
        assert_eq!(
            job.get("graph")
                .and_then(|g| g.get("n"))
                .and_then(Json::as_u64),
            Some(200)
        );
        assert_eq!(
            job.get("budget")
                .and_then(|b| b.get("visit_rate"))
                .and_then(Json::as_f64),
            Some(0.5)
        );
        assert_eq!(job.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(job.get("none"), Some(&Json::Null));
        // Encode → parse → encode is a fixed point (sorted keys).
        let encoded = v.to_json();
        assert_eq!(parse(&encoded).unwrap().to_json(), encoded);
    }

    #[test]
    fn strings_escape_cleanly() {
        let v = Json::str("line\nbreak \"quoted\" back\\slash\ttab");
        let encoded = v.to_json();
        assert_eq!(parse(&encoded).unwrap(), v);
    }

    #[test]
    fn numbers_preserve_integers_exactly() {
        for n in [0u64, 1, 42, 1 << 40, (1 << 53) - 1] {
            let encoded = Json::num(n).to_json();
            assert_eq!(parse(&encoded).unwrap().as_u64(), Some(n), "{n}");
        }
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse("-5").unwrap().as_u64(), None);
        assert_eq!(parse("0.25").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn every_number_is_written_as_json_the_parser_accepts() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(x).to_json(), "null");
            assert_eq!(parse(&json!([x, 1]).to_json()).unwrap(), json!([null, 1]));
        }
        for x in [-0.0, 0.1, -2.5e-7, 1e21, 1e300, f64::MAX, f64::MIN_POSITIVE] {
            let back = parse(&Json::Num(x).to_json()).unwrap();
            let bits = back.as_f64().map(f64::to_bits);
            assert_eq!(bits, Some(x.to_bits()), "{x}");
        }
        // 2^53 is itself exact but is also what 2^53 + 1 rounds to: both
        // survive the trip as numbers, neither reads back as an integer.
        let limit = 1u64 << 53;
        for n in [limit, limit + 1] {
            let encoded = Json::from(n).to_json();
            assert_eq!(encoded, "9007199254740992");
            let back = parse(&encoded).unwrap();
            assert_eq!(back, Json::from(n));
            assert_eq!(back.as_u64(), None, "{n}");
        }
        assert_eq!(Json::from(limit - 1).as_u64(), Some(limit - 1));
    }

    #[test]
    fn json_macro_builds_nested_literals() {
        let n = 3u32;
        let name = String::from("pa");
        let v = json!({
            "zeta": [1, 2.5, "three", null, [], {}],
            "alpha": {"n": n + 1, "name": &name, "none": None::<u64>, "some": Some(7u64)},
            "rows": (0..n).map(|i| json!({"i": i})).collect::<Vec<_>>(),
            "flag": n > 2,
            "null": null,
        });
        assert_eq!(
            v.to_json(),
            r#"{"alpha":{"n":4,"name":"pa","none":null,"some":7},"flag":true,"null":null,"rows":[{"i":0},{"i":1},{"i":2}],"zeta":[1,2.5,"three",null,[],{}]}"#
        );
        assert_eq!(json!(null), Json::Null);
        assert_eq!(json!([1, 2,]), json!([1, 2]));
        assert_eq!(json!({"a": 1,}), json!({"a": 1}));
        assert_eq!(json!([[1], [2, 3]])[1][0].as_u64(), Some(2));
        assert_eq!(json!(vec![0.5, 1.5]), json!([0.5, 1.5]));
        assert_eq!(json!(&[1u64, 2][..]), json!([1, 2]));
    }

    #[test]
    fn indexing_is_total_and_index_mut_inserts() {
        let mut v = json!({"a": {"b": [10, 20]}});
        assert_eq!(v["a"]["b"][1].as_u64(), Some(20));
        assert!(v["missing"].is_null());
        assert!(v["a"]["b"][2].is_null());
        assert!(v["a"]["b"]["not an object"].is_null());
        assert!(v[0].is_null());
        v["c"] = json!(true);
        v["a"]["d"] = json!("new");
        assert_eq!(v.to_json(), r#"{"a":{"b":[10,20],"d":"new"},"c":true}"#);
        let mut fresh = Json::Null;
        fresh["k"] = json!(1);
        assert_eq!(fresh, json!({"k": 1}));
    }

    #[test]
    fn pretty_output_parses_back_to_the_same_value() {
        let v = json!({"b": [1, {"c": null}], "a": {}, "e": []});
        let pretty = v.to_json_pretty();
        assert_eq!(
            pretty,
            "{\n  \"a\": {},\n  \"b\": [\n    1,\n    {\n      \"c\": null\n    }\n  ],\n  \"e\": []\n}"
        );
        assert_eq!(parse(&pretty).unwrap(), v);
        assert_eq!(json!(1.5).to_json_pretty(), "1.5");
    }

    #[test]
    fn malformed_input_errors_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "{\"a\":1} extra",
            "nullx",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&over).unwrap_err();
        assert!(
            err.starts_with("nesting deeper than 128 at offset"),
            "{err}"
        );
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // A small stack is enough for any input: 100 000 opening brackets
        // recurse at most MAX_DEPTH levels.
        let hostile = "[".repeat(100_000);
        let small_stack = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || parse(&hostile).is_err())
            .unwrap();
        assert!(small_stack.join().unwrap());
    }
}
