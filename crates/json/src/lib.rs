//! Dependency-free JSON for the faaspipe workspace.
//!
//! Replaces `serde`/`serde_json` (unavailable offline) with a small value
//! model ([`Json`]), a recursive-descent parser, and printers whose output
//! is byte-compatible with `serde_json`'s compact and pretty formats for
//! the documents this workspace produces (2-space indent, `": "` key
//! separator, whole floats printed as `1.0`, u64 printed as integers).
//!
//! Conversion goes through the [`ToJson`] / [`FromJson`] traits; the
//! [`json_object!`] macro derives both for plain structs by listing their
//! fields (`req name` for required, `opt name` for default-when-missing).

use std::fmt::Write as _;

/// A JSON document value.
///
/// Integers keep their sign information (`Int` vs `UInt`) so `u64`
/// round-trips without a float detour; objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A negative (or small signed) integer.
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Human-readable name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::UInt(_) => "integer",
            Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }
}

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong, with enough context to locate it.
    pub message: String,
}

impl JsonError {
    /// Builds an error from any displayable message.
    pub fn new(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn float_repr(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` matches serde_json: whole floats keep a trailing `.0`.
        format!("{:?}", x)
    } else {
        // serde_json refuses non-finite floats; emit null like its
        // lossy writers do rather than panicking mid-report.
        "null".to_string()
    }
}

fn write_compact(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => {
            let _ = write!(out, "{}", i);
        }
        Json::UInt(u) => {
            let _ = write!(out, "{}", u);
        }
        Json::Float(x) => out.push_str(&float_repr(*x)),
        Json::Str(s) => escape_into(out, s),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Json::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                write_compact(out, val);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, v: &Json, depth: usize) {
    const INDENT: &str = "  ";
    match v {
        Json::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                for _ in 0..=depth {
                    out.push_str(INDENT);
                }
                write_pretty(out, item, depth + 1);
            }
            out.push('\n');
            for _ in 0..depth {
                out.push_str(INDENT);
            }
            out.push(']');
        }
        Json::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                for _ in 0..=depth {
                    out.push_str(INDENT);
                }
                escape_into(out, k);
                out.push_str(": ");
                write_pretty(out, val, depth + 1);
            }
            out.push('\n');
            for _ in 0..depth {
                out.push_str(INDENT);
            }
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

impl Json {
    /// Renders without any whitespace (serde_json compact format).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_compact(&mut out, self);
        out
    }

    /// Renders with 2-space indentation (serde_json pretty format).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(&mut out, self, 0);
        out
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Deepest nesting of arrays and objects the parser accepts (serde_json's
/// default recursion limit). The descent is recursive, so without a bound
/// a deeply nested input would overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> JsonError {
        JsonError::new(format!("{} at byte {}", what, self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one nesting level down, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {} levels", MAX_DEPTH)));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|_| self.err("expected object key"))?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // printer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input was validated).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

impl std::str::FromStr for Json {
    type Err = JsonError;

    fn from_str(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// Converts to a JSON value.
    fn to_json(&self) -> Json;
}

/// Types that can be reconstructed from a [`Json`] value.
pub trait FromJson: Sized {
    /// Converts from a JSON value.
    ///
    /// # Errors
    /// [`JsonError`] naming the offending field or type mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

macro_rules! impl_json_uint {
    ($($ty:ty),* $(,)?) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }

        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<$ty, JsonError> {
                let wide = match *v {
                    Json::UInt(u) => u,
                    Json::Int(i) if i >= 0 => i as u64,
                    _ => return Err(JsonError::new(format!(
                        "expected unsigned integer, found {}", v.kind()))),
                };
                <$ty>::try_from(wide).map_err(|_| {
                    JsonError::new(format!("integer {} out of range", wide))
                })
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),* $(,)?) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let wide = *self as i64;
                if wide < 0 { Json::Int(wide) } else { Json::UInt(wide as u64) }
            }
        }

        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<$ty, JsonError> {
                let wide = match *v {
                    Json::Int(i) => i,
                    Json::UInt(u) => i64::try_from(u).map_err(|_| {
                        JsonError::new(format!("integer {} out of range", u))
                    })?,
                    _ => return Err(JsonError::new(format!(
                        "expected integer, found {}", v.kind()))),
                };
                <$ty>::try_from(wide).map_err(|_| {
                    JsonError::new(format!("integer {} out of range", wide))
                })
            }
        }
    )*};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, JsonError> {
        match *v {
            Json::Float(x) => Ok(x),
            Json::Int(i) => Ok(i as f64),
            Json::UInt(u) => Ok(u as f64),
            _ => Err(JsonError::new(format!(
                "expected number, found {}",
                v.kind()
            ))),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(*self as f64)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<bool, JsonError> {
        match *v {
            Json::Bool(b) => Ok(b),
            _ => Err(JsonError::new(format!("expected bool, found {}", v.kind()))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(JsonError::new(format!(
                "expected string, found {}",
                v.kind()
            ))),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(value) => value.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Option<T>, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, JsonError> {
        match v {
            Json::Array(items) => items.iter().map(T::from_json).collect(),
            _ => Err(JsonError::new(format!(
                "expected array, found {}",
                v.kind()
            ))),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Json, JsonError> {
        Ok(v.clone())
    }
}

/// Extracts a required object field.
///
/// # Errors
/// Missing field or type mismatch, naming the field.
pub fn field<T: FromJson>(v: &Json, name: &str) -> Result<T, JsonError> {
    match v.get(name) {
        Some(value) => {
            T::from_json(value).map_err(|e| JsonError::new(format!("field '{}': {}", name, e)))
        }
        None => Err(JsonError::new(format!("missing field '{}'", name))),
    }
}

/// Extracts an optional object field; missing or `null` yields the
/// type's default (mirrors `#[serde(default)]`).
///
/// # Errors
/// Type mismatch on a present, non-null value.
pub fn field_or_default<T: FromJson + Default>(v: &Json, name: &str) -> Result<T, JsonError> {
    match v.get(name) {
        None | Some(Json::Null) => Ok(T::default()),
        Some(value) => {
            T::from_json(value).map_err(|e| JsonError::new(format!("field '{}': {}", name, e)))
        }
    }
}

/// Derives [`ToJson`] and [`FromJson`] for a struct by listing its
/// fields: `req` fields must be present, `opt` fields default when
/// missing or null.
///
/// ```
/// use faaspipe_json::{from_str, json_object, FromJson, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Stage {
///     name: String,
///     workers: u64,
/// }
/// json_object! { Stage { req name, opt workers } }
///
/// let sort = Stage { name: "sort".into(), workers: 8 };
/// assert_eq!(Stage::from_json(&sort.to_json()).unwrap(), sort);
///
/// // A missing `opt` field takes its default; a missing `req` field fails.
/// let encode: Stage = from_str(r#"{"name": "encode"}"#).unwrap();
/// assert_eq!(encode, Stage { name: "encode".into(), workers: 0 });
/// assert!(from_str::<Stage>(r#"{"workers": 2}"#).is_err());
/// ```
#[macro_export]
macro_rules! json_object {
    ($ty:ident { $($mode:ident $field:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $((stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)),)*
                ])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> ::std::result::Result<Self, $crate::JsonError> {
                ::std::result::Result::Ok($ty {
                    $($field: $crate::__json_field!($mode, v, $field),)*
                })
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_field {
    (req, $v:expr, $field:ident) => {
        $crate::field($v, stringify!($field))?
    };
    (opt, $v:expr, $field:ident) => {
        $crate::field_or_default($v, stringify!($field))?
    };
}

// ---------------------------------------------------------------------------
// serde_json-shaped entry points
// ---------------------------------------------------------------------------

/// Serializes to pretty JSON text (2-space indent).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_pretty()
}

/// Serializes to compact JSON text.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_compact()
}

/// Serializes to compact JSON bytes.
pub fn to_vec<T: ToJson + ?Sized>(value: &T) -> Vec<u8> {
    to_string(value).into_bytes()
}

/// Parses a value from JSON text.
///
/// # Errors
/// [`JsonError`] with a byte offset for syntax errors, or the failing
/// field for conversion errors.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    let v: Json = text.parse()?;
    T::from_json(&v)
}

/// Parses a value from JSON bytes (must be UTF-8).
///
/// # Errors
/// See [`from_str`]; additionally rejects invalid UTF-8.
pub fn from_slice<T: FromJson>(data: &[u8]) -> Result<T, JsonError> {
    let text = std::str::from_utf8(data).map_err(|_| JsonError::new("invalid UTF-8"))?;
    from_str(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Default)]
    struct Demo {
        name: String,
        count: u64,
        ratio: f64,
        tags: Vec<String>,
        note: Option<String>,
    }

    json_object! { Demo { req name, req count, req ratio, opt tags, opt note } }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let deep = open.repeat(100_000);
            let err = deep.parse::<Json>().expect_err("too deep");
            let at = MAX_DEPTH * open.len();
            assert_eq!(
                err.to_string(),
                format!("nesting deeper than 128 levels at byte {}", at)
            );
            // The bound itself still parses.
            let ok = format!("{}1{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            ok.parse::<Json>().expect("128 levels parse");
        }
    }

    #[test]
    fn struct_round_trip() {
        let d = Demo {
            name: "x\"y".into(),
            count: 3,
            ratio: 1.0,
            tags: vec!["a".into()],
            note: None,
        };
        let text = to_string_pretty(&d);
        assert!(text.contains("\"ratio\": 1.0"), "{}", text);
        assert!(text.contains("\"count\": 3"), "{}", text);
        assert!(text.contains("\"x\\\"y\""), "{}", text);
        let back: Demo = from_str(&text).expect("parse back");
        assert_eq!(back, d);
    }

    #[test]
    fn missing_required_field_errors() {
        let err = from_str::<Demo>("{\"name\": \"a\"}").expect_err("incomplete");
        assert!(err.message.contains("missing field 'count'"), "{}", err);
    }

    #[test]
    fn optional_fields_default() {
        let d: Demo = from_str("{\"name\": \"a\", \"count\": 1, \"ratio\": 0.5, \"note\": null}")
            .expect("parse");
        assert!(d.tags.is_empty());
        assert_eq!(d.note, None);
    }

    #[test]
    fn pretty_format_matches_serde_json() {
        let v = Json::Object(vec![
            ("a".into(), Json::UInt(1)),
            ("b".into(), Json::Array(vec![Json::Bool(true), Json::Null])),
            ("c".into(), Json::Object(vec![])),
        ]);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ],\n  \"c\": {}\n}"
        );
        assert_eq!(v.to_compact(), "{\"a\":1,\"b\":[true,null],\"c\":{}}");
    }

    #[test]
    fn parser_handles_escapes_numbers_and_nesting() {
        let v: Json = r#" { "s": "a\nbA", "n": -5, "f": 2.5e2, "u": 18446744073709551615,
                            "arr": [ 1 , 2 ,3 ], "o": { } } "#
            .parse()
            .expect("parse");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\nbA"));
        assert_eq!(v.get("n"), Some(&Json::Int(-5)));
        assert_eq!(v.get("f"), Some(&Json::Float(250.0)));
        assert_eq!(v.get("u"), Some(&Json::UInt(u64::MAX)));
        assert_eq!(
            v.get("arr").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert!("{not json".parse::<Json>().is_err());
        assert!("[1,]".parse::<Json>().is_err());
        assert!("1 2".parse::<Json>().is_err());
    }

    #[test]
    fn float_whole_values_keep_point() {
        assert_eq!(Json::Float(83.32).to_compact(), "83.32");
        assert_eq!(Json::Float(1.0).to_compact(), "1.0");
        assert_eq!(Json::Float(f64::NAN).to_compact(), "null");
    }
}
