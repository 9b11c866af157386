//! Dependency-free JSON serialization.
//!
//! The workspace persists captured traces as JSON (`cpvr-core`'s
//! `export` module). To keep the build hermetic this module provides the
//! whole stack in-tree: a [`Value`] model, a strict parser, a pretty
//! printer, [`ToJson`] / [`FromJson`] traits with impls for the standard
//! building blocks, and `impl_json_*` macros that derive impls for
//! structs, enums, and id newtypes.
//!
//! The encoding matches serde's externally-tagged default, so traces
//! written by earlier builds parse unchanged: structs are objects, unit
//! enum variants are strings, newtype variants are `{"Name": value}`,
//! tuple variants are `{"Name": [..]}`, and struct variants are
//! `{"Name": {..}}`. `Option` is `null` or the bare value.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A parsed JSON document.
///
/// Objects preserve insertion order (serialization is deterministic) and
/// are looked up by linear scan — every object this workspace writes is
/// small.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A number with a fractional or exponent part.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// A serialization or parse failure, with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// An error carrying `msg`.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Looks up a required object field.
    pub fn field(&self, name: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::new(format!("missing field `{name}`"))),
            other => Err(JsonError::new(format!(
                "expected object with `{name}`, got {other:?}"
            ))),
        }
    }

    /// Renders with two-space indentation and a trailing newline-free
    /// final line, like `serde_json::to_string_pretty`.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Renders without any inter-token whitespace, like
    /// `serde_json::to_string` — the form wire protocols and logs want,
    /// at roughly half the bytes of [`render_pretty`](Self::render_pretty).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::F64(f) => {
                if f.fract() == 0.0 && f.is_finite() {
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&f.to_string());
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::F64(f) => {
                if f.fract() == 0.0 && f.is_finite() {
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&f.to_string());
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Types that serialize to a [`Value`].
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Value;
}

/// Types that deserialize from a [`Value`].
pub trait FromJson: Sized {
    /// Reconstructs `Self`, rejecting malformed input with an error.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

/// Serializes any [`ToJson`] type to pretty-printed JSON.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render_pretty()
}

/// Serializes any [`ToJson`] type to compact (whitespace-free) JSON —
/// the encoding the collector's wire codec and WAL use.
pub fn to_string_compact<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render_compact()
}

/// Parses JSON text into any [`FromJson`] type.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

// ---------------------------------------------------------------------
// Primitive impls.

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let n = match v {
                    Value::U64(n) => *n,
                    other => {
                        return Err(JsonError::new(format!(
                            "expected unsigned integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(n).map_err(|_| {
                    JsonError::new(format!("{n} out of range for {}", stringify!($t)))
                })
            }
        }
    )+};
}

impl_json_uint!(u8, u16, u32, u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Value {
        if *self >= 0 {
            Value::U64(*self as u64)
        } else {
            Value::I64(*self)
        }
    }
}

impl FromJson for i64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::U64(n) => {
                i64::try_from(*n).map_err(|_| JsonError::new(format!("{n} out of range for i64")))
            }
            Value::I64(n) => Ok(*n),
            other => Err(JsonError::new(format!("expected integer, got {other:?}"))),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            Value::F64(f) => Ok(*f),
            other => Err(JsonError::new(format!("expected number, got {other:?}"))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(JsonError::new(format!("expected string, got {other:?}"))),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(x) => x.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

/// A shared value is its value: the count is not part of the encoding.
impl<T: ToJson> ToJson for Arc<T> {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Arc<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        T::from_json(v).map(Arc::new)
    }
}

/// A boxed value is its value: where it lives is not part of the
/// encoding.
impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        T::from_json(v).map(Box::new)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::new(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: ToJson + Ord> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::new(format!("expected array, got {other:?}"))),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => Err(JsonError::new(format!(
                "expected 2-element array, got {other:?}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Impls for this crate's own types.

impl ToJson for crate::Ipv4Prefix {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl FromJson for crate::Ipv4Prefix {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) => s
                .parse()
                .map_err(|e| JsonError::new(format!("bad prefix `{s}`: {e}"))),
            other => Err(JsonError::new(format!(
                "expected prefix string, got {other:?}"
            ))),
        }
    }
}

impl ToJson for crate::SimTime {
    fn to_json(&self) -> Value {
        Value::U64(self.as_nanos())
    }
}

impl FromJson for crate::SimTime {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(crate::SimTime::from_nanos(u64::from_json(v)?))
    }
}

crate::impl_json_newtype!(crate::ids, RouterId);
crate::impl_json_newtype!(crate::ids, AsNum);
crate::impl_json_newtype!(crate::ids, IfaceId);

// ---------------------------------------------------------------------
// Derive-style macros.

/// Implements `ToJson` / `FromJson` for a one-field tuple struct
/// (`$path::$ty(pub N)`), serializing the inner value bare.
#[macro_export]
macro_rules! impl_json_newtype {
    ($path:path, $ty:ident) => {
        const _: () = {
            use $path as base;
            impl $crate::json::ToJson for base::$ty {
                fn to_json(&self) -> $crate::json::Value {
                    $crate::json::ToJson::to_json(&self.0)
                }
            }
            impl $crate::json::FromJson for base::$ty {
                fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                    Ok(base::$ty($crate::json::FromJson::from_json(v)?))
                }
            }
        };
    };
}

/// Implements `ToJson` / `FromJson` for a plain struct with named
/// fields, serializing as an object in the listed order. A field marked
/// `#[omit_none]` (an `Option`) is left out of the object when `None`
/// and read back as `None` when absent, so a member added after an
/// encoding shipped leaves older writers' objects readable.
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($(#[$mark:ident])? $f:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                let mut fields = Vec::with_capacity([$(stringify!($f)),+].len());
                fields.extend(
                    [$($crate::impl_json_struct!(@put self, $f $(, $mark)?)),+]
                        .into_iter()
                        .flatten(),
                );
                $crate::json::Value::Object(fields)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                Ok($ty {
                    $($f: $crate::impl_json_struct!(@get v, $f $(, $mark)?),)+
                })
            }
        }
    };
    (@put $s:ident, $f:ident) => {
        Some((stringify!($f).to_string(), $crate::json::ToJson::to_json(&$s.$f)))
    };
    (@put $s:ident, $f:ident, omit_none) => {
        $s.$f
            .as_ref()
            .map(|x| (stringify!($f).to_string(), $crate::json::ToJson::to_json(x)))
    };
    (@get $v:ident, $f:ident) => {
        $crate::json::FromJson::from_json($v.field(stringify!($f))?)?
    };
    (@get $v:ident, $f:ident, omit_none) => {
        match $v.field(stringify!($f)) {
            Ok(x) => $crate::json::FromJson::from_json(x)?,
            Err(_) => None,
        }
    };
}

/// Returns the payload of an externally-tagged variant object
/// (`{"Name": payload}`) when the tag matches.
pub fn variant_inner<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) if fields.len() == 1 && fields[0].0 == name => Some(&fields[0].1),
        _ => None,
    }
}

/// Splits a tuple-variant payload into `n` element values (`n == 1`
/// means the payload is the bare element).
pub fn tuple_values(v: &Value, n: usize) -> Result<Vec<&Value>, JsonError> {
    if n == 1 {
        return Ok(vec![v]);
    }
    match v {
        Value::Array(items) if items.len() == n => Ok(items.iter().collect()),
        other => Err(JsonError::new(format!(
            "expected {n}-element array, got {other:?}"
        ))),
    }
}

/// Wraps tuple-variant fields in the externally-tagged encoding.
pub fn variant_value(name: &str, mut vals: Vec<Value>) -> Value {
    let payload = if vals.len() == 1 {
        vals.pop().unwrap()
    } else {
        Value::Array(vals)
    };
    Value::Object(vec![(name.to_string(), payload)])
}

/// Implements `ToJson` / `FromJson` for an enum in serde's
/// externally-tagged encoding. Unit, tuple, and struct variants are all
/// supported; the trailing comma on the last variant is optional (so
/// rustfmt may collapse short invocations onto one line).
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($body:tt)* }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::impl_json_enum!(@to_arms self, $ty, [], $($body)*)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                $crate::impl_json_enum!(@from_chain v, $ty, $($body)*);
                Err($crate::json::JsonError::new(format!(
                    "unrecognized {} value: {:?}", stringify!($ty), v
                )))
            }
        }
    };

    // --- serialization: accumulate match arms, then emit the match.
    (@to_arms $self:ident, $ty:ident, [$($arms:tt)*],) => {
        match $self { $($arms)* }
    };
    (@to_arms $self:ident, $ty:ident, [$($arms:tt)*], $var:ident { $($f:ident),+ $(,)? }, $($rest:tt)*) => {
        $crate::impl_json_enum!(@to_arms $self, $ty, [
            $($arms)*
            $ty::$var { $($f),+ } => $crate::json::Value::Object(vec![(
                stringify!($var).to_string(),
                $crate::json::Value::Object(vec![
                    $((stringify!($f).to_string(), $crate::json::ToJson::to_json($f)),)+
                ]),
            )]),
        ], $($rest)*)
    };
    (@to_arms $self:ident, $ty:ident, [$($arms:tt)*], $var:ident ( $($f:ident),+ $(,)? ), $($rest:tt)*) => {
        $crate::impl_json_enum!(@to_arms $self, $ty, [
            $($arms)*
            $ty::$var($($f),+) => $crate::json::variant_value(
                stringify!($var),
                vec![$($crate::json::ToJson::to_json($f)),+],
            ),
        ], $($rest)*)
    };
    (@to_arms $self:ident, $ty:ident, [$($arms:tt)*], $var:ident, $($rest:tt)*) => {
        $crate::impl_json_enum!(@to_arms $self, $ty, [
            $($arms)*
            $ty::$var => $crate::json::Value::Str(stringify!($var).to_string()),
        ], $($rest)*)
    };
    // A last variant without a trailing comma: normalize and recurse.
    (@to_arms $self:ident, $ty:ident, [$($arms:tt)*], $var:ident { $($f:ident),+ $(,)? }) => {
        $crate::impl_json_enum!(@to_arms $self, $ty, [$($arms)*], $var { $($f),+ },)
    };
    (@to_arms $self:ident, $ty:ident, [$($arms:tt)*], $var:ident ( $($f:ident),+ $(,)? )) => {
        $crate::impl_json_enum!(@to_arms $self, $ty, [$($arms)*], $var($($f),+),)
    };
    (@to_arms $self:ident, $ty:ident, [$($arms:tt)*], $var:ident) => {
        $crate::impl_json_enum!(@to_arms $self, $ty, [$($arms)*], $var,)
    };

    // --- deserialization: a chain of early-return matches.
    (@from_chain $v:ident, $ty:ident,) => {};
    (@from_chain $v:ident, $ty:ident, $var:ident { $($f:ident),+ $(,)? }, $($rest:tt)*) => {
        if let Some(inner) = $crate::json::variant_inner($v, stringify!($var)) {
            return Ok($ty::$var {
                $($f: $crate::json::FromJson::from_json(inner.field(stringify!($f))?)?,)+
            });
        }
        $crate::impl_json_enum!(@from_chain $v, $ty, $($rest)*);
    };
    (@from_chain $v:ident, $ty:ident, $var:ident ( $($f:ident),+ $(,)? ), $($rest:tt)*) => {
        if let Some(inner) = $crate::json::variant_inner($v, stringify!($var)) {
            let n = [$(stringify!($f)),+].len();
            let vals = $crate::json::tuple_values(inner, n)?;
            let mut it = vals.into_iter();
            return Ok($ty::$var($({
                let _ = stringify!($f);
                $crate::json::FromJson::from_json(it.next().expect("arity checked"))?
            }),+));
        }
        $crate::impl_json_enum!(@from_chain $v, $ty, $($rest)*);
    };
    (@from_chain $v:ident, $ty:ident, $var:ident, $($rest:tt)*) => {
        if let $crate::json::Value::Str(s) = $v {
            if s == stringify!($var) {
                return Ok($ty::$var);
            }
        }
        $crate::impl_json_enum!(@from_chain $v, $ty, $($rest)*);
    };
    // A last variant without a trailing comma: normalize and recurse.
    (@from_chain $v:ident, $ty:ident, $var:ident { $($f:ident),+ $(,)? }) => {
        $crate::impl_json_enum!(@from_chain $v, $ty, $var { $($f),+ },)
    };
    (@from_chain $v:ident, $ty:ident, $var:ident ( $($f:ident),+ $(,)? )) => {
        $crate::impl_json_enum!(@from_chain $v, $ty, $var($($f),+),)
    };
    (@from_chain $v:ident, $ty:ident, $var:ident) => {
        $crate::impl_json_enum!(@from_chain $v, $ty, $var,)
    };
}

// ---------------------------------------------------------------------
// Parser.

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, and frames arrive off the network on threads with the default
/// stack, so a document of nothing but `[` must be an error, not a stack
/// overflow. The deepest document this workspace writes is far shallower.
pub(crate) const MAX_DEPTH: usize = 128;

/// Parses a JSON document, rejecting trailing garbage and nesting
/// deeper than `MAX_DEPTH`.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::new(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(JsonError::new(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, JsonError>) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(JsonError::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(JsonError::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(JsonError::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(JsonError::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| JsonError::new("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs don't occur in our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(JsonError::new(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| JsonError::new("invalid utf-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        if integral {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(n) = stripped.parse::<u64>() {
                    if n <= i64::MAX as u64 + 1 {
                        return Ok(Value::I64((-(n as i128)) as i64));
                    }
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| JsonError::new(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ipv4Prefix, RouterId, SimTime};

    #[test]
    fn scalar_roundtrips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::U64(u64::MAX),
            Value::I64(-42),
            Value::Str("a \"quoted\"\nline".to_string()),
        ] {
            let text = v.render_pretty();
            assert_eq!(parse(&text).unwrap(), v, "text: {text}");
        }
    }

    #[test]
    fn nested_structure_roundtrips() {
        let v = Value::Object(vec![
            (
                "xs".to_string(),
                Value::Array(vec![Value::U64(1), Value::Null]),
            ),
            ("o".to_string(), Value::Object(vec![])),
            ("e".to_string(), Value::Array(vec![])),
        ]);
        assert_eq!(parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn workspace_types_roundtrip() {
        let p: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        assert_eq!(Ipv4Prefix::from_json(&p.to_json()).unwrap(), p);
        let t = SimTime::from_nanos(123_456_789);
        assert_eq!(SimTime::from_json(&t.to_json()).unwrap(), t);
        let r = RouterId(7);
        assert_eq!(RouterId::from_json(&r.to_json()).unwrap(), r);
        assert_eq!(r.to_json(), Value::U64(7));
    }

    #[test]
    fn options_vecs_tuples() {
        let x: Option<u32> = None;
        assert_eq!(x.to_json(), Value::Null);
        let y: Option<(RouterId, u32)> = Some((RouterId(1), 9));
        let back: Option<(RouterId, u32)> = FromJson::from_json(&y.to_json()).unwrap();
        assert_eq!(back, y);
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_json(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(u32::from_json(&Value::Str("3".into())).is_err());
        assert!(u8::from_json(&Value::U64(300)).is_err());
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&past).is_err());
    }

    #[derive(Debug, PartialEq)]
    enum Sample {
        Unit,
        One(u32),
        Two(u32, u32),
        Named { a: u32, b: Option<u32> },
    }
    crate::impl_json_enum!(Sample {
        Unit,
        One(x),
        Two(x, y),
        Named { a, b },
    });

    #[test]
    fn enum_encoding_matches_serde_externally_tagged() {
        assert_eq!(Sample::Unit.to_json(), Value::Str("Unit".into()));
        assert_eq!(
            Sample::One(5).to_json(),
            Value::Object(vec![("One".into(), Value::U64(5))])
        );
        assert_eq!(
            Sample::Two(1, 2).to_json(),
            Value::Object(vec![(
                "Two".into(),
                Value::Array(vec![Value::U64(1), Value::U64(2)])
            )])
        );
        for s in [
            Sample::Unit,
            Sample::One(7),
            Sample::Two(8, 9),
            Sample::Named { a: 1, b: None },
            Sample::Named { a: 1, b: Some(2) },
        ] {
            assert_eq!(Sample::from_json(&s.to_json()).unwrap(), s);
        }
        assert!(Sample::from_json(&Value::Str("Nope".into())).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Plain {
        n: u32,
        name: String,
    }
    crate::impl_json_struct!(Plain { n, name });

    #[test]
    fn struct_macro_roundtrips_and_validates() {
        let p = Plain {
            n: 3,
            name: "x".into(),
        };
        let v = p.to_json();
        assert_eq!(Plain::from_json(&v).unwrap(), p);
        assert!(Plain::from_json(&Value::Object(vec![("n".into(), Value::U64(3))])).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Tagged {
        n: u32,
        tag: Option<u32>,
    }
    crate::impl_json_struct!(Tagged {
        n,
        #[omit_none]
        tag
    });

    #[test]
    fn omit_none_fields_are_left_out_and_read_back_absent() {
        let bare = Tagged { n: 1, tag: None };
        let v = bare.to_json();
        assert_eq!(v, Value::Object(vec![("n".into(), Value::U64(1))]));
        assert_eq!(Tagged::from_json(&v).unwrap(), bare);
        let tagged = Tagged { n: 1, tag: Some(7) };
        assert_eq!(Tagged::from_json(&tagged.to_json()).unwrap(), tagged);
        // An unmarked field is still required.
        assert!(Tagged::from_json(&Value::Object(Vec::new())).is_err());
    }
}
