//! Typed data elements carried in MRNet packets.
//!
//! The paper (§2.4) describes each packet as carrying "an array of data
//! elements, where each element consists mainly of a C union of type
//! integer, float, character, or a pointer to arrays of these types".
//! [`Value`] is the safe Rust rendering of that union, and [`TypeCode`]
//! is the set of conversion specifiers understood in format strings
//! (§2.1: "a format string similar to that used by C formatted I/O
//! primitives printf and scanf … MRNet also adds specifiers for arrays
//! of simple data types").

use crate::error::{PacketError, Result};

/// A conversion specifier from an MRNet format string.
///
/// Scalars use the familiar `printf` letters; array variants prefix the
/// scalar letter with `a` (e.g. `%af` is an array of `f32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeCode {
    /// `%c` — a single byte character.
    Char,
    /// `%d` — signed 32-bit integer.
    Int32,
    /// `%ud` — unsigned 32-bit integer.
    UInt32,
    /// `%ld` — signed 64-bit integer.
    Int64,
    /// `%uld` — unsigned 64-bit integer.
    UInt64,
    /// `%f` — 32-bit float.
    Float,
    /// `%lf` — 64-bit float.
    Double,
    /// `%s` — UTF-8 string.
    Str,
    /// `%ac` — array of bytes.
    CharArray,
    /// `%ad` — array of `i32`.
    Int32Array,
    /// `%aud` — array of `u32`.
    UInt32Array,
    /// `%ald` — array of `i64`.
    Int64Array,
    /// `%auld` — array of `u64`.
    UInt64Array,
    /// `%af` — array of `f32`.
    FloatArray,
    /// `%alf` — array of `f64`.
    DoubleArray,
    /// `%as` — array of strings.
    StrArray,
}

impl TypeCode {
    /// All type codes, in wire-tag order. The position of a code in this
    /// table is its wire tag byte.
    pub const ALL: [TypeCode; 16] = [
        TypeCode::Char,
        TypeCode::Int32,
        TypeCode::UInt32,
        TypeCode::Int64,
        TypeCode::UInt64,
        TypeCode::Float,
        TypeCode::Double,
        TypeCode::Str,
        TypeCode::CharArray,
        TypeCode::Int32Array,
        TypeCode::UInt32Array,
        TypeCode::Int64Array,
        TypeCode::UInt64Array,
        TypeCode::FloatArray,
        TypeCode::DoubleArray,
        TypeCode::StrArray,
    ];

    /// Parses the body of a conversion specifier (the part after `%`).
    pub fn from_spec(spec: &str) -> Result<TypeCode> {
        Ok(match spec {
            "c" => TypeCode::Char,
            "d" => TypeCode::Int32,
            "ud" | "u" => TypeCode::UInt32,
            "ld" => TypeCode::Int64,
            "uld" | "lu" => TypeCode::UInt64,
            "f" => TypeCode::Float,
            "lf" => TypeCode::Double,
            "s" => TypeCode::Str,
            "ac" => TypeCode::CharArray,
            "ad" => TypeCode::Int32Array,
            "aud" | "au" => TypeCode::UInt32Array,
            "ald" => TypeCode::Int64Array,
            "auld" | "alu" => TypeCode::UInt64Array,
            "af" => TypeCode::FloatArray,
            "alf" => TypeCode::DoubleArray,
            "as" => TypeCode::StrArray,
            other => return Err(PacketError::UnknownSpecifier(format!("%{other}"))),
        })
    }

    /// The canonical specifier text, including the leading `%`.
    pub fn spec(self) -> &'static str {
        match self {
            TypeCode::Char => "%c",
            TypeCode::Int32 => "%d",
            TypeCode::UInt32 => "%ud",
            TypeCode::Int64 => "%ld",
            TypeCode::UInt64 => "%uld",
            TypeCode::Float => "%f",
            TypeCode::Double => "%lf",
            TypeCode::Str => "%s",
            TypeCode::CharArray => "%ac",
            TypeCode::Int32Array => "%ad",
            TypeCode::UInt32Array => "%aud",
            TypeCode::Int64Array => "%ald",
            TypeCode::UInt64Array => "%auld",
            TypeCode::FloatArray => "%af",
            TypeCode::DoubleArray => "%alf",
            TypeCode::StrArray => "%as",
        }
    }

    /// The wire tag byte identifying this type in self-describing
    /// encodings.
    pub fn tag(self) -> u8 {
        Self::ALL
            .iter()
            .position(|&t| t == self)
            .expect("every TypeCode is in ALL") as u8
    }

    /// Recovers a type code from its wire tag byte.
    pub fn from_tag(tag: u8) -> Result<TypeCode> {
        Self::ALL
            .get(tag as usize)
            .copied()
            .ok_or(PacketError::UnknownTypeTag(tag))
    }

    /// Whether this code denotes an array type.
    pub fn is_array(self) -> bool {
        matches!(
            self,
            TypeCode::CharArray
                | TypeCode::Int32Array
                | TypeCode::UInt32Array
                | TypeCode::Int64Array
                | TypeCode::UInt64Array
                | TypeCode::FloatArray
                | TypeCode::DoubleArray
                | TypeCode::StrArray
        )
    }

    /// The element type of an array code, or `self` for scalars.
    pub fn element_type(self) -> TypeCode {
        match self {
            TypeCode::CharArray => TypeCode::Char,
            TypeCode::Int32Array => TypeCode::Int32,
            TypeCode::UInt32Array => TypeCode::UInt32,
            TypeCode::Int64Array => TypeCode::Int64,
            TypeCode::UInt64Array => TypeCode::UInt64,
            TypeCode::FloatArray => TypeCode::Float,
            TypeCode::DoubleArray => TypeCode::Double,
            TypeCode::StrArray => TypeCode::Str,
            scalar => scalar,
        }
    }

    /// The array code whose element type is `self`; `None` for `self`
    /// already being an array (nested arrays are not supported, as in
    /// the paper).
    pub fn array_of(self) -> Option<TypeCode> {
        Some(match self {
            TypeCode::Char => TypeCode::CharArray,
            TypeCode::Int32 => TypeCode::Int32Array,
            TypeCode::UInt32 => TypeCode::UInt32Array,
            TypeCode::Int64 => TypeCode::Int64Array,
            TypeCode::UInt64 => TypeCode::UInt64Array,
            TypeCode::Float => TypeCode::FloatArray,
            TypeCode::Double => TypeCode::DoubleArray,
            TypeCode::Str => TypeCode::StrArray,
            _ => return None,
        })
    }
}

/// A single typed data element in a packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A single byte character (`%c`).
    Char(u8),
    /// Signed 32-bit integer (`%d`).
    Int32(i32),
    /// Unsigned 32-bit integer (`%ud`).
    UInt32(u32),
    /// Signed 64-bit integer (`%ld`).
    Int64(i64),
    /// Unsigned 64-bit integer (`%uld`).
    UInt64(u64),
    /// 32-bit float (`%f`).
    Float(f32),
    /// 64-bit float (`%lf`).
    Double(f64),
    /// UTF-8 string (`%s`).
    Str(String),
    /// Array of bytes (`%ac`).
    CharArray(Vec<u8>),
    /// Array of `i32` (`%ad`).
    Int32Array(Vec<i32>),
    /// Array of `u32` (`%aud`).
    UInt32Array(Vec<u32>),
    /// Array of `i64` (`%ald`).
    Int64Array(Vec<i64>),
    /// Array of `u64` (`%auld`).
    UInt64Array(Vec<u64>),
    /// Array of `f32` (`%af`).
    FloatArray(Vec<f32>),
    /// Array of `f64` (`%alf`).
    DoubleArray(Vec<f64>),
    /// Array of strings (`%as`).
    StrArray(Vec<String>),
}

impl Value {
    /// The type code of this value.
    pub fn type_code(&self) -> TypeCode {
        match self {
            Value::Char(_) => TypeCode::Char,
            Value::Int32(_) => TypeCode::Int32,
            Value::UInt32(_) => TypeCode::UInt32,
            Value::Int64(_) => TypeCode::Int64,
            Value::UInt64(_) => TypeCode::UInt64,
            Value::Float(_) => TypeCode::Float,
            Value::Double(_) => TypeCode::Double,
            Value::Str(_) => TypeCode::Str,
            Value::CharArray(_) => TypeCode::CharArray,
            Value::Int32Array(_) => TypeCode::Int32Array,
            Value::UInt32Array(_) => TypeCode::UInt32Array,
            Value::Int64Array(_) => TypeCode::Int64Array,
            Value::UInt64Array(_) => TypeCode::UInt64Array,
            Value::FloatArray(_) => TypeCode::FloatArray,
            Value::DoubleArray(_) => TypeCode::DoubleArray,
            Value::StrArray(_) => TypeCode::StrArray,
        }
    }

    /// Returns the contained `i32`, if this is a `%d` value.
    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Value::Int32(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the contained `u32`, if this is a `%ud` value.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Value::UInt32(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the contained `i64`, if this is a `%ld` value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the contained `u64`, if this is a `%uld` value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the contained `f32`, if this is a `%f` value.
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the contained `f64`, if this is a `%lf` value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the contained string slice, if this is a `%s` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the contained `f32` slice, if this is a `%af` value.
    pub fn as_f32_slice(&self) -> Option<&[f32]> {
        match self {
            Value::FloatArray(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the contained `f64` slice, if this is a `%alf` value.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match self {
            Value::DoubleArray(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the contained `i32` slice, if this is a `%ad` value.
    pub fn as_i32_slice(&self) -> Option<&[i32]> {
        match self {
            Value::Int32Array(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the contained `i64` slice, if this is a `%ald` value.
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match self {
            Value::Int64Array(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the contained `u32` slice, if this is a `%aud` value.
    pub fn as_u32_slice(&self) -> Option<&[u32]> {
        match self {
            Value::UInt32Array(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the contained `u64` slice, if this is a `%auld` value.
    pub fn as_u64_slice(&self) -> Option<&[u64]> {
        match self {
            Value::UInt64Array(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the contained string array, if this is a `%as` value.
    pub fn as_str_array(&self) -> Option<&[String]> {
        match self {
            Value::StrArray(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the contained byte slice, if this is a `%ac` value.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::CharArray(v) => Some(v),
            _ => None,
        }
    }

    /// Number of elements: 1 for scalars, the array length for arrays.
    pub fn len(&self) -> usize {
        match self {
            Value::CharArray(v) => v.len(),
            Value::Int32Array(v) => v.len(),
            Value::UInt32Array(v) => v.len(),
            Value::Int64Array(v) => v.len(),
            Value::UInt64Array(v) => v.len(),
            Value::FloatArray(v) => v.len(),
            Value::DoubleArray(v) => v.len(),
            Value::StrArray(v) => v.len(),
            _ => 1,
        }
    }

    /// True only for empty array values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact encoded size in bytes of the value's body on the wire
    /// (its type-tag byte excluded).
    pub fn encoded_size_hint(&self) -> usize {
        match self {
            Value::Char(_) => 1,
            Value::Int32(_) | Value::UInt32(_) | Value::Float(_) => 4,
            Value::Int64(_) | Value::UInt64(_) | Value::Double(_) => 8,
            Value::Str(s) => 4 + s.len(),
            Value::CharArray(v) => 4 + v.len(),
            Value::Int32Array(v) => 4 + 4 * v.len(),
            Value::UInt32Array(v) => 4 + 4 * v.len(),
            Value::Int64Array(v) => 4 + 8 * v.len(),
            Value::UInt64Array(v) => 4 + 8 * v.len(),
            Value::FloatArray(v) => 4 + 4 * v.len(),
            Value::DoubleArray(v) => 4 + 8 * v.len(),
            Value::StrArray(v) => 4 + v.iter().map(|s| 4 + s.len()).sum::<usize>(),
        }
    }
}

macro_rules! impl_from {
    ($($from:ty => $variant:ident),* $(,)?) => {
        $(impl From<$from> for Value {
            fn from(v: $from) -> Value { Value::$variant(v) }
        })*
    };
}

impl_from! {
    i32 => Int32,
    u32 => UInt32,
    i64 => Int64,
    u64 => UInt64,
    f32 => Float,
    f64 => Double,
    String => Str,
    Vec<u8> => CharArray,
    Vec<i32> => Int32Array,
    Vec<u32> => UInt32Array,
    Vec<i64> => Int64Array,
    Vec<u64> => UInt64Array,
    Vec<f32> => FloatArray,
    Vec<f64> => DoubleArray,
    Vec<String> => StrArray,
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_from_spec() {
        for code in TypeCode::ALL {
            let spec = code.spec();
            assert_eq!(TypeCode::from_spec(&spec[1..]).unwrap(), code);
        }
    }

    #[test]
    fn tag_round_trips() {
        for code in TypeCode::ALL {
            assert_eq!(TypeCode::from_tag(code.tag()).unwrap(), code);
        }
        assert!(matches!(
            TypeCode::from_tag(200),
            Err(PacketError::UnknownTypeTag(200))
        ));
    }

    #[test]
    fn from_spec_rejects_unknown() {
        assert!(TypeCode::from_spec("q").is_err());
        assert!(TypeCode::from_spec("").is_err());
        assert!(TypeCode::from_spec("dd").is_err());
    }

    #[test]
    fn from_spec_accepts_aliases() {
        assert_eq!(TypeCode::from_spec("u").unwrap(), TypeCode::UInt32);
        assert_eq!(TypeCode::from_spec("lu").unwrap(), TypeCode::UInt64);
        assert_eq!(TypeCode::from_spec("au").unwrap(), TypeCode::UInt32Array);
        assert_eq!(TypeCode::from_spec("alu").unwrap(), TypeCode::UInt64Array);
    }

    #[test]
    fn array_element_relationships() {
        for code in TypeCode::ALL {
            if code.is_array() {
                assert_eq!(code.element_type().array_of(), Some(code));
            } else {
                let arr = code.array_of().expect("every scalar has an array form");
                assert_eq!(arr.element_type(), code);
                assert!(arr.is_array());
            }
        }
    }

    #[test]
    fn value_type_codes_match_variants() {
        assert_eq!(Value::Int32(3).type_code(), TypeCode::Int32);
        assert_eq!(Value::Str("x".into()).type_code(), TypeCode::Str);
        assert_eq!(
            Value::FloatArray(vec![1.0, 2.0]).type_code(),
            TypeCode::FloatArray
        );
    }

    #[test]
    fn typed_getters() {
        assert_eq!(Value::Int32(-7).as_i32(), Some(-7));
        assert_eq!(Value::Int32(-7).as_f32(), None);
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("hi".into()).as_str(), Some("hi"));
        assert_eq!(
            Value::FloatArray(vec![1.0]).as_f32_slice(),
            Some(&[1.0f32][..])
        );
        assert_eq!(Value::UInt64(9).as_u64(), Some(9));
    }

    #[test]
    fn lengths() {
        assert_eq!(Value::Int32(1).len(), 1);
        assert!(!Value::Int32(1).is_empty());
        assert_eq!(Value::Int32Array(vec![]).len(), 0);
        assert!(Value::Int32Array(vec![]).is_empty());
        assert_eq!(Value::StrArray(vec!["a".into(), "b".into()]).len(), 2);
    }

    #[test]
    fn conversions_from_rust_types() {
        let v: Value = 42i32.into();
        assert_eq!(v, Value::Int32(42));
        let v: Value = "abc".into();
        assert_eq!(v, Value::Str("abc".into()));
        let v: Value = vec![1.0f64, 2.0].into();
        assert_eq!(v, Value::DoubleArray(vec![1.0, 2.0]));
    }

    #[test]
    fn encoded_size_hints_reasonable() {
        assert_eq!(Value::Char(b'x').encoded_size_hint(), 1);
        assert_eq!(Value::Int32(0).encoded_size_hint(), 4);
        assert_eq!(Value::Str("abcd".into()).encoded_size_hint(), 8);
        assert_eq!(Value::Int64Array(vec![0; 3]).encoded_size_hint(), 28);
    }
}
