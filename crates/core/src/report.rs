//! Structured analysis reports.
//!
//! Every [`crate::hooks::Analysis`] can render its findings as a
//! [`Report`]: the analysis name plus a JSON-serializable [`JsonValue`].
//! The CLI, the examples, and the bench bins all consume reports instead
//! of printing ad-hoc text, and the pipeline equivalence tests compare
//! fused and sequential runs by their serialized reports.
//!
//! [`JsonValue`] is a small self-contained JSON document model (the build
//! environment is offline, so no external JSON crate): object keys keep
//! insertion order, rendering is deterministic.

use std::fmt;

/// A JSON value. Construct with the `From` impls and the
/// [`JsonValue::object`]/[`JsonValue::array`] helpers.
///
/// # Examples
///
/// ```
/// use wasabi::report::JsonValue;
///
/// let value = JsonValue::object([
///     ("total", JsonValue::from(3u64)),
///     ("ops", JsonValue::array([JsonValue::from("i32.add")])),
/// ]);
/// assert_eq!(value.to_string(), r#"{"total":3,"ops":["i32.add"]}"#);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<JsonValue>),
    /// Key–value pairs in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object from `(key, value)` pairs, keeping their order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn array(values: impl IntoIterator<Item = JsonValue>) -> JsonValue {
        JsonValue::Array(values.into_iter().collect())
    }

    /// `true` for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// The string slice of a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean of a `Bool` value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Any numeric value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// An integral numeric value as an `i64` (floats only if exact).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            JsonValue::UInt(v) => i64::try_from(*v).ok(),
            // In-range check against 2^63 exactly (both bounds are exact
            // f64s); casting would silently saturate out-of-range values.
            JsonValue::Float(v)
                if v.fract() == 0.0 && *v >= -(2f64.powi(63)) && *v < 2f64.powi(63) =>
            {
                Some(*v as i64)
            }
            _ => None,
        }
    }

    /// The elements of an `Array` value.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(values) => Some(values),
            _ => None,
        }
    }

    /// Member lookup on an `Object` value (first match; objects built by
    /// this crate never repeat keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<i32> for JsonValue {
    fn from(v: i32) -> Self {
        JsonValue::Int(v.into())
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(v.into())
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl From<crate::location::Location> for JsonValue {
    fn from(loc: crate::location::Location) -> Self {
        JsonValue::object([("func", loc.func.into()), ("instr", loc.instr.into())])
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(v) => write!(f, "{v}"),
            JsonValue::UInt(v) => write!(f, "{v}"),
            JsonValue::Float(v) if v.is_finite() => write!(f, "{v}"),
            // JSON has no NaN/Inf literal.
            JsonValue::Float(_) => f.write_str("null"),
            JsonValue::Str(s) => write!(f, "\"{}\"", crate::json::escape(s)),
            JsonValue::Array(values) => {
                f.write_str("[")?;
                for (i, value) in values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{value}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{value}", crate::json::escape(key))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The structured output of one analysis: its name plus a JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Analysis name ([`crate::hooks::Analysis::name`]).
    pub analysis: String,
    /// The analysis' findings.
    pub data: JsonValue,
}

impl Report {
    /// A report for `analysis` carrying `data`.
    pub fn new(analysis: impl Into<String>, data: JsonValue) -> Self {
        Report {
            analysis: analysis.into(),
            data,
        }
    }

    /// Render as one JSON object: `{"analysis": ..., "data": ...}`.
    pub fn to_json(&self) -> String {
        JsonValue::object([
            ("analysis", JsonValue::from(self.analysis.clone())),
            ("data", self.data.clone()),
        ])
        .to_string()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::Location;

    #[test]
    fn renders_all_value_kinds() {
        let value = JsonValue::object([
            ("null", JsonValue::Null),
            ("bool", true.into()),
            ("int", (-3i64).into()),
            ("uint", 7u64.into()),
            ("float", 0.5.into()),
            ("nan", f64::NAN.into()),
            ("str", "a\"b".into()),
            ("arr", JsonValue::array([1u64.into(), 2u64.into()])),
        ]);
        assert_eq!(
            value.to_string(),
            r#"{"null":null,"bool":true,"int":-3,"uint":7,"float":0.5,"nan":null,"str":"a\"b","arr":[1,2]}"#
        );
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let value = JsonValue::object([("z", JsonValue::Null), ("a", JsonValue::Null)]);
        assert_eq!(value.to_string(), r#"{"z":null,"a":null}"#);
    }

    #[test]
    fn location_renders_as_object() {
        let value: JsonValue = Location::new(2, -1).into();
        assert_eq!(value.to_string(), r#"{"func":2,"instr":-1}"#);
    }

    #[test]
    fn as_i64_rejects_out_of_range_floats_instead_of_saturating() {
        assert_eq!(JsonValue::Float(1e15).as_i64(), Some(1_000_000_000_000_000));
        assert_eq!(
            JsonValue::Float(-(2f64.powi(62))).as_i64(),
            Some(i64::MIN / 2)
        );
        // 2^63 and beyond are NOT representable as i64; a saturating cast
        // would silently produce i64::MAX here.
        assert_eq!(JsonValue::Float(2f64.powi(63)).as_i64(), None);
        assert_eq!(JsonValue::Float(1e19).as_i64(), None);
        assert_eq!(JsonValue::Float(-1e19).as_i64(), None);
        assert_eq!(JsonValue::Float(1.5).as_i64(), None);
        assert_eq!(JsonValue::UInt(u64::MAX).as_i64(), None);
    }

    #[test]
    fn report_to_json() {
        let report = Report::new("mix", JsonValue::object([("total", 5u64.into())]));
        assert_eq!(report.to_json(), r#"{"analysis":"mix","data":{"total":5}}"#);
        assert_eq!(report.to_string(), report.to_json());
    }
}
