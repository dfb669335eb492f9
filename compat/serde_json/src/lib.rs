//! Offline stand-in for [`serde_json`](https://docs.rs/serde_json/1.0).
//!
//! [`to_string`] and [`from_str`] over the vendored `serde` crate, whose
//! traits write and read JSON text directly. Floats are rendered with Rust's
//! shortest roundtrip formatting, so `parse(render(x)) == x` for every
//! finite `f64` (the upstream `float_roundtrip` feature is therefore always
//! on).

pub use serde::Error;
use serde::{Deserialize, Reader, Serialize, Writer};

/// Serialize a value to compact JSON text.
///
/// # Errors
/// Never fails for the value model in this workspace; the `Result` exists
/// for call-site compatibility with upstream serde_json.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut w = Writer::default();
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Deserialize a value from JSON text.
///
/// # Errors
/// Fails on malformed JSON, on JSON that does not match `T`, and on
/// trailing characters; the error names the byte offset where it stopped.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut r = Reader::new(text);
    let value = T::deserialize(&mut r)?;
    r.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Number, Value};

    #[test]
    fn text_roundtrip() {
        let v: Vec<(String, Option<f64>)> =
            vec![("a\"b\\c\n".to_string(), Some(0.1)), ("π∈ℝ".to_string(), None)];
        let json = to_string(&v).unwrap();
        let back: Vec<(String, Option<f64>)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for &f in &[0.1f64, 1.0 / 3.0, 1e-308, 12345.6789e12, -0.0, 271.828_182_845] {
            let json = to_string(&f).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{json}");
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(from_str::<f64>("1.2.3").is_err());
        assert!(from_str::<Vec<u8>>("[1,2").is_err());
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<bool>("true false").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(from_str::<Value>(&"[".repeat(200_000)).is_err());
        let nested = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(from_str::<Value>(&nested).is_ok());
        assert!(from_str::<Value>(&format!("[{nested}]")).is_err());
    }

    #[test]
    fn errors_name_the_field_path_and_the_byte_offset() {
        #[derive(Debug, serde::Deserialize)]
        struct Outer {
            _inner: Vec<u8>,
        }
        let e = from_str::<Outer>("{\"_inner\": [1, \"x\"]}").unwrap_err();
        assert_eq!(e.offset(), 15);
        assert_eq!(e.to_string(), "Outer._inner: expected u8, found string at byte 15");
        let e = from_str::<String>("\"unterminated").unwrap_err();
        assert_eq!(e.to_string(), "unterminated string at byte 13");
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Shape {
        Unit,
        Newtype(u8),
        Tuple(u8, String),
        #[rustfmt::skip]
        Struct { a: u8, #[serde(skip)] b: u8 },
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Fields {
        z: Shape,
        a: Vec<Shape>,
        #[serde(skip)]
        skipped: u8,
    }

    #[test]
    fn pins_the_bytes_of_enum_variants_and_struct_fields() {
        let v = Fields {
            z: Shape::Unit,
            a: vec![Shape::Newtype(1), Shape::Tuple(2, "x".into()), Shape::Struct { a: 3, b: 4 }],
            skipped: 5,
        };
        let json = r#"{"z":"Unit","a":[{"Newtype":1},{"Tuple":[2,"x"]},{"Struct":{"a":3}}]}"#;
        assert_eq!(to_string(&v).unwrap(), json);
        let back: Fields = from_str(json).unwrap();
        assert_eq!(back.a[2], Shape::Struct { a: 3, b: 0 });
        // Fields in any order, unknown keys skipped, missing fields rejected.
        let reordered: Fields = from_str(r#"{"a":[],"x":{"y":[1]},"z":"Unit"}"#).unwrap();
        assert_eq!(reordered, Fields { z: Shape::Unit, a: vec![], skipped: 0 });
        assert!(from_str::<Fields>(r#"{"a":[]}"#).is_err());
        let map: std::collections::BTreeMap<u8, Vec<f64>> = [(3, vec![1.0]), (1, vec![])].into();
        assert_eq!(to_string(&map).unwrap(), "[[1,[]],[3,[1.0]]]");
        assert!(from_str::<Shape>(r#"{"Newtype":1,"Unit":null}"#).is_err());
    }

    #[test]
    fn pins_the_bytes_of_strings_and_numbers() {
        let s = "q\"b\\s\n\r\t\u{1}\u{1f}é€😀";
        let json = r#""q\"b\\s\n\r\t\u0001\u001fé€😀""#;
        assert_eq!(to_string(s).unwrap(), json);
        assert_eq!(from_str::<String>(json).unwrap(), s);
        assert_eq!(from_str::<String>(r#""\ud83d\ude00\/\b\f""#).unwrap(), "😀/\u{8}\u{c}");
        assert!(from_str::<String>(r#""\ud83d""#).is_err());
        assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
        let floats = [f64::NAN, f64::NEG_INFINITY, 1e16, 2.5e-7];
        assert_eq!(to_string(&floats[..]).unwrap(), "[null,null,10000000000000000.0,0.00000025]");
        assert!(from_str::<f64>("null").unwrap().is_nan());
        assert_eq!(from_str::<f64>("-7").unwrap(), -7.0);
        assert!(from_str::<i64>("1.0").is_err());
        let (big, text) = (u64::MAX - 1, "18446744073709551614");
        assert_eq!(to_string(&big).unwrap(), text);
        assert_eq!(from_str::<u64>(text).unwrap(), big);
        assert!(from_str::<i64>(text).is_err());
        assert_eq!(from_str::<Value>(text).unwrap(), Value::Num(Number::U64(big)));
        assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
    }
}
