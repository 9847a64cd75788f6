//! Property test for the canonical JSON serializer: `parse(emit(v)) == v`
//! over random **canonical** documents (PR 7 satellite).
//!
//! "Canonical" is the form [`wasabi::json::parse`] itself produces —
//! non-negative integers are `UInt`, negative ones `Int`, floats finite
//! (the parser never yields a non-finite float, and `emit` renders them
//! as `null`). The strategy generates exactly that form, nesting arrays
//! and objects several levels deep, with strings drawn from an alphabet
//! chosen to stress the escape paths: quotes, backslashes, control
//! characters (escaped as `\uXXXX`), raw multi-byte UTF-8 (including an
//! astral-plane char, which emit must pass through, not split into
//! surrogates), and the two-character sequences JSON escapes shorthand
//! (`\n`, `\t`, ...).

use proptest::prelude::*;
use proptest::sample::select;

use wasabi::json::{emit, parse};
use wasabi::report::JsonValue;

/// Strings over an escape-stressing alphabet.
fn string_strategy() -> impl Strategy<Value = String> {
    let alphabet: Vec<char> = vec![
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
        '\u{7f}', 'é', 'ß', '☃', '𝄞',
    ];
    proptest::collection::vec(select(alphabet), 0..12).prop_map(|chars| chars.into_iter().collect())
}

/// Finite floats, biased toward the shapes that have bitten float
/// emitters before: integral values (must emit `.0` to stay Float),
/// negative zero, subnormals, and plain raw-bit noise.
fn float_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>().prop_map(|v| if v.is_finite() { v } else { 0.25 }),
        any::<i32>().prop_map(f64::from), // integral: "200.0" not "200"
        Just(-0.0),
        Just(5e-324), // smallest subnormal
        Just(f64::MAX),
        Just(1e19), // integral, prints with an exponent
    ]
}

/// Canonical scalar values.
fn leaf_strategy() -> impl Strategy<Value = JsonValue> {
    prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        // The parser maps non-negative text to UInt, so canonical Int is
        // strictly negative.
        any::<i64>().prop_map(|v| {
            if v < 0 {
                JsonValue::Int(v)
            } else {
                JsonValue::UInt(v as u64)
            }
        }),
        any::<u64>().prop_map(JsonValue::UInt),
        float_strategy().prop_map(JsonValue::Float),
        string_strategy().prop_map(JsonValue::Str),
    ]
}

/// Canonical documents: scalars nested under arrays and objects. Object
/// keys get a unique index prefix — the parser preserves duplicate keys,
/// but lookup semantics make unique keys the canonical shape worth
/// pinning.
fn document_strategy() -> impl Strategy<Value = JsonValue> {
    leaf_strategy().prop_recursive(4, 32, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(JsonValue::Array),
            (
                proptest::collection::vec(inner, 0..6),
                proptest::collection::vec(string_strategy(), 6),
            )
                .prop_map(|(values, keys)| {
                    JsonValue::Object(
                        values
                            .into_iter()
                            .zip(keys)
                            .enumerate()
                            .map(|(i, (value, key))| (format!("{i}{key}"), value))
                            .collect(),
                    )
                }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        ..ProptestConfig::default()
    })]

    #[test]
    fn parse_of_emit_is_identity_on_canonical_documents(
        value in document_strategy()
    ) {
        let text = emit(&value);
        let round = parse(&text).expect("emit produces valid JSON");
        prop_assert_eq!(&round, &value, "through {}", text);
        // And emit is deterministic on the round-tripped value: a second
        // cycle produces byte-identical text (true canonical form).
        prop_assert_eq!(emit(&round), text);
    }

    #[test]
    fn non_finite_floats_canonicalize_to_null(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        let value = JsonValue::Array(vec![JsonValue::Float(v)]);
        let round = parse(&emit(&value)).expect("valid JSON");
        if v.is_finite() {
            prop_assert_eq!(round, value);
        } else {
            // NaN and the infinities have no JSON spelling; the canonical
            // serializer degrades them to null (documented in json.rs).
            prop_assert_eq!(round, JsonValue::Array(vec![JsonValue::Null]));
        }
    }
}

#[test]
fn megabyte_strings_parse_in_linear_time() {
    // Long plain runs between escapes, multibyte and astral characters:
    // the parser copies each plain run as one slice, so a 1 MB string
    // costs one pass, not one pass per character.
    let chunk = "plain ascii text é ß ☃ 𝄞 \"quoted\" back\\slash\ttab\n\u{1}";
    let big: String = chunk.repeat((1 << 20) / chunk.len() + 1);
    assert!(big.len() >= 1 << 20);
    let value = JsonValue::Array(vec![JsonValue::Str(big), JsonValue::UInt(7)]);
    let text = emit(&value);
    let started = std::time::Instant::now();
    assert_eq!(parse(&text).expect("valid JSON"), value);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "1 MB string took {:?}",
        started.elapsed()
    );

    // Escapes and multibyte characters at run boundaries.
    for (json, want) in [
        (r#""""#, ""),
        (r#""é""#, "é"),
        (r#""a\"b""#, "a\"b"),
        (r#""\\""#, "\\"),
        (r#""xéy""#, "xéy"),
        (r#""☃\n𝄞""#, "☃\n𝄞"),
        // A surrogate pair decodes to one astral character.
        (r#""\ud834\udd1e""#, "𝄞"),
        (r#""a\ud834\udd1eb""#, "a𝄞b"),
    ] {
        assert_eq!(parse(json).unwrap(), JsonValue::Str(want.into()), "{json}");
    }
    assert!(parse(r#""\ud834""#).is_err(), "unpaired surrogate");
    assert!(parse("\"a\u{1}b\"").is_err(), "raw control byte");
    assert!(parse("\"unterminated").is_err());
}
