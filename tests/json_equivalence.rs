//! The JSON shim's writer and reader are each other's inverse on
//! `Value` trees, pretty and compact.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{
    Rng,
    SeedableRng, //
};
use serde_json::{
    InnerValue,
    Value, //
};

/// Strings with everything the writer escapes (quote, backslash, the
/// named and the `\u00XX` control characters), a DEL, multi-byte
/// characters, and runs of plain text between them.
fn string_from(rng: &mut SmallRng) -> String {
    const PIECES: [&str; 12] = [
        "",
        "plain",
        "\"",
        "\\",
        "\n\r\t",
        "\u{0}\u{1}\u{8}\u{c}\u{1f}",
        "\u{7f}",
        "h\u{e9}llo",
        "\u{1F600}",
        "a/b",
        "\\u0041",
        " spaced out ",
    ];
    (0..rng.next_u64() % 5)
        .map(|_| PIECES[rng.next_u64() as usize % PIECES.len()])
        .collect()
}

/// Numbers in the form the reader produces them: non-negative integers
/// as `U64`, negative ones as `I64`, the rest as finite `F64`. Integral
/// floats in [1e15, 2^64) print without a decimal point and read back
/// as integers — equal in value, not in variant — so floats stay out
/// of that band.
fn number_from(rng: &mut SmallRng) -> InnerValue {
    let bits = rng.next_u64();
    match rng.next_u64() % 8 {
        0 => InnerValue::U64(bits % 1000),
        1 => InnerValue::U64(bits),
        2 => InnerValue::U64(u64::MAX),
        3 => InnerValue::I64(-((bits % 1000) as i64) - 1),
        4 => InnerValue::I64(i64::MIN + (bits % 3) as i64),
        5 => InnerValue::F64((bits % 2001) as f64 - 1000.0),
        6 => InnerValue::F64((bits as f64 / u64::MAX as f64 - 0.5) * 1e9),
        _ => {
            let mantissa = 1.0 + (bits % 8999) as f64 / 1000.0;
            let exponent = [-300, -20, -1, 14, 20, 300][rng.next_u64() as usize % 6];
            InnerValue::F64(mantissa * 10f64.powi(exponent) * [1.0, -1.0][(bits % 2) as usize])
        }
    }
}

fn tree_from(rng: &mut SmallRng, depth: u32) -> InnerValue {
    match rng.next_u64() % if depth == 0 { 5 } else { 8 } {
        0 => InnerValue::Null,
        1 => InnerValue::Bool(rng.next_u64() & 1 == 1),
        2 | 3 => number_from(rng),
        4 => InnerValue::Str(string_from(rng)),
        5 | 6 => InnerValue::Array(
            (0..rng.next_u64() % 4)
                .map(|_| tree_from(rng, depth - 1))
                .collect(),
        ),
        _ => InnerValue::Object(
            (0..rng.next_u64() % 4)
                .map(|_| (string_from(rng), tree_from(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn text_of_a_tree_reads_back_as_the_tree(seed in any::<u64>()) {
        let v = Value(tree_from(&mut SmallRng::seed_from_u64(seed), 5));
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Value>(&pretty).unwrap(), &v);
        let compact = serde_json::to_string(&v).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Value>(&compact).unwrap(), &v);
        prop_assert_eq!(&compact, &v.to_string());
        prop_assert_eq!(&serde_json::to_value(&v), &v);
        // Compact is pretty without the layout.
        prop_assert!(compact.len() <= pretty.len());
    }
}

/// The layout `descs/` is written in, pinned on a small tree.
#[test]
fn pretty_layout_is_pinned() {
    let v: Value = serde_json::from_str(
        r#"{"a":[],"b":{},"c":[1,-2,3.0,0.5,1e21,null,true],"d":{"e":"x\ny","f":[[]]}}"#,
    )
    .unwrap();
    let pretty = r#"{
  "a": [],
  "b": {},
  "c": [
    1,
    -2,
    3.0,
    0.5,
    1000000000000000000000,
    null,
    true
  ],
  "d": {
    "e": "x\ny",
    "f": [
      []
    ]
  }
}"#;
    assert_eq!(serde_json::to_string_pretty(&v).unwrap(), pretty);
    // Indentation deeper than the writer's run of spaces.
    let deep: Value =
        serde_json::from_str(&format!("{}1{}", "[".repeat(40), "]".repeat(40))).unwrap();
    let text = serde_json::to_string_pretty(&deep).unwrap();
    assert!(text.contains(&format!("\n{}1\n", " ".repeat(80))), "{text}");
    assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), deep);
}
