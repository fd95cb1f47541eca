use std::borrow::Cow;

use super::{
    from_json,
    to_json,
    Deserialize,
    Reader,
    Serialize,
    Value, //
};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Tuple(u64),
    Struct { a: u32, b: Vec<f64> },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Record {
    shapes: Vec<Shape>,
    name: String,
    on: bool,
    maybe: Option<i8>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Nest {
    Leaf,
    Wrap(Vec<Nest>),
}

/// A field the text does not carry: real serde's attributes on it.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Derived {
    kept: u32,
    #[serde(skip_serializing, default)]
    derived: Vec<u32>,
    after: bool,
}

/// A field written as what a function of the whole struct returns, and
/// read as itself.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Gotten {
    #[serde(getter = "Gotten::evens")]
    items: Vec<u32>,
    after: bool,
}

impl Gotten {
    fn evens(&self) -> Vec<&u32> {
        self.items.iter().filter(|&&v| v % 2 == 0).collect()
    }
}

fn error<T: Deserialize + std::fmt::Debug>(text: &str) -> String {
    from_json::<T>(text).unwrap_err().to_string()
}

#[test]
fn skip_returns_the_values_text_and_leaves_depth_alone() {
    for value in [
        "null",
        "true",
        "false",
        "0",
        "-12.5e3",
        r#""""#,
        r#""a\"bé é""#,
        "[]",
        r#"[1, [2], {"k": "v"}]"#,
        "{ }",
        r#"{"a": [ ], "b\n": {"c": null}}"#,
    ] {
        let text = format!("  {value}  , rest");
        let mut r = Reader::new(&text);
        r.ws();
        assert_eq!(r.skip().unwrap(), value);
        assert_eq!((r.depth, &text[r.i..]), (0, "  , rest"));
        // The same value two containers down.
        let text = format!("[[ {value} ]]");
        let mut r = Reader::new(&text);
        r.array(|r| {
            r.array(|r| {
                assert_eq!(r.depth, 2);
                assert_eq!(r.skip()?, value);
                assert_eq!(r.depth, 2);
                Ok(())
            })
        })
        .unwrap();
        assert_eq!((r.depth, r.i), (0, text.len()));
    }
    // A value that is not one leaves the depth where it was, too.
    for bad in ["[1, [2, }", r#"{"a": {"b" 1}}"#, "[[[", r#"["\x"]"#] {
        let mut r = Reader::new(bad);
        assert!(r.skip().is_err(), "{bad}");
        assert_eq!(r.depth, 0, "{bad}");
    }
}

#[test]
fn string_borrows_without_an_escape_and_owns_with_one() {
    let plain = r#""plain é / text""#;
    let mut r = Reader::new(plain);
    assert!(matches!(
        r.string(true),
        Ok(Cow::Borrowed("plain é / text"))
    ));
    assert_eq!(r.i, plain.len());
    let escaped = r#""a\nbA é\\""#;
    let mut r = Reader::new(escaped);
    match r.string(true) {
        Ok(Cow::Owned(s)) => assert_eq!(s, "a\nbA é\\"),
        other => panic!("{other:?}"),
    }
    assert_eq!(r.i, escaped.len());
    // Only checked: nothing is built, the cursor moves the same.
    let mut r = Reader::new(escaped);
    assert!(matches!(r.string(false), Ok(Cow::Borrowed(""))));
    assert_eq!(r.i, escaped.len());
}

#[test]
fn field_keeps_the_first_duplicate_and_still_checks_a_later_one() {
    let read = from_json::<Record>;
    let first = r#"{"name": "first", "on": true, "maybe": null, "shapes": [],"#;
    let record = read(&format!(
        r#"{first} "name": 7, "on": [{{}}], "other": "x"}}"#
    ))
    .unwrap();
    assert_eq!(record.name, "first");
    assert!(record.on);
    let err = read(&format!(r#"{first} "name": [1,}}"#)).unwrap_err();
    assert!(
        err.to_string().contains("expected a value at line 1"),
        "{err}"
    );
    // What a field's own read reports carries the field's name.
    assert_eq!(
        error::<Record>(r#"{"name": "n", "on": 1}"#),
        "field `on`: expected bool"
    );
    assert_eq!(
        error::<Record>(r#"{"shapes": [{"Struct": {"a": -1, "b": []}}]}"#),
        "field `shapes`: field `a`: integer out of range for u32"
    );
    assert_eq!(
        error::<Record>(r#"{"name": "n", "on": true, "shapes": []}"#),
        "missing field `maybe`"
    );
    assert_eq!(error::<Record>("[]"), "expected object");
}

#[test]
fn derived_types_round_trip() {
    let record = Record {
        shapes: vec![
            Shape::Unit,
            Shape::Tuple(u64::MAX),
            Shape::Struct {
                a: 7,
                b: vec![0.5, -3.0, 1e21],
            },
        ],
        name: "q\"uote\\ \n é".to_string(),
        on: false,
        maybe: Some(-128),
    };
    for pretty in [false, true] {
        let text = to_json(&record, pretty, 0);
        assert_eq!(from_json::<Record>(&text).unwrap(), record, "{text}");
    }
    assert_eq!(
        to_json(&record.shapes, false, 0),
        r#"["Unit",{"Tuple":18446744073709551615},{"Struct":{"a":7,"b":[0.5,-3.0,1000000000000000000000]}}]"#
    );
}

#[test]
fn a_skip_serializing_default_field_is_not_written_and_read_if_present() {
    let full = Derived {
        kept: 1,
        derived: vec![7, 8],
        after: true,
    };
    let text = to_json(&full, false, 0);
    assert_eq!(text, r#"{"kept":1,"after":true}"#);
    let read = from_json::<Derived>(&text).unwrap();
    assert_eq!(
        read,
        Derived {
            derived: Vec::new(),
            ..full
        }
    );
    let carried = r#"{"kept": 1, "derived": [7, 8], "after": true}"#;
    assert_eq!(from_json::<Derived>(carried).unwrap(), full);
    assert_eq!(
        error::<Derived>(r#"{"kept": 1, "derived": [-1], "after": true}"#),
        "field `derived`: integer out of range for u32"
    );
    assert_eq!(
        error::<Derived>(r#"{"derived": [], "after": true}"#),
        "missing field `kept`"
    );
}

#[test]
fn a_getter_field_is_written_as_the_getters_value_and_read_as_itself() {
    let full = Gotten {
        items: vec![1, 2, 3, 4],
        after: true,
    };
    let text = to_json(&full, false, 0);
    assert_eq!(text, r#"{"items":[2,4],"after":true}"#);
    assert_eq!(
        from_json::<Gotten>(&text).unwrap(),
        Gotten {
            items: vec![2, 4],
            after: true,
        }
    );
}

#[test]
fn what_is_not_a_variant_says_so() {
    for text in [
        r#"{"Tuple": 1, "Unit": 2}"#,
        "{}",
        "7",
        "[\"Unit\"]",
        "null",
    ] {
        assert_eq!(error::<Shape>(text), "expected a Shape variant", "{text}");
    }
    // A tag the enum does not have, or has in the other form.
    for (text, tag) in [
        (r#""Nope""#, "Nope"),
        (r#"{"Nope": 1}"#, "Nope"),
        (r#""Tuple""#, "Tuple"),
        (r#"{"Unit": null}"#, "Unit"),
    ] {
        assert_eq!(
            error::<Shape>(text),
            format!("unknown variant {tag} of Shape"),
            "{text}"
        );
    }
    assert_eq!(
        from_json::<Shape>(r#" {"Tuple" : 1 } "#).unwrap(),
        Shape::Tuple(1)
    );
}

#[test]
fn the_nesting_cap_counts_a_variant_object_as_a_container() {
    // Each level is two containers: the variant's object and the array.
    let nest = |levels: usize| {
        format!(
            "{}\"Leaf\"{}",
            "{\"Wrap\":[".repeat(levels),
            "]}".repeat(levels)
        )
    };
    assert!(from_json::<Nest>(&nest(64)).is_ok());
    assert!(from_json::<Value>(&nest(64)).is_ok());
    for text in [nest(65), format!("[{}]", nest(64))] {
        let err = error::<Vec<Nest>>(&text);
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let err = error::<Value>(&text);
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(Reader::new(&text).skip().is_err());
    }
}

#[test]
fn numbers_follow_rfc_8259() {
    // Every reader of a number: typed, the tree, the skip scan.
    let reads = |text: &str| {
        let all = [
            from_json::<f64>(text).is_ok(),
            from_json::<Value>(text).is_ok(),
            Reader::new(text).skip().is_ok_and(|t| t == text),
        ];
        assert!(all.iter().all(|&ok| ok == all[0]), "{text}: {all:?}");
        all[0]
    };
    for good in [
        "0", "-0", "7", "10", "-10", "0.5", "-0.5", "10.25", "0e0", "1e5", "1E5", "1e+5", "1.5e-5",
        "-0.0e-0",
    ] {
        assert!(reads(good), "{good}");
    }
    for bad in [
        "01", "-007", "00.5", "1.", "1.e5", "-.5", ".5", "1e", "1e+", "-", "+1", "0x10", "1_000",
        "1.5.5", "1e5.5", "--1", "Infinity", "NaN",
    ] {
        assert!(!reads(bad), "{bad}");
    }
    assert_eq!(from_json::<u8>("7.0").unwrap(), 7);
    assert_eq!(from_json::<i64>("-0").unwrap(), 0);
    assert_eq!(from_json::<Value>("-0").unwrap(), Value::I64(0));
    assert_eq!(
        from_json::<Value>("18446744073709551616").unwrap(),
        Value::F64(2f64.powi(64))
    );
}

#[test]
fn a_plain_integer_is_read_while_it_is_scanned() {
    // The integer read while it is scanned agrees with the text's
    // value up to 19 digits; from 20 digits on the text is parsed.
    for text in [
        "9999999999999999999",
        "1000000000000000000",
        "18446744073709551615",
    ] {
        assert_eq!(
            from_json::<u64>(text).unwrap(),
            text.parse::<u64>().unwrap()
        );
        assert_eq!(
            from_json::<Value>(text).unwrap(),
            Value::U64(text.parse().unwrap())
        );
    }
    assert_eq!(
        from_json::<Value>("[0,7,10]").unwrap(),
        from_json::<Value>("[0 , 7 , 10]").unwrap()
    );
}

#[test]
fn syntax_errors_give_line_and_column() {
    // On the first line; after a multi-byte character (column 7, byte
    // 8); on the last line; at the end of the text.
    for (text, at) in [
        ("[1, @]", "expected a value at line 1 column 5"),
        ("[\"é\", @]", "expected a value at line 1 column 7"),
        (
            "{\n  \"a\": 1,\n  \"b\": }",
            "expected a value at line 3 column 8",
        ),
        ("[1,\n2", "expected `,` or `]` at line 2 column 2"),
        ("[1] x", "trailing characters at line 1 column 5"),
        ("{\n\"é\" 1}", "expected `:` at line 2 column 5"),
    ] {
        assert_eq!(error::<Value>(text), at, "{text}");
    }
    // Whitespace is space, tab, line feed and carriage return only: a
    // form feed (or any other ASCII space) is not a separator.
    assert!(from_json::<Value>(" \t\r\n{\"a\":\r\n\t 1} \n").is_ok());
    for (text, at) in [
        ("{\"a\":\u{c}1}", "expected a value at line 1 column 6"),
        ("[1,\n\u{c}2]", "expected a value at line 2 column 1"),
        ("\u{c}1", "expected a value at line 1 column 1"),
        ("1\u{b}", "trailing characters at line 1 column 2"),
    ] {
        assert_eq!(error::<Value>(text), at, "{text:?}");
    }
    // A typed reader finds the same error where it expected its type.
    assert_eq!(
        error::<Vec<u32>>("[1, @]"),
        "expected a value at line 1 column 5"
    );
    assert_eq!(error::<Vec<u32>>("[1, \"x\"]"), "expected u32");
}

#[test]
fn floats_and_indents_print_as_core_fmt_would() {
    // An integral float below 1e15 prints as `{x:.1}` does, -0.0 too;
    // anything else as `{x}`.
    for x in [
        0.0f64,
        -0.0,
        1.0,
        -3.0,
        42.0,
        999_999_999_999_999.0,
        -999_999_999_999_999.0,
        1e15,
        -1e15,
        1e21,
        0.5,
        -2.25,
        1.0 / 3.0,
    ] {
        let want = if x.fract() == 0.0 && x.abs() < 1e15 {
            format!("{x:.1}")
        } else {
            format!("{x}")
        };
        assert_eq!(to_json(&x, false, 0), want);
        assert_eq!(to_json(&(x as f32), false, 0), {
            let y = f64::from(x as f32);
            if y.fract() == 0.0 && y.abs() < 1e15 {
                format!("{y:.1}")
            } else {
                format!("{y}")
            }
        });
    }
    assert_eq!(to_json(&f64::NAN, false, 0), "null");
    // Pretty indentation below and beyond the static slice's depth.
    let mut value = Value::U64(1);
    for _ in 0..12 {
        value = Value::Array(vec![value]);
    }
    let text = to_json(&value, true, 0);
    let mut want = String::new();
    for d in 0..12 {
        want += &format!("[\n{}", "  ".repeat(d + 1));
    }
    want += "1";
    for d in (0..12).rev() {
        want += &format!("\n{}]", "  ".repeat(d));
    }
    assert_eq!(text, want);
}

#[test]
fn a_surrogate_pair_escape_is_one_character() {
    for (text, want) in [
        (r#""\ud83d\ude00""#, "\u{1F600}"),
        (r#""\uD83D\uDE00""#, "\u{1F600}"),
        (r#""a\ud83d\ude00b\n""#, "a\u{1F600}b\n"),
        (r#""\ud800\udc00""#, "\u{10000}"),
        (r#""\udbff\udfff""#, "\u{10FFFF}"),
        (r#""\ud83d\ude00\ud83d\ude00""#, "\u{1F600}\u{1F600}"),
    ] {
        assert_eq!(from_json::<String>(text).unwrap(), want, "{text}");
        assert_eq!(from_json::<Value>(text).unwrap(), Value::Str(want.into()));
        assert_eq!(Reader::new(text).skip().unwrap(), text);
        // As a key too.
        let object = format!("{{{text}: 1}}");
        assert_eq!(
            from_json::<Value>(&object).unwrap(),
            Value::Object(vec![(want.into(), Value::U64(1))])
        );
    }
    // A surrogate that is not half of a pair, in order, is no character:
    // the error is where it was before pairs were read, at the first
    // escape's `u`.
    for text in [
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83d\n""#,
        r#""\ud83dA""#,
        r#""\ud83d\ud83d""#,
        r#""\ude00""#,
        r#""\ude00\ud83d""#,
        r#""\ud83d\ude0""#,
        r#""\ud83d\ude0x""#,
        r#""\ud83d\u""#,
        r#""\ud83d\"#,
        r#""\ud83d"#,
    ] {
        assert_eq!(
            error::<String>(text),
            "bad \\u escape at line 1 column 3",
            "{text}"
        );
        assert!(Reader::new(text).skip().is_err(), "{text}");
    }
    assert_eq!(
        error::<Value>(r#"["ok", "x\udfff"]"#),
        "bad \\u escape at line 1 column 11"
    );
}

/// An integer read and written through the generic element loop: what
/// `Vec<T>` did before the integers had a loop of their own.
#[derive(Debug, PartialEq)]
struct Generic<T>(T);

impl<T: Serialize> Serialize for Generic<T> {
    fn write_json(&self, w: &mut super::Writer) {
        self.0.write_json(w);
    }
}

impl<T: Deserialize> Deserialize for Generic<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, super::DeError> {
        T::read_json(r).map(Generic)
    }
}

/// `items` written at nesting depth `depth`.
fn written_at<T: Serialize>(items: &Vec<T>, pretty: bool, depth: usize) -> String {
    let mut w = super::Writer {
        out: Vec::new(),
        pretty,
        depth,
        empty: true,
    };
    items.write_json(&mut w);
    assert!(!w.empty);
    String::from_utf8(w.out).unwrap()
}

/// `text` (whitespace around it) read as a `Vec<T>` at nesting depth
/// `depth`: the value or the error, and where the cursor stopped.
fn read_at<T: Deserialize>(text: &str, depth: usize) -> (Result<Vec<T>, String>, usize) {
    let mut r = Reader::new(text);
    r.depth = depth;
    r.ws();
    let read = Vec::<T>::read_json(&mut r).map_err(|e| e.to_string());
    assert_eq!(r.depth, depth, "{text:?}");
    (read, r.i)
}

/// Tokens that a plain-integer scan must not take, in the place of one
/// element.
const NOT_PLAIN: [&str; 18] = [
    "-0",
    "-5",
    "1.0",
    "1e2",
    "1E2",
    "007",
    "0.5",
    "18446744073709551616",
    "12345678901234567890",
    "99999999999999999999",
    "300",
    "65536",
    "-129",
    "\"7\"",
    "null",
    "[1]",
    "",
    "+1",
];

/// Array texts around `values`: well-formed in several layouts, then
/// with each entry of [`NOT_PLAIN`] put in place of an element, then
/// broken: a trailing comma, a missing `]`, every truncation.
fn array_texts(values: &[String]) -> Vec<String> {
    let mut texts = vec![
        format!("[{}]", values.join(",")),
        format!("[ {} ]", values.join(" , ")),
        format!("[\t{}\r\n]", values.join(",\r\n\t")),
        format!("[\n  {}\n]", values.join(",\n  ")),
    ];
    let some = if values.is_empty() {
        vec!["1".to_string()]
    } else {
        values.to_vec()
    };
    for token in NOT_PLAIN {
        for at in [0, some.len() / 2, some.len() - 1] {
            let mut injected = some.clone();
            injected[at] = token.to_string();
            texts.push(format!("[{}]", injected.join(", ")));
        }
    }
    let full = format!("[{}]", some.join(", "));
    texts.push(format!("[{},]", some.join(", ")));
    texts.push(format!("[{} ,\n]", some.join(", ")));
    texts.push(format!("[{}", some.join(", ")));
    texts.push(format!("[{} 1]", some.join(", ")));
    texts.push(format!("[{};]", some.join(", ")));
    texts.push(format!("[,{}]", some.join(", ")));
    texts.push("[1,\u{c}2]".to_string());
    texts.push(format!("{full} trailing"));
    texts.extend((0..full.len()).map(|cut| full[..cut].to_string()));
    texts
}

macro_rules! integer_array_oracle {
    ($($name:ident: $t:ty,)*) => {$(
        #[test]
        fn $name() {
            // Every digit count, both sides of each power of ten, the
            // extremes, and a seeded spread.
            let mut values: Vec<$t> = vec![<$t>::MIN, <$t>::MAX, 0, 1];
            let mut p = 1i128;
            for _ in 0..20 {
                p *= 10;
                for v in [p - 1, p, p + 1, -(p - 1), -p] {
                    values.extend(<$t>::try_from(v));
                }
            }
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                values.push(x as $t);
                values.push((x % 1000) as $t);
            }
            for len in [0, 1, 2, values.len()] {
                let items = values[..len].to_vec();
                let generic: Vec<Generic<$t>> = items.iter().copied().map(Generic).collect();
                for pretty in [false, true] {
                    for depth in 0..=12 {
                        // The writer: the same bytes.
                        let text = written_at(&items, pretty, depth);
                        assert_eq!(text, written_at(&generic, pretty, depth), "{len} {pretty} {depth}");
                        // The reader, on what the writer wrote.
                        let (read, end) = read_at::<$t>(&text, depth);
                        assert_eq!((read, end), (Ok(items.clone()), text.len()));
                    }
                }
                // The reader on hand-made texts: the same value or the
                // same error, and the cursor in the same place.
                let words: Vec<String> = items.iter().map(|v| v.to_string()).collect();
                for text in array_texts(&words) {
                    for depth in [0, 1, 8, super::MAX_DEPTH - 1, super::MAX_DEPTH] {
                        let (fast, fast_end) = read_at::<$t>(&text, depth);
                        let (slow, slow_end) = read_at::<Generic<$t>>(&text, depth);
                        let slow = slow.map(|v| v.into_iter().map(|g| g.0).collect());
                        assert_eq!(fast, slow, "{text:?} at depth {depth}");
                        assert_eq!(fast_end, slow_end, "{text:?} at depth {depth}");
                    }
                }
            }
        }
    )*};
}

integer_array_oracle! {
    u8_arrays_read_and_write_as_the_element_loop_does: u8,
    u16_arrays_read_and_write_as_the_element_loop_does: u16,
    u32_arrays_read_and_write_as_the_element_loop_does: u32,
    u64_arrays_read_and_write_as_the_element_loop_does: u64,
    usize_arrays_read_and_write_as_the_element_loop_does: usize,
    i8_arrays_read_and_write_as_the_element_loop_does: i8,
    i16_arrays_read_and_write_as_the_element_loop_does: i16,
    i32_arrays_read_and_write_as_the_element_loop_does: i32,
    i64_arrays_read_and_write_as_the_element_loop_does: i64,
    isize_arrays_read_and_write_as_the_element_loop_does: isize,
}

#[test]
fn integer_arrays_nested_in_containers_match_the_element_loop() {
    let nested: Vec<Vec<Vec<u32>>> = vec![vec![], vec![vec![], vec![7]], vec![vec![1, 20, 300]]];
    let generic: Vec<Vec<Vec<Generic<u32>>>> = nested
        .iter()
        .map(|a| {
            a.iter()
                .map(|b| b.iter().copied().map(Generic).collect())
                .collect()
        })
        .collect();
    for pretty in [false, true] {
        let text = to_json(&nested, pretty, 0);
        assert_eq!(text, to_json(&generic, pretty, 0));
        assert_eq!(from_json::<Vec<Vec<Vec<u32>>>>(&text).unwrap(), nested);
    }
    // Below the nesting cap the array is read; at it, refused.
    assert_eq!(
        read_at::<u8>("[1, 2]", super::MAX_DEPTH - 1),
        (Ok(vec![1, 2]), 6)
    );
    assert_eq!(
        read_at::<u8>("[1, 2]", super::MAX_DEPTH),
        (Err("nesting deeper than 128 at line 1 column 1".into()), 0)
    );
}

#[test]
fn whitespace_is_skipped_as_one_byte_at_a_time_would() {
    let one_at_a_time = |bytes: &[u8], mut i: usize| {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(i) {
            i += 1;
        }
        i
    };
    // Runs of every length up to past a word, of spaces alone and mixed
    // with the other three, ending in a non-space (a form feed and `!`,
    // `@` and `` ` ``, which differ from a space in one bit) or at the
    // end of the text.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = (x % 24) as usize;
        let mut text: Vec<u8> = (0..len)
            .map(|k| match (x >> (k % 60)) % 16 {
                0 => b'\t',
                1 => b'\n',
                2 => b'\r',
                _ => b' ',
            })
            .collect();
        text.extend_from_slice(&[b'\x0c', b'!', b'@', b'`', b'0'][..(x >> 61) as usize % 6]);
        for start in 0..=text.len() {
            assert_eq!(
                super::skip_ws(&text, start),
                one_at_a_time(&text, start),
                "{text:?} from {start}"
            );
        }
    }
}
