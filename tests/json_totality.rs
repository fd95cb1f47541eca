//! Totality battery for the two entry points that read outside bytes
//! as JSON text — `mctop::desc::from_str_full` and
//! `serde_json::from_str` — in the manner of `wire_proptest.rs`:
//! truncations, byte mutations, hostile nesting, numbers, escapes and
//! encodings give an `Err`, or a value that writes back to text the
//! reader accepts as the same value; never a panic, never an abort, in
//! time linear in the input.

use std::path::PathBuf;
use std::time::{
    Duration,
    Instant, //
};

use mctop::desc;
use rand::rngs::SmallRng;
use rand::{
    Rng,
    SeedableRng, //
};
use serde_json::Value;

fn committed(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("descs")
        .join(desc::default_filename(name));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Both readers on `text`: whatever they accept must survive a write
/// and a second read unchanged.
fn read_both(text: &str) -> (bool, bool) {
    let tree = serde_json::from_str::<Value>(text);
    if let Ok(v) = &tree {
        let again = serde_json::to_string(v).unwrap();
        assert_eq!(serde_json::from_str::<Value>(&again).ok().as_ref(), Some(v));
    }
    let loaded = desc::from_str_full(text);
    if let Ok((topo, prov)) = &loaded {
        let again = desc::to_string(topo, prov).unwrap();
        let (topo2, prov2) = desc::from_str_full(&again).unwrap();
        assert_eq!((&topo2, &prov2), (topo, prov));
    }
    (tree.is_ok(), loaded.is_ok())
}

/// A struct read by the derived reader, with one more entry in front
/// of its own (an unknown key is parsed, then ignored).
fn link_with(entry: &str) -> Result<mcsim::Link, serde_json::Error> {
    serde_json::from_str(&format!(
        "{{{entry}, \"a\": 0, \"b\": 1, \"wire\": 9, \"bandwidth\": 1.5}}"
    ))
}

#[test]
fn every_truncation_of_a_description_is_an_error() {
    let text = committed("synth-nosmt");
    assert_eq!(read_both(&text), (true, true));
    for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        assert_eq!(read_both(&text[..cut]), (false, false), "cut at {cut}");
    }
}

#[test]
fn single_byte_mutations_never_panic() {
    let text = committed("synth-nosmt");
    let mut rng = SmallRng::seed_from_u64(17);
    let (mut not_utf8, mut rejected, mut accepted) = (0, 0, 0);
    for _ in 0..4000 {
        let mut bytes = text.clone().into_bytes();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = rng.gen_range(0..=u8::MAX);
        // `desc::load_full` reads files with `read_to_string`: bytes that are
        // not UTF-8 never reach the parser (see `invalid_utf8_*` below).
        match String::from_utf8(bytes) {
            Err(_) => not_utf8 += 1,
            Ok(mutated) if read_both(&mutated).1 => accepted += 1,
            Ok(_) => rejected += 1,
        }
    }
    // The sample reaches all three outcomes (a digit changed into
    // another digit of a field that validation does not pin still loads).
    assert!(
        not_utf8 > 0 && rejected > 0 && accepted > 0,
        "{not_utf8} {rejected} {accepted}"
    );
}

#[test]
fn a_form_feed_is_not_whitespace() {
    // RFC 8259 §2: only space, tab, line feed and carriage return. A
    // form feed where a space was is a syntax error at its own place.
    let text = committed("synth-nosmt");
    for at in text.match_indices(": ").map(|(i, _)| i + 1).step_by(97) {
        let mutated = format!("{}\u{c}{}", &text[..at], &text[at + 1..]);
        assert_eq!(read_both(&mutated), (false, false), "form feed at {at}");
        let line = 1 + text[..at].matches('\n').count();
        let column = at - text[..at].rfind('\n').map_or(0, |n| n + 1) + 1;
        let place = format!("at line {line} column {column}");
        let tree = serde_json::from_str::<Value>(&mutated).unwrap_err();
        assert!(tree.to_string().ends_with(&place), "{tree} / {place}");
        let loaded = desc::from_str_full(&mutated).unwrap_err();
        assert!(loaded.to_string().ends_with(&place), "{loaded} / {place}");
    }
    assert!(serde_json::from_str::<Value>("{\"a\":\u{c}1}").is_err());
}

#[test]
fn a_description_without_sockets_is_an_error_not_a_panic() {
    // The minimal zero-socket description: every array of the topology
    // empty. It parses, and validation rejects it.
    let mut file: Value = serde_json::from_str(&committed("synth-nosmt")).unwrap();
    let serde_json::InnerValue::Object(entries) = &mut file["topology"].0 else {
        panic!("the topology is an object");
    };
    for (_, value) in entries.iter_mut() {
        if let serde_json::InnerValue::Array(items) = value {
            items.clear();
        }
    }
    let text = serde_json::to_string(&file).unwrap();
    assert_eq!(read_both(&text), (true, false));
    match desc::from_str(&text).unwrap_err() {
        mctop::McTopError::IrregularTopology(_) => {}
        other => panic!("{other}"),
    }
}

#[test]
fn a_description_that_disagrees_with_itself_is_named_not_loaded() {
    // A group member out of range: it parses, and validation names the
    // group and the context.
    let text = committed("synth-nosmt");
    let topo = desc::from_str(&text).unwrap();
    let irregular = |text: &str| {
        assert_eq!(read_both(text), (true, false));
        match desc::from_str(text).unwrap_err() {
            mctop::McTopError::IrregularTopology(msg) => msg,
            other => panic!("{other}"),
        }
    };
    let mut file: Value = serde_json::from_str(&text).unwrap();
    file["topology"]["groups"][3]["hwcs"][0] = serde_json::json!(99);
    assert_eq!(
        irregular(&file.to_string()),
        format!(
            "group 3 holds context 99, but the topology has {} contexts",
            topo.num_hwcs()
        )
    );
}

#[test]
fn a_description_whose_links_contradict_their_rules_is_named_not_loaded() {
    // (a) A text that stores link (0, 3) one hop further than the direct
    // links put it; (b) one whose one direct record is gone, so socket 1
    // is unreachable; (c) one with a second level for two hops, which a
    // derived pair needs. Each parses, and the loader names the pair and
    // both values.
    let irregular = |text: &str| {
        assert_eq!(read_both(text), (true, false));
        match desc::from_str(text).unwrap_err() {
            mctop::McTopError::IrregularTopology(msg) => msg,
            other => panic!("{other}"),
        }
    };
    let opteron = committed("opteron");
    let topo = desc::from_str(&opteron).unwrap();
    let mut far = topo
        .links
        .iter()
        .find(|l| (l.a, l.b) == (0, 3))
        .unwrap()
        .clone();
    assert_eq!(far.hops, 2);
    far.hops = 3;
    let mut links: Vec<_> = topo.stored_links().into_iter().cloned().collect();
    let at = links.partition_point(|l| (l.a, l.b) < (0, 3));
    links.insert(at, far);
    let mut file: Value = serde_json::from_str(&opteron).unwrap();
    file["topology"]["links"] = serde_json::to_value(&links);
    assert_eq!(
        irregular(&file.to_string()),
        "interconnect record (0, 3) has hops 3, but the direct links join the pair in 2"
    );

    let mut file: Value = serde_json::from_str(&committed("ivy")).unwrap();
    file["topology"]["links"] = serde_json::to_value(&Vec::<mctop::model::InterconnectLink>::new());
    assert_eq!(
        irregular(&file.to_string()),
        "socket pair (0, 1) has no interconnect record, and no path of direct links joins it"
    );

    let mut levels = topo.levels.clone();
    levels.push(mctop::model::LatencyLevel {
        index: levels.len(),
        latency: mctop::model::LatTriplet::exact(topo.max_latency() + 10),
        role: mctop::model::LevelRole::CrossSocket { hops: 2 },
    });
    let mut file: Value = serde_json::from_str(&opteron).unwrap();
    file["topology"]["levels"] = serde_json::to_value(&levels);
    let two = topo.links.iter().find(|l| l.hops == 2).unwrap();
    assert_eq!(
        irregular(&file.to_string()),
        format!(
            "socket pair ({}, {}) has no interconnect record and is 2 hops apart, \
             but 2 levels have role CrossSocket {{ hops: 2 }}",
            two.a, two.b
        )
    );
}

#[test]
fn a_description_whose_indices_point_nowhere_is_named_not_loaded() {
    // Each mutation of ivy names a context, core, group, level or node
    // that is not where the field says. Each parses, and the loader
    // refuses it before a reader can index out of range with it.
    let text = committed("ivy");
    let topo = desc::from_str(&text).unwrap();
    let (n, nodes) = (topo.num_hwcs(), topo.num_nodes());
    let (groups, levels) = (topo.groups.len(), topo.levels.len());
    let core = topo.cores[0];
    let other_core = topo.sockets[1].cores[0];
    let socket_group = topo.sockets[0].group;
    type Edit = Box<dyn Fn(&mut Value)>;
    let cases: Vec<(Edit, String)> = vec![
        (
            Box::new(|t| t["sockets"][0]["cores"][0] = serde_json::json!(999)),
            "socket 0 lists group 999 as a core, but it is not a core group of socket 0".into(),
        ),
        (
            Box::new(move |t| t["sockets"][0]["cores"][0] = serde_json::json!(other_core)),
            format!(
                "socket 0 lists group {other_core} as a core, but it is not a core group of socket 0"
            ),
        ),
        (
            Box::new(move |t| t["sockets"][0]["cores"][0] = serde_json::json!(socket_group)),
            format!(
                "socket 0 lists group {socket_group} as a core, but it is not a core group of socket 0"
            ),
        ),
        (
            Box::new(move |t| t["sockets"][0]["cores"][1] = serde_json::json!(core)),
            format!("socket 0 lists core group {core} twice"),
        ),
        (
            Box::new(|t| t["hwcs"][1]["id"] = serde_json::json!(0)),
            "context record 1 has id 0".into(),
        ),
        (
            Box::new(|t| t["hwcs"][0]["core"] = serde_json::json!(999)),
            "context 0 names core 999, but it is in core 0".into(),
        ),
        (
            Box::new(|t| t["hwcs"][0]["core"] = serde_json::json!(1)),
            "context 0 names core 1, but it is in core 0".into(),
        ),
        (
            Box::new(move |t| t["hwcs"][3]["next_closest"] = serde_json::json!(n)),
            format!("context 3 has next_closest {n}, which is not another context"),
        ),
        (
            Box::new(|t| t["hwcs"][3]["next_closest"] = serde_json::json!(3)),
            "context 3 has next_closest 3, which is not another context".into(),
        ),
        (
            Box::new(|t| t["sockets"][0]["local_node"] = serde_json::json!(7)),
            format!("socket 0 has local node 7, but the topology has {nodes} nodes"),
        ),
        (
            Box::new(|t| {
                t["nodes"] = serde_json::to_value(&Vec::<mctop::model::Node>::new());
            }),
            "socket 0 has local node 0, but the topology has 0 nodes".into(),
        ),
        (
            Box::new(|t| t["nodes"][1]["id"] = serde_json::json!(0)),
            "node record 1 has id 0".into(),
        ),
        (
            Box::new(|t| t["nodes"][1]["home_socket"] = serde_json::json!(9)),
            "node 1 has home socket 9, but the topology has 2 sockets".into(),
        ),
        (
            Box::new(|t| t["sockets"][1]["mem_latencies"] = serde_json::json!(vec![280u32; 3])),
            format!("socket 1 has 3 memory latencies, but the topology has {nodes} nodes"),
        ),
        (
            Box::new(|t| t["sockets"][1]["mem_bandwidths"] = serde_json::json!(vec![24.3f64])),
            format!("socket 1 has 1 memory bandwidths, but the topology has {nodes} nodes"),
        ),
        (
            Box::new(move |t| t["groups"][core]["id"] = serde_json::json!(groups)),
            format!("group record {core} has id {groups}"),
        ),
        (
            Box::new(move |t| t["groups"][core]["level"] = serde_json::json!(levels)),
            format!("group {core} has level {levels}, but the topology has {levels} latency levels"),
        ),
        (
            Box::new(move |t| t["groups"][core]["parent"] = serde_json::json!(groups)),
            format!("group {core} has parent {groups}, but the topology has {groups} groups"),
        ),
        (
            Box::new(move |t| t["groups"][socket_group]["children"][2] = serde_json::json!(groups)),
            format!("group {socket_group} has child {groups}, but the topology has {groups} groups"),
        ),
    ];
    for (edit, want) in cases {
        let mut file: Value = serde_json::from_str(&text).unwrap();
        edit(&mut file["topology"]);
        let text = file.to_string();
        assert_eq!(read_both(&text), (true, false), "{want}");
        match desc::from_str(&text).unwrap_err() {
            mctop::McTopError::IrregularTopology(msg) => assert_eq!(msg, want),
            other => panic!("{want}: {other}"),
        }
    }
}

#[test]
fn a_description_over_a_limit_is_refused_before_anything_is_derived() {
    // One file per limit, generated here: a committed description with
    // the array the limit counts grown to one entry past it.
    for (key, what, limit) in [
        ("hwcs", "contexts", desc::MAX_CONTEXTS),
        ("sockets", "sockets", desc::MAX_SOCKETS),
        ("levels", "latency levels", desc::MAX_LEVELS),
        ("groups", "groups", desc::MAX_GROUPS),
    ] {
        let mut file: Value = serde_json::from_str(&committed("synth-nosmt")).unwrap();
        let serde_json::InnerValue::Array(items) = &mut file["topology"][key].0 else {
            panic!("`{key}` is an array");
        };
        let first = items[0].clone();
        items.resize(limit + 1, first);
        let text = serde_json::to_string(&file).unwrap();
        assert_eq!(read_both(&text), (true, false), "{key}");
        match desc::from_str(&text).unwrap_err() {
            mctop::McTopError::InvalidDescription(msg) => assert_eq!(
                msg,
                format!(
                    "{} {what}, over the limit of {limit} {what} a description may have",
                    limit + 1
                )
            ),
            other => panic!("{key}: {other}"),
        }
    }
}

#[test]
fn invalid_utf8_inside_and_outside_strings_is_an_io_error() {
    let text = committed("synth-nosmt");
    let in_string = text.find("synth-nosmt").unwrap();
    let outside = text.find(':').unwrap() + 1;
    for (at, tag) in [(in_string, "in"), (outside, "out")] {
        let mut bytes = text.clone().into_bytes();
        bytes[at] = 0xFF;
        let path = std::env::temp_dir().join(format!("json-totality-{tag}.mct.json"));
        std::fs::write(&path, &bytes).unwrap();
        let err = desc::load_full(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, mctop::McTopError::Io(_)), "{tag}: {err}");
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for unit in ["[", "{\"a\":", "[{\"a\":"] {
        let deep = unit.repeat(200_000);
        assert!(serde_json::from_str::<Value>(&deep).is_err(), "{unit}");
        assert!(desc::from_str(&deep).is_err(), "{unit}");
        // The same nest under a key the envelope ignores.
        let skipped = format!("{{\"version\": 4, \"junk\": {deep}");
        assert!(desc::from_str(&skipped).is_err(), "{unit}");
        assert!(serde_json::from_str::<Vec<u32>>(&deep).is_err(), "{unit}");
    }
    // The cap is 128 containers: far above any description (6).
    let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(serde_json::from_str::<Value>(&nest(128)).is_ok());
    assert!(serde_json::from_str::<Value>(&nest(129)).is_err());
    // ... counted the same way under a key the struct ignores.
    assert!(link_with(&format!("\"junk\": {}", nest(127))).is_ok());
    assert!(link_with(&format!("\"junk\": {}", nest(128))).is_err());
}

#[test]
fn hostile_numbers_are_errors_or_finite() {
    let huge = "1".repeat(400);
    for bad in [huge.as_str(), "-", "1e999", "-1e999", "1.2.3", "--1", "+1"] {
        assert!(serde_json::from_str::<Value>(bad).is_err(), "{bad}");
        assert!(serde_json::from_str::<u32>(bad).is_err(), "{bad}");
        assert!(serde_json::from_str::<f64>(bad).is_err(), "{bad}");
    }
    // A long fraction and an underflowing exponent are finite floats.
    let long = format!("0.{}", "3".repeat(400));
    assert_eq!(serde_json::from_str::<f64>(&long).unwrap(), 1.0 / 3.0);
    assert_eq!(serde_json::from_str::<f64>("1e-999").unwrap(), 0.0);
    // An integer field takes an integer in range, or a float that is
    // one; it never saturates.
    let err = serde_json::from_str::<Vec<u32>>("[1e30, 4294967296.0]").unwrap_err();
    assert!(err.to_string().contains("out of range for u32"), "{err}");
    for bad in ["4294967296", "4294967296.0", "-1", "-1.0", "1.5", "1e30"] {
        assert!(serde_json::from_str::<u32>(bad).is_err(), "{bad}");
    }
    assert_eq!(
        serde_json::from_str::<u32>("4294967295.0").unwrap(),
        u32::MAX
    );
    assert_eq!(serde_json::from_str::<i8>("-128").unwrap(), i8::MIN);
    assert!(serde_json::from_str::<u64>("18446744073709551616.0").is_err());
    assert_eq!(
        serde_json::from_str::<i64>("-9223372036854775808").unwrap(),
        i64::MIN
    );
    // In a struct, the error names the field.
    let text = committed("synth-nosmt").replacen("\"smt\": 1", "\"smt\": 1e30", 1);
    match desc::from_str(&text).unwrap_err() {
        mctop::McTopError::InvalidDescription(msg) => {
            assert!(msg.contains("field `topology`: field `smt`: "), "{msg}")
        }
        other => panic!("{other}"),
    }
}

#[test]
fn bad_escapes_are_errors() {
    for bad in [
        r#""\u""#,
        r#""\u12""#,
        r#""\ud800""#,
        r#""\uZZZZ""#,
        r#""\u+123""#,
        r#""\u00é""#,
        r#""\x41""#,
        r#""\"#,
        r#""abc"#,
    ] {
        assert!(serde_json::from_str::<Value>(bad).is_err(), "{bad}");
        assert!(serde_json::from_str::<String>(bad).is_err(), "{bad}");
        // As an unknown key's value, and as a key.
        assert!(link_with(&format!("\"junk\": {bad}")).is_err(), "{bad}");
        assert!(link_with(&format!("{bad}: 1")).is_err(), "{bad}");
    }
    assert!(link_with(r#""j\u0041\n": "\u0041\n""#).is_ok());
    let ok = serde_json::from_str::<String>(r#""aé\n\/\"""#).unwrap();
    assert_eq!(ok, "a\u{e9}\n/\"");
}

#[test]
fn parse_time_is_near_linear_in_bytes() {
    let (small, large) = (committed("synth-mesh-64"), committed("synth-mesh-256"));
    let min_of_3 = |text: &str| -> Duration {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                desc::from_str_full(text).unwrap();
                serde_json::from_str::<Value>(text).unwrap();
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    let bytes = large.len() as f64 / small.len() as f64;
    let time = min_of_3(&large).as_secs_f64() / min_of_3(&small).as_secs_f64();
    assert!(
        time < 3.0 * bytes,
        "{bytes:.1}x the bytes took {time:.1}x the time"
    );
}
