//! Description-file round trips (Section 2: "created once, then used
//! to load the topology") across every platform, enriched and not.

use mctop::backend::SimProber;
use mctop::desc::Provenance;
use mctop::enrich::{
    enrich_all,
    SimEnricher, //
};
use mctop::ProbeConfig;

mod support;

fn cfg() -> ProbeConfig {
    ProbeConfig {
        reps: 3,
        ..ProbeConfig::fast()
    }
}

#[test]
fn roundtrip_every_platform_enriched() {
    let dir = std::env::temp_dir();
    for spec in mcsim::presets::all_paper_platforms() {
        let mut p = SimProber::noiseless(&spec);
        let mut topo = mctop::infer(&mut p, &cfg()).unwrap();
        let mut mem = SimEnricher::new(&spec);
        let mut pow = SimEnricher::new(&spec);
        enrich_all(&mut topo, &mut mem, &mut pow).unwrap();
        topo.freq_ghz = Some(spec.freq_ghz);
        let prov = Provenance::new(&spec.name, &cfg(), None, true);

        let path = dir.join(mctop::desc::default_filename(&format!("it-{}", spec.name)));
        mctop::desc::save(&topo, &prov, &path).unwrap();
        let (loaded, loaded_prov) = mctop::desc::load_full(&path).unwrap();
        assert_eq!(topo, loaded, "{}", spec.name);
        assert_eq!(prov, loaded_prov, "{}", spec.name);
        // The reloaded topology answers queries identically.
        assert_eq!(loaded.max_latency(), topo.max_latency());
        assert_eq!(loaded.closest_sockets(0), topo.closest_sockets(0));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn description_is_human_inspectable_json() {
    let spec = mcsim::presets::synthetic_small();
    let mut p = SimProber::noiseless(&spec);
    let topo = mctop::infer(&mut p, &cfg()).unwrap();
    let prov = Provenance::new(&spec.name, &cfg(), None, false);
    let s = mctop::desc::to_string(&topo, &prov).unwrap();
    // Key structures visible by name, provenance header included.
    for needle in [
        "\"sockets\"",
        "\"levels\"",
        "\"version\"",
        "\"provenance\"",
        "\"machine\"",
        "\"generator\"",
    ] {
        assert!(s.contains(needle), "missing {needle}");
    }
    // The latency table is derived on load, never stored.
    assert!(!s.contains("\"lat_table\""), "{s}");
}

/// A format-2 text of each committed description (the table stored)
/// loads to the same topology as the format-3 file, with its header's
/// `format_version` 2; with one table entry raised it is refused, and
/// the error names that entry.
#[test]
fn every_committed_file_still_loads_as_format_2() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("descs");
    let mut files = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let (topo, prov) = mctop::desc::from_str_full(&text).unwrap();
        let (topo2, prov2) = mctop::desc::from_str_full(&support::v2_text(&text, None))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(topo2, topo, "{}", path.display());
        let v2 = Provenance {
            format_version: 2,
            ..prov
        };
        assert_eq!(prov2, v2, "{}", path.display());

        let (a, b) = (topo.num_hwcs() - 1, 0);
        let was = topo.get_latency(a, b);
        match mctop::desc::from_str(&support::v2_text(&text, Some((a, b)))) {
            Err(mctop::McTopError::IrregularTopology(msg)) => assert_eq!(
                msg,
                format!(
                    "latency table entry ({a}, {b}) is {}, but the groups and links give {was}",
                    was + 1
                )
            ),
            other => panic!("{}: {other:?}", path.display()),
        }
        files += 1;
    }
    assert_eq!(files, 16);
}

#[test]
fn loading_rejects_tampered_hierarchies() {
    let spec = mcsim::presets::synthetic_small();
    let mut p = SimProber::noiseless(&spec);
    let topo = mctop::infer(&mut p, &cfg()).unwrap();
    let prov = Provenance::new(&spec.name, &cfg(), None, false);
    let s = mctop::desc::to_string(&topo, &prov).unwrap();
    let mut v: serde_json::Value = serde_json::from_str(&s).unwrap();
    // Move a context into the wrong socket record.
    v["topology"]["sockets"][0]["hwcs"][0] = serde_json::json!(99);
    assert!(mctop::desc::from_str(&v.to_string()).is_err());
}

/// The three envelope entries of a committed description, as
/// (compact) text.
fn envelope_parts() -> [(&'static str, String); 3] {
    let text = mctop::registry::shipped_source("synth-nosmt").unwrap();
    let v: serde_json::Value = serde_json::from_str(text).unwrap();
    [
        ("version", v["version"].to_string()),
        ("provenance", v["provenance"].to_string()),
        ("topology", v["topology"].to_string()),
    ]
}

fn envelope(entries: &[(&str, &str)]) -> String {
    let entries: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn invalid(text: &str) -> String {
    match mctop::desc::from_str_full(text).unwrap_err() {
        mctop::McTopError::InvalidDescription(msg) => msg,
        other => panic!("expected InvalidDescription, got {other}"),
    }
}

#[test]
fn envelope_keys_load_in_any_order() {
    let parts = envelope_parts();
    let text = mctop::registry::shipped_source("synth-nosmt").unwrap();
    let expected = mctop::desc::from_str_full(text).unwrap();
    for order in [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ] {
        let entries = order.map(|i| (parts[i].0, parts[i].1.as_str()));
        let loaded = mctop::desc::from_str_full(&envelope(&entries)).unwrap();
        assert_eq!(loaded, expected, "{order:?}");
    }
}

#[test]
fn envelope_gates_come_before_payload_errors_in_any_order() {
    let [(_, version), (_, prov), (_, topo)] = envelope_parts();
    let bad_topo = topo.replacen("\"smt\":1", "\"smt\":\"one\"", 1);
    let bad_prov = prov.replacen("\"enriched\":true", "\"enriched\":1", 1);
    // A v1-shaped file fails on its version even when `version` is
    // written last and the payload before it would not deserialize.
    for entries in [
        vec![("topology", "{\"name\": \"ivy\"}"), ("version", "1")],
        vec![
            ("topology", bad_topo.as_str()),
            ("provenance", bad_prov.as_str()),
            ("version", "1"),
        ],
    ] {
        let msg = invalid(&envelope(&entries));
        assert!(msg.contains("unsupported description version 1"), "{msg}");
    }
    // Then the missing header, then the payloads in envelope order.
    for entries in [
        vec![("version", "2"), ("topology", bad_topo.as_str())],
        vec![("topology", bad_topo.as_str()), ("version", "2")],
    ] {
        let msg = invalid(&envelope(&entries));
        assert!(msg.contains("missing provenance header"), "{msg}");
    }
    for entries in [
        [
            ("version", &version),
            ("provenance", &bad_prov),
            ("topology", &bad_topo),
        ],
        [
            ("topology", &bad_topo),
            ("provenance", &bad_prov),
            ("version", &version),
        ],
        [
            ("provenance", &bad_prov),
            ("version", &version),
            ("topology", &bad_topo),
        ],
    ] {
        let entries = entries.map(|(k, v)| (k, v.as_str()));
        let msg = invalid(&envelope(&entries));
        assert!(
            msg.contains("field `provenance`: field `enriched`: "),
            "{msg}"
        );
    }
    let msg = invalid(&envelope(&[
        ("topology", &bad_topo),
        ("provenance", &prov),
        ("version", "2"),
    ]));
    assert!(msg.contains("field `topology`: field `smt`: "), "{msg}");
    let msg = invalid(&envelope(&[("provenance", &prov), ("topology", &topo)]));
    assert!(msg.contains("missing field `version`"), "{msg}");
    let msg = invalid(&envelope(&[("version", "2"), ("provenance", &prov)]));
    assert!(msg.contains("missing field `topology`"), "{msg}");
}

#[test]
fn first_duplicate_wins_and_unknown_keys_are_skipped() {
    let [(_, version), (_, prov), (_, topo)] = envelope_parts();
    let text = mctop::registry::shipped_source("synth-nosmt").unwrap();
    let expected = mctop::desc::from_str_full(text).unwrap();
    // In the envelope: later duplicates are ignored whatever they hold,
    // as long as they are JSON.
    let dup = envelope(&[
        ("comment", "[1, {\"x\": null}]"),
        ("version", &version),
        ("version", "1"),
        ("provenance", &prov),
        ("provenance", "7"),
        ("topology", &topo),
        ("topology", "{\"name\": \"other\"}"),
        ("trailer", "\"x\""),
    ]);
    assert_eq!(mctop::desc::from_str_full(&dup).unwrap(), expected);
    // In a derived struct: `smt` twice, and a key `Mctop` never had.
    let edited = topo.replacen(
        "\"smt\":1,",
        "\"smt\":1, \"smt\":7, \"colour\": {\"r\": [0]},",
        1,
    );
    assert_ne!(edited, topo);
    let text = envelope(&[
        ("version", &version),
        ("provenance", &prov),
        ("topology", &edited),
    ]);
    assert_eq!(mctop::desc::from_str_full(&text).unwrap(), expected);
    // A duplicate that is not JSON is still a syntax error.
    let broken = envelope(&[("version", "2"), ("version", "{")]);
    assert!(mctop::desc::from_str_full(&broken).is_err());
}
