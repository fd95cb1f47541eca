//! Description-file round trips (Section 2: "created once, then used
//! to load the topology") across every platform, enriched and not.

use mctop::backend::SimProber;
use mctop::desc::Provenance;
use mctop::enrich::{
    enrich_all,
    SimEnricher, //
};
use mctop::ProbeConfig;

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

/// The committed descriptions, by path: (path, text, loaded).
fn committed() -> Vec<(std::path::PathBuf, String, mctop::Mctop)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("descs");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let topo = mctop::desc::from_str(&text).unwrap();
            (path, text, topo)
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(files.len(), 16);
    files
}

/// On every committed description the rules derive each record that is
/// not direct: the file stores exactly the `hops == 1` ones.
#[test]
fn every_committed_file_stores_exactly_its_direct_links() {
    for (path, _, topo) in committed() {
        let direct: Vec<_> = topo.links.iter().filter(|l| l.hops == 1).collect();
        assert_eq!(topo.stored_links(), direct, "{}", path.display());
    }
}

/// A record the rules would not reproduce is stored, and only such a
/// record: after one seeded mutation of a committed topology, a write
/// and a read give it back equal, and the file stores the direct
/// records plus exactly the mutated ones.
#[test]
fn records_the_rules_miss_are_stored_and_round_trip() {
    use rand::rngs::SmallRng;
    use rand::{
        Rng,
        SeedableRng, //
    };
    let files: Vec<_> = committed()
        .into_iter()
        .filter(|(_, _, topo)| topo.links.iter().any(|l| l.hops > 1))
        .collect();
    assert!(files.len() >= 6);
    let mut rng = SmallRng::seed_from_u64(39);
    let prov = |topo: &mctop::Mctop| Provenance::new(&topo.name, &cfg(), None, true);
    let mut seen = [0; 3];
    for case in 0..200 {
        let (path, _, base) = &files[rng.gen_range(0..files.len())];
        let mut topo = base.clone();
        let pick = rng.gen_range(0..topo.links.len());
        let direct = |topo: &mctop::Mctop, extra: &[(usize, usize)]| -> Vec<_> {
            let keep =
                |l: &&mctop::model::InterconnectLink| l.hops == 1 || extra.contains(&(l.a, l.b));
            topo.links.iter().filter(keep).cloned().collect()
        };
        let kind = rng.gen_range(0..3);
        seen[kind] += 1;
        let mut moved = None;
        let want = match kind {
            // A multi-hop record's latency moved onto another cross level.
            0 => {
                let multi: Vec<usize> = (0..topo.links.len())
                    .filter(|&i| topo.links[i].hops > 1)
                    .collect();
                let i = multi[rng.gen_range(0..multi.len())];
                let others: Vec<u32> = topo
                    .levels
                    .iter()
                    .filter(|l| matches!(l.role, mctop::model::LevelRole::CrossSocket { .. }))
                    .map(|l| l.latency.median)
                    .filter(|&m| m != topo.links[i].latency)
                    .collect();
                topo.links[i].latency = others[rng.gen_range(0..others.len())];
                moved = Some(topo.links[i].clone());
                direct(&topo, &[(topo.links[i].a, topo.links[i].b)])
            }
            // One record's bandwidth changed.
            1 => {
                let l = &mut topo.links[pick];
                l.bandwidth = Some(l.bandwidth.unwrap_or(0.0) + 0.25);
                let pair = (l.a, l.b);
                direct(&topo, &[pair])
            }
            // One socket's local node forgotten: each record towards it
            // that carries a bandwidth no longer follows from the rules.
            _ => {
                let b = rng.gen_range(1..topo.num_sockets());
                topo.sockets[b].local_node = None;
                let towards: Vec<_> = topo
                    .links
                    .iter()
                    .filter(|l| l.b == b && l.bandwidth.is_some())
                    .map(|l| (l.a, l.b))
                    .collect();
                direct(&topo, &towards)
            }
        };
        let what = format!("case {case}, {}, mutation {kind}", path.display());
        let stored: Vec<_> = topo.stored_links().into_iter().cloned().collect();
        assert!(
            stored == want,
            "{what}: {} stored, {} wanted",
            stored.len(),
            want.len()
        );
        let text = mctop::desc::to_string(&topo, &prov(&topo)).unwrap();
        let back = mctop::desc::from_str(&text).unwrap_or_else(|e| panic!("{what}: {e}"));
        // The table follows the moved latency: every pair of contexts
        // across the moved record's two sockets reads it, every other
        // pair what it read before.
        if let Some(l) = moved {
            let n = topo.num_hwcs();
            for x in 0..n {
                for y in 0..n {
                    let pair = (topo.hwcs[x].socket, topo.hwcs[y].socket);
                    if pair == (l.a, l.b) || pair == (l.b, l.a) {
                        topo.lat_table[x * n + y] = l.latency;
                    }
                }
            }
        }
        assert!(back == topo, "{what}: the round trip changed the topology");
    }
    assert!(seen.iter().all(|&k| k > 20), "{seen:?}");
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
        vec![("version", "4"), ("topology", bad_topo.as_str())],
        vec![("topology", bad_topo.as_str()), ("version", "4")],
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
        ("version", &version),
    ]));
    assert!(msg.contains("field `topology`: field `smt`: "), "{msg}");
    let msg = invalid(&envelope(&[("provenance", &prov), ("topology", &topo)]));
    assert!(msg.contains("missing field `version`"), "{msg}");
    let msg = invalid(&envelope(&[("version", &version), ("provenance", &prov)]));
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
    let broken = envelope(&[("version", &version), ("version", "{")]);
    assert!(mctop::desc::from_str_full(&broken).is_err());
}
