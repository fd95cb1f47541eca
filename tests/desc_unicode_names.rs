//! A description whose machine name lies outside the Basic Multilingual
//! Plane loads the same whether the name is written raw, as
//! `desc::to_string` writes it, or as a `\u` surrogate pair, as
//! Python's `json.dump` writes it by default. The two fixtures are
//! `descs/synth-nosmt.mct.json` renamed `synth-nosmt-😀`, the second
//! one re-saved by `json.dump(value, file, indent=2)`.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{name}.mct.json"))
}

#[test]
fn a_name_written_as_a_surrogate_pair_loads_as_the_raw_name() {
    let (topo, prov) = mctop::desc::load_full(&fixture("emoji-name")).unwrap();
    assert_eq!(prov.machine, "synth-nosmt-\u{1F600}");
    assert_eq!(topo.name, prov.machine);

    let ascii = std::fs::read_to_string(fixture("emoji-name-ascii")).unwrap();
    assert!(ascii.is_ascii());
    assert!(ascii.contains(r#""machine": "synth-nosmt-\ud83d\ude00""#));
    assert_eq!(
        mctop::desc::load_full(&fixture("emoji-name-ascii")).unwrap(),
        (topo.clone(), prov.clone())
    );

    // The raw file is the writer's own text.
    let raw = std::fs::read_to_string(fixture("emoji-name")).unwrap();
    assert_eq!(mctop::desc::to_string(&topo, &prov).unwrap(), raw);
}
