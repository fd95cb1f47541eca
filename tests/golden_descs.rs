//! Golden coverage of the committed `descs/` library: every file must
//! be exactly what the canonical inference pipeline produces today
//! (inference determinism + format stability), and the registry must
//! serve it as one shared view.

use std::path::PathBuf;
use std::sync::Arc;

use mctop::desc;
use mctop::registry::{
    self,
    Registry, //
};

fn descs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("descs")
}

/// The cache-coherent presets (paper platforms + small synthetics) —
/// all of them are shipped compiled-in.
fn all_specs() -> Vec<mcsim::MachineSpec> {
    mcsim::presets::all_paper_platforms()
        .into_iter()
        .chain(mcsim::presets::all_synthetic())
        .collect()
}

/// Every preset with a committed desc file, including the mesh-scale
/// NoC family (of which only the 64-socket members are compiled in).
fn committed_specs() -> Vec<mcsim::MachineSpec> {
    all_specs()
        .into_iter()
        .chain(mcsim::presets::all_mesh_scale())
        .collect()
}

/// `load(descs/<name>) == infer(preset)` (+ enrichment) for every
/// preset, down to the exact bytes: the committed artifact and a fresh
/// canonical inference agree (the pipeline is noiseless, so there is no
/// measurement noise to tolerate), and `mct regen-descs` on a clean
/// tree is a no-op diff (what the golden-descriptions CI job enforces
/// through the binary).
#[test]
fn committed_descs_match_fresh_canonical_inference() {
    for spec in committed_specs() {
        let path = descs_dir().join(desc::default_filename(&spec.name));
        let on_disk = std::fs::read_to_string(&path).expect("committed desc exists");
        let (fresh, fresh_prov) = desc::canonical(&spec).expect("canonical inference");
        let rendered = desc::to_string(&fresh, &fresh_prov).expect("render");
        assert_eq!(on_disk, rendered, "{}: descs/ file is stale", spec.name);
        // And the artifact loads back to that same inference result.
        let (loaded, prov) = desc::from_str_full(&on_disk).unwrap_or_else(|e| {
            panic!("{}: cannot load {}: {e}", spec.name, path.display());
        });
        assert_eq!(loaded, fresh, "{}: loaded desc diverges", spec.name);
        assert_eq!(prov, fresh_prov, "{}: provenance drifted", spec.name);
    }
}

/// The shipped (compiled-in) library is the same set of files.
#[test]
fn shipped_library_matches_committed_files() {
    let mut names = registry::shipped_names();
    names.sort_unstable();
    // Compiled in: every cache-coherent preset plus the 64-socket
    // mesh-scale members (the larger NoC descs stay disk-only).
    let mut specs: Vec<String> = all_specs().iter().map(|s| s.name.clone()).collect();
    specs.push("synth-mesh-64".into());
    specs.push("synth-circulant-64".into());
    specs.sort();
    assert_eq!(names, specs);
    for name in registry::shipped_names() {
        let path = descs_dir().join(desc::default_filename(name));
        let on_disk = std::fs::read_to_string(&path).expect("committed desc exists");
        assert_eq!(
            registry::shipped_source(name),
            Some(on_disk.as_str()),
            "{name}: compiled-in copy is stale"
        );
    }
}

/// Repeated and concurrent registry lookups share one `Arc<TopoView>`.
#[test]
fn registry_shares_one_view_per_topology() {
    let reg = Arc::new(Registry::shipped());
    let first = reg.view("sparc").expect("shipped sparc");
    assert!(Arc::ptr_eq(&first, &reg.view("sparc").unwrap()));

    let views: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let reg = Arc::clone(&reg);
                scope.spawn(move || reg.view("sparc").unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for view in &views {
        assert!(Arc::ptr_eq(&first, view));
    }
}

/// Every shipped description builds a view and answers the basic
/// queries the application layers rely on.
#[test]
fn every_shipped_description_serves_queries() {
    let reg = Registry::shipped();
    let shipped = registry::shipped_names();
    let specs: Vec<_> = committed_specs()
        .into_iter()
        .filter(|s| shipped.contains(&s.name.as_str()))
        .collect();
    for spec in &specs {
        let view = reg.view(&spec.name).expect("loadable");
        assert_eq!(view.num_hwcs(), spec.total_hwcs(), "{}", spec.name);
        assert_eq!(view.num_sockets(), spec.sockets, "{}", spec.name);
        assert!(view.socket_latency(0, 0) > 0, "{}", spec.name);
        assert!(view.socket_level().is_some(), "{}", spec.name);
        // Enrichment made it into the artifact.
        assert!(view.topo().caches.is_some(), "{}", spec.name);
        assert_eq!(
            view.topo().power.is_some(),
            spec.power.has_rapl,
            "{}",
            spec.name
        );
        assert_eq!(view.topo().freq_ghz, Some(spec.freq_ghz), "{}", spec.name);
    }
    assert_eq!(specs.len(), shipped.len());
    // Each view was memoized: a second lookup hands out the same one.
    for spec in &specs {
        let (a, b) = (reg.view(&spec.name).unwrap(), reg.view(&spec.name).unwrap());
        assert!(Arc::ptr_eq(&a, &b), "{}", spec.name);
    }
}

/// The disk-only mesh-scale descs (too large to compile in) still load,
/// round-trip byte-identically, and pick the sparse view backend.
#[test]
fn disk_only_mesh_descs_round_trip_and_serve() {
    let shipped = registry::shipped_names();
    for spec in mcsim::presets::all_mesh_scale() {
        if shipped.contains(&spec.name.as_str()) {
            continue;
        }
        let path = descs_dir().join(desc::default_filename(&spec.name));
        let on_disk = std::fs::read_to_string(&path).expect("committed desc exists");
        let (topo, prov) = desc::from_str_full(&on_disk).expect("loads");
        assert_eq!(
            desc::to_string(&topo, &prov).expect("render"),
            on_disk,
            "{}: desc does not round-trip",
            spec.name
        );
        let view = mctop::TopoView::new(Arc::new(topo));
        assert_eq!(view.num_sockets(), spec.sockets, "{}", spec.name);
        assert_eq!(
            view.backend(),
            mctop::view::ViewBackend::Sparse,
            "{}",
            spec.name
        );
    }
}
