//! Quickstart: infer a topology, query it, persist it, reload it.
//!
//! Run with `cargo run --example quickstart`.

use mctop::alg::validate;
use mctop::backend::SimProber;
use mctop::enrich::{
    enrich_all,
    SimEnricher, //
};
use mctop::ProbeConfig;

fn main() {
    // 1. Pick a machine. On real hardware this would be the host (see
    //    the `host_inference` example); here we use the paper's Ivy
    //    Bridge model.
    let spec = mcsim::presets::ivy();

    // 2. Run MCTOP-ALG: latency probes -> clusters -> components ->
    //    topology.
    let mut prober = SimProber::new(&spec, 42);
    let mut topo = mctop::infer(&mut prober, &ProbeConfig::fast()).expect("inference");
    println!("{}", topo.summary());

    // 3. Enrich with the Section-4 plugins (memory, cache, power).
    let mut mem = SimEnricher::new(&spec);
    let mut pow = SimEnricher::new(&spec);
    enrich_all(&mut topo, &mut mem, &mut pow).expect("enrichment");

    // 4. Index the topology and query it (the portable vocabulary of
    //    Section 5). The view answers; `view.topo()` hands out the model.
    let view = mctop::TopoView::from(topo);
    let topo = view.topo();
    println!(
        "latency(0, 20)        = {} cycles (SMT siblings)",
        view.get_latency(0, 20)
    );
    println!(
        "latency(0, 10)        = {} cycles (cross-socket)",
        view.get_latency(0, 10)
    );
    println!("local node of ctx 3   = {:?}", topo.get_local_node(3));
    println!("closest to socket 0   = {:?}", view.closest_sockets(0));
    println!("max-bandwidth socket  = {}", view.max_bandwidth_socket());
    println!("backoff quantum (all) = {} cycles", topo.max_latency());

    // 5. Validate and compare against the OS view (Section 3.6).
    validate::validate(topo).expect("structural validation");
    let os = validate::OsTopology::from_spec(&spec);
    let divergences = validate::compare_with_os(topo, &os);
    println!("divergences vs OS     = {divergences:?}");

    // 6. Persist the description file — with its provenance header, so
    //    anyone loading it later can see how it was produced (Section 2).
    let prov = mctop::desc::Provenance::new(&topo.name, &ProbeConfig::fast(), Some(42), true)
        .with_generator("quickstart example");
    let dir = std::env::temp_dir();
    let path = dir.join(mctop::desc::default_filename(&topo.name));
    mctop::desc::save(topo, &prov, &path).expect("save");
    println!("description file      = {}", path.display());

    // 7. "Load everywhere": a Registry resolves descriptions by machine
    //    name and memoizes one shared TopoView per topology, so every
    //    later consumer skips both inference and index construction.
    let registry = mctop::Registry::with_dir(&dir);
    let loaded = registry.view(&topo.name).expect("registry load");
    assert_eq!(loaded.topo(), topo);
    let again = registry.view(&topo.name).expect("cached");
    assert!(std::sync::Arc::ptr_eq(&loaded, &again));
    println!("registry              = same Arc<TopoView> on repeat lookup");
}
