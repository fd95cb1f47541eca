//! Structural comparison of two topologies for `mct diff`.
//!
//! The comparison walks the MCTOP abstraction top-down — shape first
//! (sockets, cores, contexts, SMT, nodes), then latency levels, the
//! interconnect, memory and the enrichment payloads — and reports one
//! human-readable line per divergence, so `diff` output reads like the
//! paper's Table 1 with the differing rows called out.

use mctop::model::{
    InterconnectLink,
    Mctop, //
};

fn field(out: &mut Vec<String>, name: &str, va: String, vb: String) {
    if va != vb {
        out.push(format!("{name}: {va} != {vb}"));
    }
}

/// All structural differences between two topologies, empty when they
/// are identical.
pub(crate) fn structural(a: &Mctop, b: &Mctop) -> Vec<String> {
    let mut out = Vec::new();

    field(&mut out, "name", a.name.clone(), b.name.clone());
    field(
        &mut out,
        "sockets",
        a.num_sockets().to_string(),
        b.num_sockets().to_string(),
    );
    field(
        &mut out,
        "cores",
        a.num_cores().to_string(),
        b.num_cores().to_string(),
    );
    field(
        &mut out,
        "contexts",
        a.num_hwcs().to_string(),
        b.num_hwcs().to_string(),
    );
    field(&mut out, "smt", a.smt.to_string(), b.smt.to_string());
    field(
        &mut out,
        "memory nodes",
        a.num_nodes().to_string(),
        b.num_nodes().to_string(),
    );
    field(
        &mut out,
        "levels",
        a.levels.len().to_string(),
        b.levels.len().to_string(),
    );

    for (la, lb) in a.levels.iter().zip(&b.levels) {
        field(
            &mut out,
            &format!("level {}", la.index),
            format!("{:?} @ {} cy", la.role, la.latency.median),
            format!("{:?} @ {} cy", lb.role, lb.latency.median),
        );
    }

    field(
        &mut out,
        "links",
        a.links.len().to_string(),
        b.links.len().to_string(),
    );
    for (la, lb) in a.links.iter().zip(&b.links) {
        if (la.a, la.b) == (lb.a, lb.b) {
            field(
                &mut out,
                &format!("link {}-{}", la.a, la.b),
                link_repr(la),
                link_repr(lb),
            );
        } else {
            out.push(format!(
                "link order: {}-{} != {}-{}",
                la.a, la.b, lb.a, lb.b
            ));
        }
    }

    for (sa, sb) in a.sockets.iter().zip(&b.sockets) {
        let name = format!("socket {}", sa.id);
        field(
            &mut out,
            &format!("{name} local node"),
            format!("{:?}", sa.local_node),
            format!("{:?}", sb.local_node),
        );
        field(
            &mut out,
            &format!("{name} memory latencies"),
            format!("{:?}", sa.mem_latencies),
            format!("{:?}", sb.mem_latencies),
        );
        field(
            &mut out,
            &format!("{name} memory bandwidths"),
            format!("{:?}", sa.mem_bandwidths),
            format!("{:?}", sb.mem_bandwidths),
        );
    }

    field(
        &mut out,
        "cache measurements",
        enrich_repr(a.caches.is_some()),
        enrich_repr(b.caches.is_some()),
    );
    field(
        &mut out,
        "power measurements",
        enrich_repr(a.power.is_some()),
        enrich_repr(b.power.is_some()),
    );
    field(
        &mut out,
        "frequency",
        format!("{:?}", a.freq_ghz),
        format!("{:?}", b.freq_ghz),
    );

    // Catch-all: identical shape but diverging fine-grained payload
    // (latency table entries, context numbering, cache sizes, ...).
    if out.is_empty() && a != b {
        out.push("topologies differ in measurement details (same structure)".to_string());
    }
    out
}

fn link_repr(l: &InterconnectLink) -> String {
    match l.bandwidth {
        Some(bw) => format!("{} cy, {} hop(s), {bw:.1} GB/s", l.latency, l.hops),
        None => format!("{} cy, {} hop(s)", l.latency, l.hops),
    }
}

fn enrich_repr(present: bool) -> String {
    if present { "present" } else { "absent" }.to_string()
}
