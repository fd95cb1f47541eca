//! Graphviz export (the paper renders MCTOP with Graphviz; Figs. 1-3).
//!
//! Two graphs, as in the paper: the intra-socket topology (cores with
//! their hardware contexts, plus latency/bandwidth to every memory
//! node) and the cross-socket topology (sockets with link latencies and
//! bandwidths, multi-hop levels called out separately).

use std::fmt::Write as _;

use crate::model::{
    LevelRole,
    Mctop, //
};

/// DOT for the intra-socket topology of one socket (cf. Fig. 1a/2a/3).
pub fn intra_socket(topo: &Mctop, socket: usize) -> String {
    let s = &topo.sockets[socket];
    let socket_lat = topo.intra_socket_latency();
    let mut out = String::new();
    let _ = writeln!(out, "digraph socket{socket} {{");
    let _ = writeln!(
        out,
        "  graph [rankdir=TB, label=\"Socket {socket} - {socket_lat} cycles\"];"
    );
    let _ = writeln!(out, "  node [shape=record, fontsize=10];");
    // One record node per core listing its hardware contexts and the
    // SMT latency.
    for (ci, &cg) in s.cores.iter().enumerate() {
        let g = &topo.groups[cg];
        let ctxs: Vec<String> = g.hwcs.iter().map(|h| format!("{h:03}")).collect();
        let smt_note = if topo.smt > 1 {
            format!(
                "|{}",
                topo.levels
                    .iter()
                    .find(|l| matches!(l.role, LevelRole::Smt))
                    .map(|l| l.latency.median.to_string())
                    .unwrap_or_default()
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  core{ci} [label=\"{}{}\"];",
            ctxs.join("|"),
            smt_note
        );
    }
    // Memory nodes with latency and bandwidth from this socket.
    for node in 0..topo.num_nodes() {
        let lat = s.mem_latencies.get(node).copied();
        let bw = s.mem_bandwidths.get(node).copied();
        let label = match (lat, bw) {
            (Some(l), Some(b)) => format!("Node {node}\\n{l} cy\\n{b:.1} GB/s"),
            (Some(l), None) => format!("Node {node}\\n{l} cy"),
            _ => format!("Node {node}"),
        };
        let style = if s.local_node == Some(node) {
            ", style=filled, fillcolor=gray80"
        } else {
            ""
        };
        let _ = writeln!(out, "  node{node} [shape=box, label=\"{label}\"{style}];");
        let _ = writeln!(out, "  core0 -> node{node} [style=invis];");
    }
    out.push_str("}\n");
    out
}

/// DOT for the cross-socket topology (cf. Fig. 1b/2b). Direct links are
/// drawn as edges; multi-hop levels are summarized in a legend node, as
/// the paper does with "lvl 4 (2 hops)".
pub fn cross_socket(topo: &Mctop) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph cross_socket {{");
    let _ = writeln!(out, "  graph [layout=circo, label=\"{}\"];", topo.name);
    let _ = writeln!(out, "  node [shape=circle, fontsize=12];");
    for s in 0..topo.num_sockets() {
        let _ = writeln!(out, "  s{s} [label=\"{s}\"];");
    }
    for l in &topo.links {
        if l.hops != 1 {
            continue;
        }
        let bw = l
            .bandwidth
            .map(|b| format!("\\n{b:.1} GB/s"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  s{} -- s{} [label=\"{} cy{bw}\"];",
            l.a, l.b, l.latency
        );
    }
    // Multi-hop levels (one legend entry per distinct latency).
    let mut seen = Vec::new();
    for lvl in &topo.levels {
        if let LevelRole::CrossSocket { hops } = lvl.role {
            if hops > 1 && !seen.contains(&lvl.latency.median) {
                seen.push(lvl.latency.median);
                let _ = writeln!(
                    out,
                    "  legend{} [shape=note, label=\"lvl {} ({hops} hops)\\n{} cy\"];",
                    lvl.index, lvl.index, lvl.latency.median
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Both graphs concatenated (what `libmctop` writes next to the
/// description file).
pub fn full(topo: &Mctop) -> String {
    let mut out = intra_socket(topo, 0);
    if topo.num_sockets() > 1 {
        out.push('\n');
        out.push_str(&cross_socket(topo));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::probe::ProbeConfig;
    use crate::backend::SimProber;
    use crate::enrich::{
        enrich_all,
        SimEnricher, //
    };
    use mcsim::presets;

    fn enriched(spec: &mcsim::MachineSpec) -> Mctop {
        let mut p = SimProber::noiseless(spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        let mut topo = crate::infer(&mut p, &cfg).unwrap();
        let mut e = SimEnricher::new(spec);
        let mut pw = SimEnricher::new(spec);
        enrich_all(&mut topo, &mut e, &mut pw).unwrap();
        topo
    }

    #[test]
    fn opteron_cross_socket_mentions_two_hop_level() {
        let topo = enriched(&presets::opteron());
        let dot = cross_socket(&topo);
        // Fig. 1b: a "(2 hops)" legend with 300 cycles.
        assert!(dot.contains("(2 hops)"), "{dot}");
        assert!(dot.contains("300 cy"), "{dot}");
        // MCM links at 197 drawn as direct edges.
        assert!(dot.contains("197 cy"));
    }

    #[test]
    fn intra_socket_shows_contexts_and_local_node() {
        let topo = enriched(&presets::synthetic_small());
        let dot = intra_socket(&topo, 0);
        assert!(dot.contains("000|008"), "{dot}");
        assert!(dot.contains("fillcolor=gray80"));
        assert!(dot.contains("GB/s"));
    }

    #[test]
    fn full_output_is_valid_dotish() {
        for spec in [presets::ivy(), presets::by_name("synth-single").unwrap()] {
            let topo = enriched(&spec);
            let dot = full(&topo);
            assert_eq!(dot.matches("digraph").count(), 1);
            let opens = dot.matches('{').count();
            let closes = dot.matches('}').count();
            assert_eq!(opens, closes);
        }
    }
}
