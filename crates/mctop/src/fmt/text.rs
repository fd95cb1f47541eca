//! Textual rendering of a topology ("visualize the topology as textual
//! output", Section 2).

use std::fmt::Write as _;

use crate::model::{
    LevelRole,
    Mctop, //
};

/// Multi-line human-readable dump: summary, latency levels, sockets with
/// cores/contexts/memory, and the interconnect.
pub fn render(topo: &Mctop) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## MCTOP topology: {}", topo.summary());
    let _ = writeln!(out, "# Latency levels:");
    for l in &topo.levels {
        let role = match l.role {
            LevelRole::SelfLevel => "self".to_string(),
            LevelRole::Smt => "smt (core)".to_string(),
            LevelRole::IntraGroup => "intra-socket group".to_string(),
            LevelRole::Socket => "socket".to_string(),
            LevelRole::CrossSocket { hops } => format!("cross-socket ({hops} hop)"),
        };
        let _ = writeln!(
            out,
            "#   level {}: {:>4} cycles  (min {}, max {})  [{}]",
            l.index, l.latency.median, l.latency.min, l.latency.max, role
        );
    }
    for s in &topo.sockets {
        let _ = writeln!(
            out,
            "# Socket {} ({} cores, {} contexts):",
            s.id,
            s.cores.len(),
            s.hwcs.len()
        );
        for &cg in &s.cores {
            let g = &topo.groups[cg];
            let ctxs: Vec<String> = g.hwcs.iter().map(|h| h.to_string()).collect();
            let _ = writeln!(out, "#   core {}: contexts [{}]", g.id, ctxs.join(", "));
        }
        match s.local_node {
            Some(n) => {
                let lat = s
                    .local_latency()
                    .map(|l| format!("{l} cy"))
                    .unwrap_or_default();
                let bw = s
                    .local_bandwidth()
                    .map(|b| format!("{b:.1} GB/s"))
                    .unwrap_or_default();
                let _ = writeln!(out, "#   local node {n} {lat} {bw}");
            }
            None => {
                let _ = writeln!(out, "#   local node unknown");
            }
        }
    }
    if !topo.links.is_empty() {
        let _ = writeln!(out, "# Interconnect:");
        for l in &topo.links {
            let bw = l
                .bandwidth
                .map(|b| format!("  {b:.1} GB/s"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "#   {} <-> {}: {} cycles, {} hop(s){bw}",
                l.a, l.b, l.latency, l.hops
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::probe::ProbeConfig;
    use crate::backend::SimProber;
    use mcsim::presets;

    #[test]
    fn render_contains_key_facts() {
        let spec = presets::synthetic_small();
        let mut p = SimProber::noiseless(&spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        let topo = crate::infer(&mut p, &cfg).unwrap();
        let text = render(&topo);
        assert!(text.contains("synth-small"));
        assert!(text.contains("socket"));
        assert!(text.contains("100 cycles"));
        assert!(text.contains("290 cycles"));
        assert!(text.contains("core"));
    }
}
