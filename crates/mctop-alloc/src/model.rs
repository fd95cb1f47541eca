//! Policy-routed bandwidth math for the application cost models.
//!
//! `mctop-sort` and `mctop-mapred` used to hard-code the assumption
//! that every buffer lives on its thread's local node. These helpers
//! make the assumption explicit and policy-parametric: given the
//! *enriched* per-(socket, node) bandwidths and an [`AllocPolicy`],
//! they answer "how fast can this socket stream against arenas striped
//! this way?" — with [`AllocPolicy::Local`] reproducing the old local-
//! node math exactly.

use mctop::Mctop;

use crate::policy::{
    AllocError,
    AllocPolicy, //
};

/// Sequential-stream bandwidth (GB/s) a socket achieves against arenas
/// striped per `policy`, ignoring thread counts (controller/route
/// limits only).
///
/// The stripes are read in proportion, so time adds per route and the
/// effective bandwidth is the weighted harmonic mean of the per-route
/// bandwidths: `1 / Σ fᵢ / bw(socket, nodeᵢ)`. For
/// [`AllocPolicy::Local`] this degenerates to the socket's local
/// bandwidth.
pub fn socket_policy_bandwidth(
    topo: &Mctop,
    socket: usize,
    policy: &AllocPolicy,
) -> Result<f64, AllocError> {
    let weights = policy.socket_weights(topo, socket)?;
    let wsum: f64 = weights.iter().sum();
    let bws = &topo.sockets[socket].mem_bandwidths;
    let mut routes: Vec<(f64, f64)> = Vec::new();
    for (node, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        let bw = bws
            .get(node)
            .copied()
            .filter(|&b| b > 0.0)
            .ok_or(AllocError::BandwidthUnavailable { socket })?;
        routes.push((w / wsum, bw));
    }
    // A single route needs no harmonic combination — and returning the
    // measured value bit-exactly is what lets LOCAL reproduce the
    // legacy local-node cost models without a float round-trip.
    if let [(_, bw)] = routes.as_slice() {
        return Ok(*bw);
    }
    Ok(1.0 / routes.iter().map(|(f, bw)| f / bw).sum::<f64>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(name: &str) -> std::sync::Arc<Mctop> {
        mctop::Registry::shipped().topo(name).unwrap()
    }

    #[test]
    fn local_equals_local_bandwidth() {
        let t = topo("ivy");
        for s in 0..t.num_sockets() {
            let got = socket_policy_bandwidth(&t, s, &AllocPolicy::Local).unwrap();
            assert_eq!(got, t.sockets[s].local_bandwidth().unwrap());
        }
    }

    #[test]
    fn interleave_is_harmonic_mean_and_slower_than_local() {
        let t = topo("westmere");
        for s in 0..t.num_sockets() {
            let bws = &t.sockets[s].mem_bandwidths;
            let n = bws.len() as f64;
            let harmonic = n / bws.iter().map(|b| 1.0 / b).sum::<f64>();
            let got = socket_policy_bandwidth(&t, s, &AllocPolicy::Interleave).unwrap();
            assert!((got - harmonic).abs() < 1e-9);
            assert!(got <= t.sockets[s].local_bandwidth().unwrap());
        }
    }

    #[test]
    fn bw_proportional_is_arithmetic_mean() {
        // With fractions ∝ bwᵢ the harmonic sum telescopes:
        // 1 / Σ (bwᵢ/Σbw)/bwᵢ = Σbw / N.
        let t = topo("ivy");
        for s in 0..t.num_sockets() {
            let bws = &t.sockets[s].mem_bandwidths;
            let mean = bws.iter().sum::<f64>() / bws.len() as f64;
            let got = socket_policy_bandwidth(&t, s, &AllocPolicy::BwProportional).unwrap();
            assert!((got - mean).abs() < 1e-9);
        }
    }

    #[test]
    fn unenriched_topology_reports_missing_bandwidth() {
        let spec = mcsim::presets::synthetic_small();
        let mut p = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        let t = mctop::infer(&mut p, &cfg).unwrap(); // Not enriched.
        assert!(matches!(
            socket_policy_bandwidth(&t, 0, &AllocPolicy::BwProportional),
            Err(AllocError::BandwidthUnavailable { socket: 0 })
        ));
    }
}
