//! Proof-of-concept automatic policy selection (Section 7.4): run a
//! small part of the workload under each candidate policy and keep the
//! best — possible only because MCTOP MP can re-place threads at
//! runtime.

use std::time::Instant;

use mctop_place::Policy;

use crate::runtime::OmpRuntime;

/// Candidate policies probed by the selector.
pub(crate) fn candidates() -> Vec<Policy> {
    vec![
        Policy::ConHwc,
        Policy::ConCoreHwc,
        Policy::ConCore,
        Policy::BalanceCore,
        Policy::RrCore,
    ]
}

/// Runs `sample` once under every candidate policy (wall-clock timed)
/// and selects the fastest for subsequent regions. Returns the chosen
/// policy and the per-candidate timings.
pub fn auto_select<F>(rt: &OmpRuntime, sample: F) -> (Policy, Vec<(Policy, f64)>)
where
    F: Fn(&OmpRuntime),
{
    let mut timings = Vec::new();
    for policy in candidates() {
        if rt.set_binding_policy(policy).is_err() {
            continue;
        }
        let t = Instant::now();
        sample(rt);
        timings.push((policy, t.elapsed().as_secs_f64()));
    }
    let best = timings
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite timings"))
        .map(|&(p, _)| p)
        .unwrap_or(Policy::None);
    let _ = rt.set_binding_policy(best);
    (best, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn selects_some_candidate_and_applies_it() {
        let rt = OmpRuntime::new(crate::runtime::tests::view(), 4);
        let g = Graph::synthetic(500, 4, 1);
        let (best, timings) = auto_select(&rt, |rt| {
            let _ = crate::workloads::pagerank(rt, &g, 1);
        });
        assert_eq!(timings.len(), candidates().len());
        assert!(candidates().contains(&best));
        assert_eq!(rt.binding_policy(), best);
    }
}
