//! Cache latency and size plugin (Section 4).
//!
//! Latency per level comes from pointer chases with growing working
//! sets; a level's capacity is estimated as the largest working set
//! before the chase latency jumps toward the next level. The OS-reported
//! sizes, when available, are recorded alongside the estimates.

use super::MemoryProbe;
use crate::error::McTopError;
use crate::model::{
    CacheLevelInfo,
    Mctop, //
};

/// Relative latency jump that marks a level boundary.
const JUMP: f64 = 1.25;
/// Smallest working set probed (well inside any L1).
const MIN_WS: usize = 4 * 1024;
/// Largest working set probed (well outside any LLC).
const MAX_WS: usize = 512 * 1024 * 1024;

/// Estimates the cache hierarchy seen from context 0's socket.
pub(crate) fn cache_plugin<M: MemoryProbe>(
    topo: &mut Mctop,
    probe: &mut M,
) -> Result<(), McTopError> {
    let rep = topo.sockets[0].hwcs[0];
    let node = topo.sockets[0].local_node.unwrap_or(0);

    // Geometric sweep of working sets.
    let mut points: Vec<(usize, f64)> = Vec::new();
    let mut ws = MIN_WS;
    while ws <= MAX_WS {
        points.push((ws, probe.chase_latency(rep, node, ws)));
        // A fine-grained geometric step (x1.25) so the knees are sharp.
        ws = (ws as f64 * 1.25) as usize;
    }

    // Split the curve into plateaus. A point extends the current
    // plateau while its latency stays within JUMP of the plateau's
    // first point; otherwise it begins a *transition ramp* (partial
    // misses between a level's capacity and the next level), which is
    // skipped until the curve stops climbing — ramp points belong to no
    // level.
    let mut plateaus: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut cur = vec![points[0]];
    let mut i = 1usize;
    while i < points.len() {
        let (_, lat) = points[i];
        if lat <= cur[0].1 * JUMP {
            cur.push(points[i]);
            i += 1;
        } else {
            plateaus.push(std::mem::take(&mut cur));
            // Skip while still climbing.
            while i + 1 < points.len() && points[i + 1].1 > points[i].1 * 1.05 {
                i += 1;
            }
            cur = vec![points[i]];
            i += 1;
        }
    }
    plateaus.push(cur);

    // The last plateau is memory, not a cache: drop it.
    if plateaus.len() > 1 {
        plateaus.pop();
    }
    let mut levels: Vec<CacheLevelInfo> = Vec::new();
    for plateau in &plateaus {
        let latency =
            mcsim::stats::median_f64(&plateau.iter().map(|&(_, l)| l).collect::<Vec<_>>());
        levels.push(CacheLevelInfo {
            name: default_name(levels.len()),
            // The level's capacity is where its plateau ends.
            size_estimate: plateau.last().expect("plateaus are non-empty").0,
            os_size: None,
            latency: latency.round() as u32,
        });
    }
    if levels.is_empty() {
        return Err(McTopError::IrregularTopology(
            "cache sweep found no plateau below memory".into(),
        ));
    }

    // Merge OS-reported sizes when the OS exposes them.
    if let Some(os) = probe.os_cache_info() {
        for (i, (name, size)) in os.into_iter().enumerate() {
            if let Some(level) = levels.get_mut(i) {
                level.os_size = Some(size);
                level.name = name;
            }
        }
    }
    topo.caches = Some(levels);
    Ok(())
}

fn default_name(idx: usize) -> String {
    match idx {
        0 => "L1".into(),
        1 => "L2".into(),
        2 => "LLC".into(),
        n => format!("L{}", n + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enrich::tests::inferred;
    use crate::enrich::SimEnricher;
    use mcsim::presets;

    #[test]
    fn detects_three_levels_on_ivy_like_hierarchies() {
        let spec = presets::synthetic_small();
        let mut topo = inferred(&spec);
        let mut e = SimEnricher::new(&spec);
        cache_plugin(&mut topo, &mut e).unwrap();
        let caches = topo.caches.as_ref().unwrap();
        assert_eq!(caches.len(), 3, "{caches:?}");
        // Latencies close to the spec (4, 12, 40 cycles).
        assert!(caches[0].latency <= 6);
        assert!((10..=16).contains(&caches[1].latency));
        assert!((32..=48).contains(&caches[2].latency));
        // Size estimates within a factor ~1.6 of truth (plateau ends at
        // the capacity knee; the geometric sweep quantizes it).
        for (est, truth) in caches.iter().zip(&spec.caches) {
            let ratio = est.size_estimate as f64 / truth.size as f64;
            assert!((0.6..=1.7).contains(&ratio), "{}: ratio {ratio}", est.name);
        }
    }

    #[test]
    fn os_sizes_merged_in() {
        let spec = presets::synthetic_small();
        let mut topo = inferred(&spec);
        let mut e = SimEnricher::new(&spec);
        cache_plugin(&mut topo, &mut e).unwrap();
        let caches = topo.caches.unwrap();
        assert_eq!(caches[0].os_size, Some(32 * 1024));
        assert_eq!(caches[0].name, "L1");
        assert_eq!(caches[2].os_size, Some(8 * 1024 * 1024));
    }

    #[test]
    fn works_on_every_paper_platform() {
        for spec in presets::all_paper_platforms() {
            let mut topo = inferred(&spec);
            let mut e = SimEnricher::new(&spec);
            cache_plugin(&mut topo, &mut e).unwrap();
            let caches = topo.caches.unwrap();
            assert_eq!(caches.len(), spec.caches.len(), "{}", spec.name);
        }
    }
}
