//! The Fig. 9 cost model: predicts the sequential-sort and merging time
//! of `gnu`, `mctop_sort` and `mctop_sort_sse` for 1 GB of integers on
//! each simulated platform.
//!
//! The model charges (per merge pass) the larger of a bandwidth term —
//! bytes moved over the effective bandwidth of the sockets/links the
//! pass uses — and a CPU term (merge kernel cycles per element). The
//! difference between the algorithms is exactly what the paper credits:
//! `gnu`'s random placement mixes cross-socket traffic into every pass,
//! `mctop_sort` keeps early passes socket-local and pairs sockets along
//! the maximum-bandwidth tree, and the SSE kernel cuts the CPU term.

use mcsim::MachineSpec;
use mctop::view::TopoView;

use crate::tree::MergeTree;

/// Which algorithm to predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortAlgo {
    /// `__gnu_parallel::sort`-shaped baseline.
    Gnu,
    /// Topology-aware mergesort.
    Mctop,
    /// Topology-aware mergesort with the SIMD merge kernel.
    MctopSse,
}

impl SortAlgo {
    /// Paper label.
    pub fn name(self) -> &'static str {
        match self {
            SortAlgo::Gnu => "gnu",
            SortAlgo::Mctop => "mctop",
            SortAlgo::MctopSse => "mctop_sse",
        }
    }
}

/// Model constants (calibrated so the Ivy column of Fig. 9 lands near
/// the published absolute numbers; every other prediction follows from
/// the machine models).
#[derive(Debug, Clone, Copy)]
pub struct SortModelCfg {
    /// Elements sorted (1 GB of 32-bit integers).
    pub elements: usize,
    /// Quicksort cost, cycles per element per log2-level.
    pub sort_cycles: f64,
    /// Scalar merge kernel, cycles per element (branchy).
    pub scalar_merge_cycles: f64,
    /// SIMD merge kernel, cycles per element.
    pub simd_merge_cycles: f64,
    /// Bytes of memory traffic per element per merge pass
    /// (read both runs + write-allocate the output).
    pub bytes_per_element: f64,
    /// Fraction of peak bandwidth a streaming merge achieves.
    pub bw_efficiency: f64,
}

impl Default for SortModelCfg {
    fn default() -> Self {
        SortModelCfg {
            elements: 268_435_456,
            sort_cycles: 7.0,
            scalar_merge_cycles: 16.0,
            simd_merge_cycles: 5.5,
            bytes_per_element: 12.0,
            bw_efficiency: 0.45,
        }
    }
}

/// Predicted time breakdown, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SortTime {
    /// Phase-one parallel quicksort.
    pub seq_s: f64,
    /// All merge passes.
    pub merge_s: f64,
}

impl SortTime {
    /// Total time.
    pub fn total(&self) -> f64 {
        self.seq_s + self.merge_s
    }
}

/// Predicts one bar of Fig. 9, with the merge buffers on every
/// thread's local node (the paper's placement).
pub fn predict_with_view(
    spec: &MachineSpec,
    view: &TopoView,
    algo: SortAlgo,
    n_threads: usize,
    cfg: &SortModelCfg,
) -> SortTime {
    let p = n_threads.max(1) as f64;
    let f_hz = spec.freq_ghz * 1e9;
    let e = cfg.elements as f64;

    // Phase 1: identical for every algorithm (same kernel, and the
    // chunks always fit their threads' sockets).
    let chunk = e / p;
    let seq_s = chunk * chunk.log2().max(1.0) * cfg.sort_cycles / f_hz * (e / (chunk * p));

    let merge_cycles = match algo {
        SortAlgo::MctopSse => {
            // Half the workers run the SIMD kernel with a 3:1 data
            // split (Section 7.2): effective cost is the weighted mean.
            // Fig. 9 runs every context of the machine, so each core
            // has one vector and one scalar merger; the model keeps
            // that full-machine split, whereas `parallel::bitonic_jobs`
            // counts the cores of the workers each merge is given.
            (3.0 * cfg.simd_merge_cycles + cfg.scalar_merge_cycles) / 4.0
        }
        _ => cfg.scalar_merge_cycles,
    };
    let cpu_pass_s = e * merge_cycles / (f_hz * p);

    let sockets_used = view.num_sockets().min(n_threads).max(1);
    let threads_per_socket = (n_threads as f64 / sockets_used as f64).max(1.0);
    // What each socket can stream against its local node: the
    // measured local bandwidth, or the spec's where none was measured.
    // Precomputed once: the topology is fixed for the call.
    let socket_bw: Vec<f64> = view
        .topo()
        .sockets
        .iter()
        .map(|s| {
            s.local_bandwidth()
                .filter(|&b| b > 0.0)
                .unwrap_or(spec.mem.local_bandwidth)
                * 1e9
        })
        .collect();
    let local_bw = |s: usize| -> f64 { socket_bw[s] };

    let mut merge_s = 0.0;
    match algo {
        SortAlgo::Gnu => {
            // log2(p) passes; every pass moves all data. Random
            // placement: with probability 1/S the two runs share a
            // socket, otherwise the merge streams over a random link.
            let s = view.num_sockets() as f64;
            let avg_local: f64 = (0..view.num_sockets()).map(local_bw).sum::<f64>() / s;
            let links = &view.topo().links;
            let avg_link: f64 = if links.is_empty() {
                avg_local
            } else {
                links
                    .iter()
                    .map(|l| l.bandwidth.unwrap_or(spec.mem.remote_bandwidth) * 1e9)
                    .sum::<f64>()
                    / links.len() as f64
            };
            let eff = (avg_local / s) + avg_link * (1.0 - 1.0 / s);
            // Merges spread over min(#merges, S) memory channels.
            let mut runs = n_threads.max(2);
            while runs > 1 {
                let merges = runs / 2;
                let channels = (merges.min(sockets_used)) as f64;
                let bw_pass_s = e * cfg.bytes_per_element / (eff * cfg.bw_efficiency * channels);
                merge_s += bw_pass_s.max(cpu_pass_s);
                runs -= merges;
            }
        }
        SortAlgo::Mctop | SortAlgo::MctopSse => {
            // Intra-socket passes: each socket reduces its own chunks at
            // local bandwidth, all sockets in parallel.
            let min_local = (0..view.num_sockets())
                .map(local_bw)
                .fold(f64::INFINITY, f64::min);
            let mut runs_per_socket = threads_per_socket.round().max(1.0) as usize;
            while runs_per_socket > 1 {
                let bw_pass_s = e * cfg.bytes_per_element
                    / (min_local * cfg.bw_efficiency * sockets_used as f64);
                merge_s += bw_pass_s.max(cpu_pass_s);
                runs_per_socket -= runs_per_socket / 2;
            }
            // Cross-socket tree: per level, parallel steps; each step
            // bounded by its link bandwidth (or the destination's local
            // bandwidth for the amount that is already local).
            let sockets: Vec<usize> = (0..sockets_used).collect();
            if sockets.len() > 1 {
                let tree = MergeTree::build(view, &sockets, 0);
                let mut run_elems = vec![0.0f64; view.num_sockets()];
                for &s in &sockets {
                    run_elems[s] = e / sockets.len() as f64;
                }
                for level in &tree.levels {
                    let mut level_s = 0.0f64;
                    for step in level {
                        let data = run_elems[step.src] + run_elems[step.dst];
                        let link = step.bandwidth_mbps as f64 * 1e6;
                        // Only the remote half streams over the link;
                        // the local half reads at local bandwidth.
                        let local = local_bw(step.dst);
                        let bw = 2.0 / (1.0 / (link.max(1.0)) + 1.0 / local);
                        let t = data * cfg.bytes_per_element / (bw * cfg.bw_efficiency);
                        let cpu = data * merge_cycles / f_hz / (2.0 * threads_per_socket);
                        level_s = level_s.max(t.max(cpu));
                        run_elems[step.dst] += run_elems[step.src];
                        run_elems[step.src] = 0.0;
                    }
                    merge_s += level_s;
                }
            }
        }
    }
    SortTime { seq_s, merge_s }
}

/// One Fig. 9 column: all three algorithms (SSE skipped on SPARC, which
/// has no 128-bit integer SIMD) for one platform and thread count.
pub fn fig9_column(
    spec: &MachineSpec,
    view: &TopoView,
    n_threads: usize,
    cfg: &SortModelCfg,
) -> Vec<(SortAlgo, SortTime)> {
    let mut algos = vec![SortAlgo::Gnu, SortAlgo::Mctop];
    if spec.name != "sparc" {
        algos.push(SortAlgo::MctopSse);
    }
    algos
        .into_iter()
        .map(|a| (a, predict_with_view(spec, view, a, n_threads, cfg)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctop::enrich::{
        enrich_all,
        SimEnricher, //
    };

    fn enriched(spec: &MachineSpec) -> TopoView {
        let mut p = mctop::backend::SimProber::noiseless(spec);
        let pc = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        let mut t = mctop::infer(&mut p, &pc).unwrap();
        let mut e = SimEnricher::new(spec);
        let mut pw = SimEnricher::new(spec);
        enrich_all(&mut t, &mut e, &mut pw).unwrap();
        TopoView::from(t)
    }

    #[test]
    fn mctop_beats_gnu_on_every_platform() {
        // Fig. 9: "mctop_sort is consistently faster than
        // gnu_parallel::sort", on average 17% with merging 25% faster.
        let cfg = SortModelCfg::default();
        let mut ratios = Vec::new();
        for spec in mcsim::presets::all_paper_platforms() {
            let topo = enriched(&spec);
            for threads in [16usize, spec.total_hwcs()] {
                let gnu = predict_with_view(&spec, &topo, SortAlgo::Gnu, threads, &cfg);
                let mc = predict_with_view(&spec, &topo, SortAlgo::Mctop, threads, &cfg);
                assert!(
                    mc.total() < gnu.total(),
                    "{} t={threads}: mctop {:.2}s vs gnu {:.2}s",
                    spec.name,
                    mc.total(),
                    gnu.total()
                );
                // Same sequential part (paper: identical first phase).
                assert!((mc.seq_s - gnu.seq_s).abs() < 1e-9);
                ratios.push(gnu.total() / mc.total());
            }
        }
        let avg: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(avg > 1.08 && avg < 1.45, "average speedup {avg}");
    }

    #[test]
    fn sse_variant_helps_most_where_cpu_bound() {
        let cfg = SortModelCfg::default();
        for spec in mcsim::presets::all_paper_platforms() {
            if spec.name == "sparc" {
                continue;
            }
            let topo = enriched(&spec);
            let mc = predict_with_view(&spec, &topo, SortAlgo::Mctop, 16, &cfg);
            let sse = predict_with_view(&spec, &topo, SortAlgo::MctopSse, 16, &cfg);
            assert!(sse.total() <= mc.total() + 1e-9, "{}", spec.name);
        }
    }

    #[test]
    fn sparc_column_has_no_sse() {
        let spec = mcsim::presets::sparc();
        let topo = enriched(&spec);
        let col = fig9_column(&spec, &topo, 16, &SortModelCfg::default());
        assert_eq!(col.len(), 2);
        let ivy = mcsim::presets::ivy();
        let topo_i = enriched(&ivy);
        assert_eq!(
            fig9_column(&ivy, &topo_i, 16, &SortModelCfg::default()).len(),
            3
        );
    }

    #[test]
    fn full_machine_faster_than_16_threads() {
        let cfg = SortModelCfg::default();
        for spec in [mcsim::presets::westmere(), mcsim::presets::sparc()] {
            let topo = enriched(&spec);
            let t16 = predict_with_view(&spec, &topo, SortAlgo::Mctop, 16, &cfg);
            let tfull = predict_with_view(&spec, &topo, SortAlgo::Mctop, spec.total_hwcs(), &cfg);
            assert!(tfull.total() < t16.total(), "{}", spec.name);
        }
    }

    #[test]
    fn ivy_absolute_times_near_paper() {
        // Fig. 9, Ivy, 16 threads: gnu 2.45 s, mctop 2.02 s,
        // mctop_sse 1.84 s. The model is calibrated on this column;
        // require every algorithm within ~35%.
        let spec = mcsim::presets::ivy();
        let topo = enriched(&spec);
        let cfg = SortModelCfg::default();
        for (algo, paper) in [
            (SortAlgo::Gnu, 2.45),
            (SortAlgo::Mctop, 2.02),
            (SortAlgo::MctopSse, 1.84),
        ] {
            let t = predict_with_view(&spec, &topo, algo, 16, &cfg).total();
            let err = (t - paper).abs() / paper;
            assert!(err < 0.35, "{}: {t:.2}s vs paper {paper}s", algo.name());
        }
    }
}
