//! The cold path: `infer → description → parse → TopoView → first
//! answer`, for machines whose canonical description is committed.
//!
//! `cold-paper` runs the chain for the paper's five platforms per op;
//! there `desc` + the JSON shim and `alg::probe` dominate and
//! `alg::build` is noise. `cold-mesh` runs it for the 144-socket mesh,
//! where `alg::build::assemble` dominates. The same code serves both:
//! only the machine list differs.

use std::sync::Arc;
use std::time::{
    Duration,
    Instant, //
};

use mcsim::MachineSpec;
use mctop::alg::{
    build,
    cluster,
    components,
    probe,
    validate,
    Prober, //
};
use mctop::backend::SimProber;
use mctop::desc::{
    self,
    Provenance, //
};
use mctop::enrich::{
    enrich_all,
    SimEnricher, //
};
use mctop::TopoView;
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};

use crate::harness::{
    allow_all_cpus,
    confine_to_last_cpu,
    fnv1a,
    read_desc,
    report,
    LayerMetrics,
    Window,
    Workload,
    FNV_SEED, //
};
use crate::trace::Tracer;

/// Op ids of the isolated layer calls, clear of any window's op ids.
pub const PROBE_OPS: u64 = 1 << 40;

/// Repetitions of each isolated layer call.
const PROBE_REPS: u64 = 5;

pub struct Cold {
    specs: Vec<MachineSpec>,
    /// Committed `descs/<name>.mct.json`, per machine.
    golden: Vec<String>,
    /// The first answer each machine must give: the largest latency
    /// between any two of its contexts, read off the committed table.
    first_answer: Vec<u32>,
    warmup_ops: u64,
    /// Counts of the last traced op, summed over its machines.
    counts: ChainCounts,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainCounts {
    pub pairs: u64,
    pub probes: u64,
    pub levels: u64,
    pub desc_bytes: u64,
    pub view_bytes_fresh: u64,
}

/// The chain as a user runs it: one call per step.
fn chain(spec: &MachineSpec) -> Result<(String, u32), String> {
    let text = desc::canonical_string(spec).map_err(|e| e.to_string())?;
    let (topo, _prov) = desc::from_str_full(&text).map_err(|e| e.to_string())?;
    let view = TopoView::new(Arc::new(topo));
    let place = Placement::with_view(&view, Policy::RrCore, PlaceOpts::default())
        .map_err(|e| e.to_string())?;
    Ok((text, place.max_latency()))
}

/// The same chain with `desc::canonical_string` taken apart into the
/// public stage functions it is made of, each under a span. Must yield
/// the same bytes (unit-tested, and checked against the committed file
/// on every traced op).
pub fn chain_decomposed(
    spec: &MachineSpec,
    tr: &mut Tracer,
) -> Result<(String, u32, ChainCounts), String> {
    let err = |e: mctop::McTopError| e.to_string();
    let cfg = desc::canonical_probe_config_for(spec);
    let mut prober = SimProber::noiseless(spec);
    let (raw, stats) = tr
        .span("alg.probe.collect", || probe::collect(&mut prober, &cfg))
        .map_err(err)?;
    let clusters = tr
        .span("alg.cluster.cluster", || {
            cluster::cluster(&raw.upper_triangle(), &cfg.cluster)
        })
        .map_err(err)?;
    let norm = tr.span("alg.cluster.normalize", || {
        cluster::normalize(&raw, &clusters)
    });
    let smt = tr.span("alg.probe.detect_smt", || {
        probe::detect_smt(&mut prober, &norm)
    });
    let hier = tr
        .span("alg.components.build", || {
            components::build(&norm, &clusters)
        })
        .map_err(err)?;
    let mut topo = tr
        .span("alg.build.assemble", || {
            build::assemble(
                prober.machine_name(),
                smt,
                &hier,
                &norm,
                &clusters,
                prober.num_nodes(),
            )
        })
        .map_err(err)?;
    tr.span("alg.validate.validate", || validate::validate(&topo))
        .map_err(err)?;
    tr.span("enrich.enrich_all", || {
        let (mut mem, mut pow) = (SimEnricher::new(spec), SimEnricher::new(spec));
        enrich_all(&mut topo, &mut mem, &mut pow)
    })
    .map_err(err)?;
    topo.freq_ghz = Some(spec.freq_ghz);
    let prov =
        Provenance::new(&spec.name, &cfg, None, true).with_generator(desc::CANONICAL_GENERATOR);
    let text = tr
        .span("desc.to_string", || desc::to_string(&topo, &prov))
        .map_err(err)?;
    drop((topo, raw, norm, hier));
    let (parsed, _prov) = tr
        .span("desc.from_str_full", || desc::from_str_full(&text))
        .map_err(err)?;
    let view = tr.span("view.new", || TopoView::new(Arc::new(parsed)));
    let view_bytes_fresh = view.resident_bytes() as u64;
    let answer = tr
        .span("place.first_answer", || {
            Placement::with_view(&view, Policy::RrCore, PlaceOpts::default())
                .map(|place| place.max_latency())
        })
        .map_err(|e| e.to_string())?;
    let counts = ChainCounts {
        pairs: stats.pairs,
        probes: stats.probes,
        levels: clusters.len() as u64,
        desc_bytes: text.len() as u64,
        view_bytes_fresh,
    };
    Ok((text, answer, counts))
}

impl Cold {
    /// The inputs are the committed machines, whatever the seed: an op
    /// visits them in the order given. (A seeded order was tried; it
    /// moved `peak_rss_mb` by 7 % between seeds through the allocator.)
    pub fn prepare(specs: Vec<MachineSpec>, warmup_ops: u64) -> Cold {
        let golden: Vec<String> = specs.iter().map(|s| read_desc(&s.name)).collect();
        let first_answer = golden
            .iter()
            .map(|text| {
                let topo = desc::from_str(text).expect("committed description parses");
                let n = topo.num_hwcs();
                (0..n * n)
                    .filter(|i| i / n != i % n)
                    .map(|i| topo.lat_table[i])
                    .max()
                    .expect("at least two contexts")
            })
            .collect();
        Cold {
            specs,
            golden,
            first_answer,
            warmup_ops,
            counts: ChainCounts::default(),
        }
    }

    fn check(&self, machine: usize, text: &str, answer: u32) -> Result<(), String> {
        let name = &self.specs[machine].name;
        if text != self.golden[machine] {
            return Err(format!("{name}: description differs from descs/"));
        }
        if answer != self.first_answer[machine] {
            return Err(format!(
                "{name}: first answer {answer}, committed table says {}",
                self.first_answer[machine]
            ));
        }
        Ok(())
    }
}

impl Workload for Cold {
    fn warmup_ops(&self) -> u64 {
        self.warmup_ops
    }

    fn round_len(&self) -> u64 {
        1
    }

    fn schedule_hash(&self) -> u64 {
        let mut hash = FNV_SEED;
        for spec in &self.specs {
            hash = fnv1a(hash, spec.name.as_bytes());
        }
        hash
    }

    fn op(&mut self, _i: u64) -> Result<Duration, String> {
        let mut outs = Vec::with_capacity(self.specs.len());
        let start = Instant::now();
        for spec in &self.specs {
            outs.push(chain(spec)?);
        }
        let took = start.elapsed();
        for (m, (text, answer)) in outs.iter().enumerate() {
            self.check(m, text, *answer)?;
        }
        Ok(took)
    }

    fn traced_op(&mut self, _i: u64, tr: &mut Tracer) -> Result<Duration, String> {
        let mut outs = Vec::with_capacity(self.specs.len());
        let mut counts = ChainCounts::default();
        let op = tr.begin("op");
        for spec in &self.specs {
            let (text, answer, c) = chain_decomposed(spec, tr)?;
            counts.pairs += c.pairs;
            counts.probes += c.probes;
            counts.levels += c.levels;
            counts.desc_bytes += c.desc_bytes;
            counts.view_bytes_fresh += c.view_bytes_fresh;
            outs.push((text, answer));
        }
        let took = tr.end(op);
        self.counts = counts;
        for (m, (text, answer)) in outs.iter().enumerate() {
            self.check(m, text, *answer)?;
        }
        Ok(took)
    }

    fn layer_metrics(&mut self, tr: &mut Tracer, _window: &Window, out: &mut LayerMetrics) {
        // Two calls the op does not make: collection with two jobs
        // (`mct regen-descs` uses it), and the JSON shim's tree parse on
        // its own, which `desc::from_str_full` contains. The two jobs get
        // both CPUs; the rest of the run has one (see `confine_to_last_cpu`).
        allow_all_cpus();
        for rep in 0..PROBE_REPS {
            tr.set_op(PROBE_OPS + rep);
            for (spec, text) in self.specs.iter().zip(&self.golden) {
                let cfg = desc::canonical_probe_config_for(spec);
                let mut prober = SimProber::noiseless(spec);
                tr.span("alg.probe.collect_parallel2", || {
                    probe::collect_parallel(&mut prober, &cfg, 2).map(|(table, _)| table.n())
                })
                .expect("parallel collection succeeds");
                tr.span("json.parse_value", || {
                    serde_json::from_str::<serde_json::Value>(text).map(|_| ())
                })
                .expect("committed description is JSON");
            }
        }
        confine_to_last_cpu();
        for (metric, span) in [
            ("alg.probe.collect_us", "alg.probe.collect"),
            (
                "alg.probe.collect_parallel2_us",
                "alg.probe.collect_parallel2",
            ),
            ("alg.probe.detect_smt_us", "alg.probe.detect_smt"),
            ("alg.cluster.cluster_us", "alg.cluster.cluster"),
            ("alg.cluster.normalize_us", "alg.cluster.normalize"),
            ("alg.components.build_us", "alg.components.build"),
            ("alg.validate.validate_us", "alg.validate.validate"),
            ("alg.build.assemble_us", "alg.build.assemble"),
            ("enrich.enrich_all_us", "enrich.enrich_all"),
            ("desc.to_string_us", "desc.to_string"),
            ("desc.from_str_full_us", "desc.from_str_full"),
            ("json.parse_value_us", "json.parse_value"),
            ("view.new_us", "view.new"),
        ] {
            let ns = tr.per_op_ns(span).expect("the traced window ran ops");
            report(out, metric, ns / 1e3);
        }
        report(out, "alg.probe.pairs", self.counts.pairs as f64);
        report(out, "alg.probe.probes", self.counts.probes as f64);
        report(out, "alg.cluster.levels", self.counts.levels as f64);
        report(out, "desc.bytes", self.counts.desc_bytes as f64);
        report(
            out,
            "view.resident_bytes_fresh",
            self.counts.view_bytes_fresh as f64,
        );
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposed_chain_is_byte_identical_to_canonical_string() {
        let mut tr = Tracer::new();
        for spec in [
            mcsim::presets::synthetic_small(),
            mcsim::presets::ivy(),
            mcsim::presets::mesh(8),
        ] {
            let (text, answer, counts) = chain_decomposed(&spec, &mut tr).unwrap();
            assert_eq!(
                text,
                desc::canonical_string(&spec).unwrap(),
                "{}",
                spec.name
            );
            assert_eq!((text.clone(), answer), chain(&spec).unwrap());
            assert_eq!(counts.desc_bytes, text.len() as u64);
        }
        // Twelve stage spans per machine, none nested in another.
        assert_eq!(tr.spans().len(), 3 * 12);
        assert!(tr.spans().iter().all(|s| s.parent.is_none()));
    }
}
