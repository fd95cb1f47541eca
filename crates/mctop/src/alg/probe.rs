//! Step 1 of MCTOP-ALG: collecting the latency table.
//!
//! Two "threads" move from context pair to context pair; for each data
//! point they run the lock-step schedule of Fig. 5 (partner CAS brings
//! the line into Modified state, measuring thread CASes and times it).
//! Per Section 3.5 the collection repeats each measurement `reps` times,
//! keeps the median, and retries with an escalating stdev threshold if
//! the samples are too noisy; the estimated rdtsc read cost is
//! subtracted from every value; DVFS is defeated by spinning until the
//! cores reach maximum frequency.
//!
//! Collection runs on one prober, which moves from pair to pair as the
//! paper's two threads do: pairs measured at once would share the
//! coherence fabric they measure. Every measurement draws its
//! randomness from a stream derived from the run seed and a
//! [`ProbeStream`] identity (calibration, warm-up of one context, one
//! pair), never from a position in a global sample sequence, so a
//! pair's value does not depend on when it is measured. The order of
//! the pairs (`crate::alg::schedule`) decides only which pair a
//! failing run names.
//!
//! [`PairSelection`] decides which pairs are measured at all: every one
//! (the paper's collection), a pruned plan for mesh-scale machines, or
//! the hierarchy-first plan that predicts the pairs between two sockets
//! from one representative (see [`collect`]). Each value is written
//! where the table's block form keeps it (`table::BlockTable`): a
//! hierarchy-first run keeps an anchor's row, a block per socket and
//! the few measured pairs off their socket pair's representative, and
//! no N x N table. Every measured pair gets the full repetitions; the
//! cost is modeled in [`ProbeStats`], keeping the Section 3.5
//! accounting honest.

use mcsim::stats;

use crate::alg::cluster::{
    self,
    ClusterCfg, //
};
use crate::alg::find_root;
use crate::alg::schedule;
use crate::alg::table::{
    BlockTable,
    LatencyTable, //
};
use crate::error::McTopError;

/// The three OS dependencies of Section 3 ("A way to read the number of
/// available hardware contexts and the number of memory nodes, and a way
/// to pin threads to specific contexts"), expressed as a measurement
/// backend.
///
/// Implementations: [`crate::backend::SimProber`] over a simulated
/// machine, and [`crate::host::HostProber`] over the real machine the
/// process runs on (Linux only).
pub trait Prober {
    /// Number of schedulable hardware contexts.
    fn num_hwcs(&self) -> usize;

    /// Number of memory nodes.
    fn num_nodes(&self) -> usize;

    /// One raw lock-step latency sample between contexts `a` and `b`,
    /// in cycles, *including* the timestamp-read cost.
    fn probe(&mut self, a: usize, b: usize) -> u32;

    /// A batch of `count` raw samples for one pair, appended into `out`
    /// (cleared first). The default loops [`Prober::probe`]; backends
    /// with per-batch setup cost (thread spawns, pinning) or per-pair
    /// invariants (the simulator's true latency) override it.
    fn probe_batch(&mut self, a: usize, b: usize, out: &mut Vec<u32>, count: usize) {
        out.clear();
        out.reserve(count);
        for _ in 0..count {
            out.push(self.probe(a, b));
        }
    }

    /// One estimate of the timestamp-read cost (a back-to-back rdtsc
    /// calibration sample).
    fn rdtsc_cost(&mut self) -> u32;

    /// Duration of a fixed spin loop executed simultaneously on the
    /// given contexts; used for DVFS and SMT detection.
    fn spin_duration(&mut self, ctxs: &[usize], iters: u64) -> u64;

    /// Spins on `ctx` until its core reaches maximum frequency.
    fn warmup(&mut self, _ctx: usize) {}

    /// Rebinds the backend's randomness to the given derived stream.
    ///
    /// Simulated backends reseed their noise generator from
    /// `(run seed, stream)` so that every sample is a pure function of
    /// the stream identity and its index within the stream: a pair's
    /// value does not depend on the order of the pairs ([`collect`]).
    /// Hardware backends have no seedable randomness and keep the
    /// default no-op.
    fn begin_stream(&mut self, _stream: ProbeStream) {}

    /// A name for the machine (used in reports and description files).
    fn machine_name(&self) -> String {
        "unknown".into()
    }

    /// Cumulative count of transient backend failures this prober has
    /// absorbed by retrying internally (measurement-thread spawn
    /// failures, short sample batches — see
    /// `crate::host::HostProber::measure_pair`). Collection folds the
    /// run's delta into [`ProbeStats::retries`], so absorbed failures
    /// still show up in the cost accounting. Deterministic backends
    /// never retry and keep the default.
    fn backend_retries(&self) -> u64 {
        0
    }
}

/// Identity of an independent randomness stream of the collection
/// phase. Backends with simulated noise derive a fresh generator per
/// stream (see [`Prober::begin_stream`]), which makes measurement
/// results independent of the global order pairs are visited in: a
/// plan's order, and whether a pair is measured in a plan's first step
/// or in a fallback, never change its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeStream {
    /// The rdtsc-cost calibration loop (run once, before any pair).
    Calibration,
    /// The DVFS warm-up of one context.
    Warmup(usize),
    /// All samples (including stdev retries) of one pair, `a < b`.
    Pair(usize, usize),
    /// The SMT-detection spin measurements (Section 3.5).
    SmtCheck,
}

impl ProbeStream {
    /// A collision-free 64-bit tag for this stream (contexts are far
    /// below 2^30 on every machine the paper or the simulator models).
    pub(crate) fn tag(self) -> u64 {
        match self {
            ProbeStream::Calibration => 0,
            ProbeStream::SmtCheck => 1,
            ProbeStream::Warmup(c) => (1 << 60) | c as u64,
            ProbeStream::Pair(a, b) => (2 << 60) | ((a as u64) << 30) | b as u64,
        }
    }
}

/// Which context pairs a collection run measures.
///
/// The paper measures every unordered pair — quadratic in the context
/// count, which is fine up to a few hundred contexts but prohibitive
/// for NoC-scale mesh/circulant machines. [`PairSelection::Pruned`]
/// measures a structured subset (a circular context-id neighbourhood
/// ball, power-of-two long-range strides, and deterministic hashed
/// samples) and reconstructs the remaining entries by shortest-path
/// closure over the measured socket graph. On machines whose latency is
/// a function of interconnect hop distance under socket-major numbering
/// (the mesh-scale presets), the reconstruction is *exact*: a noiseless
/// pruned run produces byte-for-byte the table of an exhaustive run.
///
/// [`PairSelection::Hierarchy`] needs no hint at all: it finds the
/// sockets from the measurements themselves, measures every pair inside
/// them, and predicts the pairs between two sockets from one
/// representative, checked against a sample (see [`collect`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairSelection {
    /// Measure every unordered pair (the paper's collection).
    Exhaustive,
    /// Measure the structured subset described by the config and
    /// reconstruct the rest. Falls back to exhaustive when the config
    /// does not match the machine (context count not `ctxs_per_socket *
    /// sockets`) or the machine is too small for pruning to save
    /// anything.
    Pruned(PruneCfg),
    /// Hierarchy-first collection: one anchor row per socket places
    /// every context, every pair inside a socket is measured, and each
    /// cross-socket pair is predicted from its socket pair's
    /// representative once a seeded hold-out sample lands on the
    /// predicted levels. Any miss falls back to measuring every pair,
    /// counted in [`ProbeStats::fallbacks`].
    Hierarchy,
}

/// Structural hints for [`PairSelection::Pruned`]. The collection layer
/// cannot see the machine's socket structure (that is what inference
/// discovers), so the caller — typically
/// [`crate::desc::canonical_probe_config_for`], which knows the spec —
/// supplies the hypothesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneCfg {
    /// Hardware contexts per socket under the socket-major hypothesis
    /// (`socket = context id / ctxs_per_socket`).
    pub ctxs_per_socket: usize,
    /// Number of sockets.
    pub sockets: usize,
    /// Deterministic hashed long-range sample pairs added on top of the
    /// ball and the strides.
    pub samples: usize,
}

impl PruneCfg {
    /// The canonical pruning plan for a machine shape: one hashed
    /// long-range sample per context.
    pub(crate) fn for_machine(ctxs_per_socket: usize, sockets: usize) -> Self {
        PruneCfg {
            ctxs_per_socket,
            sockets,
            samples: ctxs_per_socket * sockets,
        }
    }
}

/// The measured pair set of a pruned collection over `n` contexts, in
/// deterministic (sorted) order, or `None` when the config does not
/// match the machine or pruning would not reduce the pair count.
///
/// Three structured layers (`c = ctxs_per_socket`, `M = sockets`):
///
/// - a circular context-id ball of radius `c * (ceil(sqrt(M)) + 1)` —
///   covers every intra-socket pair plus, under socket-major numbering,
///   the row *and* column neighbours of a `sqrt(M) x sqrt(M)` grid;
/// - strides `c * 2^j` beyond the ball up to `n/2` — covers the chord
///   generators of multiplicative circulants and gives the closure
///   logarithmic shortcuts on any ring-like shape;
/// - `samples` hashed long-range pairs — structure-free coverage that
///   lets validation catch a wrong structural hypothesis.
///
/// The total is `O(n^1.5)` pairs versus the exhaustive `O(n^2)`.
pub fn pruned_pairs(n: usize, cfg: &PruneCfg) -> Option<Vec<(usize, usize)>> {
    let c = cfg.ctxs_per_socket;
    let m = cfg.sockets;
    if c == 0 || m == 0 || c * m != n {
        return None;
    }
    let mut side = 1usize;
    while side * side < m {
        side += 1;
    }
    let r = c * (side + 1);
    if 2 * r + 1 >= n {
        // The ball already covers (almost) every pair.
        return None;
    }
    // One bit per pair `a < b`, row `a` of `words` words: reading the
    // bits out row by row gives the sorted, deduplicated list.
    let words = n.div_ceil(64);
    let mut bits = vec![0u64; n * words];
    let mut mark = |a: usize, b: usize| {
        let (a, b) = (a.min(b), a.max(b));
        bits[a * words + b / 64] |= 1 << (b % 64);
    };
    let strides = std::iter::successors(Some(c), |&d| Some(d * 2))
        .take_while(|&d| d <= n / 2)
        .filter(|&d| d > r);
    for d in (1..=r).chain(strides) {
        for a in 0..n {
            mark(a, (a + d) % n);
        }
    }
    // Hashed samples: splitmix64 over a fixed seed, so the plan is a
    // pure function of the machine shape.
    let mut next = super::splitmix(0x9E37_79B9_7F4A_7C15u64 ^ ((n as u64) << 32 | c as u64));
    for _ in 0..cfg.samples {
        let a = (next() % n as u64) as usize;
        let b = (next() % n as u64) as usize;
        if a != b {
            mark(a, b);
        }
    }
    let count: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
    if count >= schedule::num_pairs(n) {
        return None;
    }
    let mut pairs = Vec::with_capacity(count);
    for (a, row) in bits.chunks_exact(words).enumerate() {
        for (wi, &word) in row.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                pairs.push((a, wi * 64 + word.trailing_zeros() as usize));
                word &= word - 1;
            }
        }
    }
    Some(pairs)
}

/// Collection parameters (defaults follow Section 3.5).
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Repetitions per context pair (paper default: 2000).
    pub reps: usize,
    /// Accept a pair when `stdev <= stdev_frac * median` (default 7%).
    pub stdev_frac: f64,
    /// Retry escalation ceiling (default 14%).
    pub stdev_frac_max: f64,
    /// Retries per pair before giving up.
    pub max_retries: u32,
    /// Whether to run the DVFS warm-up before using a context.
    pub warmup: bool,
    /// Modelled fixed cost (cycles) of migrating the measurement
    /// threads to a new pair and re-synchronizing: contributes to the
    /// inference-runtime accounting of Section 3.5.
    pub pair_overhead_cycles: u64,
    /// Clustering parameters for step 2 (also used by hierarchy-first
    /// collection to cut anchor rows and check levels).
    pub cluster: ClusterCfg,
    /// Which context pairs to measure (default: all of them).
    pub pairs: PairSelection,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            reps: 2000,
            stdev_frac: 0.07,
            stdev_frac_max: 0.14,
            max_retries: 3,
            warmup: true,
            pair_overhead_cycles: 8_000_000,
            cluster: ClusterCfg::default(),
            pairs: PairSelection::Exhaustive,
        }
    }
}

impl ProbeConfig {
    /// Reduced repetitions for tests and simulated runs; the simulated
    /// noise is well-behaved enough that 51 samples give stable medians.
    pub fn fast() -> Self {
        ProbeConfig {
            reps: 51,
            ..ProbeConfig::default()
        }
    }
}

/// Measurement statistics of a collection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Context pairs measured.
    pub pairs: u64,
    /// Raw probes issued.
    pub probes: u64,
    /// Pair-level retries due to unstable stdev, plus transient
    /// backend failures absorbed by retry (the run's
    /// [`Prober::backend_retries`] delta).
    pub retries: u64,
    /// Cycles spent inside probes (sum of all raw samples).
    pub sample_cycles: u64,
    /// Cycles of fixed per-pair overhead (thread migration, barriers,
    /// DVFS re-checks).
    pub overhead_cycles: u64,
    /// Hierarchy-first runs that gave up predicting and measured every
    /// remaining pair: a socket cut that did not hold, or an anchor-row
    /// or hold-out value off its predicted level.
    pub fallbacks: u64,
}

impl ProbeStats {
    /// Total modelled cost in cycles: the quantity behind the paper's
    /// "~3 seconds on Ivy, 96 seconds on Westmere" (Section 3.5).
    pub(crate) fn modeled_cycles(&self) -> u64 {
        self.sample_cycles + self.overhead_cycles
    }

    /// Modelled wall-clock seconds at the given core frequency.
    pub fn modeled_seconds(&self, freq_ghz: f64) -> f64 {
        self.modeled_cycles() as f64 / (freq_ghz * 1e9)
    }

    /// Stats as they would look with `target` repetitions per pair
    /// instead of the `actual` used: probe time scales linearly, the
    /// per-pair overhead does not. Lets fast runs report the cost of the
    /// paper's 2000-rep configuration. Sample cycles scale by the
    /// resulting probe ratio.
    pub fn scaled_to_reps(&self, actual: usize, target: usize) -> ProbeStats {
        assert!(actual > 0);
        let f = target as f64 / actual as f64;
        let probes = (self.probes as f64 * f) as u64;
        let cf = if self.probes == 0 {
            1.0
        } else {
            probes as f64 / self.probes as f64
        };
        ProbeStats {
            pairs: self.pairs,
            probes,
            retries: self.retries,
            sample_cycles: (self.sample_cycles as f64 * cf) as u64,
            overhead_cycles: self.overhead_cycles,
            fallbacks: self.fallbacks,
        }
    }
}

/// Collects the full latency table (upper triangle measured, mirrored)
/// on one prober, in the plan `cfg.pairs` names.
///
/// # Determinism
///
/// Each pair's samples come from an independent stream derived from
/// the run seed and the pair identity ([`ProbeStream`]), and warm-up
/// runs to completion before any pair is measured, so a value depends
/// on its pair alone, never on the order pairs are measured in. The
/// order decides only which pair a failing run names: the first that
/// fails in the plan's order, with its best relative stdev.
///
/// # Hierarchy-first collection
///
/// Under [`PairSelection::Hierarchy`] the run measures in the order of
/// the hierarchy:
///
/// 1. *Anchor rows.* The lowest context not yet placed is the anchor of
///    a new socket and is measured against every context. Its row is
///    clustered and cut at the level boundary that holds `N / nodes`
///    contexts (else the largest one dividing it: `assemble`'s socket
///    rule), and every later socket must cut at the first one's size.
///    Every context then has a value against every socket's anchor.
/// 2. *Intra-socket pairs.* Every pair inside each socket, so groups
///    and SMT stay fully measured: round by round of each socket's
///    round-robin schedule, the sockets side by side.
/// 3. *Representatives and hold-outs.* The two anchors' pair is the
///    representative of a socket pair (the pair `assemble` reads the
///    socket latency from). A splitmix sample, seeded by the shape
///    only, adds two more pairs per socket pair and `N` more anywhere
///    across sockets, measured in first-fit round order.
///
/// Every anchor-row value and every hold-out must land on its socket
/// pair's representative level: within the gap at which
/// [`cluster::cluster`] would split the two. Then each unmeasured pair
/// takes its representative's value. A socket cut that does not hold or
/// any value off its level instead measures every remaining pair, in
/// round-robin order; the table is then exactly the exhaustive one, and
/// [`ProbeStats::fallbacks`] says so.
pub fn collect<P: Prober>(
    prober: &mut P,
    cfg: &ProbeConfig,
) -> Result<(LatencyTable, ProbeStats), McTopError> {
    let (table, stats) = collect_blocks(prober, cfg)?;
    Ok((table.into_dense(), stats))
}

/// [`collect`] under the name `mctbench` times it by
/// (`alg.probe.collect_parallel2`). Collection runs on one prober, so
/// the worker count is ignored.
pub fn collect_parallel<P: Prober>(
    prober: &mut P,
    cfg: &ProbeConfig,
    _jobs: usize,
) -> Result<(LatencyTable, ProbeStats), McTopError> {
    collect(prober, cfg)
}

/// [`collect`] in block form: a hierarchy-first run that predicted the
/// pairs between sockets returns a part per socket, one value per socket
/// pair (its representative) and the measured pairs off it, each value
/// written there as it is measured; every other run returns the
/// one-part form of its table.
pub(crate) fn collect_blocks<P: Prober>(
    prober: &mut P,
    cfg: &ProbeConfig,
) -> Result<(BlockTable, ProbeStats), McTopError> {
    let mut run = Run::begin(prober, cfg);
    let table = match cfg.pairs {
        PairSelection::Hierarchy => collect_hierarchy(&mut run)?,
        PairSelection::Pruned(pc) => match pruned_pairs(run.n, &pc) {
            Some(pairs) => BlockTable::whole(collect_pruned(&mut run, &pairs, &pc)?),
            None => BlockTable::whole(collect_exhaustive(&mut run)?),
        },
        PairSelection::Exhaustive => BlockTable::whole(collect_exhaustive(&mut run)?),
    };
    Ok((table, run.finish()))
}

/// One collection run on one prober: the rdtsc estimate every value is
/// corrected by, the statistics so far, and the sample buffer.
struct Run<'a, P> {
    prober: &'a mut P,
    cfg: &'a ProbeConfig,
    n: usize,
    rdtsc_est: u32,
    stats: ProbeStats,
    buf: Vec<u32>,
    /// [`Prober::backend_retries`] when measuring began.
    backend_before: u64,
}

impl<'a, P: Prober> Run<'a, P> {
    /// Calibration and warm-up, before any pair, so that measurement
    /// streams never interleave with warm-up randomness.
    fn begin(prober: &'a mut P, cfg: &'a ProbeConfig) -> Self {
        let n = prober.num_hwcs();
        assert!(n >= 2, "need at least two hardware contexts");
        assert!(cfg.reps >= 1, "need at least one repetition per pair");
        // Estimate the rdtsc read cost once, as the median of a
        // calibration loop (Fig. 5 subtracts `rdtsc_latency` from every
        // measurement).
        prober.begin_stream(ProbeStream::Calibration);
        let mut rdtsc_samples: Vec<u32> = (0..101).map(|_| prober.rdtsc_cost()).collect();
        let rdtsc_est = stats::median_u32(&mut rdtsc_samples);
        // The paper warms both cores before every lock-step phase;
        // warming everything up-front is equivalent (frequency only ramps
        // up) and keeps measurements independent of pair order.
        if cfg.warmup {
            for ctx in 0..n {
                prober.begin_stream(ProbeStream::Warmup(ctx));
                prober.warmup(ctx);
            }
        }
        let backend_before = prober.backend_retries();
        Run {
            prober,
            cfg,
            n,
            rdtsc_est,
            stats: ProbeStats::default(),
            buf: Vec::new(),
            backend_before,
        }
    }

    /// The rdtsc-corrected value of the pair `a < b`, or the error that
    /// names it when its samples never settled.
    fn measure(&mut self, a: usize, b: usize) -> Result<u32, McTopError> {
        match measure_one(self.prober, self.cfg, a, b, &mut self.stats, &mut self.buf) {
            Ok(median) => Ok(median.saturating_sub(self.rdtsc_est)),
            Err(stdev_frac) => Err(McTopError::UnstableMeasurements {
                pair: (a, b),
                stdev_frac,
            }),
        }
    }

    /// The run's statistics, with the transient failures the backend
    /// absorbed while measuring.
    fn finish(mut self) -> ProbeStats {
        let absorbed = self.prober.backend_retries();
        self.stats.retries += absorbed.saturating_sub(self.backend_before);
        self.stats
    }
}

/// Every pair, round after round of the round-robin schedule, into a
/// dense table.
fn collect_exhaustive<P: Prober>(run: &mut Run<P>) -> Result<LatencyTable, McTopError> {
    let mut table = LatencyTable::new(run.n);
    for (a, b) in schedule::round_robin_pairs(run.n) {
        table.set(a, b, run.measure(a, b)?);
    }
    Ok(table)
}

/// The pairs of a pruned plan, in the plan's (sorted) order, and the
/// rest of the table from the socket-graph closure.
fn collect_pruned<P: Prober>(
    run: &mut Run<P>,
    pairs: &[(usize, usize)],
    pc: &PruneCfg,
) -> Result<LatencyTable, McTopError> {
    let values = pairs
        .iter()
        .map(|&(a, b)| run.measure(a, b))
        .collect::<Result<Vec<u32>, _>>()?;
    Ok(reconstruct_pruned(run.n, pairs, &values, pc))
}

/// What a hierarchy-first run has measured, each value where the block
/// form keeps it: a row per anchor, a block per socket, the hold-outs.
struct Measured {
    n: usize,
    /// The contexts whose rows are measured, ascending: `anchors[t]`'s
    /// row is `rows[t]` (0 at the anchor itself), and `row_of[c]` is
    /// `t` for `c == anchors[t]`, else `usize::MAX`.
    anchors: Vec<usize>,
    rows: Vec<Vec<u32>>,
    row_of: Vec<usize>,
    /// `of[c]`: the socket of context `c` (`usize::MAX` while it has
    /// none); `members[s]` ascending, so `members[s][0] == anchors[s]`.
    of: Vec<usize>,
    members: Vec<Vec<usize>>,
    /// Each socket's `k x k` block, once every pair inside the sockets
    /// is measured (empty before).
    blocks: Vec<Vec<u32>>,
    /// The hold-outs (`a < b`, ascending) and their values.
    holdouts: Vec<(usize, usize)>,
    holdout_values: Vec<u32>,
}

impl Measured {
    fn new(n: usize) -> Self {
        Measured {
            n,
            anchors: Vec::new(),
            rows: Vec::new(),
            row_of: vec![usize::MAX; n],
            of: vec![usize::MAX; n],
            members: Vec::new(),
            blocks: Vec::new(),
            holdouts: Vec::new(),
            holdout_values: Vec::new(),
        }
    }

    /// The representative latency of the socket pair `(u, v)`: its two
    /// anchors' pair, read off `v`'s row.
    fn rep(&self, u: usize, v: usize) -> u32 {
        self.rows[v][self.members[u][0]]
    }

    /// Whether `value`, measured between two sockets `u` and `v`, lies
    /// on their representative level.
    fn on_level(&self, value: u32, u: usize, v: usize, cfg: &ClusterCfg) -> bool {
        same_level(value, self.rep(u, v), cfg)
    }

    /// Whether the pair `a < b` has been measured.
    fn has(&self, a: usize, b: usize) -> bool {
        self.row_of[a] != usize::MAX
            || self.row_of[b] != usize::MAX
            || (!self.blocks.is_empty() && self.of[a] == self.of[b])
            || self.holdouts.binary_search(&(a, b)).is_ok()
    }

    /// The measured values in a dense table, the rest zero: where a run
    /// that fell back goes on measuring.
    fn dense(&self) -> LatencyTable {
        let mut table = LatencyTable::new(self.n);
        for (&anchor, row) in self.anchors.iter().zip(&self.rows) {
            for (b, &value) in row.iter().enumerate() {
                if b != anchor {
                    table.set(anchor, b, value);
                }
            }
        }
        for (members, block) in self.members.iter().zip(&self.blocks) {
            let k = members.len();
            for (i, &a) in members.iter().enumerate() {
                for (j, &b) in members.iter().enumerate().skip(i + 1) {
                    table.set(a, b, block[i * k + j]);
                }
            }
        }
        for (&(a, b), &value) in self.holdouts.iter().zip(&self.holdout_values) {
            table.set(a, b, value);
        }
        table
    }

    /// The block form of a run whose checks held: a part per socket,
    /// the representatives between them, and every anchor-row value and
    /// hold-out off its representative as an exception.
    fn into_blocks(self) -> BlockTable {
        let p = self.members.len();
        let mut between = vec![0u32; p * p];
        for u in 0..p {
            for v in 0..p {
                if u != v {
                    between[u * p + v] = self.rep(u, v);
                }
            }
        }
        let mut exceptions = Vec::new();
        for (t, (&anchor, row)) in self.anchors.iter().zip(&self.rows).enumerate() {
            for (c, &value) in row.iter().enumerate() {
                let u = self.of[c];
                if u != t && value != between[t * p + u] {
                    exceptions.push((anchor.min(c), anchor.max(c), value));
                }
            }
        }
        for (&(a, b), &value) in self.holdouts.iter().zip(&self.holdout_values) {
            if value != between[self.of[a] * p + self.of[b]] {
                exceptions.push((a, b, value));
            }
        }
        exceptions.sort_unstable();
        BlockTable::from_blocks(self.of, self.members, self.blocks, between, exceptions)
    }
}

/// Splitmix seed of the hold-out sample (mixed with the shape).
const HOLDOUT_SEED: u64 = 0xD1B5_4A32_D192_ED03;

/// Hierarchy-first collection ([`PairSelection::Hierarchy`]; the steps
/// are described at [`collect`]): the block form when the checks held,
/// else the dense table of a run that measured every pair.
fn collect_hierarchy<P: Prober>(run: &mut Run<P>) -> Result<BlockTable, McTopError> {
    let mut m = Measured::new(run.n);
    if hierarchy_steps(run, &mut m)? {
        return Ok(m.into_blocks());
    }
    run.stats.fallbacks += 1;
    let mut table = m.dense();
    for (a, b) in schedule::round_robin_pairs(run.n) {
        if !m.has(a, b) {
            table.set(a, b, run.measure(a, b)?);
        }
    }
    Ok(BlockTable::whole(table))
}

/// Runs the three measuring steps and their checks into `m`. `Ok(false)`
/// means a check missed and the run must measure every remaining pair.
fn hierarchy_steps<P: Prober>(run: &mut Run<P>, m: &mut Measured) -> Result<bool, McTopError> {
    let n = run.n;
    let cfg = &run.cfg.cluster;
    let nodes = run.prober.num_nodes().max(1);
    let quota = if n.is_multiple_of(nodes) {
        n / nodes
    } else {
        0
    };
    // Step 1: anchor rows. A pair with an earlier anchor is on that
    // anchor's row already.
    while let Some(anchor) = m.of.iter().position(|&s| s == usize::MAX) {
        let mut row = vec![0u32; n];
        for (b, value) in row.iter_mut().enumerate() {
            *value = match m.row_of[b] {
                _ if b == anchor => 0,
                usize::MAX => run.measure(anchor.min(b), anchor.max(b))?,
                t => m.rows[t][anchor],
            };
        }
        let size = m.members.first().map(Vec::len);
        let socket = cut_row(&row, anchor, quota, size, cfg);
        m.row_of[anchor] = m.rows.len();
        m.anchors.push(anchor);
        m.rows.push(row);
        let Some(socket) = socket else {
            return Ok(false);
        };
        if socket.iter().any(|&c| m.of[c] != usize::MAX) {
            return Ok(false);
        }
        for &c in &socket {
            m.of[c] = m.members.len();
        }
        m.members.push(socket);
    }
    let sockets = m.members.len();
    let off_level = (0..sockets)
        .any(|t| (0..n).any(|c| m.of[c] != t && !m.on_level(m.rows[t][c], m.of[c], t, cfg)));
    if off_level {
        return Ok(false);
    }

    // Step 2: every pair inside each socket, the sockets' round-robin
    // schedules side by side (all sockets have one size). The pairs of
    // a socket's anchor are on its row.
    let k = m.members[0].len();
    let mut blocks: Vec<Vec<u32>> = (0..sockets)
        .map(|t| {
            let mut block = vec![0u32; k * k];
            for (j, &c) in m.members[t].iter().enumerate() {
                block[j] = m.rows[t][c];
                block[j * k] = m.rows[t][c];
            }
            block
        })
        .collect();
    let mut round = Vec::with_capacity(k / 2);
    for r in 0..schedule::rounds(k) {
        round.clear();
        round.extend(schedule::round(k, r).filter(|&(i, _)| i != 0));
        for (members, block) in m.members.iter().zip(&mut blocks) {
            for &(i, j) in &round {
                let value = run.measure(members[i], members[j])?;
                block[i * k + j] = value;
                block[j * k + i] = value;
            }
        }
    }
    m.blocks = blocks;

    // Step 3: the hold-out sample.
    m.holdouts = holdout_pairs(m);
    m.holdout_values = vec![0; m.holdouts.len()];
    for i in schedule::first_fit_order(n, &m.holdouts) {
        let (a, b) = m.holdouts[i];
        m.holdout_values[i] = run.measure(a, b)?;
    }
    Ok(m.holdouts
        .iter()
        .zip(&m.holdout_values)
        .all(|(&(a, b), &value)| m.on_level(value, m.of[a], m.of[b], cfg)))
}

/// The socket of `anchor`, read off its measured row: the anchor plus
/// every context in the row's lowest latency clusters, cut at the
/// boundary that holds `size` contexts. The first socket has no size
/// yet and cuts as `assemble` picks its socket level: at `quota`
/// contexts, else at the largest boundary below `N` that divides it.
/// `None` when no boundary fits (or the row does not cluster).
fn cut_row(
    row: &[u32],
    anchor: usize,
    quota: usize,
    size: Option<usize>,
    cfg: &ClusterCfg,
) -> Option<Vec<usize>> {
    let n = row.len();
    let mut sorted: Vec<u32> = (0..n).filter(|&b| b != anchor).map(|b| row[b]).collect();
    sorted.sort_unstable();
    let clusters = cluster::cluster_runs(&cluster::runs(&sorted), cfg).ok()?;
    // `holding[k]`: the anchor plus every context below cluster `k`,
    // with `ceiling[k]` the largest latency among them.
    let mut holding = vec![1usize];
    let mut ceiling = vec![0u32];
    for c in &clusters {
        holding.push(1 + sorted.partition_point(|&v| v <= c.max));
        ceiling.push(c.max);
    }
    let cut = match size {
        Some(size) => holding.iter().position(|&h| h == size)?,
        None if quota == 0 => return None,
        None => holding.iter().position(|&h| h == quota).or_else(|| {
            (0..holding.len())
                .filter(|&k| holding[k] < n && quota.is_multiple_of(holding[k]))
                .max_by_key(|&k| holding[k])
        })?,
    };
    Some(
        (0..n)
            .filter(|&b| b == anchor || (cut > 0 && row[b] <= ceiling[cut]))
            .collect(),
    )
}

/// Whether `x` and `y` fall in one cluster of any table that holds both:
/// their gap is within the split threshold [`cluster::cluster`] applies
/// at the lower one, which no value between them can exceed.
fn same_level(x: u32, y: u32, cfg: &ClusterCfg) -> bool {
    x.abs_diff(y) <= cfg.abs_gap.max((cfg.rel_gap * x.min(y) as f64) as u32)
}

/// The hold-out sample of a hierarchy-first run, ascending: for each
/// socket pair, the first two unmeasured pairs of its grid scanned from
/// a seeded start, then `n` more unmeasured cross-socket pairs drawn at
/// random (a bounded number of draws), none drawn twice. A cross-socket
/// pair is measured already when it is on an anchor's row.
fn holdout_pairs(m: &Measured) -> Vec<(usize, usize)> {
    let n = m.n;
    let s = m.members.len();
    let c = m.members[0].len();
    let mut next = super::splitmix(HOLDOUT_SEED ^ ((n as u64) << 32 | s as u64));
    // The picks as `a * n + b` (`a < b`), kept ascending.
    let mut picked: Vec<u64> = Vec::new();
    let pick = |a: usize, b: usize, picked: &mut Vec<u64>| {
        if m.of[a] == m.of[b] || m.row_of[a] != usize::MAX || m.row_of[b] != usize::MAX {
            return false;
        }
        let key = (a.min(b) * n + a.max(b)) as u64;
        match picked.binary_search(&key) {
            Ok(_) => false,
            Err(at) => {
                picked.insert(at, key);
                true
            }
        }
    };
    for u in 0..s {
        for v in (u + 1)..s {
            let start = (next() % (c * c) as u64) as usize;
            let mut found = 0;
            for k in 0..c * c {
                if found == 2 {
                    break;
                }
                let at = (start + k) % (c * c);
                if pick(m.members[u][at / c], m.members[v][at % c], &mut picked) {
                    found += 1;
                }
            }
        }
    }
    let mut found = 0;
    for _ in 0..16 * n {
        if found == n {
            break;
        }
        let a = (next() % n as u64) as usize;
        let b = (next() % n as u64) as usize;
        if pick(a, b, &mut picked) {
            found += 1;
        }
    }
    let n = n as u64;
    picked
        .into_iter()
        .map(|key| ((key / n) as usize, (key % n) as usize))
        .collect()
}

/// The table of a pruned run over `n` contexts: each pair of `pairs`
/// holds its measured value from `values`, and every other pair is
/// filled by shortest-path closure over the measured socket graph.
///
/// The model (matching [`crate::build`]'s link inference in reverse):
/// every cross-socket latency is a fixed per-transfer overhead `h` plus
/// additive wire latency along the cheapest socket path. The measured
/// pairs give socket-edge weights `W(u, v) = min measured latency`;
/// `h` falls out of the two smallest distinct weights (a 2-hop path
/// costs `h + 2 * (lambda1 - h)`, so `h = 2 * lambda1 - lambda2` when
/// the second level is a 2-hop level); a min-plus (Floyd–Warshall)
/// closure over `W - h` then gives every missing cross-socket latency
/// as `h + dist`. Measured entries are kept verbatim, so on machines
/// where the model is exact (the mesh-scale presets) a noiseless pruned
/// table equals the exhaustive one byte for byte, and on machines where
/// it is not, validation sees the genuine measurements.
fn reconstruct_pruned(
    n: usize,
    pairs: &[(usize, usize)],
    values: &[u32],
    pc: &PruneCfg,
) -> LatencyTable {
    let c = pc.ctxs_per_socket;
    let m = pc.sockets;
    debug_assert_eq!(c * m, n);
    // Socket-level edge weights: the minimum measured latency between
    // any context of u and any context of v (noise, if present, is
    // damped by taking the min over c^2-ish samples per socket pair).
    let mut w: Vec<u32> = vec![u32::MAX; m * m];
    // Intra-socket fallback (the ball radius >= c guarantees every
    // intra pair is measured, so this is belt and braces).
    let mut intra: Vec<u32> = vec![u32::MAX; m];
    for (&(a, b), &lat) in pairs.iter().zip(values) {
        let (u, v) = (a / c, b / c);
        if u == v {
            intra[u] = intra[u].min(lat);
        } else if lat < w[u * m + v] {
            w[u * m + v] = lat;
            w[v * m + u] = lat;
        }
    }
    // Overhead estimate from the two smallest distinct edge weights;
    // a single level (or none) means no path composition is possible
    // anyway and h only shifts reconstructed values uniformly.
    let (mut l1, mut l2) = (u32::MAX, u32::MAX);
    for &weight in &w {
        if weight < l1 {
            (l1, l2) = (weight, l1);
        } else if weight > l1 && weight < l2 {
            l2 = weight;
        }
    }
    let h = if l2 == u32::MAX {
        0
    } else {
        ((2 * l1 as u64).saturating_sub(l2 as u64)).min(l1 as u64) as u32
    };
    // Which sockets the measured edges connect at all: the closure below
    // saturates, so `u32::MAX` there cannot tell "unreachable" from "a
    // wire sum past `u32::MAX`".
    let mut root: Vec<usize> = (0..m).collect();
    // All-pairs wire distances over W - h: one min-plus closure over the
    // upper triangle (`dist[u * m + v]` for `u < v` only) with saturating
    // `u32` adds. Saturation is monotone, so every distance comes out as
    // `min(true distance, u32::MAX)`, and `h` plus it, clamped, is the
    // latency the unclamped closure would fill.
    let mut dist = vec![u32::MAX; m * m];
    for u in 0..m {
        for v in (u + 1)..m {
            let weight = w[u * m + v];
            if weight != u32::MAX {
                dist[u * m + v] = weight.saturating_sub(h);
                let (ru, rv) = (find_root(&mut root, u), find_root(&mut root, v));
                root[ru] = rv;
            }
        }
    }
    close_triangle(&mut dist, m);
    for u in 0..m {
        root[u] = find_root(&mut root, u);
    }
    // The value of every unmeasured pair of each socket pair, in `w`'s
    // place: disconnected or intra-unmeasured pairs stay zero
    // (validation rejects such tables loudly rather than inventing a
    // number).
    for u in 0..m {
        for v in u..m {
            let fill = if u == v {
                if intra[u] == u32::MAX {
                    0
                } else {
                    intra[u]
                }
            } else if root[u] == root[v] {
                h.saturating_add(dist[u * m + v])
            } else {
                0
            };
            w[u * m + v] = fill;
            w[v * m + u] = fill;
        }
    }
    // Fill by socket-pair blocks, then write the measured values back.
    let mut vals = vec![0u32; n * n];
    for (a, row) in vals.chunks_exact_mut(n).enumerate() {
        let fill = &w[a / c * m..][..m];
        for (block, &value) in row.chunks_exact_mut(c).zip(fill) {
            block.fill(value);
        }
        row[a] = 0;
    }
    for (&(a, b), &value) in pairs.iter().zip(values) {
        vals[a * n + b] = value;
        vals[b * n + a] = value;
    }
    LatencyTable::from_vec(n, vals)
}

/// The min-plus closure of [`reconstruct_pruned`] over the upper
/// triangle of the `m x m` row-major `dist` (`dist[u * m + v]` for
/// `u < v`; the rest is never read), with saturating adds. On an x86-64
/// CPU with AVX2 the same loop runs compiled for it, eight lanes of
/// `vpminud` per step instead of an emulated unsigned min on SSE2
/// (about 3x on `synth-mesh-144`).
fn close_triangle(dist: &mut [u32], m: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        unsafe { close_triangle_avx2(dist, m) };
        return;
    }
    close_triangle_portable(dist, m);
}

/// [`close_triangle_portable`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn close_triangle_avx2(dist: &mut [u32], m: usize) {
    close_triangle_portable(dist, m);
}

/// The closure loop itself. Always inlined, so that each caller
/// compiles it for its own target features.
#[inline(always)]
fn close_triangle_portable(dist: &mut [u32], m: usize) {
    // Row `k` and column `k` do not change in step `k`, so the step
    // reads a copy of both, gathered into one full row.
    let mut row_k = vec![0u32; m];
    for k in 0..m {
        for (j, d) in row_k[..k].iter_mut().enumerate() {
            *d = dist[j * m + k];
        }
        row_k[k] = 0;
        row_k[k + 1..].copy_from_slice(&dist[k * m + k + 1..(k + 1) * m]);
        for i in 0..m {
            let via = row_k[i];
            if via == u32::MAX || i == k {
                continue;
            }
            let row = &mut dist[i * m + i + 1..(i + 1) * m];
            for (d, &dk) in row.iter_mut().zip(&row_k[i + 1..]) {
                *d = (*d).min(via.saturating_add(dk));
            }
        }
    }
}

/// Measures one pair with full repetitions and the stdev retry gate
/// ([`ProbeStream::Pair`]), accumulating statistics and reusing `buf`
/// for the samples. Returns the median of the accepted samples (rdtsc
/// cost still included) or, when the retry escalation never
/// stabilized, the best relative stdev.
fn measure_one<P: Prober>(
    prober: &mut P,
    cfg: &ProbeConfig,
    a: usize,
    b: usize,
    stats: &mut ProbeStats,
    buf: &mut Vec<u32>,
) -> Result<u32, f64> {
    stats.overhead_cycles += cfg.pair_overhead_cycles;
    prober.begin_stream(ProbeStream::Pair(a, b));
    stats.pairs += 1;
    let mut best_frac = f64::INFINITY;
    for attempt in 0..=cfg.max_retries {
        prober.probe_batch(a, b, buf, cfg.reps);
        stats.probes += buf.len() as u64;
        stats.sample_cycles += buf.iter().map(|&s| s as u64).sum::<u64>();
        let (median, sd) = median_stdev(buf);
        let frac = if median == 0 { 0.0 } else { sd / median as f64 };
        // Threshold escalates linearly from stdev_frac to
        // stdev_frac_max across the retries.
        let threshold = if cfg.max_retries == 0 {
            cfg.stdev_frac_max
        } else {
            cfg.stdev_frac
                + (cfg.stdev_frac_max - cfg.stdev_frac) * (attempt as f64 / cfg.max_retries as f64)
        };
        if frac <= threshold {
            return Ok(median);
        }
        best_frac = best_frac.min(frac);
        stats.retries += 1;
    }
    Err(best_frac)
}

/// Median and standard deviation of one attempt's samples. The stdev
/// sums the samples in the order they were taken, before the median
/// reorders them: a reordered floating-point sum can flip a borderline
/// stdev gate.
///
/// Equal samples skip both passes. That is exact while their sum is:
/// below 2^21 samples of a `u32` every partial sum fits an `f64`'s 53
/// bits, so the mean is the value and the stdev `+0.0`, bit for bit.
fn median_stdev(samples: &mut [u32]) -> (u32, f64) {
    if let Some((&v, rest)) = samples.split_first() {
        if samples.len() <= 1 << 21 && rest.iter().all(|&s| s == v) {
            return (v, 0.0);
        }
    }
    let sd = stats::stdev(samples);
    (stats::median_u32(samples), sd)
}

/// SMT detection (Section 3.5): spin solo on one context, then spin
/// simultaneously on the two minimum-latency contexts (the first
/// strictly smallest pair in row-major order). If they share a core, SMT
/// resource sharing slows the loop down markedly.
pub fn detect_smt<P: Prober>(prober: &mut P, norm: &LatencyTable) -> bool {
    detect_smt_at(prober, norm.min_pair())
}

/// [`detect_smt`] on the pair its table picked (`BlockTable::min_pair`
/// finds it without a pass over the pairs between parts): whether the
/// two contexts share a core.
pub(crate) fn detect_smt_at<P: Prober>(prober: &mut P, pair: Option<(usize, usize)>) -> bool {
    prober.begin_stream(ProbeStream::SmtCheck);
    let Some((a, b)) = pair else { return false };
    const ITERS: u64 = 50_000;
    let solo = prober.spin_duration(&[a], ITERS);
    let paired = prober.spin_duration(&[a, b], ITERS);
    paired as f64 > solo as f64 * 1.4
}

/// The pair [`detect_smt`] picked as it was: a scan of the dense table's
/// upper triangle for the first strictly smallest value.
#[cfg(test)]
pub(crate) fn smt_pair_reference(norm: &LatencyTable) -> Option<(usize, usize)> {
    let n = norm.n();
    let mut best: Option<(u32, usize, usize)> = None;
    for a in 0..n {
        for b in (a + 1)..n {
            let v = norm.get(a, b);
            if best.is_none_or(|(bv, _, _)| v < bv) {
                best = Some((v, a, b));
            }
        }
    }
    best.map(|(_, a, b)| (a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimProber;
    use mcsim::presets;

    /// The collection as it was before it measured into the block form: a
    /// dense table and an N x N `done` map, filled phase by phase through
    /// lists of schedule rounds, then cut into blocks. The oracle for
    /// [`collect_blocks`]: the same table, statistics and first failure,
    /// except that the pruned plan measured its pairs in first-fit round
    /// order, where [`collect_blocks`] takes them in the plan's order.
    mod reference {
        use super::*;

        /// Shared state of one collection run.
        pub(super) struct Collection {
            pub(super) n: usize,
            rdtsc_est: u32,
            pub(super) table: LatencyTable,
        }

        /// Calibration + warm-up, before any pair.
        pub(super) fn begin_collection<P: Prober>(prober: &mut P, cfg: &ProbeConfig) -> Collection {
            let n = prober.num_hwcs();
            prober.begin_stream(ProbeStream::Calibration);
            let mut rdtsc_samples: Vec<u32> = (0..101).map(|_| prober.rdtsc_cost()).collect();
            let rdtsc_est = stats::median_u32(&mut rdtsc_samples);
            if cfg.warmup {
                for ctx in 0..n {
                    prober.begin_stream(ProbeStream::Warmup(ctx));
                    prober.warmup(ctx);
                }
            }
            Collection {
                n,
                rdtsc_est,
                table: LatencyTable::new(n),
            }
        }

        /// The collection's block form, as `collect_blocks` returned it.
        pub(super) fn collect_blocks<P: Prober>(
            prober: &mut P,
            cfg: &ProbeConfig,
        ) -> Result<(BlockTable, ProbeStats), McTopError> {
            let mut ctx = begin_collection(prober, cfg);
            let mut stats = ProbeStats::default();
            if cfg.pairs == PairSelection::Hierarchy {
                if let Some((sockets, cross)) =
                    collect_hierarchy(&mut ctx, cfg, &mut stats, prober)?
                {
                    let table =
                        BlockTable::from_parts(&ctx.table, sockets.of, sockets.members, &cross);
                    return Ok((table, stats));
                }
                return Ok((BlockTable::whole(ctx.table), stats));
            }
            let (rounds, pruned) = plan_rounds(ctx.n, cfg);
            run_phase(prober, cfg, &slices(&rounds), &mut ctx, &mut stats)?;
            if let Some((pairs, pc)) = &pruned {
                super::reconstruct_reference(&mut ctx.table, pairs, pc);
            }
            Ok((BlockTable::whole(ctx.table), stats))
        }

        /// Measures the pairs of `rounds`, round after round, straight into
        /// the table, stopping at the first failure.
        fn run_phase<P: Prober>(
            prober: &mut P,
            cfg: &ProbeConfig,
            rounds: &[&[(usize, usize)]],
            ctx: &mut Collection,
            stats: &mut ProbeStats,
        ) -> Result<(), McTopError> {
            let backend_before = prober.backend_retries();
            let mut buf = Vec::new();
            let mut outcome = Ok(());
            for &(a, b) in rounds.iter().copied().flatten() {
                match measure_one(prober, cfg, a, b, stats, &mut buf) {
                    Ok(median) => ctx.table.set(a, b, median.saturating_sub(ctx.rdtsc_est)),
                    Err(stdev_frac) => {
                        outcome = Err(McTopError::UnstableMeasurements {
                            pair: (a, b),
                            stdev_frac,
                        });
                        break;
                    }
                }
            }
            stats.retries += prober.backend_retries().saturating_sub(backend_before);
            outcome
        }

        fn slices(rounds: &[Vec<(usize, usize)>]) -> Vec<&[(usize, usize)]> {
            rounds.iter().map(Vec::as_slice).collect()
        }

        /// The measured pairs of a hierarchy-first run.
        struct Measured<'p, P> {
            n: usize,
            /// `done[a * n + b]`: the pair has been measured (or is the
            /// diagonal), both ways round.
            done: Vec<bool>,
            prober: &'p mut P,
        }

        impl<P: Prober> Measured<'_, P> {
            fn has(&self, a: usize, b: usize) -> bool {
                self.done[a * self.n + b]
            }

            fn run(
                &mut self,
                ctx: &mut Collection,
                cfg: &ProbeConfig,
                rounds: &[&[(usize, usize)]],
                stats: &mut ProbeStats,
            ) -> Result<(), McTopError> {
                for &(a, b) in rounds.iter().copied().flatten() {
                    self.done[a * self.n + b] = true;
                    self.done[b * self.n + a] = true;
                }
                run_phase(self.prober, cfg, rounds, ctx, stats)
            }
        }

        /// The sockets a hierarchy-first run found.
        pub(super) struct Sockets {
            pub(super) of: Vec<usize>,
            pub(super) members: Vec<Vec<usize>>,
        }

        impl Sockets {
            pub(super) fn rep(&self, table: &LatencyTable, u: usize, v: usize) -> u32 {
                table.get(self.members[u][0], self.members[v][0])
            }

            fn on_level(&self, table: &LatencyTable, a: usize, b: usize, cfg: &ClusterCfg) -> bool {
                let rep = self.rep(table, self.of[a], self.of[b]);
                same_level(table.get(a, b), rep, cfg)
            }
        }

        type SocketsFound = (Sockets, Vec<(usize, usize)>);

        /// The sockets and the measured pairs between two of them when the
        /// checks held; `None` when the run fell back and measured every
        /// pair.
        pub(super) fn collect_hierarchy<P: Prober>(
            ctx: &mut Collection,
            cfg: &ProbeConfig,
            stats: &mut ProbeStats,
            prober: &mut P,
        ) -> Result<Option<SocketsFound>, McTopError> {
            let n = ctx.n;
            let nodes = prober.num_nodes();
            let mut done = vec![false; n * n];
            for c in 0..n {
                done[c * n + c] = true;
            }
            let mut m = Measured { n, done, prober };
            if let Some(found) = hierarchy_steps(ctx, cfg, nodes, stats, &mut m)? {
                return Ok(Some(found));
            }
            stats.fallbacks += 1;
            let rest = schedule::round_robin(n)
                .into_iter()
                .map(|round| {
                    round
                        .into_iter()
                        .filter(|&(a, b)| !m.has(a, b))
                        .collect::<Vec<_>>()
                })
                .filter(|round| !round.is_empty())
                .collect::<Vec<_>>();
            m.run(ctx, cfg, &slices(&rest), stats)?;
            Ok(None)
        }

        fn hierarchy_steps<P: Prober>(
            ctx: &mut Collection,
            cfg: &ProbeConfig,
            nodes: usize,
            stats: &mut ProbeStats,
            m: &mut Measured<P>,
        ) -> Result<Option<SocketsFound>, McTopError> {
            let n = ctx.n;
            let nodes = nodes.max(1);
            let quota = if n.is_multiple_of(nodes) {
                n / nodes
            } else {
                0
            };
            let mut of = vec![usize::MAX; n];
            let mut members: Vec<Vec<usize>> = Vec::new();
            while let Some(anchor) = of.iter().position(|&s| s == usize::MAX) {
                let row: Vec<(usize, usize)> = (0..n)
                    .filter(|&b| !m.has(anchor, b))
                    .map(|b| (anchor.min(b), anchor.max(b)))
                    .collect();
                m.run(ctx, cfg, &row.chunks(1).collect::<Vec<_>>(), stats)?;
                let size = members.first().map(Vec::len);
                let Some(socket) =
                    cut_row(ctx.table.row(anchor), anchor, quota, size, &cfg.cluster)
                else {
                    return Ok(None);
                };
                if socket.iter().any(|&c| of[c] != usize::MAX) {
                    return Ok(None);
                }
                for &c in &socket {
                    of[c] = members.len();
                }
                members.push(socket);
            }
            let sockets = Sockets { of, members };
            let off_level = sockets.members.iter().any(|socket| {
                let anchor = socket[0];
                (0..n).any(|c| {
                    sockets.of[c] != sockets.of[anchor]
                        && !sockets.on_level(&ctx.table, c, anchor, &cfg.cluster)
                })
            });
            if off_level {
                return Ok(None);
            }
            let mut intra = Vec::new();
            for round in schedule::round_robin(sockets.members[0].len()) {
                let mut pairs = Vec::with_capacity(round.len() * sockets.members.len());
                for s in &sockets.members {
                    pairs.extend(
                        round
                            .iter()
                            .map(|&(i, j)| (s[i], s[j]))
                            .filter(|&(a, b)| !m.has(a, b)),
                    );
                }
                if !pairs.is_empty() {
                    intra.push(pairs);
                }
            }
            m.run(ctx, cfg, &slices(&intra), stats)?;
            let holdouts = holdout_pairs(n, &sockets, &mut m.done);
            m.run(
                ctx,
                cfg,
                &slices(&schedule::rounds_for(n, &holdouts)),
                stats,
            )?;
            let on_level = holdouts
                .iter()
                .all(|&(a, b)| sockets.on_level(&ctx.table, a, b, &cfg.cluster));
            if !on_level {
                return Ok(None);
            }
            let mut cross = holdouts;
            for socket in &sockets.members {
                let anchor = socket[0];
                cross.extend(
                    (0..n)
                        .filter(|&c| sockets.of[c] != sockets.of[anchor])
                        .map(|c| (anchor.min(c), anchor.max(c))),
                );
            }
            Ok(Some((sockets, cross)))
        }

        fn holdout_pairs(n: usize, sockets: &Sockets, done: &mut [bool]) -> Vec<(usize, usize)> {
            let s = sockets.members.len();
            let c = sockets.members[0].len();
            let mut next = crate::alg::splitmix(HOLDOUT_SEED ^ ((n as u64) << 32 | s as u64));
            let mut picked = Vec::new();
            let mut pick = |a: usize, b: usize, picked: &mut Vec<(usize, usize)>| {
                let free = sockets.of[a] != sockets.of[b] && !done[a * n + b];
                if free {
                    done[a * n + b] = true;
                    done[b * n + a] = true;
                    picked.push((a.min(b), a.max(b)));
                }
                free
            };
            for u in 0..s {
                for v in (u + 1)..s {
                    let start = (next() % (c * c) as u64) as usize;
                    let mut found = 0;
                    for k in 0..c * c {
                        if found == 2 {
                            break;
                        }
                        let at = (start + k) % (c * c);
                        if pick(
                            sockets.members[u][at / c],
                            sockets.members[v][at % c],
                            &mut picked,
                        ) {
                            found += 1;
                        }
                    }
                }
            }
            let mut found = 0;
            for _ in 0..16 * n {
                if found == n {
                    break;
                }
                let a = (next() % n as u64) as usize;
                let b = (next() % n as u64) as usize;
                if pick(a, b, &mut picked) {
                    found += 1;
                }
            }
            picked.sort_unstable();
            picked
        }

        #[allow(clippy::type_complexity)]
        fn plan_rounds(
            n: usize,
            cfg: &ProbeConfig,
        ) -> (
            Vec<Vec<(usize, usize)>>,
            Option<(Vec<(usize, usize)>, PruneCfg)>,
        ) {
            if let PairSelection::Pruned(pc) = cfg.pairs {
                if let Some(pairs) = pruned_pairs(n, &pc) {
                    let rounds = schedule::rounds_for(n, &pairs);
                    return (rounds, Some((pairs, pc)));
                }
            }
            (schedule::round_robin(n), None)
        }
    }

    /// The one-prober block collection and the dense engine of
    /// `reference`, each on a fresh prober of one machine: the same
    /// block table and statistics, or the same error, its text and its
    /// stdev to the bit. Returns the statistics or the error.
    fn assert_equals_reference<P: Prober>(
        p: &mut P,
        q: &mut P,
        cfg: &ProbeConfig,
        what: &str,
    ) -> Result<ProbeStats, String> {
        let text = |e: McTopError| format!("{e} ({e:?})");
        let got = collect_blocks(p, cfg).map_err(text);
        let want = reference::collect_blocks(q, cfg).map_err(text);
        assert_eq!(got, want, "{what}");
        got.map(|(_, stats)| stats)
    }

    #[test]
    fn block_collection_equals_the_reference() {
        // The committed machines, noiseless, in their canonical plans.
        let specs = presets::all_paper_platforms()
            .into_iter()
            .chain(presets::all_synthetic())
            .chain(presets::all_mesh_scale());
        for spec in specs {
            let cfg = crate::desc::canonical_probe_config_for(&spec);
            let mk = || SimProber::noiseless(&spec);
            assert_equals_reference(&mut mk(), &mut mk(), &cfg, &spec.name).unwrap();
        }
        // The runs of `tests/noise_sweep.rs`: default noise and outliers
        // ten times as frequent, seeds 1-8, both plans; then hostile
        // noise. (None falls back: the perturbed machines of
        // `loud_or_exact` compare the fallbacks.)
        let settings = [
            mcsim::NoiseCfg::default(),
            mcsim::NoiseCfg {
                outlier_prob: 2e-3,
                ..mcsim::NoiseCfg::default()
            },
        ];
        let mut failed = 0;
        for spec in presets::all_paper_platforms() {
            for pairs in [PairSelection::Hierarchy, PairSelection::Exhaustive] {
                let cfg = ProbeConfig {
                    reps: ProbeConfig::fast().reps,
                    pairs,
                    ..crate::desc::canonical_probe_config_for(&spec)
                };
                for (s, noise) in settings.into_iter().enumerate() {
                    for seed in 1..=8 {
                        let mk = || SimProber::with_noise(&spec, seed, noise);
                        let what = format!("{} noise {s} seed {seed} {pairs:?}", spec.name);
                        let outcome = assert_equals_reference(&mut mk(), &mut mk(), &cfg, &what);
                        failed += usize::from(outcome.is_err());
                    }
                }
                let hostile = ProbeConfig { reps: 31, ..cfg };
                for seed in 3..=5 {
                    let mk = || SimProber::with_noise(&spec, seed, mcsim::NoiseCfg::hostile());
                    let what = format!("{} hostile seed {seed} {pairs:?}", spec.name);
                    let outcome = assert_equals_reference(&mut mk(), &mut mk(), &hostile, &what);
                    assert!(outcome.is_err(), "{what}: hostile noise passed");
                }
            }
        }
        assert!(failed > 0, "no noisy run failed");
    }

    #[test]
    fn noiseless_collection_recovers_exact_latencies() {
        let spec = presets::synthetic_small();
        let mut p = SimProber::noiseless(&spec);
        let cfg = ProbeConfig {
            reps: 5,
            ..ProbeConfig::fast()
        };
        let (table, stats) = collect(&mut p, &cfg).unwrap();
        assert!(table.is_consistent());
        for a in 0..spec.total_hwcs() {
            for b in 0..spec.total_hwcs() {
                assert_eq!(table.get(a, b), spec.true_latency(a, b), "pair ({a},{b})");
            }
        }
        let n = spec.total_hwcs() as u64;
        assert_eq!(stats.pairs, n * (n - 1) / 2);
        assert_eq!(stats.probes, stats.pairs * 5);
        assert_eq!(stats.retries, 0);
    }

    /// A backend that reports one absorbed transient failure per sample
    /// batch, exercising the per-phase fold of [`Prober::backend_retries`]
    /// deltas into [`ProbeStats::retries`].
    struct FlakyBackend<'a> {
        inner: SimProber<'a>,
        absorbed: u64,
    }

    impl Prober for FlakyBackend<'_> {
        fn num_hwcs(&self) -> usize {
            self.inner.num_hwcs()
        }
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn probe(&mut self, a: usize, b: usize) -> u32 {
            self.inner.probe(a, b)
        }
        fn probe_batch(&mut self, a: usize, b: usize, out: &mut Vec<u32>, count: usize) {
            self.absorbed += 1;
            self.inner.probe_batch(a, b, out, count);
        }
        fn rdtsc_cost(&mut self) -> u32 {
            self.inner.rdtsc_cost()
        }
        fn spin_duration(&mut self, ctxs: &[usize], iters: u64) -> u64 {
            self.inner.spin_duration(ctxs, iters)
        }
        fn warmup(&mut self, ctx: usize) {
            self.inner.warmup(ctx)
        }
        fn begin_stream(&mut self, stream: ProbeStream) {
            self.inner.begin_stream(stream)
        }
        fn backend_retries(&self) -> u64 {
            self.absorbed
        }
    }

    #[test]
    fn backend_retries_fold_into_stats() {
        let spec = presets::synthetic_small();
        let cfg = ProbeConfig {
            reps: 5,
            ..ProbeConfig::fast()
        };
        let mut p = FlakyBackend {
            inner: SimProber::noiseless(&spec),
            absorbed: 0,
        };
        let (_, stats) = collect(&mut p, &cfg).unwrap();
        assert_eq!(
            stats.retries,
            p.backend_retries(),
            "inline fold captures every absorbed failure"
        );
        assert_eq!(
            stats.retries, stats.pairs,
            "noiseless: exactly one batch (one absorbed failure) per pair"
        );
    }

    #[test]
    fn noisy_collection_medians_are_close() {
        let spec = presets::ivy();
        let mut p = SimProber::new(&spec, 7);
        let (table, _) = collect(&mut p, &ProbeConfig::fast()).unwrap();
        for &(a, b) in &[(0usize, 1usize), (0, 10), (0, 20), (5, 35)] {
            let truth = spec.true_latency(a, b) as f64;
            let got = table.get(a, b) as f64;
            assert!(
                (got - truth).abs() / truth < 0.10,
                "({a},{b}): got {got}, truth {truth}"
            );
        }
    }

    #[test]
    fn hostile_noise_errors_out() {
        let spec = presets::synthetic_small();
        let mut p = SimProber::with_noise(&spec, 3, mcsim::NoiseCfg::hostile());
        let cfg = ProbeConfig {
            reps: 31,
            max_retries: 1,
            ..ProbeConfig::fast()
        };
        let res = collect(&mut p, &cfg);
        assert!(matches!(res, Err(McTopError::UnstableMeasurements { .. })));
    }

    /// FNV-1a over a table's values, row-major, little-endian.
    fn fnv1a_table(t: &LatencyTable) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for a in 0..t.n() {
            for byte in t.row(a).iter().flat_map(|v| v.to_le_bytes()) {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// The committed descriptions are noiseless, so they cannot see a
    /// change in RNG consumption order or in the stdev's summation
    /// order; these pins can. The values are the collection's output
    /// from before its phases wrote straight into the table; the last is
    /// the modelled cost, which the one-job critical path equalled.
    #[test]
    fn noisy_collection_is_pinned() {
        let ivy = presets::ivy();
        let cfg = ProbeConfig::fast();
        let (table, stats) = collect(&mut SimProber::new(&ivy, 7), &cfg).unwrap();
        assert_eq!(fnv1a_table(&table), 779_277_497_589_458_277);
        assert_eq!(
            stats,
            ProbeStats {
                pairs: 780,
                probes: 40_698,
                retries: 18,
                sample_cycles: 9_540_036,
                overhead_cycles: 6_240_000_000,
                fallbacks: 0,
            }
        );
        assert_eq!(stats.modeled_cycles(), 6_249_540_036);
        // Hostile noise fails on the first pair in schedule order, and
        // the error carries that pair's best stdev to the last bit. A
        // stdev summed in another order differs in its last bits about
        // half the time, so a few seeds make that slip visible.
        let west = presets::westmere();
        let cfg = ProbeConfig {
            reps: 31,
            ..ProbeConfig::fast()
        };
        for (seed, bits) in [
            (3, 0x3FD1_5328_2ED7_9C91u64),
            (4, 0x3FD1_57E2_D8AB_9DBC),
            (5, 0x3FCB_BAE1_7E84_F586),
            (6, 0x3FCE_FF4A_388D_33F2),
            (7, 0x3FE3_A22B_A1C5_DE31),
            (8, 0x3FCD_5440_9FE0_B449),
        ] {
            let mut p = SimProber::with_noise(&west, seed, mcsim::NoiseCfg::hostile());
            match collect(&mut p, &cfg) {
                Err(McTopError::UnstableMeasurements { pair, stdev_frac }) => {
                    assert_eq!(pair, (0, 159), "seed {seed}");
                    assert_eq!(stdev_frac.to_bits(), bits, "seed {seed}");
                }
                other => panic!("seed {seed}: expected an unstable pair, got {other:?}"),
            }
        }
    }

    /// `median_stdev` against the two functions it stands for, bit for
    /// bit, on all-equal and mixed slices.
    #[test]
    fn median_stdev_equals_median_and_stdev() {
        // Spread values: a multiplicative hash of (seed, index).
        let seeded = |seed: u64, len: usize| -> Vec<u32> {
            (0..len as u64)
                .map(|i| ((seed ^ i << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32)
                .collect()
        };
        let mut slices: Vec<Vec<u32>> = Vec::new();
        for len in [1, 2, 3, 51, 2000] {
            for v in [0, u32::MAX, seeded(len as u64, 1)[0]] {
                slices.push(vec![v; len]);
            }
        }
        for len in [2, 3, 51, 2000] {
            slices.push(seeded(7, len));
            slices.push(seeded(8, len).iter().map(|s| 300 + s % 3).collect());
            // Equal but for one sample at the front, the middle or the end.
            for at in [0, len / 2, len - 1] {
                let mut s = vec![u32::MAX; len];
                s[at] = u32::MAX - 1;
                slices.push(s);
            }
        }
        slices.push(vec![136, 136, 140, 140, 140]);
        for (i, s) in slices.iter().enumerate() {
            let want_sd = stats::stdev(s);
            let want_median = stats::median_u32(&mut s.clone());
            let (median, sd) = median_stdev(&mut s.clone());
            assert_eq!(median, want_median, "slice {i}");
            assert_eq!(sd.to_bits(), want_sd.to_bits(), "slice {i}");
        }
    }

    /// `predict` as it was: every unmeasured pair of a hierarchy-first
    /// table set to its socket pair's representative.
    fn predict_reference(table: &mut LatencyTable, done: &[bool], sockets: &reference::Sockets) {
        let n = table.n();
        for a in 0..n {
            for b in (a + 1)..n {
                if !done[a * n + b] {
                    let rep = sockets.rep(table, sockets.of[a], sockets.of[b]);
                    table.set(a, b, rep);
                }
            }
        }
    }

    /// The block form a hierarchy-first run returned is the table the
    /// representatives predicted, exceptions and all, under noise (on
    /// the dense engine of `reference`, which the block collection
    /// equals).
    #[test]
    fn block_form_equals_the_predicted_table() {
        let cfg = ProbeConfig {
            pairs: PairSelection::Hierarchy,
            ..ProbeConfig::fast()
        };
        let mut exceptions = 0;
        for spec in presets::all_paper_platforms() {
            for seed in 1..=4 {
                let mut prober = SimProber::new(&spec, seed);
                let mut ctx = reference::begin_collection(&mut prober, &cfg);
                let mut stats = ProbeStats::default();
                let found = reference::collect_hierarchy(&mut ctx, &cfg, &mut stats, &mut prober);
                let Some((sockets, cross)) = found.unwrap() else {
                    continue;
                };
                let n = ctx.n;
                let mut done: Vec<bool> = (0..n * n)
                    .map(|i| sockets.of[i / n] == sockets.of[i % n])
                    .collect();
                for &(a, b) in &cross {
                    done[a * n + b] = true;
                    done[b * n + a] = true;
                }
                let mut want = ctx.table.clone();
                predict_reference(&mut want, &done, &sockets);
                let of = sockets.of.clone();
                let blocks = BlockTable::from_parts(&ctx.table, of, sockets.members, &cross);
                exceptions += blocks.exceptions.len();
                assert_eq!(blocks.into_dense(), want, "{} seed {seed}", spec.name);
            }
        }
        assert!(exceptions > 0, "no run measured off its representative");
    }

    /// The SMT pair comes from the block form: the first strictly
    /// smallest normalized pair in row-major order, as the scan of the
    /// dense table found it, on every committed machine.
    #[test]
    fn smt_pair_of_the_blocks_is_the_scans() {
        let specs = presets::all_paper_platforms()
            .into_iter()
            .chain(presets::all_synthetic())
            .chain(presets::all_mesh_scale());
        for spec in specs {
            let cfg = crate::desc::canonical_probe_config_for(&spec);
            let (raw, _) = collect_blocks(&mut SimProber::noiseless(&spec), &cfg).unwrap();
            let clusters = cluster::cluster_blocks(&raw, &cfg.cluster).unwrap();
            let norm = cluster::normalize_blocks(&raw, &clusters);
            let pair = norm.min_pair();
            assert_eq!(
                pair,
                smt_pair_reference(&norm.into_dense()),
                "{}",
                spec.name
            );
            assert!(pair.is_some(), "{}", spec.name);
        }
    }

    #[test]
    fn smt_detected_on_smt_machines_only() {
        let smt_spec = presets::synthetic_small();
        let mut p = SimProber::noiseless(&smt_spec);
        let cfg = ProbeConfig {
            reps: 5,
            ..ProbeConfig::fast()
        };
        let (t, _) = collect(&mut p, &cfg).unwrap();
        assert!(detect_smt(&mut p, &t));

        let nosmt = presets::no_smt_small();
        let mut p2 = SimProber::noiseless(&nosmt);
        let (t2, _) = collect(&mut p2, &cfg).unwrap();
        assert!(!detect_smt(&mut p2, &t2));
    }

    #[test]
    fn modeled_runtime_orders_ivy_vs_westmere() {
        // Section 3.5: ~3 s on Ivy (40 contexts), 96 s on Westmere (160
        // contexts, DVFS). The modelled accounting must reproduce the
        // order of magnitude and the ~20-30x gap.
        let ivy = presets::ivy();
        let west = presets::westmere();
        // Accounting only depends on pair counts and medians: collect
        // with few reps and scale to the paper's 2000.
        let cfg = ProbeConfig {
            reps: 25,
            ..ProbeConfig::default()
        };
        let mut pi = SimProber::noiseless(&ivy);
        let mut pw = SimProber::noiseless(&west);
        let (_, si) = collect(&mut pi, &cfg).unwrap();
        let (_, sw) = collect(&mut pw, &cfg).unwrap();
        let t_ivy = si.scaled_to_reps(25, 2000).modeled_seconds(ivy.freq_ghz);
        let t_west = sw.scaled_to_reps(25, 2000).modeled_seconds(west.freq_ghz);
        assert!(t_ivy > 1.0 && t_ivy < 10.0, "ivy {t_ivy}");
        assert!(t_west > 40.0 && t_west < 200.0, "westmere {t_west}");
        assert!(t_west / t_ivy > 10.0);
    }

    #[test]
    fn retry_path_survives_moderate_noise() {
        let spec = presets::synthetic_small();
        let noise = mcsim::NoiseCfg {
            sigma_frac: 0.06,
            ..mcsim::NoiseCfg::default()
        };
        let mut p = SimProber::with_noise(&spec, 11, noise);
        let cfg = ProbeConfig {
            reps: 101,
            ..ProbeConfig::fast()
        };
        let (table, _) = collect(&mut p, &cfg).unwrap();
        assert!(table.is_consistent());
    }

    #[test]
    fn pruned_plan_is_subquadratic() {
        // The 16x16 mesh shape (512 contexts): the acceptance bar is
        // <= 25% of the exhaustive pair count; the plan sits well under.
        let pc = PruneCfg::for_machine(2, 256);
        let pairs = pruned_pairs(512, &pc).expect("prunable");
        let exhaustive = schedule::num_pairs(512);
        assert!(
            pairs.len() * 4 <= exhaustive,
            "{} of {} pairs",
            pairs.len(),
            exhaustive
        );
        // Sorted, deduplicated, normalized, in range.
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        assert!(pairs.iter().all(|&(a, b)| a < b && b < 512));
        // Deterministic: a pure function of the machine shape.
        assert_eq!(pairs, pruned_pairs(512, &pc).unwrap());
    }

    #[test]
    fn pruned_plan_falls_back_when_structure_mismatches() {
        // Wrong shape (c * M != n) and too-small machines refuse to
        // prune rather than reconstruct from a bogus hypothesis.
        assert!(pruned_pairs(40, &PruneCfg::for_machine(3, 10)).is_none());
        assert!(pruned_pairs(8, &PruneCfg::for_machine(2, 4)).is_none());
    }

    /// `pruned_pairs` as it was: every planned pair pushed as a tuple,
    /// then sorted and deduplicated — the oracle for the bitmap plan.
    fn pruned_pairs_reference(n: usize, cfg: &PruneCfg) -> Option<Vec<(usize, usize)>> {
        let c = cfg.ctxs_per_socket;
        let m = cfg.sockets;
        if c == 0 || m == 0 || c * m != n {
            return None;
        }
        let mut side = 1usize;
        while side * side < m {
            side += 1;
        }
        let r = c * (side + 1);
        if 2 * r + 1 >= n {
            return None;
        }
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let ring = |d: usize, pairs: &mut Vec<(usize, usize)>| {
            for a in 0..n {
                let b = (a + d) % n;
                pairs.push((a.min(b), a.max(b)));
            }
        };
        for d in 1..=r {
            ring(d, &mut pairs);
        }
        let mut d = c;
        while d <= n / 2 {
            if d > r {
                ring(d, &mut pairs);
            }
            d *= 2;
        }
        let mut next =
            crate::alg::splitmix(0x9E37_79B9_7F4A_7C15u64 ^ ((n as u64) << 32 | c as u64));
        for _ in 0..cfg.samples {
            let a = (next() % n as u64) as usize;
            let b = (next() % n as u64) as usize;
            if a != b {
                pairs.push((a.min(b), a.max(b)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        if pairs.len() >= schedule::num_pairs(n) {
            return None;
        }
        Some(pairs)
    }

    #[test]
    fn pruned_plan_equals_the_sorted_list() {
        let mut shapes: Vec<(usize, usize)> = presets::all_mesh_scale()
            .iter()
            .map(|spec| (spec.total_hwcs() / spec.sockets, spec.sockets))
            .collect();
        for c in [1, 2, 4] {
            for side in 4..=32 {
                shapes.push((c, side * side));
            }
        }
        // Shapes the plan refuses, and a config whose sample count is
        // not one per context.
        shapes.extend([(3, 10), (2, 4), (1, 1), (0, 8)]);
        for (c, m) in shapes {
            let pc = PruneCfg::for_machine(c, m);
            let n = c * m;
            assert_eq!(
                pruned_pairs(n, &pc),
                pruned_pairs_reference(n, &pc),
                "c {c} m {m}"
            );
            assert_eq!(
                pruned_pairs(n + 1, &pc),
                None,
                "c {c} m {m}, one context over"
            );
            let sparse = PruneCfg { samples: 3, ..pc };
            assert_eq!(
                pruned_pairs(n, &sparse),
                pruned_pairs_reference(n, &sparse),
                "c {c} m {m}, 3 samples"
            );
        }
    }

    /// `reconstruct_pruned` as it was: one heap Dijkstra per socket
    /// over an adjacency list, the oracle for the min-plus closure.
    fn reconstruct_reference(table: &mut LatencyTable, pairs: &[(usize, usize)], pc: &PruneCfg) {
        let n = table.n();
        let c = pc.ctxs_per_socket;
        let m = pc.sockets;
        debug_assert_eq!(c * m, n);
        let mut measured = vec![false; n * n];
        for &(a, b) in pairs {
            measured[a * n + b] = true;
            measured[b * n + a] = true;
        }
        // Socket-level edge weights: the minimum measured latency between
        // any context of u and any context of v (noise, if present, is
        // damped by taking the min over c^2-ish samples per socket pair).
        let mut w: Vec<u32> = vec![u32::MAX; m * m];
        // Intra-socket fallback (the ball radius >= c guarantees every
        // intra pair is measured, so this is belt and braces).
        let mut intra: Vec<u32> = vec![u32::MAX; m];
        for &(a, b) in pairs {
            let (u, v) = (a / c, b / c);
            let lat = table.get(a, b);
            if u == v {
                intra[u] = intra[u].min(lat);
            } else if lat < w[u * m + v] {
                w[u * m + v] = lat;
                w[v * m + u] = lat;
            }
        }
        // Overhead estimate from the two smallest distinct edge weights;
        // a single level (or none) means no path composition is possible
        // anyway and h only shifts reconstructed values uniformly.
        let mut vals: Vec<u32> = w.iter().copied().filter(|&x| x != u32::MAX).collect();
        vals.sort_unstable();
        vals.dedup();
        let h = match (vals.first(), vals.get(1)) {
            (Some(&l1), Some(&l2)) => {
                ((2 * l1 as u64).saturating_sub(l2 as u64)).min(l1 as u64) as u32
            }
            _ => 0,
        };
        // Dijkstra per socket over wire weights (W - h).
        let mut dist_all: Vec<Vec<u64>> = Vec::with_capacity(m);
        let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); m];
        for u in 0..m {
            for v in (u + 1)..m {
                let weight = w[u * m + v];
                if weight != u32::MAX {
                    let wire = weight.saturating_sub(h) as u64;
                    adj[u].push((v, wire));
                    adj[v].push((u, wire));
                }
            }
        }
        for src in 0..m {
            let mut dist = vec![u64::MAX; m];
            dist[src] = 0;
            let mut heap = std::collections::BinaryHeap::new();
            heap.push(std::cmp::Reverse((0u64, src)));
            while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for &(v, wire) in &adj[u] {
                    let nd = d + wire;
                    if nd < dist[v] {
                        dist[v] = nd;
                        heap.push(std::cmp::Reverse((nd, v)));
                    }
                }
            }
            dist_all.push(dist);
        }
        // Fill every unmeasured entry; disconnected or intra-unmeasured
        // pairs stay zero (validation rejects such tables loudly rather
        // than inventing a number).
        for a in 0..n {
            for b in (a + 1)..n {
                if measured[a * n + b] {
                    continue;
                }
                let (u, v) = (a / c, b / c);
                if u == v {
                    if intra[u] != u32::MAX {
                        table.set(a, b, intra[u]);
                    }
                } else {
                    let d = dist_all[u][v];
                    if d != u64::MAX {
                        let lat = (h as u64 + d).min(u32::MAX as u64) as u32;
                        table.set(a, b, lat);
                    }
                }
            }
        }
    }

    /// The values `table` holds for `pairs`, in their order.
    fn values(table: &LatencyTable, pairs: &[(usize, usize)]) -> Vec<u32> {
        pairs.iter().map(|&(a, b)| table.get(a, b)).collect()
    }

    /// A pruned table of `spec`: every planned pair measured at its
    /// true latency, jittered by up to `jitter` per mille, the rest 0.
    fn pruned_table(
        spec: &mcsim::MachineSpec,
        pairs: &[(usize, usize)],
        jitter: u64,
        seed: u64,
    ) -> LatencyTable {
        let mut next = crate::alg::splitmix(seed);
        let mut table = LatencyTable::new(spec.total_hwcs());
        for &(a, b) in pairs {
            let lat = u64::from(spec.true_latency(a, b));
            let wobble = lat * (next() % (2 * jitter + 1)) / 1000;
            table.set(a, b, (lat + wobble - lat * jitter / 1000) as u32);
        }
        table
    }

    #[test]
    fn reconstruct_pruned_equals_the_dijkstras_on_the_mesh_scale_presets() {
        for spec in presets::all_mesh_scale() {
            let n = spec.total_hwcs();
            let pc = PruneCfg::for_machine(n / spec.sockets, spec.sockets);
            let pairs = pruned_pairs(n, &pc).unwrap();
            for (jitter, seed) in [(0, 0), (30, 37), (120, 38)] {
                let mut slow = pruned_table(&spec, &pairs, jitter, seed);
                let fast = reconstruct_pruned(n, &pairs, &values(&slow, &pairs), &pc);
                reconstruct_reference(&mut slow, &pairs, &pc);
                assert_eq!(fast, slow, "{} jitter {jitter}", spec.name);
                if jitter == 0 {
                    assert!(fast.upper_triangle().iter().all(|&v| v > 0));
                }
            }
        }
    }

    #[test]
    fn reconstruct_pruned_equals_the_dijkstras_on_a_disconnected_socket_graph() {
        // Eight 2-context sockets; sockets 0-3 measure each other, 4-7
        // each other, and no pair crosses between the halves. The upper
        // half's weights sit near `u32::MAX`, where a clamped closure
        // would not be exact.
        let pc = PruneCfg::for_machine(2, 8);
        let mut pairs = Vec::new();
        let mut table = LatencyTable::new(16);
        let mut next = crate::alg::splitmix(39);
        for a in 0..16 {
            for b in (a + 1)..16 {
                let (u, v) = (a / 2, b / 2);
                if u / 4 != v / 4 || (v - u == 2 && next().is_multiple_of(2)) {
                    continue;
                }
                let lat = match (u == v, u < 4) {
                    (true, _) => 90,
                    (false, true) => 150 + 60 * (v - u) as u32,
                    (false, false) => u32::MAX - 1 - (next() % 1000) as u32 * (v - u) as u32,
                };
                pairs.push((a, b));
                table.set(a, b, lat);
            }
        }
        let fast = reconstruct_pruned(16, &pairs, &values(&table, &pairs), &pc);
        let mut slow = table;
        reconstruct_reference(&mut slow, &pairs, &pc);
        assert_eq!(fast, slow);
        assert_eq!(fast.get(0, 15), 0, "a disconnected pair stays unfilled");
        assert_ne!(fast.get(0, 6), 0, "a connected pair is filled");
    }

    #[test]
    fn reconstruct_pruned_saturates_a_connected_pair_past_u32_max() {
        // Seven 1-context sockets. A path 0-1-2-3 of edges weighing
        // 2^31 + 300 each; a path 4-5-6 of 1 000 and 1 500, which puts
        // `h` at 500; and no edge between the two paths. The wire sum of
        // 0-2 still fits in a `u32` but passes `u32::MAX - h`; that of
        // 0-3 passes `u32::MAX` itself.
        let pc = PruneCfg::for_machine(1, 7);
        let mut table = LatencyTable::new(7);
        let heavy = (1 << 31) + 300;
        let pairs = vec![(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)];
        for (&(a, b), lat) in pairs.iter().zip([heavy, heavy, heavy, 1000, 1500]) {
            table.set(a, b, lat);
        }
        let fast = reconstruct_pruned(7, &pairs, &values(&table, &pairs), &pc);
        let mut slow = table;
        reconstruct_reference(&mut slow, &pairs, &pc);
        assert_eq!(fast, slow);
        assert_eq!(fast.get(4, 6), 500 + 500 + 1000);
        assert_eq!(
            fast.get(0, 2),
            u32::MAX,
            "h plus a wire sum in u32 saturates"
        );
        assert_eq!(fast.get(1, 3), u32::MAX);
        assert_eq!(
            fast.get(0, 3),
            u32::MAX,
            "a saturated wire sum fills u32::MAX"
        );
        assert_eq!(fast.get(0, 4), 0, "an unreachable pair stays unfilled");
        assert_eq!(fast.get(3, 6), 0);
    }

    #[test]
    fn close_triangle_equals_the_portable_loop() {
        // On a CPU with AVX2 `close_triangle` runs the loop compiled for
        // it; both must close to the same triangle, missing edges and
        // sums past `u32::MAX` included.
        let mut next = crate::alg::splitmix(44);
        for case in 0..200 {
            let m = 1 + (next() % 40) as usize;
            let mut dist = vec![u32::MAX; m * m];
            for u in 0..m {
                for v in (u + 1)..m {
                    dist[u * m + v] = match next() % 4 {
                        0 => u32::MAX,
                        1 => u32::MAX - (next() % 1000) as u32,
                        _ => (next() % 500) as u32,
                    };
                }
            }
            let mut portable = dist.clone();
            close_triangle(&mut dist, m);
            close_triangle_portable(&mut portable, m);
            assert_eq!(dist, portable, "case {case}");
        }
    }

    #[test]
    fn pruned_noiseless_equals_exhaustive_on_mesh() {
        // The mesh latency model is exactly the closure model, so a
        // noiseless pruned table must be byte-identical to exhaustive.
        let spec = presets::mesh(8);
        let n = spec.total_hwcs();
        let pc = PruneCfg::for_machine(n / spec.sockets, spec.sockets);
        let cfg_ex = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        let cfg_pr = ProbeConfig {
            pairs: PairSelection::Pruned(pc),
            ..cfg_ex.clone()
        };
        let (t_ex, s_ex) = collect(&mut SimProber::noiseless(&spec), &cfg_ex).unwrap();
        let (t_pr, s_pr) = collect(&mut SimProber::noiseless(&spec), &cfg_pr).unwrap();
        assert_eq!(t_ex, t_pr, "reconstruction must be exact on the mesh");
        assert!(
            s_pr.pairs < s_ex.pairs,
            "pruned run measured {} of {} pairs",
            s_pr.pairs,
            s_ex.pairs
        );
    }

    #[test]
    fn pruned_noiseless_equals_exhaustive_on_circulant() {
        let spec = presets::multiplicative_circulant(64, 4);
        let n = spec.total_hwcs();
        let pc = PruneCfg::for_machine(n / spec.sockets, spec.sockets);
        let cfg_ex = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        let cfg_pr = ProbeConfig {
            pairs: PairSelection::Pruned(pc),
            ..cfg_ex.clone()
        };
        let (t_ex, _) = collect(&mut SimProber::noiseless(&spec), &cfg_ex).unwrap();
        let (t_pr, _) = collect(&mut SimProber::noiseless(&spec), &cfg_pr).unwrap();
        assert_eq!(t_ex, t_pr);
    }

    fn with_pairs(pairs: PairSelection) -> ProbeConfig {
        ProbeConfig {
            reps: 3,
            pairs,
            ..ProbeConfig::fast()
        }
    }

    /// Every machine below mesh scale, each shape the committed library
    /// has: SMT or not, one socket, a node per two sockets, interleaved
    /// and scrambled numberings, and several cross-socket levels.
    fn below_mesh_scale() -> Vec<mcsim::MachineSpec> {
        presets::all_paper_platforms()
            .into_iter()
            .chain(presets::all_synthetic())
            .collect()
    }

    #[test]
    fn hierarchy_noiseless_equals_exhaustive_on_every_machine_below_mesh_scale() {
        for spec in below_mesh_scale() {
            let n = spec.total_hwcs() as u64;
            let (t_ex, s_ex) = collect(
                &mut SimProber::noiseless(&spec),
                &with_pairs(PairSelection::Exhaustive),
            )
            .unwrap();
            let (t_hi, s_hi) = collect(
                &mut SimProber::noiseless(&spec),
                &with_pairs(PairSelection::Hierarchy),
            )
            .unwrap();
            assert_eq!(t_ex, t_hi, "{}", spec.name);
            assert_eq!(s_hi.fallbacks, 0, "{}", spec.name);
            assert_eq!(s_ex.pairs, n * (n - 1) / 2);
            assert!(s_hi.pairs <= s_ex.pairs, "{}", spec.name);
            if spec.sockets > 1 && spec.total_hwcs() > 8 {
                assert!(s_hi.pairs < s_ex.pairs, "{}: {s_hi:?}", spec.name);
            }
        }
    }

    /// Noiseless and under noise seed 7, the prediction holds: no
    /// fallback, and fewer pairs than the exhaustive plan.
    #[test]
    fn hierarchy_predicts_under_noise() {
        let cfg = ProbeConfig {
            pairs: PairSelection::Hierarchy,
            ..ProbeConfig::fast()
        };
        for spec in [presets::ivy(), presets::westmere()] {
            for seed in [None, Some(7u64)] {
                let mut prober = match seed {
                    None => SimProber::noiseless(&spec),
                    Some(s) => SimProber::new(&spec, s),
                };
                let (_, stats) = collect(&mut prober, &cfg).unwrap();
                assert_eq!(stats.fallbacks, 0, "{} seed {seed:?}", spec.name);
                assert!(stats.pairs < (spec.total_hwcs() * (spec.total_hwcs() - 1) / 2) as u64);
            }
        }
    }

    /// A simulated machine whose chosen pairs read `extra` cycles slower
    /// than the model says: a structure the model's own rules do not
    /// describe.
    struct Perturbed<'a> {
        inner: SimProber<'a>,
        /// `extra[a * n + b]`, symmetric.
        extra: Vec<u32>,
    }

    impl<'a> Perturbed<'a> {
        fn new(spec: &'a mcsim::MachineSpec, hit: impl Fn(usize, usize) -> Option<u32>) -> Self {
            let n = spec.total_hwcs();
            let extra = (0..n * n)
                .map(|i| {
                    if i / n == i % n {
                        0
                    } else {
                        hit(i / n, i % n).unwrap_or(0)
                    }
                })
                .collect();
            Perturbed {
                inner: SimProber::noiseless(spec),
                extra,
            }
        }
    }

    impl Prober for Perturbed<'_> {
        fn num_hwcs(&self) -> usize {
            self.inner.num_hwcs()
        }
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn probe(&mut self, a: usize, b: usize) -> u32 {
            self.inner.probe(a, b) + self.extra[a * self.num_hwcs() + b]
        }
        fn probe_batch(&mut self, a: usize, b: usize, out: &mut Vec<u32>, count: usize) {
            self.inner.probe_batch(a, b, out, count);
            let extra = self.extra[a * self.num_hwcs() + b];
            out.iter_mut().for_each(|s| *s += extra);
        }
        fn rdtsc_cost(&mut self) -> u32 {
            self.inner.rdtsc_cost()
        }
        fn spin_duration(&mut self, ctxs: &[usize], iters: u64) -> u64 {
            self.inner.spin_duration(ctxs, iters)
        }
        fn begin_stream(&mut self, stream: ProbeStream) {
            self.inner.begin_stream(stream)
        }
    }

    /// Hierarchy-first collection on a perturbed machine either falls
    /// back, says so, and returns the exhaustive table, or refuses,
    /// naming the pair; it never returns a table the exhaustive run
    /// would not. Returns whether it fell back. The block collection
    /// must equal the dense engine's, and the block-form passes on its
    /// table (SMT pair included) the dense oracles.
    fn loud_or_exact(mk: impl Fn() -> Perturbed<'static>, what: &str) -> bool {
        let hierarchy = with_pairs(PairSelection::Hierarchy);
        let _ = assert_equals_reference(&mut mk(), &mut mk(), &hierarchy, what);
        let mut p = mk();
        if let Ok((raw, _)) = collect_blocks(&mut p, &hierarchy) {
            let cfg = ClusterCfg::default();
            crate::alg::check_blocks_against_oracles(what, &raw, &cfg, p.num_nodes());
        }
        let (t_ex, s_ex) = collect(&mut mk(), &with_pairs(PairSelection::Exhaustive)).unwrap();
        match collect(&mut mk(), &hierarchy) {
            Ok((t_hi, s_hi)) => {
                assert_eq!(
                    t_hi, t_ex,
                    "{what}: a table exhaustive collection would not give"
                );
                if s_hi.fallbacks == 1 {
                    assert_eq!(
                        s_hi.pairs, s_ex.pairs,
                        "{what}: a fallback measures every pair"
                    );
                    assert_eq!(s_hi.probes, s_ex.probes, "{what}");
                } else {
                    assert_eq!(s_hi.fallbacks, 0, "{what}");
                }
                s_hi.fallbacks == 1
            }
            Err(McTopError::UnstableMeasurements { pair, .. }) => {
                assert!(pair.0 < pair.1, "{what}: refused, naming {pair:?}");
                true
            }
            Err(other) => panic!("{what}: {other}"),
        }
    }

    fn leak(spec: mcsim::MachineSpec) -> &'static mcsim::MachineSpec {
        Box::leak(Box::new(spec))
    }

    #[test]
    fn hierarchy_falls_back_on_a_context_whose_cross_row_is_off() {
        for spec in [leak(presets::ivy()), leak(presets::westmere())] {
            let socket = |c: usize| spec.loc(c).socket;
            // The anchor of the first socket, and a context that is no
            // anchor at all.
            let anchors: Vec<usize> = (0..spec.sockets)
                .map(|s| (0..spec.total_hwcs()).find(|&c| socket(c) == s).unwrap())
                .collect();
            let plain = (0..spec.total_hwcs())
                .find(|c| !anchors.contains(c))
                .unwrap();
            for x in [anchors[0], plain] {
                let mk = || {
                    Perturbed::new(spec, |a, b| {
                        ((a == x || b == x) && socket(a) != socket(b))
                            .then(|| spec.true_latency(a, b) / 2)
                    })
                };
                let what = format!("{}: context {x}'s cross row", spec.name);
                assert!(loud_or_exact(mk, &what), "{what}: no fallback");
            }
        }
    }

    #[test]
    fn hierarchy_predicts_a_socket_pair_raised_as_one_and_falls_back_on_a_split_one() {
        let spec = leak(presets::westmere());
        let socket = |c: usize| spec.loc(c).socket;
        let pair = |a: usize, b: usize| {
            let (u, v) = (socket(a).min(socket(b)), socket(a).max(socket(b)));
            (u, v) == (2, 5)
        };
        // Every pair of sockets 2 and 5 raised alike: one latency per
        // socket pair still holds, so the prediction is exact.
        let uniform = || Perturbed::new(spec, |a, b| pair(a, b).then_some(200));
        assert!(!loud_or_exact(uniform, "sockets (2, 5) raised alike"));
        // Raised by two amounts two levels apart: the anchor rows see
        // both.
        let parity =
            |a: usize, b: usize| (spec.loc(a).core_in_socket + spec.loc(b).core_in_socket) % 2;
        let split = || {
            Perturbed::new(spec, |a, b| {
                pair(a, b).then_some(if parity(a, b) == 0 { 200 } else { 400 })
            })
        };
        assert!(loud_or_exact(split, "sockets (2, 5) split"));
        // Split so that every anchor row sees one amount: only the
        // hold-outs see the other.
        let anchors: Vec<usize> = (0..spec.sockets)
            .map(|s| (0..spec.total_hwcs()).find(|&c| socket(c) == s).unwrap())
            .collect();
        let hidden = || {
            Perturbed::new(spec, |a, b| {
                let on_anchor_row = anchors.contains(&a) || anchors.contains(&b);
                pair(a, b).then_some(if on_anchor_row { 200 } else { 400 })
            })
        };
        assert!(loud_or_exact(
            hidden,
            "sockets (2, 5) split off the anchor rows"
        ));
    }

    #[test]
    fn hierarchy_falls_back_on_one_hold_out_off_its_level() {
        for spec in [leak(presets::ivy()), leak(presets::haswell())] {
            let socket = |c: usize| spec.loc(c).socket;
            let anchors: Vec<usize> = (0..spec.sockets)
                .map(|s| (0..spec.total_hwcs()).find(|&c| socket(c) == s).unwrap())
                .collect();
            // The hold-outs are the measured cross pairs off every anchor
            // row: record the pairs a noiseless run measures.
            struct Recording<'a>(SimProber<'a>, Vec<(usize, usize)>);
            impl Prober for Recording<'_> {
                fn num_hwcs(&self) -> usize {
                    self.0.num_hwcs()
                }
                fn num_nodes(&self) -> usize {
                    self.0.num_nodes()
                }
                fn probe(&mut self, a: usize, b: usize) -> u32 {
                    self.0.probe(a, b)
                }
                fn probe_batch(&mut self, a: usize, b: usize, out: &mut Vec<u32>, count: usize) {
                    self.1.push((a, b));
                    self.0.probe_batch(a, b, out, count)
                }
                fn rdtsc_cost(&mut self) -> u32 {
                    self.0.rdtsc_cost()
                }
                fn spin_duration(&mut self, ctxs: &[usize], iters: u64) -> u64 {
                    self.0.spin_duration(ctxs, iters)
                }
            }
            let mut rec = Recording(SimProber::noiseless(spec), Vec::new());
            collect(&mut rec, &with_pairs(PairSelection::Hierarchy)).unwrap();
            let holdout = *rec
                .1
                .iter()
                .find(|&&(a, b)| {
                    socket(a) != socket(b) && !anchors.contains(&a) && !anchors.contains(&b)
                })
                .expect("a hold-out pair");
            let mk = || {
                Perturbed::new(spec, |a, b| {
                    ((a.min(b), a.max(b)) == holdout).then(|| spec.true_latency(a, b) / 2)
                })
            };
            let what = format!("{}: hold-out {holdout:?}", spec.name);
            assert!(loud_or_exact(mk, &what), "{what}: no fallback");
        }
    }
}
