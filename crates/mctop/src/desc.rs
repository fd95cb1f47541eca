//! Description files (Section 2: "MCTOP topologies are stored in
//! description files, which are created by libmctop once and are then
//! used to load the topology").
//!
//! The format is versioned JSON — human-inspectable like the original
//! `.mct` files, and stable across library versions thanks to the
//! explicit version gate. Every file carries a [`Provenance`] header
//! recording how it was produced (machine name, probe configuration,
//! seed, generator), so a loaded topology can always be traced back to
//! the inference run that created it and regenerated bit-for-bit. A
//! payload without the header is rejected with
//! [`McTopError::InvalidDescription`] — a matching `version` number
//! alone is not enough to accept a file.
//!
//! Format 4 (`VERSION`) stores the latency levels, the group tree and
//! only the socket-pair link records that the rest of the description
//! does not define ([`Mctop::stored_links`]): every direct (`hops == 1`)
//! record, and any other whose fields three rules would not reproduce
//! exactly (`Mctop::derived_links`):
//!
//! - its `hops` is the BFS distance over the direct records;
//! - its `latency` is the median of the one level whose role is
//!   `CrossSocket { hops }` with that hop count;
//! - its `bandwidth` is `sockets[a].mem_bandwidths[n]` for socket `b`'s
//!   local node `n`.
//!
//! The reader checks each stored record once (normalized, naming known
//! sockets, in strictly ascending triangle order, its latency a level's
//! median above every intra-socket level, and, if it is not direct, at
//! the distance the direct ones give), derives every missing pair's
//! record, and refuses the file, naming the pair, where the rules give
//! none. A derived record's latency is a level's median, so of those it
//! checks only the least once. It then runs the structural checks of
//! [`validate`], which count the completed records rather than read
//! them again (they read each one only where a check above failed, to
//! name the first that fails), and derives the N×N latency table from
//! the groups and links (`Mctop::derived_latency_rows`): two contexts of
//! one socket are as far apart as the smallest group that holds both,
//! two of different sockets as their socket pair's link record, and a
//! context is 0 from itself. The loaded [`Mctop`] holds every pair's
//! record, in triangle order, whatever the file stored.
//!
//! The writer decides what to leave out without a BFS where it can: a
//! topology whose records all carry their distance over the direct ones
//! (rule 3, which every loaded or inferred topology meets) proves so
//! from the hops it carries, and each record is then compared with the
//! latency and bandwidth rules alone (`Mctop::stored_links`). A
//! topology whose link arena is out of its one shape is refused by
//! [`to_string`] and [`save`], naming the first record out of place.
//!
//! Before it derives anything, the reader refuses a description larger
//! than its limits ([`MAX_CONTEXTS`], [`MAX_SOCKETS`], [`MAX_LEVELS`],
//! [`MAX_GROUPS`]), naming the limit and the count: what a load costs
//! grows with the square of the context and socket counts, not with
//! the bytes of the file.
//!
//! This is the one read path. A file of any other version, older ones
//! included, is refused by the version gate, which names its version and
//! this one.
//!
//! Both directions are one pass over the text with no value tree in
//! between: [`to_string`] writes a borrowed envelope into one buffer,
//! [`from_str_full`] reads version, header and payload straight into
//! their types, in gate order whatever order the file has them in, and
//! holds little more than the result while it does (DESIGN.md,
//! "Description I/O").
//!
//! [`canonical`] is the single source of truth for the committed
//! `descs/` library: a deterministic (noiseless, fixed-config)
//! inference plus full enrichment. `mct regen-descs`, the shipped
//! registry and the golden tests all go through it.
//!
//! # Examples
//!
//! ```
//! // Parse a shipped description and inspect its provenance header.
//! let text = mctop::registry::shipped_source("ivy").unwrap();
//! let (topo, prov) = mctop::desc::from_str_full(text).unwrap();
//! assert_eq!(topo.name, "ivy");
//! assert_eq!(prov.machine, "ivy");
//! assert!(prov.enriched);
//! assert_eq!(prov.seed, None); // canonical descriptions are noiseless
//! ```

use std::path::Path;

use serde::{
    DeError,
    Deserialize,
    Reader,
    Serialize,
    Writer, //
};

use crate::alg::probe::ProbeConfig;
use crate::alg::validate;
use crate::backend::SimProber;
use crate::enrich::{
    enrich_all,
    SimEnricher, //
};
use crate::error::McTopError;
use crate::model::Mctop;

/// Current description-file format version, and the only one read.
/// Version 2 added the mandatory provenance header; version 3 dropped
/// the latency table, which the reader derives from the groups and
/// links; version 4 drops the link records the reader derives from the
/// direct ones.
pub(crate) const VERSION: u32 = 4;

/// The most hardware contexts a description may have: 8× the largest
/// committed machine (512) and above any current multi-socket server.
/// It caps the derived N×N latency table at 64 MiB.
pub const MAX_CONTEXTS: usize = 4096;

/// The most sockets a description may have: 4× the largest committed
/// machine (256). It caps the S(S−1)/2 derived link records at about
/// 25 MB.
pub const MAX_SOCKETS: usize = 1024;

/// The most latency levels a description may have: 8× the largest
/// committed machine (32, on the 256-socket mesh).
pub const MAX_LEVELS: usize = 256;

/// The most groups a description may have. Every group is a core or
/// has two children or more, so a tree over [`MAX_CONTEXTS`] contexts
/// has fewer than twice as many; the largest committed machine has 768
/// over 512 contexts.
pub const MAX_GROUPS: usize = 2 * MAX_CONTEXTS;

/// The generator string written by the canonical regeneration path.
pub const CANONICAL_GENERATOR: &str = "mct regen-descs";

/// How a description file was produced: the header embedded at the top
/// of every file.
///
/// `format_version` must agree with the file's `version` field and
/// `machine` with the topology's own name; [`from_str`] rejects files
/// where they diverge, so a topology pasted into a newer envelope (or
/// renamed on disk) does not load silently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Format version the file was written with.
    pub format_version: u32,
    /// Machine the topology was inferred on.
    pub machine: String,
    /// Tool or code path that wrote the file.
    pub generator: String,
    /// Probe repetitions per context pair.
    pub probe_reps: usize,
    /// Accepted relative standard deviation of the probe samples.
    pub probe_stdev_frac: f64,
    /// Noise seed of the measurement backend; `None` for a noiseless
    /// (fully deterministic) run.
    pub seed: Option<u64>,
    /// Whether the Section-4 enrichment plugins ran.
    pub enriched: bool,
}

impl Provenance {
    /// Header for a topology inferred on `machine` with `cfg`.
    pub fn new(machine: &str, cfg: &ProbeConfig, seed: Option<u64>, enriched: bool) -> Provenance {
        Provenance {
            format_version: VERSION,
            machine: machine.to_string(),
            generator: "mctop".to_string(),
            probe_reps: cfg.reps,
            probe_stdev_frac: cfg.stdev_frac,
            seed,
            enriched,
        }
    }

    /// Same header with an explicit generator string.
    pub fn with_generator(mut self, generator: &str) -> Provenance {
        self.generator = generator.to_string();
        self
    }
}

/// The file envelope as it is read: version-gated, header and payload
/// each read once, neither yet checked against the other nor against
/// the version.
struct Loaded(u32, Mctop, Provenance);

impl Deserialize for Loaded {
    /// Reads the envelope in the pass that reads its entries, in gate
    /// order whatever the key order: `provenance` is read in place once
    /// the version is known to be [`VERSION`], `topology` once the
    /// header is read. An entry
    /// that arrives before the gates ahead of it are settled is only
    /// checked, and its text (a slice of the input, no copy) read after
    /// the object closes — so a file of another version fails on its
    /// version, and a headerless one on the missing header, not on
    /// whatever field of a payload they never promised trips first.
    fn read_json<'a>(r: &mut Reader<'a>) -> Result<Self, DeError> {
        let (mut version, mut prov, mut topo) = (None::<u32>, None, None);
        let (mut prov_text, mut topo_text) = (None::<&'a str>, None::<&'a str>);
        // The first entry of a name wins, read or kept as text; `field`
        // drops a later one itself, the last arm the rest.
        r.object(|r, key| match key {
            "version" => {
                r.field("version", &mut version)?;
                match version {
                    Some(v) if v != VERSION => Err(DeError::new(format!(
                        "unsupported description version {v} (expected {VERSION})"
                    ))),
                    _ => Ok(()),
                }
            }
            "provenance" if version.is_some() && prov_text.is_none() => {
                r.field("provenance", &mut prov)
            }
            "provenance" if prov_text.is_none() => r.skip().map(|text| prov_text = Some(text)),
            "topology" if prov.is_some() && topo_text.is_none() => r.field("topology", &mut topo),
            "topology" if topo_text.is_none() => r.skip().map(|text| topo_text = Some(text)),
            _ => r.skip().map(drop),
        })?;
        let Some(version) = version else {
            return Err(DeError::new("missing field `version`"));
        };
        let prov = settle("provenance", prov, prov_text)?.ok_or_else(|| {
            DeError::new(
                "missing provenance header (a bare topology payload is not a description file)",
            )
        })?;
        let topo = settle("topology", topo, topo_text)?
            .ok_or_else(|| DeError::new("missing field `topology`"))?;
        Ok(Loaded(version, topo, prov))
    }
}

/// Envelope entry `name`: as read in place, else read now from the text
/// kept for it; `None` if the file had no such entry.
fn settle<T: Deserialize>(
    name: &str,
    read: Option<T>,
    text: Option<&str>,
) -> Result<Option<T>, DeError> {
    match (read, text) {
        (None, Some(text)) => serde::from_json(text)
            .map(Some)
            .map_err(|e| DeError::new(format!("field `{name}`: {e}"))),
        (read, _) => Ok(read),
    }
}

/// The file envelope as it is written: borrowed, so saving copies
/// nothing.
struct DescFileRef<'a> {
    provenance: &'a Provenance,
    topology: &'a Mctop,
}

impl Serialize for DescFileRef<'_> {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("version", &VERSION);
            w.field("provenance", self.provenance);
            w.field("topology", self.topology);
        });
    }
}

/// The probe configuration of the canonical regeneration path: few
/// repetitions (the noiseless oracle returns identical samples, so the
/// median is exact) with the default acceptance thresholds.
fn canonical_probe_config() -> ProbeConfig {
    ProbeConfig {
        reps: 3,
        ..ProbeConfig::fast()
    }
}

/// Socket count at and above which the canonical path switches to
/// mesh-scale collection: pruned pairs plus closure reconstruction, and
/// a finer clustering config. Every committed cache-coherent platform
/// sits far below (max 8 sockets); the mesh/circulant NoC presets sit
/// at or above.
pub(crate) const MESH_SCALE_SOCKETS: usize = 32;

/// The canonical probe configuration *for a machine*: three
/// repetitions of [`ProbeConfig::fast`] with hierarchy-first collection
/// ([`crate::alg::PairSelection::Hierarchy`]) for cache-coherent boxes,
/// and the mesh-scale variant for NoC-scale machines
/// (`MESH_SCALE_SOCKETS`+ sockets). A noiseless hierarchy-first run
/// predicts exactly, so the committed descriptions are byte-identical
/// to an exhaustive run's.
///
/// The mesh-scale variant differs in two ways:
///
/// - collection is pruned ([`crate::alg::PairSelection::Pruned`]) —
///   exact on these machines, so the desc file is byte-identical to an
///   exhaustive run, just quadratically cheaper to regenerate;
/// - clustering uses a finer relative gap (hop-count latency ladders
///   have many closely spaced levels: a 16x16 mesh has 30 distinct
///   cross levels 60 cycles apart, which the default 8% relative gap
///   would merge at the top and the default 12-level cap would reject).
pub fn canonical_probe_config_for(spec: &mcsim::MachineSpec) -> ProbeConfig {
    let base = canonical_probe_config();
    if spec.sockets < MESH_SCALE_SOCKETS {
        return ProbeConfig {
            pairs: crate::alg::PairSelection::Hierarchy,
            ..base
        };
    }
    let ctxs = spec.total_hwcs();
    ProbeConfig {
        pairs: crate::alg::PairSelection::Pruned(crate::alg::PruneCfg::for_machine(
            ctxs / spec.sockets,
            spec.sockets,
        )),
        cluster: crate::alg::cluster::ClusterCfg {
            rel_gap: 0.02,
            abs_gap: 8,
            max_levels: 64,
        },
        ..base
    }
}

/// Deterministically infers and enriches the canonical topology of a
/// simulated machine: the exact content of the committed
/// `descs/<name>.mct.json`. Noiseless probing,
/// [`canonical_probe_config_for`], all enrichment plugins, nominal
/// frequency attached.
pub fn canonical(spec: &mcsim::MachineSpec) -> Result<(Mctop, Provenance), McTopError> {
    let cfg = canonical_probe_config_for(spec);
    let mut prober = SimProber::noiseless(spec);
    let mut topo = crate::infer(&mut prober, &cfg)?;
    let mut mem = SimEnricher::new(spec);
    let mut pow = SimEnricher::new(spec);
    enrich_all(&mut topo, &mut mem, &mut pow)?;
    topo.freq_ghz = Some(spec.freq_ghz);
    let prov = Provenance::new(&spec.name, &cfg, None, true).with_generator(CANONICAL_GENERATOR);
    Ok((topo, prov))
}

/// [`canonical`] rendered as description-file text.
pub fn canonical_string(spec: &mcsim::MachineSpec) -> Result<String, McTopError> {
    let (topo, prov) = canonical(spec)?;
    to_string(&topo, &prov)
}

/// Serializes a topology and its provenance header to a description
/// string. A topology whose link arena is out of its one shape has no
/// description: it is refused with the error `validate::check_links`
/// gives, naming the first record out of place.
pub fn to_string(topo: &Mctop, prov: &Provenance) -> Result<String, McTopError> {
    validate::check_links(&topo.links, topo.num_sockets())?;
    let file = DescFileRef {
        provenance: prov,
        topology: topo,
    };
    Ok(serde::to_json(&file, true, text_size_estimate(topo)))
}

/// Bytes to reserve for the text of `topo`: an upper bound taken from
/// the topology's own list lengths, so the buffer never grows. Every
/// line of the two-space-indented text is charged at its widest value:
/// an index (or `null`) at the width of the largest count, a latency at
/// a `u32`'s ten digits, a float at 24 characters (the longest a
/// measured bandwidth, capacity or power prints); the envelope, the
/// provenance and the topology's scalars fit in the fixed 4 KiB. The
/// link records counted are the direct ones, which are what a
/// description stores where the rules of [`Mctop::derived_links`]
/// hold; counting them exactly would cost a second derivation.
fn text_size_estimate(topo: &Mctop) -> usize {
    const LATENCY: usize = 10;
    const FLOAT: usize = 24;
    const USIZE: usize = 20;
    let (n, s, nodes) = (topo.num_hwcs(), topo.num_sockets(), topo.nodes.len());
    let counts = [
        n,
        s,
        nodes,
        topo.groups.len(),
        topo.levels.len(),
        topo.cores.len(),
    ];
    let index = (counts.into_iter().max().unwrap_or(0).max(1).ilog10() as usize + 1).max(4);
    // A line: indentation, the quoted key, `": "`, the value and `,\n`.
    let field = |indent: usize, key: &str, value: usize| indent + key.len() + value + 6;
    // A list element, or a bracket or brace on a line of its own.
    let elem = |indent: usize, value: usize| indent + value + 2;
    // A record's braces in a topology list, and a list field's header
    // and closing bracket inside such a record.
    let record = 2 * elem(6, 1);
    let list = |key: &str| field(8, key, 1) + elem(8, 1);
    let at = |key: &str, value: usize| field(8, key, value);
    let indices = |keys: &[&str]| keys.iter().map(|k| at(k, index)).sum::<usize>();

    let level = record
        + at("index", index)
        + at("latency", 1)
        + 3 * field(10, "median", LATENCY)
        + elem(8, 1)
        + at("role", 1)
        + field(10, "CrossSocket", 1)
        + field(12, "hops", index)
        + elem(10, 1)
        + elem(8, 1);
    let hwc = record + indices(&["id", "core", "socket", "next_closest"]);
    let group = record
        + indices(&["id", "level", "parent", "socket"])
        + at("latency", LATENCY)
        + list("hwcs")
        + list("children");
    let group_members: usize = topo
        .groups
        .iter()
        .map(|g| g.hwcs.len() + g.children.len())
        .sum();
    let socket = record
        + indices(&["id", "group", "local_node"])
        + list("hwcs")
        + list("cores")
        + list("mem_latencies")
        + list("mem_bandwidths")
        + at("single_core_bw", FLOAT);
    let socket_members: usize = topo
        .sockets
        .iter()
        .map(|s| s.hwcs.len() + s.cores.len())
        .sum();
    let per_node = elem(10, LATENCY) + elem(10, FLOAT);
    let node = record + indices(&["id", "home_socket"]) + at("capacity_gb", FLOAT);
    let link = record + indices(&["a", "b", "hops"]) + at("latency", LATENCY);
    let link = link + at("bandwidth", FLOAT);
    let links = topo.links.iter().filter(|l| l.hops == 1).count();
    let cache = record
        + at("name", 2)
        + at("size_estimate", USIZE)
        + at("os_size", USIZE)
        + at("latency", LATENCY);
    let caches: usize = topo
        .caches
        .iter()
        .flatten()
        .map(|c| cache + c.name.len())
        .sum();
    4096 + topo.levels.len() * level
        + n * hwc
        + topo.groups.len() * group
        + group_members * elem(10, index)
        + topo.cores.len() * elem(6, index)
        + s * (socket + nodes * per_node)
        + socket_members * elem(10, index)
        + nodes * node
        + links * link
        + caches
}

/// Parses and validates a description string.
pub fn from_str(s: &str) -> Result<Mctop, McTopError> {
    from_str_full(s).map(|(topo, _)| topo)
}

/// Parses and validates a description string, returning the provenance
/// header alongside the topology. The link records the file leaves out
/// are derived from the direct ones, and the latency table from the
/// groups and links.
pub fn from_str_full(s: &str) -> Result<(Mctop, Provenance), McTopError> {
    let Loaded(version, mut topo, prov) =
        serde::from_json(s).map_err(|e| McTopError::InvalidDescription(e.to_string()))?;
    // The header must agree with both the envelope and the payload: a
    // field-for-field compatible topology is still rejected unless its
    // provenance says it was written in this format for this machine.
    if prov.format_version != version {
        return Err(McTopError::InvalidDescription(format!(
            "provenance format_version {} disagrees with file version {version}",
            prov.format_version
        )));
    }
    if prov.machine != topo.name {
        return Err(McTopError::InvalidDescription(format!(
            "provenance machine `{}` disagrees with topology name `{}`",
            prov.machine, topo.name
        )));
    }
    within_limits(&topo)?;
    validate::indices(&topo)?;
    let links = validate::derive_links(&mut topo)?;
    validate::fill_read_table(&mut topo, links)?;
    Ok((topo, prov))
}

/// Refuses a topology over any of the reader's limits, before anything
/// is derived from it.
fn within_limits(topo: &Mctop) -> Result<(), McTopError> {
    for (what, count, limit) in [
        ("contexts", topo.hwcs.len(), MAX_CONTEXTS),
        ("sockets", topo.sockets.len(), MAX_SOCKETS),
        ("latency levels", topo.levels.len(), MAX_LEVELS),
        ("groups", topo.groups.len(), MAX_GROUPS),
    ] {
        if count > limit {
            return Err(McTopError::InvalidDescription(format!(
                "{count} {what}, over the limit of {limit} {what} a description may have"
            )));
        }
    }
    Ok(())
}

/// Writes the description file for a topology.
pub fn save(topo: &Mctop, prov: &Provenance, path: &Path) -> Result<(), McTopError> {
    std::fs::write(path, to_string(topo, prov)?)?;
    Ok(())
}

/// Loads a previously saved topology ("created once, then used to load
/// the topology") together with its provenance.
pub fn load_full(path: &Path) -> Result<(Mctop, Provenance), McTopError> {
    let s = std::fs::read_to_string(path)?;
    from_str_full(&s)
}

/// Default description-file name for a machine.
pub fn default_filename(machine_name: &str) -> String {
    format!("{machine_name}.mct.json")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::presets;

    fn infer_with_header(spec: &mcsim::MachineSpec) -> (Mctop, Provenance) {
        let mut p = SimProber::noiseless(spec);
        let cfg = canonical_probe_config();
        let topo = crate::infer(&mut p, &cfg).unwrap();
        let prov = Provenance::new(&spec.name, &cfg, None, false);
        (topo, prov)
    }

    #[test]
    fn roundtrip_preserves_topology_and_provenance() {
        let (topo, prov) = infer_with_header(&presets::synthetic_small());
        let s = to_string(&topo, &prov).unwrap();
        let (back, back_prov) = from_str_full(&s).unwrap();
        assert_eq!(topo, back);
        assert_eq!(prov, back_prov);
    }

    #[test]
    fn file_roundtrip() {
        let (topo, prov) = infer_with_header(&presets::no_smt_small());
        let dir = std::env::temp_dir();
        let path = dir.join(default_filename(&topo.name));
        save(&topo, &prov, &path).unwrap();
        let (back, _) = load_full(&path).unwrap();
        assert_eq!(topo, back);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_version_rejected() {
        let (topo, prov) = infer_with_header(&presets::synthetic_small());
        let text = to_string(&topo, &prov).unwrap();
        // A later version, and the two older ones this reader no longer
        // reads (format 3 stored every link record, format 2 the table
        // too), with the header agreeing: the gate names both versions.
        for version in [99, 3, 2] {
            let s = text
                .replace(
                    &format!("\"version\": {VERSION}"),
                    &format!("\"version\": {version}"),
                )
                .replace(
                    &format!("\"format_version\": {VERSION}"),
                    &format!("\"format_version\": {version}"),
                );
            match from_str(&s).unwrap_err() {
                McTopError::InvalidDescription(msg) => assert!(
                    msg.contains(&format!(
                        "unsupported description version {version} (expected {VERSION})"
                    )),
                    "{msg}"
                ),
                other => panic!("expected InvalidDescription, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_provenance_rejected_not_defaulted() {
        let (topo, prov) = infer_with_header(&presets::synthetic_small());
        let s = to_string(&topo, &prov).unwrap();
        // Strip the header: a future-versioned payload that happens to
        // match field-for-field must still be refused.
        let mut v: serde_json::Value = serde_json::from_str(&s).unwrap();
        if let serde_json::InnerValue::Object(fields) = &mut v.0 {
            fields.retain(|(k, _)| k != "provenance");
        }
        let err = from_str(&v.to_string()).unwrap_err();
        match err {
            McTopError::InvalidDescription(msg) => {
                assert!(msg.contains("provenance"), "{msg}");
            }
            other => panic!("expected InvalidDescription, got {other:?}"),
        }
    }

    #[test]
    fn provenance_machine_mismatch_rejected() {
        let (topo, prov) = infer_with_header(&presets::synthetic_small());
        let prov = Provenance {
            machine: "somewhere-else".into(),
            ..prov
        };
        let s = to_string(&topo, &prov).unwrap();
        let err = from_str(&s).unwrap_err();
        assert!(matches!(err, McTopError::InvalidDescription(_)), "{err}");
    }

    #[test]
    fn provenance_format_version_mismatch_rejected() {
        let (topo, prov) = infer_with_header(&presets::synthetic_small());
        let prov = Provenance {
            format_version: VERSION + 1,
            ..prov
        };
        let s = to_string(&topo, &prov).unwrap();
        let err = from_str(&s).unwrap_err();
        assert!(matches!(err, McTopError::InvalidDescription(_)), "{err}");
    }

    #[test]
    fn old_format_version_hits_the_version_gate_first() {
        // A v1-era file has no provenance header at all; it must fail
        // with the version-gate message, not a missing-field parse
        // error about a field v1 never had.
        let s = r#"{"version": 1, "topology": {"name": "ivy"}}"#;
        match from_str(s).unwrap_err() {
            McTopError::InvalidDescription(msg) => {
                assert!(msg.contains("unsupported description version 1"), "{msg}");
            }
            other => panic!("expected InvalidDescription, got {other:?}"),
        }
    }

    fn irregular(text: &str) -> String {
        match from_str(text).unwrap_err() {
            McTopError::IrregularTopology(msg) => msg,
            other => panic!("expected IrregularTopology, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_payload_rejected_by_validation() {
        let (topo, prov) = infer_with_header(&presets::synthetic_small());
        let s = to_string(&topo, &prov).unwrap();
        // Surgical corruption: a core's latency off every level.
        let mut v: serde_json::Value = serde_json::from_str(&s).unwrap();
        let core = topo.cores[0];
        let latency = topo.groups[core].latency + 1;
        v["topology"]["groups"][core]["latency"] = serde_json::json!(latency);
        let res = from_str(&v.to_string());
        assert!(matches!(res, Err(McTopError::IrregularTopology(_))));
    }

    #[test]
    fn a_text_that_stores_the_table_is_refused() {
        let (topo, prov) = infer_with_header(&presets::synthetic_small());
        let s = to_string(&topo, &prov).unwrap();
        assert!(!s.contains("lat_table"), "{s}");
        let mut v: serde_json::Value = serde_json::from_str(&s).unwrap();
        let serde_json::InnerValue::Object(fields) = &mut v["topology"].0 else {
            panic!("the topology is an object");
        };
        let table = serde_json::json!(topo.lat_table.clone()).0;
        fields.push(("lat_table".into(), table));
        assert_eq!(
            irregular(&v.to_string()),
            "a description carries no latency table"
        );
    }

    /// Each way a description can contradict its link rules is refused,
    /// naming the pair and both values.
    #[test]
    fn link_records_that_contradict_the_rules_are_named() {
        use crate::model::{
            LatTriplet,
            LatencyLevel,
            LevelRole, //
        };
        let text = crate::registry::shipped_source("opteron").unwrap();
        let opteron = from_str(text).unwrap();
        let stored: Vec<_> = opteron.stored_links().into_iter().cloned().collect();
        // `text` with one topology entry replaced.
        let with = |key: &str, value: serde_json::Value| {
            let mut v: serde_json::Value = serde_json::from_str(text).unwrap();
            v["topology"][key] = value;
            v.to_string()
        };

        // (a) Link (0, 3) stored one hop further than the direct links
        // put it.
        let mut far = opteron.link(0, 3).unwrap().clone();
        assert_eq!(far.hops, 2);
        far.hops = 3;
        let mut links = stored.clone();
        let at = links.partition_point(|r| (r.a, r.b) < (0, 3));
        links.insert(at, far);
        assert_eq!(
            irregular(&with("links", serde_json::to_value(&links))),
            "interconnect record (0, 3) has hops 3, but the direct links join the pair in 2"
        );

        // (b) Ivy's one direct record removed: socket 1 is unreachable.
        let ivy = crate::registry::shipped_source("ivy").unwrap();
        let mut v: serde_json::Value = serde_json::from_str(ivy).unwrap();
        v["topology"]["links"] =
            serde_json::to_value(&Vec::<crate::model::InterconnectLink>::new());
        assert_eq!(
            irregular(&v.to_string()),
            "socket pair (0, 1) has no interconnect record, and no path of direct links joins it"
        );

        // (c) A second level with two hops' role: the first pair two hops
        // apart has no one latency.
        let two = opteron.links.iter().find(|l| l.hops == 2).unwrap();
        let mut levels = opteron.levels.clone();
        levels.push(LatencyLevel {
            index: levels.len(),
            latency: LatTriplet::exact(opteron.max_latency() + 10),
            role: LevelRole::CrossSocket { hops: 2 },
        });
        assert_eq!(
            irregular(&with("levels", serde_json::to_value(&levels))),
            format!(
                "socket pair ({}, {}) has no interconnect record and is 2 hops apart, \
                 but 2 levels have role CrossSocket {{ hops: 2 }}",
                two.a, two.b
            )
        );

        // (d) Two stored records swapped, and (e) every record stored,
        // last first: each is refused at its first record out of place.
        let mut swapped = stored.clone();
        swapped.swap(0, 1);
        let mut every = opteron.links.clone();
        every.reverse();
        for records in [swapped, every] {
            assert_eq!(
                irregular(&with("links", serde_json::to_value(&records))),
                format!(
                    "interconnect record ({}, {}) is out of triangle order: it follows ({}, {})",
                    records[1].a, records[1].b, records[0].a, records[0].b
                )
            );
        }
    }

    /// A derived record's latency is its level's median, and the reader
    /// checks that level once rather than every record that takes it:
    /// a level at or below the highest intra-socket one is still
    /// refused, naming the first record in triangle order that takes
    /// it, as it is when a stored record is the first one below.
    #[test]
    fn a_cross_level_below_an_intra_level_is_refused_at_its_first_record() {
        use crate::model::{
            LatTriplet,
            LatencyLevel,
            LevelRole, //
        };
        let text = crate::registry::shipped_source("opteron").unwrap();
        let opteron = from_str(text).unwrap();
        let with_levels = |levels: &[(u32, LevelRole)]| {
            let levels: Vec<LatencyLevel> = levels
                .iter()
                .enumerate()
                .map(|(index, &(median, role))| LatencyLevel {
                    index,
                    latency: LatTriplet::exact(median),
                    role,
                })
                .collect();
            let mut v: serde_json::Value = serde_json::from_str(text).unwrap();
            v["topology"]["levels"] = serde_json::to_value(&levels);
            v.to_string()
        };
        let roles: Vec<_> = opteron.levels.iter().map(|l| l.role).collect();
        assert_eq!(
            roles,
            [
                LevelRole::SelfLevel,
                LevelRole::Socket,
                LevelRole::CrossSocket { hops: 1 },
                LevelRole::CrossSocket { hops: 1 },
                LevelRole::CrossSocket { hops: 2 },
            ]
        );
        // The records a file leaves out are opteron's 2-hop ones: their
        // level moved below an intra-socket level, the direct ones above.
        let two = opteron.links.iter().find(|l| l.hops == 2).unwrap();
        let below = with_levels(&[
            (0, LevelRole::SelfLevel),
            (117, LevelRole::Socket),
            (150, LevelRole::CrossSocket { hops: 2 }),
            (180, LevelRole::IntraGroup),
            (197, LevelRole::CrossSocket { hops: 1 }),
            (217, LevelRole::CrossSocket { hops: 1 }),
        ]);
        assert_eq!(
            irregular(&below),
            format!(
                "cross-socket latency 150 (sockets {},{}) does not exceed intra-socket 180",
                two.a, two.b
            )
        );
        // An intra-socket level above the lower direct one only: the
        // first stored record, (0, 1), is named.
        let between = with_levels(&[
            (0, LevelRole::SelfLevel),
            (117, LevelRole::Socket),
            (197, LevelRole::CrossSocket { hops: 1 }),
            (200, LevelRole::IntraGroup),
            (217, LevelRole::CrossSocket { hops: 1 }),
            (300, LevelRole::CrossSocket { hops: 2 }),
        ]);
        assert_eq!(
            irregular(&between),
            "cross-socket latency 197 (sockets 0,1) does not exceed intra-socket 200"
        );
        // A stored record off every level.
        let mut v: serde_json::Value = serde_json::from_str(text).unwrap();
        assert_eq!(v["topology"]["links"][0]["latency"], serde_json::json!(197));
        v["topology"]["links"][0]["latency"] = serde_json::json!(198);
        assert_eq!(
            irregular(&v.to_string()),
            "interconnect record (0, 1) has latency 198, which is no level's median \
             (the nearest is 197)"
        );
    }

    /// A topology whose link arena is out of its one shape has no
    /// description: writing or saving it is refused with the error the
    /// shape check gives, not a panic.
    #[test]
    fn an_arena_out_of_its_shape_is_refused_by_the_writer() {
        let ivy = from_str(crate::registry::shipped_source("ivy").unwrap()).unwrap();
        let prov = Provenance::new("ivy", &canonical_probe_config(), None, true);
        let mut emptied = ivy.clone();
        emptied.links.clear();
        let mut doubled = ivy.clone();
        doubled.links.push(ivy.links[0].clone());
        let path = std::env::temp_dir().join("mctop-arena-out-of-shape.mct.json");
        for (topo, want) in [
            (emptied, "missing interconnect records"),
            (doubled, "duplicate interconnect record (0, 1)"),
        ] {
            let shape = validate::check_links(&topo.links, topo.num_sockets()).unwrap_err();
            assert_eq!(shape.to_string(), format!("irregular topology: {want}"));
            for err in [
                to_string(&topo, &prov).unwrap_err(),
                save(&topo, &prov, &path).unwrap_err(),
            ] {
                assert!(matches!(err, McTopError::IrregularTopology(_)), "{err}");
                assert_eq!(err.to_string(), shape.to_string());
            }
            assert!(!path.exists());
        }
    }

    #[test]
    fn to_string_never_grows_its_buffer_on_every_committed_file() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../descs");
        let mut files = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let (topo, prov) = load_full(&path).unwrap();
            let (len, reserved) = (
                to_string(&topo, &prov).unwrap().len(),
                text_size_estimate(&topo),
            );
            // The reservation holds the whole text, and overshoots it
            // by at most half besides the fixed 4 KiB.
            assert!(
                len <= reserved && reserved <= len * 3 / 2 + 4096,
                "{}: {len} bytes, {reserved} reserved",
                path.display()
            );
            files += 1;
        }
        assert_eq!(files, 16);
    }

    #[test]
    fn garbage_rejected() {
        assert!(from_str("not json").is_err());
        assert!(from_str("{}").is_err());
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_full(Path::new("/nonexistent/mctop.json")).unwrap_err();
        assert!(matches!(err, McTopError::Io(_)));
    }

    #[test]
    fn canonical_is_deterministic() {
        let a = canonical_string(&presets::synthetic_small()).unwrap();
        let b = canonical_string(&presets::synthetic_small()).unwrap();
        assert_eq!(a, b);
        let (topo, prov) = from_str_full(&a).unwrap();
        assert_eq!(prov.generator, CANONICAL_GENERATOR);
        assert_eq!(prov.seed, None);
        assert!(prov.enriched);
        assert!(topo.caches.is_some());
    }
}
