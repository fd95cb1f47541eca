//! `mct` — the MCTOP description-file tool.
//!
//! The paper's workflow (Section 2) is *infer once, store a description
//! file, load everywhere*. `mct` is the command-line face of that
//! workflow over the simulated machine models:
//!
//! - `mct list` — machine names loadable from the shipped library
//! - `mct infer` — run MCTOP-ALG on a preset and write a description
//! - `mct validate` — parse + structurally validate descriptions
//! - `mct show` — render a topology as text or Graphviz DOT
//! - `mct query` — answer topology queries from a description
//! - `mct diff` — structural comparison of two descriptions
//! - `mct regen-descs` — regenerate the committed `descs/` library
//! - `mct serve` — run the `mctopd` daemon on a Unix socket
//!
//! Everything runs fully offline: the only inputs are the compiled-in
//! `descs/` library, the `mcsim` machine models, and local files.
//! `mct query --remote <socket>` answers the same queries from a
//! running daemon instead of loading the description locally — the
//! output is byte-identical either way (see `docs/SERVING.md`).

mod diff;
mod queries;
mod resolve;

use std::path::PathBuf;
use std::process::ExitCode;

use mctop::desc;
use mctop::registry;
use mctop::McTopError;

/// CLI failure modes, mapped to exit codes: usage errors exit 2,
/// everything else (I/O, invalid descriptions, found differences)
/// exits 1.
pub(crate) enum CliError {
    /// Bad invocation; the string is the offending detail.
    Usage(String),
    /// The command ran and failed.
    Failed(String),
    /// A comparison command found differences (already printed).
    Mismatch,
}

impl From<McTopError> for CliError {
    fn from(e: McTopError) -> Self {
        CliError::Failed(e.to_string())
    }
}

const USAGE: &str = "\
mct — MCTOP description tooling (infer once, store, load everywhere)

USAGE:
    mct list
    mct infer <machine> [--seed N] [--reps N] [--exhaustive]
                        [--no-enrich] [--out PATH] [--stdout]
    mct validate <desc>...
    mct show <desc> [--format text|dot|summary] [--stats]
    mct query [--remote SOCKET] <desc> <query> [args...]
    mct diff <a> <b>
    mct regen-descs [--dir DIR] [--check]
    mct serve --socket PATH [--descs DIR]

Collection runs on one prober, which moves from context pair to
context pair as the paper's two measuring threads do: pairs measured
at once would share the coherence fabric they measure.

By default `infer` measures a planned subset of the context pairs and
derives the rest: below 32 sockets, each socket's inside, one anchor
row per socket and a hold-out sample, with every other cross-socket
pair predicted from its socket pair (hierarchy-first); from 32
sockets, a pruned neighbourhood plan closed over the socket graph.
--exhaustive opts out of either plan and measures every pair.

A <desc> is a machine name from `mct list` (resolved against the
shipped description library) or a path to a *.mct.json file.

`mct serve` runs the topology daemon (the `mctopd` library) in the
foreground: topologies are loaded once, shared, and served over a
versioned wire protocol on a Unix socket. `mct query --remote SOCKET`
asks a running daemon instead of loading locally; the answer is
byte-identical. See docs/SERVING.md for the protocol.

QUERIES:
    summary                     one-line topology summary
    latency <a> <b>             context-to-context latency, cycles
    socket-latency <a> <b>      socket-to-socket latency, cycles
    closest <socket>            other sockets by proximity
    sockets-by-bw               sockets by local memory bandwidth
    walk                        the CON-policy bandwidth/proximity walk
    max-latency                 worst context-to-context latency
    socket-of <hwc>             owning socket of a context
    core-of <hwc>               owning core of a context
    node-of <hwc>               local memory node of a context
    hwcs <socket> [cores-first] contexts of a socket, hand-out order
    alloc-plan <policy> [n]     resolved memory plan for n RR_CORE-placed
                                workers (default: all contexts); policies:
                                local, interleave, bw, on-nodes:<ids>
    metrics                     run a deterministic workload through the
                                instrumented runtime layers and print the
                                counter snapshot as JSON (schema in
                                docs/OBSERVABILITY.md)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("mct: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("mct: {msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Mismatch) => ExitCode::FAILURE,
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "list" => cmd_list(),
        "infer" => cmd_infer(rest),
        "validate" => cmd_validate(rest),
        "show" => cmd_show(rest),
        "query" => queries::cmd_query(rest),
        "diff" => cmd_diff(rest),
        "regen-descs" => cmd_regen(rest),
        "serve" => cmd_serve(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Pulls the value of `--flag VALUE` out of `args`, if present. A
/// following `--other` flag is not a value; `--out --stdout` must be
/// rejected, not write a file literally named `--stdout`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() && !args[i + 1].starts_with("--") => {
            args.remove(i);
            Ok(Some(args.remove(i)))
        }
        Some(_) => Err(CliError::Usage(format!("{flag} needs a value"))),
    }
}

/// Pulls a boolean `--flag` out of `args`.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::Usage(format!("invalid {what} `{s}`")))
}

fn cmd_list() -> Result<(), CliError> {
    for name in registry::shipped_names() {
        let topo = resolve::load(name)?.0;
        println!(
            "{name:<18} {} sockets, {} cores, {} contexts",
            topo.num_sockets(),
            topo.num_cores(),
            topo.num_hwcs()
        );
    }
    Ok(())
}

fn cmd_infer(args: &[String]) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let seed = take_flag(&mut args, "--seed")?
        .map(|s| parse::<u64>(&s, "seed"))
        .transpose()?;
    let reps = take_flag(&mut args, "--reps")?
        .map(|s| parse::<usize>(&s, "reps"))
        .transpose()?;
    let out = take_flag(&mut args, "--out")?.map(PathBuf::from);
    let no_enrich = take_switch(&mut args, "--no-enrich");
    let exhaustive = take_switch(&mut args, "--exhaustive");
    let to_stdout = take_switch(&mut args, "--stdout");
    if reps == Some(0) {
        return Err(CliError::Usage("--reps must be at least 1".into()));
    }
    if to_stdout && out.is_some() {
        return Err(CliError::Usage(
            "--out and --stdout are mutually exclusive".into(),
        ));
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(CliError::Usage(format!("infer: unknown flag `{flag}`")));
    }
    let [machine] = args.as_slice() else {
        return Err(CliError::Usage("infer takes exactly one machine".into()));
    };
    let spec = mcsim::presets::by_name(machine).ok_or_else(|| {
        CliError::Failed(format!(
            "unknown machine `{machine}` (see `mct list` for the modelled ones)"
        ))
    })?;

    // Noiseless by default (deterministic); --seed switches to the
    // noisy backend, which also needs the full repetition count.
    // Either way start from the machine's canonical config so every
    // preset keeps its collection plan (hierarchy-first, or pruned at
    // mesh scale) and cluster thresholds — and so that with no
    // overrides this is exactly the pipeline of `desc::canonical`
    // behind `descs/` (only the generator string differs).
    let mut cfg = desc::canonical_probe_config_for(&spec);
    if seed.is_some() {
        cfg.reps = mctop::ProbeConfig::fast().reps;
    }
    if let Some(reps) = reps {
        cfg.reps = reps;
    }
    if exhaustive {
        // Opt out of the hierarchy-first or pruned plan: probe every
        // context pair. Noiseless prediction and reconstruction are
        // exact, so on the synthetic models this only changes the pair
        // count, never a byte of the output.
        cfg.pairs = mctop::PairSelection::Exhaustive;
    }
    let mut prober = match seed {
        Some(seed) => mctop::backend::SimProber::new(&spec, seed),
        None => mctop::backend::SimProber::noiseless(&spec),
    };
    let mut topo = mctop::alg::run_full(&mut prober, &cfg)?.topology;
    if !no_enrich {
        let mut mem = mctop::enrich::SimEnricher::new(&spec);
        let mut pow = mctop::enrich::SimEnricher::new(&spec);
        mctop::enrich::enrich_all(&mut topo, &mut mem, &mut pow)?;
        topo.freq_ghz = Some(spec.freq_ghz);
    }
    let prov =
        desc::Provenance::new(&spec.name, &cfg, seed, !no_enrich).with_generator("mct infer");

    if to_stdout {
        println!("{}", desc::to_string(&topo, &prov)?);
        return Ok(());
    }
    let path = out.unwrap_or_else(|| PathBuf::from(desc::default_filename(&spec.name)));
    desc::save(&topo, &prov, &path)?;
    eprintln!("{}", topo.summary());
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), CliError> {
    if args.is_empty() {
        return Err(CliError::Usage("validate needs at least one <desc>".into()));
    }
    for arg in args {
        // `resolve::load` parses, checks the provenance header and runs
        // structural validation; reaching here means all three passed.
        let (topo, prov) = resolve::load(arg)?;
        println!(
            "{arg}: ok — {} (format v{}, generator `{}`, {})",
            topo.summary(),
            prov.format_version,
            prov.generator,
            match prov.seed {
                Some(seed) => format!("seed {seed}"),
                None => "noiseless".to_string(),
            }
        );
    }
    Ok(())
}

fn cmd_show(args: &[String]) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let format = take_flag(&mut args, "--format")?.unwrap_or_else(|| "text".into());
    let stats = take_switch(&mut args, "--stats");
    let [target] = args.as_slice() else {
        return Err(CliError::Usage("show takes exactly one <desc>".into()));
    };
    let (topo, _) = resolve::load(target)?;
    if stats {
        print!("{}", show_stats(&topo));
        return Ok(());
    }
    match format.as_str() {
        "text" => print!("{}", mctop::fmt::text::render(&topo)),
        "dot" => print!("{}", mctop::fmt::dot::full(&topo)),
        "summary" => println!("{}", topo.summary()),
        other => {
            return Err(CliError::Usage(format!(
                "unknown format `{other}` (text, dot, summary)"
            )))
        }
    }
    Ok(())
}

/// `mct show --stats`: the scale-relevant numbers of a topology — how
/// much probing its canonical inference costs and how much memory its
/// query view keeps resident. Everything printed is deterministic (the
/// view is fresh, so no lazily built matrix is counted).
fn show_stats(topo: &mctop::Mctop) -> String {
    use std::fmt::Write as _;

    let n = topo.num_hwcs();
    let total = n * (n - 1) / 2;
    // The probed-pair count is what the canonical collection of the
    // matching machine model measures, noiseless; a desc without a model
    // (foreign file) is reported as exhaustively probed.
    let probed = mcsim::presets::by_name(&topo.name)
        .and_then(|spec| {
            let cfg = desc::canonical_probe_config_for(&spec);
            mctop::alg::probe::collect(&mut mctop::backend::SimProber::noiseless(&spec), &cfg).ok()
        })
        .map_or(total, |(_, stats)| stats.pairs as usize);
    let view = mctop::TopoView::new(std::sync::Arc::new(topo.clone()));

    let mut out = String::new();
    let _ = writeln!(out, "machine:         {}", topo.name);
    let _ = writeln!(out, "sockets:         {}", topo.num_sockets());
    let _ = writeln!(out, "cores:           {}", topo.num_cores());
    let _ = writeln!(out, "contexts:        {}", topo.num_hwcs());
    let _ = writeln!(out, "nodes:           {}", topo.num_nodes());
    let _ = writeln!(out, "latency levels:  {}", topo.levels.len());
    let _ = writeln!(out, "links:           {}", topo.links.len());
    let _ = writeln!(out, "pairs total:     {total}");
    let _ = writeln!(
        out,
        "pairs probed:    {probed} ({:.1}%)",
        100.0 * probed as f64 / total.max(1) as f64
    );
    let _ = writeln!(out, "view backend:    {}", view.backend().name());
    let _ = writeln!(out, "resident bytes:  {}", view.resident_bytes());
    out
}

fn cmd_diff(args: &[String]) -> Result<(), CliError> {
    let [a, b] = args else {
        return Err(CliError::Usage("diff takes exactly two <desc>s".into()));
    };
    let (ta, _) = resolve::load(a)?;
    let (tb, _) = resolve::load(b)?;
    let diffs = diff::structural(&ta, &tb);
    if diffs.is_empty() {
        println!("{a} == {b}");
        Ok(())
    } else {
        for d in &diffs {
            println!("{d}");
        }
        println!("{} difference(s) between {a} and {b}", diffs.len());
        Err(CliError::Mismatch)
    }
}

/// `mct serve`: run the topology daemon in the foreground until a
/// client sends the `Shutdown` admin request.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let socket = take_flag(&mut args, "--socket")?
        .ok_or_else(|| CliError::Usage("serve needs --socket PATH".into()))?;
    let descs = take_flag(&mut args, "--descs")?;
    if let Some(extra) = args.first() {
        return Err(CliError::Usage(format!(
            "unexpected serve argument `{extra}`"
        )));
    }
    let cfg = mctopd::ServerCfg {
        source: match descs {
            Some(dir) => mctopd::DescSource::Dir(PathBuf::from(dir)),
            None => mctopd::DescSource::Shipped,
        },
        ..mctopd::ServerCfg::new(&socket)
    };
    let server = mctopd::Server::bind(cfg).map_err(|e| CliError::Failed(e.to_string()))?;
    eprintln!("mct serve: listening on {socket}");
    server.start().join();
    eprintln!("mct serve: shut down");
    Ok(())
}

fn cmd_regen(args: &[String]) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let dir = PathBuf::from(take_flag(&mut args, "--dir")?.unwrap_or_else(|| "descs".into()));
    let check = take_switch(&mut args, "--check");
    if !args.is_empty() {
        return Err(CliError::Usage(format!(
            "unexpected regen-descs argument `{}`",
            args[0]
        )));
    }

    let specs: Vec<mcsim::MachineSpec> = mcsim::presets::all_paper_platforms()
        .into_iter()
        .chain(mcsim::presets::all_synthetic())
        .chain(mcsim::presets::all_mesh_scale())
        .collect();
    let mut stale = 0usize;
    if !check {
        std::fs::create_dir_all(&dir).map_err(|e| CliError::Failed(e.to_string()))?;
    }
    for spec in &specs {
        let text = desc::canonical_string(spec)?;
        let path = dir.join(desc::default_filename(&spec.name));
        if check {
            match std::fs::read_to_string(&path) {
                Ok(on_disk) if on_disk == text => println!("{}: ok", path.display()),
                Ok(_) => {
                    println!("{}: STALE (regeneration differs)", path.display());
                    stale += 1;
                }
                Err(_) => {
                    println!("{}: MISSING", path.display());
                    stale += 1;
                }
            }
        } else {
            std::fs::write(&path, &text).map_err(|e| CliError::Failed(e.to_string()))?;
            println!("wrote {} ({} bytes)", path.display(), text.len());
        }
    }
    if stale > 0 {
        println!("{stale} description(s) out of date — run `mct regen-descs`");
        return Err(CliError::Mismatch);
    }
    Ok(())
}
