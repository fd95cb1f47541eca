//! Request evaluation, shared by the daemon and the `mct` CLI.
//!
//! Every function returns the *exact* text the corresponding CLI
//! command prints — the daemon serves these strings verbatim, which is
//! what makes remote responses byte-identical to direct library calls
//! (enforced end to end by `tests/serving_equivalence.rs`).

use std::fmt::Write as _;
use std::sync::Arc;

use mctop::registry::Registry;
use mctop::TopoView;
use mctop_alloc::{
    AllocCfg,
    AllocPlan,
    AllocPolicy, //
};
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};

/// Why a request could not be answered. Mirrors the CLI's split:
/// `Usage` is a malformed request (exit 2 locally, `BadRequest` on the
/// wire), `Failed` is a request that ran and failed (exit 1 locally,
/// also `BadRequest` on the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The request shape is wrong (unknown query, bad argument count,
    /// unparsable argument).
    Usage(String),
    /// The request was well-formed but unanswerable (out-of-range id,
    /// unresolvable placement).
    Failed(String),
}

impl EvalError {
    /// The human-readable message, independent of the class.
    pub fn message(&self) -> &str {
        match self {
            EvalError::Usage(m) | EvalError::Failed(m) => m,
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, EvalError> {
    s.parse()
        .map_err(|_| EvalError::Usage(format!("invalid {what} `{s}`")))
}

/// The `mct list` body: one line per topology the registry resolves.
pub fn list_text(registry: &Registry) -> Result<String, EvalError> {
    let mut out = String::new();
    for name in registry
        .names()
        .map_err(|e| EvalError::Failed(e.to_string()))?
    {
        let view = registry
            .view(&name)
            .map_err(|e| EvalError::Failed(e.to_string()))?;
        let _ = writeln!(
            out,
            "{name:<18} {} sockets, {} cores, {} contexts",
            view.num_sockets(),
            view.topo().num_cores(),
            view.num_hwcs()
        );
    }
    Ok(out)
}

/// A placement block: the Fig. 7 `Placement::print()` text for
/// `workers` threads under a paper-style policy name
/// (case-insensitive).
pub fn placement_text(view: &TopoView, policy: &str, workers: usize) -> Result<String, EvalError> {
    let policy = Policy::from_name(policy)
        .ok_or_else(|| EvalError::Usage(format!("unknown placement policy `{policy}`")))?;
    let place = Placement::with_view(view, policy, PlaceOpts::threads(workers))
        .map_err(|e| EvalError::Failed(e.to_string()))?;
    Ok(place.print())
}

/// An allocation plan block: `AllocPlan::resolve(...).render()` for
/// `workers` RR_CORE-placed workers.
pub fn alloc_plan_text(view: &TopoView, policy: &str, workers: usize) -> Result<String, EvalError> {
    let policy: AllocPolicy = policy.parse().map_err(EvalError::Usage)?;
    // RR_CORE: the round-robin hand-out spreads workers across every
    // socket, so the plan shows each socket's stripes.
    let place = Placement::with_view(view, Policy::RrCore, PlaceOpts::threads(workers))
        .map_err(|e| EvalError::Failed(e.to_string()))?;
    let plan = AllocPlan::resolve(view, &place, &policy, &AllocCfg::default())
        .map_err(|e| EvalError::Failed(e.to_string()))?;
    Ok(plan.render())
}

/// Answers one query from the `mct query` vocabulary, returning the
/// exact text the CLI prints (trailing newline included).
///
/// The `metrics` query is deliberately *not* answerable here: locally
/// it runs a deterministic workload harness (CLI-only), remotely the
/// daemon serves its live counters via the `MetricsSnapshot` request.
pub fn query_text(view: &TopoView, query: &str, args: &[String]) -> Result<String, EvalError> {
    let int = |what: &str| -> Result<usize, EvalError> {
        let [s] = args else {
            return Err(EvalError::Usage(format!("`{query}` takes one {what}")));
        };
        parse(s, what)
    };
    let pair = |what: &str| -> Result<(usize, usize), EvalError> {
        let [a, b] = args else {
            return Err(EvalError::Usage(format!("`{query}` takes two {what}s")));
        };
        Ok((parse(a, what)?, parse(b, what)?))
    };
    let check_socket = |s: usize| -> Result<usize, EvalError> {
        if s < view.num_sockets() {
            Ok(s)
        } else {
            Err(EvalError::Failed(format!(
                "socket {s} out of range (machine has {})",
                view.num_sockets()
            )))
        }
    };
    let check_hwc = |h: usize| -> Result<usize, EvalError> {
        if h < view.num_hwcs() {
            Ok(h)
        } else {
            Err(EvalError::Failed(format!(
                "context {h} out of range (machine has {})",
                view.num_hwcs()
            )))
        }
    };
    let list = |ids: &[usize]| {
        ids.iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let line = |s: String| Ok(s + "\n");

    match query {
        "summary" => line(view.topo().summary()),
        "latency" => {
            let (a, b) = pair("context")?;
            line(view.get_latency(check_hwc(a)?, check_hwc(b)?).to_string())
        }
        "socket-latency" => {
            let (a, b) = pair("socket")?;
            line(
                view.socket_latency(check_socket(a)?, check_socket(b)?)
                    .to_string(),
            )
        }
        "closest" => {
            let s = check_socket(int("socket")?)?;
            line(list(view.closest_sockets(s)))
        }
        "sockets-by-bw" => line(list(view.sockets_by_local_bandwidth())),
        "walk" => line(list(view.socket_order_bandwidth_proximity())),
        "max-latency" => line(view.topo().max_latency().to_string()),
        "socket-of" => line(view.socket_of(check_hwc(int("context")?)?).to_string()),
        "core-of" => line(view.core_of(check_hwc(int("context")?)?).to_string()),
        "node-of" => match view.node_of(check_hwc(int("context")?)?) {
            Some(node) => line(node.to_string()),
            None => line("unknown".to_string()),
        },
        "hwcs" => {
            let (s, cores_first) = match args {
                [s] => (parse::<usize>(s, "socket")?, false),
                [s, mode] if mode == "cores-first" => (parse::<usize>(s, "socket")?, true),
                _ => {
                    return Err(EvalError::Usage(
                        "`hwcs` takes a socket and optionally `cores-first`".into(),
                    ))
                }
            };
            let s = check_socket(s)?;
            let ids = if cores_first {
                view.socket_hwcs_cores_first(s)
            } else {
                view.socket_hwcs_compact(s)
            };
            line(list(ids))
        }
        "alloc-plan" => {
            let (policy, threads) = match args {
                [p] => (p, None),
                [p, t] => (p, Some(parse::<usize>(t, "thread count")?)),
                _ => {
                    return Err(EvalError::Usage(
                        "`alloc-plan` takes a policy and optionally a thread count".into(),
                    ))
                }
            };
            alloc_plan_text(view, policy, threads.unwrap_or(view.num_hwcs()))
        }
        other => Err(EvalError::Usage(format!(
            "unknown query `{other}` (see `mct help`)"
        ))),
    }
}

/// Resolves a machine name against a registry, mapping failures to a
/// request-level error (the daemon's `BadRequest`).
pub fn resolve_view(registry: &Registry, desc: &str) -> Result<Arc<TopoView>, EvalError> {
    registry
        .view(desc)
        .map_err(|e| EvalError::Failed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_text_answers_the_vocabulary() {
        let reg = Registry::shipped();
        let view = reg.view("ivy").unwrap();
        assert_eq!(
            query_text(&view, "latency", &["0".into(), "20".into()]).unwrap(),
            format!("{}\n", view.get_latency(0, 20))
        );
        assert_eq!(
            query_text(&view, "summary", &[]).unwrap(),
            format!("{}\n", view.topo().summary())
        );
        assert!(query_text(&view, "walk", &[]).unwrap().ends_with('\n'));
    }

    #[test]
    fn errors_keep_their_class() {
        let reg = Registry::shipped();
        let view = reg.view("ivy").unwrap();
        assert!(matches!(
            query_text(&view, "nope", &[]),
            Err(EvalError::Usage(_))
        ));
        assert!(matches!(
            query_text(&view, "latency", &["0".into(), "999999".into()]),
            Err(EvalError::Failed(_))
        ));
        assert!(matches!(
            query_text(&view, "latency", &["x".into(), "1".into()]),
            Err(EvalError::Usage(_))
        ));
    }

    #[test]
    fn list_covers_every_shipped_name() {
        let reg = Registry::shipped();
        let text = list_text(&reg).unwrap();
        for name in mctop::registry::shipped_names() {
            assert!(text.contains(name), "{name} missing from list");
        }
    }

    #[test]
    fn placement_and_alloc_render() {
        let reg = Registry::shipped();
        let view = reg.view("ivy").unwrap();
        let p = placement_text(&view, "rr_core", 4).unwrap();
        assert!(p.contains("MCTOP_PLACE_RR_CORE"));
        let a = alloc_plan_text(&view, "local", 4).unwrap();
        assert!(!a.is_empty());
        assert!(matches!(
            placement_text(&view, "bogus", 4),
            Err(EvalError::Usage(_))
        ));
    }
}
