//! Allocation policies and their node-weight semantics.

use mctop::Mctop;

/// How a worker's arena is spread over the machine's memory nodes.
///
/// Policies are resolved per worker, from the point of view of the
/// socket the worker is placed on; the weights come from the enriched
/// topology (the Section 4 memory plugins), never from per-platform
/// constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Everything on the worker's local node (the default first-touch
    /// behaviour of a well-behaved OS, made explicit).
    Local,
    /// Pages spread evenly over every node of the machine (what
    /// `numactl --interleave=all` gives): maximum aggregate bandwidth
    /// for shared read-mostly data, at the cost of average latency.
    Interleave,
    /// Pages spread proportionally to the worker socket's measured
    /// bandwidth to each node — more bytes where the socket can stream
    /// faster, approaching every controller's saturation point
    /// together.
    BwProportional,
    /// Pages spread evenly over an explicit node set (application-
    /// managed partitioning).
    OnNodes(Vec<usize>),
}

impl AllocPolicy {
    /// Policy name, styled like the placement policy names of Table 2.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            AllocPolicy::Local => "LOCAL",
            AllocPolicy::Interleave => "INTERLEAVE",
            AllocPolicy::BwProportional => "BW_PROPORTIONAL",
            AllocPolicy::OnNodes(_) => "ON_NODES",
        }
    }

    /// Per-node stripe weights for a worker placed on `socket`.
    ///
    /// The returned vector has one non-negative entry per memory node
    /// and a strictly positive sum; [`crate::plan`] turns it into whole
    /// pages with largest-remainder apportionment.
    pub(crate) fn socket_weights(
        &self,
        topo: &Mctop,
        socket: usize,
    ) -> Result<Vec<f64>, AllocError> {
        let n_nodes = topo.num_nodes();
        match self {
            AllocPolicy::Local => {
                let node = topo.sockets[socket]
                    .local_node
                    .ok_or(AllocError::NodeUnknown { socket })?;
                let mut w = vec![0.0; n_nodes];
                w[node] = 1.0;
                Ok(w)
            }
            AllocPolicy::Interleave => Ok(vec![1.0; n_nodes]),
            AllocPolicy::BwProportional => {
                let bws = &topo.sockets[socket].mem_bandwidths;
                if bws.len() != n_nodes || bws.iter().any(|&b| !b.is_finite() || b <= 0.0) {
                    return Err(AllocError::BandwidthUnavailable { socket });
                }
                Ok(bws.clone())
            }
            AllocPolicy::OnNodes(nodes) => {
                if nodes.is_empty() {
                    return Err(AllocError::EmptyNodeSet);
                }
                let mut w = vec![0.0; n_nodes];
                for &node in nodes {
                    if node >= n_nodes {
                        return Err(AllocError::NodeOutOfRange {
                            node,
                            nodes: n_nodes,
                        });
                    }
                    w[node] = 1.0;
                }
                Ok(w)
            }
        }
    }
}

impl std::fmt::Display for AllocPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocPolicy::OnNodes(nodes) => {
                let list: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
                write!(f, "ON_NODES({})", list.join(","))
            }
            other => f.write_str(other.name()),
        }
    }
}

impl std::str::FromStr for AllocPolicy {
    type Err = String;

    /// Parses the CLI spellings: `local`, `interleave`, `bw` (or
    /// `bw-proportional`), and `on-nodes:0,2`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "local" => Ok(AllocPolicy::Local),
            "interleave" => Ok(AllocPolicy::Interleave),
            "bw" | "bw-proportional" => Ok(AllocPolicy::BwProportional),
            _ => {
                if let Some(list) = s.strip_prefix("on-nodes:") {
                    let nodes: Result<Vec<usize>, _> =
                        list.split(',').map(|p| p.trim().parse()).collect();
                    return match nodes {
                        Ok(nodes) if !nodes.is_empty() => Ok(AllocPolicy::OnNodes(nodes)),
                        _ => Err(format!("invalid node list `{list}`")),
                    };
                }
                Err(format!(
                    "unknown allocation policy `{s}` \
                     (local, interleave, bw, on-nodes:<ids>)"
                ))
            }
        }
    }
}

/// Why a plan could not be resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The socket's local memory node is unknown (topology not enriched
    /// by the memory-latency plugin).
    NodeUnknown {
        /// Socket whose local node is missing.
        socket: usize,
    },
    /// The socket has no (or non-positive) per-node bandwidth
    /// measurements (topology not enriched by the bandwidth plugin).
    BandwidthUnavailable {
        /// Socket whose bandwidths are missing.
        socket: usize,
    },
    /// `OnNodes` was given an empty node set.
    EmptyNodeSet,
    /// `OnNodes` named a node the machine does not have.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// How many nodes the machine has.
        nodes: usize,
    },
    /// A zero-byte arena was requested.
    ZeroArena,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::NodeUnknown { socket } => {
                write!(f, "socket {socket} has no known local node (not enriched)")
            }
            AllocError::BandwidthUnavailable { socket } => {
                write!(f, "socket {socket} has no per-node bandwidth measurements")
            }
            AllocError::EmptyNodeSet => f.write_str("ON_NODES requires at least one node"),
            AllocError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (machine has {nodes})")
            }
            AllocError::ZeroArena => f.write_str("arena size must be at least one byte"),
        }
    }
}

impl std::error::Error for AllocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!("local".parse::<AllocPolicy>().unwrap(), AllocPolicy::Local);
        assert_eq!(
            "interleave".parse::<AllocPolicy>().unwrap(),
            AllocPolicy::Interleave
        );
        assert_eq!(
            "bw".parse::<AllocPolicy>().unwrap(),
            AllocPolicy::BwProportional
        );
        assert_eq!(
            "bw-proportional".parse::<AllocPolicy>().unwrap(),
            AllocPolicy::BwProportional
        );
        assert_eq!(
            "on-nodes:0,2".parse::<AllocPolicy>().unwrap(),
            AllocPolicy::OnNodes(vec![0, 2])
        );
        assert!("on-nodes:".parse::<AllocPolicy>().is_err());
        assert!("numa".parse::<AllocPolicy>().is_err());
    }

    #[test]
    fn display_matches_table_style() {
        assert_eq!(AllocPolicy::Local.to_string(), "LOCAL");
        assert_eq!(
            AllocPolicy::OnNodes(vec![1, 3]).to_string(),
            "ON_NODES(1,3)"
        );
    }
}
