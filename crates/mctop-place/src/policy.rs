//! The twelve placement policies of Table 2 of the paper.

use std::fmt;

/// A placement policy: how threads are mapped to hardware contexts.
///
/// In non-SMT multi-cores the `CON_HWC`, `CON_CORE_HWC` and `CON_CORE`
/// policies are equivalent (Section 6), and likewise their `BALANCE`
/// counterparts and the two `RR` variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Policy {
    /// Threads are not pinned to hardware contexts.
    None,
    /// Use the sequential OS numbering.
    Sequential,
    /// Starting from the socket with maximum local memory bandwidth,
    /// place threads as compactly as possible on all hardware contexts
    /// of the socket, then continue to the next best-connected socket.
    ConHwc,
    /// Like `ConHwc`, but use all unique cores of the socket before its
    /// second hardware contexts; still fill a socket before the next.
    ConCoreHwc,
    /// Like `ConHwc`, but use all unique cores of all used sockets
    /// before any second context.
    ConCore,
    /// `ConHwc` balanced across sockets instead of filling them.
    BalanceHwc,
    /// `ConCoreHwc` balanced across sockets.
    BalanceCoreHwc,
    /// `ConCore` balanced across sockets.
    BalanceCore,
    /// Round-robin over sockets (max-bandwidth socket first), handing
    /// out unique cores first.
    RrCore,
    /// Round-robin over sockets, handing out hardware contexts in
    /// compact (core-filling) order.
    RrHwc,
    /// Minimize the estimated maximum power consumption
    /// (requires power measurements; Intel processors only in the
    /// paper).
    Power,
    /// Like `RrCore`, but caps the threads per socket at the number
    /// needed to saturate the socket's local memory bandwidth.
    RrScale,
}

impl Policy {
    /// All twelve policies, in Table 2 order.
    pub const ALL: [Policy; 12] = [
        Policy::None,
        Policy::Sequential,
        Policy::ConHwc,
        Policy::ConCoreHwc,
        Policy::ConCore,
        Policy::BalanceHwc,
        Policy::BalanceCoreHwc,
        Policy::BalanceCore,
        Policy::RrCore,
        Policy::RrHwc,
        Policy::Power,
        Policy::RrScale,
    ];

    /// The paper's name for the policy (as printed by Fig. 7).
    pub fn name(self) -> &'static str {
        match self {
            Policy::None => "NONE",
            Policy::Sequential => "SEQUENTIAL",
            Policy::ConHwc => "CON_HWC",
            Policy::ConCoreHwc => "CON_CORE_HWC",
            Policy::ConCore => "CON_CORE",
            Policy::BalanceHwc => "BALANCE_HWC",
            Policy::BalanceCoreHwc => "BALANCE_CORE_HWC",
            Policy::BalanceCore => "BALANCE_CORE",
            Policy::RrCore => "RR_CORE",
            Policy::RrHwc => "RR_HWC",
            Policy::Power => "POWER",
            Policy::RrScale => "RR_SCALE",
        }
    }

    /// Parses a paper-style policy name (case-insensitive).
    pub fn from_name(s: &str) -> Option<Policy> {
        let up = s.to_ascii_uppercase();
        Policy::ALL.into_iter().find(|p| p.name() == up)
    }

    /// Whether the policy pins threads at all.
    pub(crate) fn pins(self) -> bool {
        self != Policy::None
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_policies() {
        assert_eq!(Policy::ALL.len(), 12);
        let mut names: Vec<&str> = Policy::ALL.iter().map(|p| p.name()).collect();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn name_roundtrip() {
        for p in Policy::ALL {
            assert_eq!(Policy::from_name(p.name()), Some(p));
            assert_eq!(Policy::from_name(&p.name().to_lowercase()), Some(p));
        }
        assert_eq!(Policy::from_name("BOGUS"), None);
    }

    #[test]
    fn only_none_does_not_pin() {
        assert!(!Policy::None.pins());
        assert!(Policy::ALL.iter().filter(|p| !p.pins()).count() == 1);
    }
}
