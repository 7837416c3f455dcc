use serde::{Deserialize, Serialize};
use std::fmt;

/// How redundantly an ALU executes each elementary operation.
///
/// This enum is exhaustive by design: Plain/DMR/TMR is the complete space
/// of the paper's execution schemes and downstream crates match on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RedundancyMode {
    /// Single execution, qualifier constantly true (Algorithm 1).
    Plain,
    /// Dual execution with comparison (Algorithm 2): detects any fault that
    /// corrupts exactly one replica; cannot correct.
    Dmr,
    /// Triple execution with majority vote: corrects any fault confined to
    /// one replica; detects (without correcting) most two-replica faults.
    Tmr,
}

impl RedundancyMode {
    /// Number of redundant executions per operation.
    pub fn replicas(&self) -> u8 {
        match self {
            RedundancyMode::Plain => 1,
            RedundancyMode::Dmr => 2,
            RedundancyMode::Tmr => 3,
        }
    }

    /// All modes, for sweeps.
    pub const ALL: [RedundancyMode; 3] = [
        RedundancyMode::Plain,
        RedundancyMode::Dmr,
        RedundancyMode::Tmr,
    ];
}

impl fmt::Display for RedundancyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RedundancyMode::Plain => "plain",
            RedundancyMode::Dmr => "dmr",
            RedundancyMode::Tmr => "tmr",
        };
        f.write_str(s)
    }
}

/// Rollback/retry policy of Algorithm 3: "should one incorrect operation
/// occur then that operation shall be repeated".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum re-executions of one failed operation before the kernel
    /// gives up on it (the paper repeats once).
    pub max_retries: u32,
}

impl RetryPolicy {
    /// The paper's policy: one retry per failed operation.
    pub fn paper() -> Self {
        RetryPolicy { max_retries: 1 }
    }

    /// No retries: a failed operation immediately counts as unrecoverable.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0 }
    }

    /// Creates a policy with an explicit retry budget.
    pub fn with_retries(max_retries: u32) -> Self {
        RetryPolicy { max_retries }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_counts() {
        assert_eq!(RedundancyMode::Plain.replicas(), 1);
        assert_eq!(RedundancyMode::Dmr.replicas(), 2);
        assert_eq!(RedundancyMode::Tmr.replicas(), 3);
    }

    #[test]
    fn display_names() {
        assert_eq!(RedundancyMode::Plain.to_string(), "plain");
        assert_eq!(RedundancyMode::Dmr.to_string(), "dmr");
        assert_eq!(RedundancyMode::Tmr.to_string(), "tmr");
    }

    #[test]
    fn all_modes_distinct() {
        let set: std::collections::HashSet<_> = RedundancyMode::ALL.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn retry_policies() {
        assert_eq!(RetryPolicy::paper().max_retries, 1);
        assert_eq!(RetryPolicy::none().max_retries, 0);
        assert_eq!(RetryPolicy::with_retries(5).max_retries, 5);
        assert_eq!(RetryPolicy::default(), RetryPolicy::paper());
    }
}
