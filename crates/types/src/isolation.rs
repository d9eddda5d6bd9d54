//! The isolation-level ladder (paper §II-C/§IV, made a first-class dial).
//!
//! The paper's entire argument is a trade: weaken read isolation (serve
//! READ-UNCOMMITTED views of the pending pool) and throughput rises,
//! because clients stop submitting doomed transactions against stale
//! state. [`IsolationLevel`] turns that trade into a configuration knob a
//! node enforces and an offline checker (`sereth-consistency`) audits:
//! each rung *lowers read freshness in exchange for fewer anomalies*.
//!
//! Levels are ordered weakest-first, so `a <= b` means "`b` is at least
//! as strong as `a`". An anomaly *forbidden at* level `L` is forbidden at
//! every level `>= L`; the checker tags each violation with the weakest
//! level that forbids it.

/// One rung of the isolation ladder a node can run its read paths at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum IsolationLevel {
    /// The paper's mode: RAA/HMS read-only queries see the pending pool
    /// (speculative marks and values that may never commit). Weakest rung
    /// — dirty reads are *allowed by design*; only dirty-*write* cycles
    /// among committed transactions are forbidden.
    #[default]
    ReadUncommitted,
    /// Read-only queries and miner ordering see only committed head
    /// state: no pending-pool speculation, so dirty reads (G1a) are
    /// additionally forbidden. Reads may still move between two queries
    /// as blocks land.
    ReadCommitted,
    /// Strongest rung: queries are additionally pinned to a single
    /// serialization point — a view at one height, refreshed only on
    /// import — so repeated reads between imports are mutually
    /// consistent. Lost updates and serialization breaks are forbidden
    /// on top of everything below.
    Sequential,
}

impl IsolationLevel {
    /// Every level, weakest first — the sweep order of the ISO-FRONTIER
    /// bench and the verdict table.
    pub const ALL: [IsolationLevel; 3] =
        [IsolationLevel::ReadUncommitted, IsolationLevel::ReadCommitted, IsolationLevel::Sequential];

    /// Stable kebab-case name, also what `Display` prints (ISO-FRONTIER's
    /// level column, the consistency-audit example's verdicts).
    pub fn label(self) -> &'static str {
        match self {
            Self::ReadUncommitted => "read-uncommitted",
            Self::ReadCommitted => "read-committed",
            Self::Sequential => "sequential",
        }
    }
}

impl core::fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_orders_weakest_first() {
        assert!(IsolationLevel::ReadUncommitted < IsolationLevel::ReadCommitted);
        assert!(IsolationLevel::ReadCommitted < IsolationLevel::Sequential);
        assert_eq!(IsolationLevel::default(), IsolationLevel::ReadUncommitted);
    }
}
