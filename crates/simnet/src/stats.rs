//! Round and message accounting.

use serde::Serialize;

/// Communication statistics of a protocol execution (or of a composite
/// algorithm that charges its primitives through a [`RoundLedger`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct CommStats {
    /// Number of synchronous rounds used.
    pub rounds: usize,
    /// Total number of point-to-point messages delivered.
    pub messages: usize,
    /// Largest number of messages any single node sent in one round
    /// (at most its degree in the paper's model).
    pub max_messages_per_node_round: usize,
}

impl CommStats {
    /// Adds another execution's statistics (rounds add, because composite
    /// algorithms run their parts one after another).
    pub fn absorb(&mut self, other: &CommStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.max_messages_per_node_round = self
            .max_messages_per_node_round
            .max(other.max_messages_per_node_round);
    }
}

/// A ledger the distributed spanner algorithm charges its communication
/// costs to, broken down by the paper's phase structure.
///
/// The distributed relaxed-greedy algorithm (Section 3) is built from a
/// handful of primitives with known costs:
///
/// * *k-hop gather* — a node collects its distance-`k` neighbourhood,
///   which takes exactly `k` rounds (each round extends knowledge one hop),
/// * *MIS on a derived graph* — costs however many rounds the distributed
///   MIS protocol actually used,
/// * *constant-round local steps* — e.g. one round in which every node
///   informs neighbours of a decision.
///
/// The ledger records each charge with a label so experiments can report
/// per-phase and per-step breakdowns.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RoundLedger {
    total: CommStats,
    entries: Vec<(String, CommStats)>,
}

impl RoundLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `rounds` rounds (and optionally messages) under a label.
    pub fn charge(&mut self, label: impl Into<String>, stats: CommStats) {
        self.total.absorb(&stats);
        self.entries.push((label.into(), stats));
    }

    /// Charges a pure round cost with no message accounting.
    pub fn charge_rounds(&mut self, label: impl Into<String>, rounds: usize) {
        self.charge(
            label,
            CommStats {
                rounds,
                messages: 0,
                max_messages_per_node_round: 0,
            },
        );
    }

    /// The accumulated totals.
    pub fn total(&self) -> CommStats {
        self.total
    }

    /// Iterates over the individual charges in the order they were made.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &CommStats)> {
        self.entries
            .iter()
            .map(|(label, stats)| (label.as_str(), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_rounds_and_messages() {
        let mut a = CommStats {
            rounds: 3,
            messages: 10,
            max_messages_per_node_round: 2,
        };
        let b = CommStats {
            rounds: 2,
            messages: 5,
            max_messages_per_node_round: 4,
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.messages, 15);
        assert_eq!(a.max_messages_per_node_round, 4);
    }

    #[test]
    fn ledger_accumulates_charges_in_order() {
        let mut ledger = RoundLedger::new();
        ledger.charge_rounds("phase1/cluster-cover", 7);
        ledger.charge_rounds("phase1/queries", 3);
        ledger.charge_rounds("phase2/cluster-cover", 5);
        ledger.charge(
            "phase2/mis",
            CommStats {
                rounds: 4,
                messages: 100,
                max_messages_per_node_round: 6,
            },
        );
        assert_eq!(ledger.total().rounds, 19);
        assert_eq!(ledger.total().messages, 100);
        let labels: Vec<&str> = ledger.entries().map(|(label, _)| label).collect();
        assert_eq!(
            labels,
            [
                "phase1/cluster-cover",
                "phase1/queries",
                "phase2/cluster-cover",
                "phase2/mis"
            ]
        );
    }

    #[test]
    fn default_ledger_is_empty() {
        let ledger = RoundLedger::default();
        assert_eq!(ledger.total(), CommStats::default());
        assert_eq!(ledger.entries().count(), 0);
    }
}
