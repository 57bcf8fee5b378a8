//! Distributed maximal independent set protocols.
//!
//! The paper invokes the Kuhn–Moscibroda–Wattenhofer MIS algorithm, which
//! runs in `O(log* n)` rounds on unit ball graphs of constant doubling
//! dimension, as a black box (Sections 3.2.1 and 3.2.5). Reimplementing
//! KMW faithfully is outside the scope of this reproduction; this module
//! provides the stand-ins, two standard distributed MIS protocols whose
//! round and message costs are *measured*, not assumed:
//!
//! * [`rank_mis`] — the deterministic "highest rank joins" protocol, with
//!   node identifiers as ranks (this mirrors the paper's "attach to the
//!   neighbour in the MIS with the highest identifier" tie-breaking),
//! * [`luby_mis`] — Luby's randomised protocol, re-randomising priorities
//!   every phase; terminates in `O(log n)` phases with high probability.
//!
//! Both run round by round in the paper's synchronous model (Section 1.1)
//! over the graph's CSR rows. A node's state is its status and the round
//! in which it decided, and a node announces its decision to every
//! neighbour in that round. So in round `r` a node reads only neighbours
//! whose decision is stamped before `r`: what their messages had told it
//! by then. Each round visits only the undecided nodes. The counts are
//! those of the message-level execution: a round counts while some node
//! is undecided or a message is in flight, and every rank, priority and
//! announcement sent to a neighbour is one message.
//!
//! Both return the measured [`CommStats`] so the round-complexity
//! experiment can report the spanner's total rounds with the MIS cost
//! either included or normalised out.

use crate::CommStats;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tc_graph::{CsrGraph, NodeId};

#[cfg(test)]
mod oracle;

/// The outcome of a distributed MIS execution.
#[derive(Debug, Clone)]
pub struct MisResult {
    /// Nodes in the maximal independent set, ascending.
    pub mis: Vec<NodeId>,
    /// Measured communication statistics.
    pub stats: CommStats,
    /// Number of protocol phases (for [`luby_mis`]; equals the number of
    /// decision rounds for [`rank_mis`]).
    pub phases: usize,
}

impl MisResult {
    fn empty() -> Self {
        Self {
            mis: Vec::new(),
            stats: CommStats::default(),
            phases: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Undecided,
    InMis,
    Blocked,
}

/// One execution: every node's status and decision round, and the counts.
struct Run<'g> {
    graph: &'g CsrGraph,
    status: Vec<Status>,
    decided: Vec<u32>,
    stats: CommStats,
    /// Messages sent in the current round.
    sent: usize,
    /// The last round in which a node decided.
    last: usize,
}

impl<'g> Run<'g> {
    fn new(graph: &'g CsrGraph) -> Self {
        let n = graph.node_count();
        Self {
            graph,
            status: vec![Status::Undecided; n],
            decided: vec![0; n],
            stats: CommStats::default(),
            sent: 0,
            last: 0,
        }
    }

    /// Whether `u` had announced no decision when `round` began.
    fn undecided_at(&self, u: u32, round: usize) -> bool {
        let u = u as usize;
        self.status[u] == Status::Undecided || self.decided[u] as usize >= round
    }

    /// Whether a neighbour of `v` announced joining the MIS before `round`.
    fn neighbour_joined(&self, v: usize, round: usize) -> bool {
        self.graph.neighbor_ids(v).iter().any(|&u| {
            self.status[u as usize] == Status::InMis && (self.decided[u as usize] as usize) < round
        })
    }

    /// One node sends `count` messages this round.
    fn send(&mut self, count: usize) {
        self.sent += count;
        self.stats.max_messages_per_node_round = self.stats.max_messages_per_node_round.max(count);
    }

    /// `v` decides in `round` and announces it to every neighbour.
    fn decide(&mut self, v: usize, status: Status, round: usize) {
        self.status[v] = status;
        self.decided[v] = round as u32;
        self.last = round;
        self.send(self.graph.degree(v));
    }

    /// Closes `round`. Messages still in flight take one more round to be
    /// delivered, so that round counts too.
    fn end_round(&mut self, round: usize) {
        self.stats.messages += self.sent;
        self.stats.rounds = round + 1 + usize::from(self.sent > 0);
        self.sent = 0;
    }

    fn finish(self, phases: usize) -> MisResult {
        let mis = (0..self.status.len())
            .filter(|&v| self.status[v] == Status::InMis)
            .collect();
        MisResult {
            mis,
            stats: self.stats,
            phases,
        }
    }
}

/// Deterministic distributed MIS: in every round, each undecided node whose
/// rank is larger than the rank of every undecided neighbour joins the MIS;
/// its neighbours become blocked. Ranks are made distinct by breaking ties
/// with node identifiers.
///
/// With `ranks = None` the node identifier itself is the rank, matching the
/// paper's "highest identifier" convention. Every node sends its rank and
/// then its decision to each neighbour, so the run sends `4·|E|` messages.
pub fn rank_mis(graph: &CsrGraph, ranks: Option<&[u32]>) -> MisResult {
    let n = graph.node_count();
    if n == 0 {
        return MisResult::empty();
    }
    if let Some(r) = ranks {
        assert_eq!(r.len(), n, "one rank per node is required");
    }
    let rank = |v: usize| (ranks.map_or(v as u64, |r| u64::from(r[v])), v);
    let mut run = Run::new(graph);
    // Round 0: every node advertises its rank; decisions start next round.
    for v in 0..n {
        run.send(graph.degree(v));
    }
    run.end_round(0);
    // The highest undecided rank always joins, so every round decides a
    // node; an isolated node joins in round 1.
    let mut undecided: Vec<u32> = (0..n as u32).collect();
    let mut round = 0;
    while !undecided.is_empty() {
        round += 1;
        undecided.retain(|&v| {
            let v = v as usize;
            let status = if run.neighbour_joined(v, round) {
                Status::Blocked
            } else if graph
                .neighbor_ids(v)
                .iter()
                .any(|&u| run.undecided_at(u, round) && rank(u as usize) > rank(v))
            {
                return true;
            } else {
                Status::InMis
            };
            run.decide(v, status, round);
            false
        });
        run.end_round(round);
    }
    run.finish(round)
}

/// Luby's randomised distributed MIS. Each phase takes three rounds:
/// undecided nodes draw fresh random priorities and exchange them; local
/// maxima join and announce it; their neighbours block and announce that.
/// Terminates in `O(log n)` phases with high probability.
///
/// Each node draws from a generator seeded by `seed` and its identifier,
/// and equal priorities are broken by identifier. With `ids = None` the
/// identifier is the node index; a caller running the protocol on
/// renumbered nodes passes their original identifiers and gets the same
/// set, renumbered.
pub fn luby_mis(graph: &CsrGraph, seed: u64, ids: Option<&[u32]>) -> MisResult {
    let n = graph.node_count();
    if n == 0 {
        return MisResult::empty();
    }
    if let Some(ids) = ids {
        assert_eq!(ids.len(), n, "one identifier per node is required");
    }
    let id = |v: usize| ids.map_or(v as u64, |ids| u64::from(ids[v]));
    let max_rounds = 12 * (crate::log2_ceil(n) as usize + 2) * 3 + 64;
    let mut run = Run::new(graph);
    // An isolated node has nobody to outbid and joins in round 0; only the
    // others need a generator.
    let mut undecided: Vec<(u32, ChaCha8Rng)> = Vec::new();
    for v in 0..n {
        if graph.degree(v) == 0 {
            run.decide(v, Status::InMis, 0);
        } else {
            let rng = ChaCha8Rng::seed_from_u64(seed ^ id(v).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            undecided.push((v as u32, rng));
        }
    }
    let mut priority = vec![0u64; n];
    let mut round = 0;
    loop {
        match round % 3 {
            // Draw a fresh priority and send it to every undecided
            // neighbour; a node without one joins.
            0 => undecided.retain_mut(|(v, rng)| {
                let v = *v as usize;
                let targets = graph
                    .neighbor_ids(v)
                    .iter()
                    .filter(|&&u| run.undecided_at(u, round))
                    .count();
                if targets == 0 {
                    run.decide(v, Status::InMis, round);
                    return false;
                }
                priority[v] = rng.gen();
                run.send(targets);
                true
            }),
            // Block next to a join; join if no undecided neighbour drew a
            // higher priority (ties broken by identifier).
            1 => undecided.retain(|&(v, _)| {
                let v = v as usize;
                let status = if run.neighbour_joined(v, round) {
                    Status::Blocked
                } else if graph.neighbor_ids(v).iter().any(|&u| {
                    run.undecided_at(u, round)
                        && (priority[u as usize], id(u as usize)) > (priority[v], id(v))
                }) {
                    return true;
                } else {
                    Status::InMis
                };
                run.decide(v, status, round);
                false
            }),
            // Block next to a join.
            _ => undecided.retain(|&(v, _)| {
                let v = v as usize;
                if run.neighbour_joined(v, round) {
                    run.decide(v, Status::Blocked, round);
                    return false;
                }
                true
            }),
        }
        run.end_round(round);
        round += 1;
        if undecided.is_empty() || round >= max_rounds {
            break;
        }
    }
    run.stats.rounds = run.stats.rounds.min(max_rounds);
    let phases = run.last / 3 + 1;
    run.finish(phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use tc_graph::mis::is_maximal_independent_set;
    use tc_graph::Edge;

    /// The unit-weight graph on `n` nodes with the given edges.
    fn graph(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> CsrGraph {
        CsrGraph::from_edges(n, edges.into_iter().map(|(u, v)| Edge::new(u, v, 1.0)))
    }

    fn random_graph(seed: u64, n: usize, p: f64) -> CsrGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        graph(n, edges)
    }

    #[test]
    fn rank_mis_on_a_path_is_valid() {
        let g = graph(6, (0..5).map(|i| (i, i + 1)));
        let result = rank_mis(&g, None);
        assert!(is_maximal_independent_set(&g, &result.mis));
        assert!(result.stats.rounds > 0);
        assert!(result.stats.messages > 0);
    }

    #[test]
    fn rank_mis_with_identifier_ranks_prefers_high_ids() {
        let g = graph(3, [(0, 1), (1, 2)]);
        let result = rank_mis(&g, None);
        // Node 2 has the highest id and must be chosen; node 0 is then free.
        assert_eq!(result.mis, vec![0, 2]);
    }

    #[test]
    fn rank_mis_with_custom_ranks() {
        let g = graph(3, [(0, 1), (1, 2)]);
        let result = rank_mis(&g, Some(&[1, 10, 1]));
        assert_eq!(result.mis, vec![1]);
        assert!(is_maximal_independent_set(&g, &result.mis));
    }

    #[test]
    fn rank_mis_on_empty_and_edgeless_graphs() {
        let empty = CsrGraph::new(0);
        assert!(rank_mis(&empty, None).mis.is_empty());
        let edgeless = CsrGraph::new(4);
        let result = rank_mis(&edgeless, None);
        assert_eq!(result.mis, vec![0, 1, 2, 3]);
        // Round 0 advertises, every isolated node joins in round 1, and
        // no message is in flight after it.
        assert_eq!((result.stats.rounds, result.phases), (2, 1));
    }

    #[test]
    fn luby_mis_on_a_clique_picks_exactly_one() {
        let g = graph(8, (0..8).flat_map(|u| ((u + 1)..8).map(move |v| (u, v))));
        let result = luby_mis(&g, 99, None);
        assert_eq!(result.mis.len(), 1);
        assert!(is_maximal_independent_set(&g, &result.mis));
        assert!(result.phases >= 1);
    }

    #[test]
    fn luby_mis_on_empty_and_edgeless_graphs() {
        let g = CsrGraph::new(0);
        let result = luby_mis(&g, 1, None);
        assert!(result.mis.is_empty());
        assert_eq!(result.stats.rounds, 0);
        // Every isolated node joins in round 0.
        let edgeless = CsrGraph::new(4);
        let result = luby_mis(&edgeless, 1, None);
        assert_eq!(result.mis, vec![0, 1, 2, 3]);
        assert_eq!((result.stats.rounds, result.phases), (1, 1));
    }

    #[test]
    fn luby_phase_count_is_logarithmic_on_random_graphs() {
        let g = random_graph(5, 200, 0.05);
        let result = luby_mis(&g, 5, None);
        assert!(is_maximal_independent_set(&g, &result.mis));
        // log2(200) ~ 7.6; allow a generous constant.
        assert!(
            result.phases <= 40,
            "Luby used unexpectedly many phases: {}",
            result.phases
        );
    }

    #[test]
    #[should_panic(expected = "one rank per node")]
    fn rank_mis_requires_matching_rank_count() {
        let g = random_graph(1, 4, 0.5);
        let _ = rank_mis(&g, Some(&[1, 2]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn both_protocols_always_produce_maximal_independent_sets(
            seed in 0u64..300,
            n in 1usize..40,
            p in 0.0f64..0.6,
        ) {
            let g = random_graph(seed, n, p);
            let r = rank_mis(&g, None);
            prop_assert!(is_maximal_independent_set(&g, &r.mis));
            // Every node sends its rank and then its decision once per edge
            // end.
            prop_assert_eq!(r.stats.messages, 4 * g.edge_count());
            let l = luby_mis(&g, seed, None);
            prop_assert!(is_maximal_independent_set(&g, &l.mis));
        }
    }
}
