//! Distributed maximal independent set protocols.
//!
//! The paper invokes the Kuhn–Moscibroda–Wattenhofer MIS algorithm, which
//! runs in `O(log* n)` rounds on unit ball graphs of constant doubling
//! dimension, as a black box (Sections 3.2.1 and 3.2.5). Reimplementing
//! KMW faithfully is outside the scope of this reproduction (DESIGN.md,
//! substitution 2); instead two standard distributed MIS protocols are
//! provided, both expressed as genuine synchronous message-passing
//! programs on [`SyncNetwork`] so their round and message costs are
//! *measured*, not assumed:
//!
//! * [`rank_mis`] — the deterministic "highest rank joins" protocol, with
//!   node identifiers as ranks (this mirrors the paper's "attach to the
//!   neighbour in the MIS with the highest identifier" tie-breaking),
//! * [`luby_mis`] — Luby's randomised protocol, re-randomising priorities
//!   every phase; terminates in `O(log n)` phases with high probability.
//!
//! Both return the measured [`CommStats`] so the round-complexity
//! experiment can report the spanner's total rounds with the MIS cost
//! either included or normalised out.

use crate::{CommStats, StepResult, SyncNetwork};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use tc_graph::{NodeId, WeightedGraph};

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Undecided,
    InMis,
    Blocked,
}

#[derive(Debug, Clone)]
struct RankState {
    rank: (u64, NodeId),
    status: Status,
    undecided: Vec<(NodeId, (u64, NodeId))>,
    decided_round: usize,
}

#[derive(Debug, Clone)]
enum RankMsg {
    Rank((u64, NodeId)),
    Joined,
    Blocked,
}

/// Deterministic distributed MIS: in every round, each undecided node whose
/// rank is larger than the rank of every undecided neighbour joins the MIS;
/// its neighbours become blocked. Ranks are made distinct by breaking ties
/// with node identifiers.
///
/// With `ranks = None` the node identifier itself is the rank, matching the
/// paper's "highest identifier" convention.
pub fn rank_mis(graph: &WeightedGraph, ranks: Option<&[u32]>) -> MisResult {
    let n = graph.node_count();
    if n == 0 {
        return MisResult {
            mis: Vec::new(),
            stats: CommStats::default(),
            phases: 0,
        };
    }
    if let Some(r) = ranks {
        assert_eq!(r.len(), n, "one rank per node is required");
    }
    let init: Vec<RankState> = (0..n)
        .map(|v| RankState {
            rank: (ranks.map_or(v as u64, |r| u64::from(r[v])), v),
            status: Status::Undecided,
            undecided: Vec::new(),
            decided_round: 0,
        })
        .collect();
    let mut net = SyncNetwork::new(graph);
    let states = net.run(
        init,
        |round, _node, state: &mut RankState, inbox: &[(NodeId, RankMsg)], ctx| {
            // Absorb incoming information.
            let mut neighbour_joined = false;
            for (from, msg) in inbox {
                match msg {
                    RankMsg::Rank(r) => {
                        if !state.undecided.iter().any(|(v, _)| v == from) {
                            state.undecided.push((*from, *r));
                        }
                    }
                    RankMsg::Joined => {
                        neighbour_joined = true;
                        state.undecided.retain(|(v, _)| v != from);
                    }
                    RankMsg::Blocked => {
                        state.undecided.retain(|(v, _)| v != from);
                    }
                }
            }
            if state.status != Status::Undecided {
                return StepResult::idle().halt();
            }
            if round == 0 {
                // Advertise the rank; decisions start next round.
                return StepResult::broadcast(ctx.neighbors().to_vec(), RankMsg::Rank(state.rank));
            }
            if neighbour_joined {
                state.status = Status::Blocked;
                state.decided_round = round;
                return StepResult::broadcast(ctx.neighbors().to_vec(), RankMsg::Blocked).halt();
            }
            let dominated = state.undecided.iter().any(|&(_, r)| r > state.rank);
            if !dominated {
                state.status = Status::InMis;
                state.decided_round = round;
                StepResult::broadcast(ctx.neighbors().to_vec(), RankMsg::Joined).halt()
            } else {
                StepResult::idle()
            }
        },
        4 * n + 8,
    );
    let mis: Vec<NodeId> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.status == Status::InMis)
        .map(|(v, _)| v)
        .collect();
    let phases = states.iter().map(|s| s.decided_round).max().unwrap_or(0);
    MisResult {
        mis,
        stats: net.stats(),
        phases,
    }
}

#[derive(Debug, Clone)]
struct LubyState {
    status: Status,
    value: u64,
    undecided: HashSet<NodeId>,
    values_seen: Vec<(NodeId, u64)>,
    rng: ChaCha8Rng,
    phase_decided: usize,
}

#[derive(Debug, Clone)]
enum LubyMsg {
    Value(u64),
    Joined,
    Blocked,
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
pub fn luby_mis(graph: &WeightedGraph, seed: u64, ids: Option<&[u32]>) -> MisResult {
    let n = graph.node_count();
    if n == 0 {
        return MisResult {
            mis: Vec::new(),
            stats: CommStats::default(),
            phases: 0,
        };
    }
    if let Some(ids) = ids {
        assert_eq!(ids.len(), n, "one identifier per node is required");
    }
    let id = |v: NodeId| ids.map_or(v as u64, |ids| u64::from(ids[v]));
    let init: Vec<LubyState> = (0..n)
        .map(|v| LubyState {
            status: Status::Undecided,
            value: 0,
            undecided: graph.neighbors(v).iter().map(|&(u, _)| u).collect(),
            values_seen: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ id(v).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            phase_decided: 0,
        })
        .collect();
    let mut net = SyncNetwork::new(graph);
    let states = net.run(
        init,
        |round, node, state: &mut LubyState, inbox: &[(NodeId, LubyMsg)], ctx| {
            // Absorb status updates and priorities whenever they arrive.
            let mut neighbour_joined = false;
            for (from, msg) in inbox {
                match msg {
                    LubyMsg::Value(v) => state.values_seen.push((*from, *v)),
                    LubyMsg::Joined => {
                        neighbour_joined = true;
                        state.undecided.remove(from);
                    }
                    LubyMsg::Blocked => {
                        state.undecided.remove(from);
                    }
                }
            }
            if state.status != Status::Undecided {
                return StepResult::idle().halt();
            }
            let phase = round / 3;
            match round % 3 {
                0 => {
                    // Draw and advertise a fresh priority. Ties are broken
                    // by node id when comparing, so exact collisions are
                    // harmless.
                    state.value = state.rng.gen();
                    state.values_seen.clear();
                    let targets: Vec<NodeId> = ctx
                        .neighbors()
                        .iter()
                        .copied()
                        .filter(|v| state.undecided.contains(v))
                        .collect();
                    if targets.is_empty() {
                        // Isolated (or fully decided neighbourhood): join.
                        state.status = Status::InMis;
                        state.phase_decided = phase + 1;
                        return StepResult::broadcast(ctx.neighbors().to_vec(), LubyMsg::Joined)
                            .halt();
                    }
                    StepResult::broadcast(targets, LubyMsg::Value(state.value))
                }
                1 => {
                    if neighbour_joined {
                        state.status = Status::Blocked;
                        state.phase_decided = phase + 1;
                        return StepResult::broadcast(ctx.neighbors().to_vec(), LubyMsg::Blocked)
                            .halt();
                    }
                    let me = (state.value, id(node));
                    let dominated = state
                        .values_seen
                        .iter()
                        .any(|&(from, v)| state.undecided.contains(&from) && (v, id(from)) > me);
                    if !dominated {
                        state.status = Status::InMis;
                        state.phase_decided = phase + 1;
                        StepResult::broadcast(ctx.neighbors().to_vec(), LubyMsg::Joined).halt()
                    } else {
                        StepResult::idle()
                    }
                }
                _ => {
                    if neighbour_joined {
                        state.status = Status::Blocked;
                        state.phase_decided = phase + 1;
                        return StepResult::broadcast(ctx.neighbors().to_vec(), LubyMsg::Blocked)
                            .halt();
                    }
                    StepResult::idle()
                }
            }
        },
        12 * (crate::log2_ceil(n) as usize + 2) * 3 + 64,
    );
    let mis: Vec<NodeId> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.status == Status::InMis)
        .map(|(v, _)| v)
        .collect();
    let phases = states.iter().map(|s| s.phase_decided).max().unwrap_or(0);
    MisResult {
        mis,
        stats: net.stats(),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use tc_graph::mis::is_maximal_independent_set;

    fn random_graph(seed: u64, n: usize, p: f64) -> WeightedGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    g.add_edge(u, v, 1.0);
                }
            }
        }
        g
    }

    #[test]
    fn rank_mis_on_a_path_is_valid() {
        let mut g = WeightedGraph::new(6);
        for i in 0..5 {
            g.add_edge(i, i + 1, 1.0);
        }
        let result = rank_mis(&g, None);
        assert!(is_maximal_independent_set(&g, &result.mis));
        assert!(result.stats.rounds > 0);
        assert!(result.stats.messages > 0);
    }

    #[test]
    fn rank_mis_with_identifier_ranks_prefers_high_ids() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let result = rank_mis(&g, None);
        // Node 2 has the highest id and must be chosen; node 0 is then free.
        assert_eq!(result.mis, vec![0, 2]);
    }

    #[test]
    fn rank_mis_with_custom_ranks() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let result = rank_mis(&g, Some(&[1, 10, 1]));
        assert_eq!(result.mis, vec![1]);
        assert!(is_maximal_independent_set(&g, &result.mis));
    }

    #[test]
    fn rank_mis_on_empty_and_edgeless_graphs() {
        let empty = WeightedGraph::new(0);
        assert!(rank_mis(&empty, None).mis.is_empty());
        let edgeless = WeightedGraph::new(4);
        let result = rank_mis(&edgeless, None);
        assert_eq!(result.mis, vec![0, 1, 2, 3]);
    }

    #[test]
    fn luby_mis_on_a_clique_picks_exactly_one() {
        let mut g = WeightedGraph::new(8);
        for u in 0..8 {
            for v in (u + 1)..8 {
                g.add_edge(u, v, 1.0);
            }
        }
        let result = luby_mis(&g, 99, None);
        assert_eq!(result.mis.len(), 1);
        assert!(is_maximal_independent_set(&g, &result.mis));
        assert!(result.phases >= 1);
    }

    #[test]
    fn luby_mis_on_empty_graph() {
        let g = WeightedGraph::new(0);
        let result = luby_mis(&g, 1, None);
        assert!(result.mis.is_empty());
        assert_eq!(result.stats.rounds, 0);
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
            let l = luby_mis(&g, seed, None);
            prop_assert!(is_maximal_independent_set(&g, &l.mis));
        }
    }
}
