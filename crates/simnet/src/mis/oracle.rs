//! The reference the round loops of [`super`] are tested against: both
//! protocols as message-passing closures on the synchronous executor
//! ([`SyncNetwork`]), which hands every node the messages its neighbours
//! sent in the previous round and counts rounds and messages as it
//! delivers them.

use super::{MisResult, Status};
use crate::network::{StepResult, SyncNetwork};
use crate::CommStats;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use tc_graph::{CsrGraph, NodeId};

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

/// [`super::rank_mis`] as message-passing closures on [`SyncNetwork`].
pub fn rank_mis(graph: &CsrGraph, ranks: Option<&[u32]>) -> MisResult {
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
                return StepResult::broadcast(ctx.neighbors(), RankMsg::Rank(state.rank));
            }
            if neighbour_joined {
                state.status = Status::Blocked;
                state.decided_round = round;
                return StepResult::broadcast(ctx.neighbors(), RankMsg::Blocked).halt();
            }
            let dominated = state.undecided.iter().any(|&(_, r)| r > state.rank);
            if !dominated {
                state.status = Status::InMis;
                state.decided_round = round;
                StepResult::broadcast(ctx.neighbors(), RankMsg::Joined).halt()
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

/// [`super::luby_mis`] as message-passing closures on [`SyncNetwork`].
pub fn luby_mis(graph: &CsrGraph, seed: u64, ids: Option<&[u32]>) -> MisResult {
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
            undecided: graph.neighbor_ids(v).iter().map(|&u| u as NodeId).collect(),
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
                    let targets: Vec<u32> = ctx
                        .neighbors()
                        .iter()
                        .copied()
                        .filter(|&v| state.undecided.contains(&(v as NodeId)))
                        .collect();
                    if targets.is_empty() {
                        // Isolated (or fully decided neighbourhood): join.
                        state.status = Status::InMis;
                        state.phase_decided = phase + 1;
                        return StepResult::broadcast(ctx.neighbors(), LubyMsg::Joined).halt();
                    }
                    StepResult::broadcast(&targets, LubyMsg::Value(state.value))
                }
                1 => {
                    if neighbour_joined {
                        state.status = Status::Blocked;
                        state.phase_decided = phase + 1;
                        return StepResult::broadcast(ctx.neighbors(), LubyMsg::Blocked).halt();
                    }
                    let me = (state.value, id(node));
                    let dominated = state
                        .values_seen
                        .iter()
                        .any(|&(from, v)| state.undecided.contains(&from) && (v, id(from)) > me);
                    if !dominated {
                        state.status = Status::InMis;
                        state.phase_decided = phase + 1;
                        StepResult::broadcast(ctx.neighbors(), LubyMsg::Joined).halt()
                    } else {
                        StepResult::idle()
                    }
                }
                _ => {
                    if neighbour_joined {
                        state.status = Status::Blocked;
                        state.phase_decided = phase + 1;
                        return StepResult::broadcast(ctx.neighbors(), LubyMsg::Blocked).halt();
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
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use tc_graph::{CsrGraph, Edge};

    /// A random graph on `n` nodes whose first `isolated` nodes have no
    /// edge; the others are joined with probability `p`.
    fn random_graph(seed: u64, n: usize, isolated: usize, p: f64) -> CsrGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in isolated..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    edges.push(Edge::new(u, v, 1.0));
                }
            }
        }
        CsrGraph::from_edges(n, edges)
    }

    /// A seeded permutation of `0..n`.
    fn permutation(seed: u64, n: usize) -> Vec<u32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        ids
    }

    fn assert_same(label: &str, run: super::MisResult, reference: super::MisResult) {
        assert_eq!(
            (run.mis, run.stats, run.phases),
            (reference.mis, reference.stats, reference.phases),
            "{label}: the round loop and the executor disagree"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Both round loops return the executor's set, rounds, messages,
        /// busiest node-round and phases: with identifier ranks, with
        /// ranks full of duplicates, with permuted identifiers, and for
        /// several Luby seeds.
        #[test]
        fn the_round_loops_count_what_the_executor_counts(
            seed in 0u64..10_000,
            n in 1usize..48,
            isolated_share in 0.0f64..0.8,
            p in 0.0f64..0.5,
        ) {
            let isolated = (n as f64 * isolated_share) as usize;
            let g = random_graph(seed, n, isolated, p);
            let ids = permutation(seed ^ 0x5eed, n);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xd0b1e);
            let duplicates: Vec<u32> = (0..n).map(|_| rng.gen_range(0..4u32)).collect();
            for ranks in [None, Some(&duplicates[..]), Some(&ids[..])] {
                assert_same(
                    "rank",
                    super::super::rank_mis(&g, ranks),
                    super::rank_mis(&g, ranks),
                );
            }
            for luby_seed in [seed, seed.wrapping_mul(31) + 7, 1] {
                for luby_ids in [None, Some(&ids[..])] {
                    assert_same(
                        "luby",
                        super::super::luby_mis(&g, luby_seed, luby_ids),
                        super::luby_mis(&g, luby_seed, luby_ids),
                    );
                }
            }
        }
    }
}
