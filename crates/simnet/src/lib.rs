//! # tc-simnet
//!
//! Round-synchronous distributed MIS protocols and round accounting for
//! the distributed algorithm of *Local Approximation Schemes for Topology
//! Control* (PODC 2006).
//!
//! The paper's communication model (Section 1.1): time is divided into
//! rounds; in each round every node may send a different message to each
//! neighbour, receive the messages of all neighbours, and perform
//! arbitrary polynomial local computation; messages carry `O(log n)` bits.
//! The cost of an algorithm is the number of rounds.
//!
//! This crate provides
//!
//! * [`mis`] — distributed maximal-independent-set protocols
//!   (rank-greedy and Luby), run round by round in that model with every
//!   round and message counted ([`CommStats`]). The paper invokes the
//!   Kuhn–Moscibroda–Wattenhofer `O(log* n)` MIS as a black box; these
//!   protocols are the stand-ins (the [`mis`] module doc says why), and
//!   their measured rounds are what the round-complexity experiment
//!   reports,
//! * [`RoundLedger`] — the accounting object the higher-level distributed
//!   spanner uses to charge its primitives (k-hop information gathering,
//!   MIS invocations) at the paper's advertised costs,
//! * [`log_star`] / [`log2_ceil`] — the asymptotic yardsticks
//!   (`log n`, `log* n`) the experiments normalise against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mis;
#[cfg(test)]
mod network;
mod stats;

pub use stats::{CommStats, RoundLedger};

/// The iterated logarithm `log*`: the number of times `log2` must be
/// applied to `n` before the value drops to at most 1.
///
/// ```
/// assert_eq!(tc_simnet::log_star(1), 0);
/// assert_eq!(tc_simnet::log_star(2), 1);
/// assert_eq!(tc_simnet::log_star(16), 3);
/// assert_eq!(tc_simnet::log_star(65536), 4);
/// ```
pub fn log_star(n: usize) -> u32 {
    let mut x = n as f64;
    let mut iterations = 0;
    while x > 1.0 {
        x = x.log2();
        iterations += 1;
        if iterations > 10 {
            break;
        }
    }
    iterations
}

/// `⌈log2(n)⌉` with the convention that values below 2 map to 1; used to
/// normalise round counts by the paper's `O(log n · log* n)` bound without
/// dividing by zero on tiny instances.
pub fn log2_ceil(n: usize) -> f64 {
    (n.max(2) as f64).log2().ceil()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(0), 0);
        assert_eq!(log_star(1), 0);
        assert_eq!(log_star(2), 1);
        assert_eq!(log_star(4), 2);
        assert_eq!(log_star(16), 3);
        assert_eq!(log_star(65536), 4);
        assert_eq!(log_star(usize::MAX), 5);
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 1.0);
        assert_eq!(log2_ceil(1), 1.0);
        assert_eq!(log2_ceil(2), 1.0);
        assert_eq!(log2_ceil(5), 3.0);
        assert_eq!(log2_ceil(1024), 10.0);
    }
}
