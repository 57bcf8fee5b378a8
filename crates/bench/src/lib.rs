//! # tc-bench
//!
//! The experiment harness of the reproduction.
//!
//! The paper is a theory paper: it has no measured tables, and its figures
//! are proof illustrations. The "evaluation" is therefore the set of
//! claims (Theorems 10, 11, 13 and the round bound), each of which this
//! harness turns into a measurable experiment (see DESIGN.md §3 for the
//! experiment ↔ module index and EXPERIMENTS.md for recorded results):
//!
//! | id | claim | function |
//! |----|-------|----------|
//! | E1 | stretch ≤ 1+ε (Thm 10) | [`experiments::e1_stretch`] |
//! | E2 | Δ(G') = O(1) (Thm 11) | [`experiments::e2_degree`] |
//! | E3 | w(G') = O(w(MST)) (Thm 13) | [`experiments::e3_weight`] |
//! | E4 | O(log n · log* n) rounds | [`experiments::e4_rounds`] |
//! | E5 | comparison vs. classical topologies (§1.3) | [`experiments::e5_baselines`] |
//! | E6 | α-UBG generality (§1.1) | [`experiments::e6_alpha`] |
//! | E7 | energy spanners / power cost (§1.6, ext. 2–3) | [`experiments::e7_energy`] |
//! | E8 | fault tolerance (§1.6, ext. 1) | [`experiments::e8_fault_tolerance`] |
//! | E9 | ablation of the algorithm's mechanisms (DESIGN.md §3) | [`experiments::e9_ablation`] |
//! | F1 | per-edge stretch distribution (figure-style series) | [`experiments::f1_stretch_cdf`] |
//! | F2 | rounds vs. n curve (figure-style series) | [`experiments::f2_rounds_series`] |
//!
//! `cargo run -p tc-bench --release --bin experiments` regenerates every
//! table, and `cargo run -p tc-bench --release --bin scale` builds and
//! verifies spanners at 10^5–10^6 nodes. Speed is measured by the
//! repository benchmark in `perfbench/`.
//!
//! The cells of each parallel table run on
//! [`tc_graph::par::par_map_with`] (the scheduler started life in this
//! crate); the `TC_THREADS` environment variable pins the worker count,
//! which otherwise is the number of available cores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod workloads;
