//! # tc-graph
//!
//! Weighted-graph substrate for the topology-control reproduction of
//! *Local Approximation Schemes for Topology Control* (PODC 2006).
//!
//! The spanner algorithms in `tc-spanner` operate on edge-weighted
//! undirected graphs: the input α-UBG, the partial spanners `G'_i`, the
//! Das–Narasimhan cluster graphs `H_{i-1}` and the derived conflict graphs
//! whose maximal independent sets drive clustering and redundant-edge
//! removal. This crate provides that machinery from scratch:
//!
//! * [`WeightedGraph`] — an adjacency-list, undirected, edge-weighted graph
//!   (the mutable *builder* representation),
//! * [`CsrGraph`] — the same graph frozen into a flat compressed-sparse-row
//!   layout (`u32` indices, sorted cache-linear neighbor slices) for the
//!   read-only hot paths; see `docs/PERFORMANCE.md`,
//! * [`GraphView`] — the read-only trait both representations implement,
//!   which every traversal below is generic over,
//! * [`dijkstra`] — single-source shortest paths, with the bounded-radius
//!   and early-exit variants the algorithm needs (cluster covers of radius
//!   `δ·W_{i-1}`, spanner-path queries `sp(u,v) ≤ t·|uv|`),
//! * [`bucket`] — the bucket-queue (delta-stepping-style) fast path for the
//!   same query shapes, with reusable per-worker scratch; distances are
//!   bitwise identical to the [`dijkstra`] oracle,
//! * [`par`] — the work-sharing scheduler for embarrassingly parallel
//!   sweeps (deterministic output order, `TC_THREADS` override),
//! * [`bfs`] — hop-distance searches and k-hop neighbourhoods (the
//!   distributed algorithm gathers information from `O(1)` hops),
//! * [`components`] / [`UnionFind`] — connected components (processing of
//!   the short-edge bin `E_0` works per component),
//! * [`mst`] — Kruskal minimum spanning trees, the yardstick for the weight
//!   guarantee `w(G') = O(w(MST(G)))` of Theorem 13,
//! * [`NodeOrder`] — the breadth-first renumbering the construction and
//!   the verifier run on, so neighbouring nodes sit close in memory,
//! * [`mis`] — sequential maximal independent sets (the reference the
//!   distributed MIS in `tc-simnet` is validated against),
//! * [`properties`] — measurement of stretch factor, degree statistics and
//!   weight ratios used by the verification layer and the experiments.
//!
//! # Example
//!
//! ```
//! use tc_graph::{WeightedGraph, dijkstra};
//!
//! let mut g = WeightedGraph::new(4);
//! g.add_edge(0, 1, 1.0);
//! g.add_edge(1, 2, 2.0);
//! g.add_edge(0, 3, 10.0);
//! let dist = dijkstra::shortest_path_distances(&g, 0);
//! assert_eq!(dist[2], Some(3.0));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bfs;
pub mod bucket;
pub mod components;
mod contraction;
mod csr;
pub mod dijkstra;
mod edge;
mod graph;
pub mod mis;
pub mod mst;
mod order;
mod ordered;
pub mod par;
pub mod properties;
mod union_find;
mod view;

pub use contraction::Contraction;
pub use csr::CsrGraph;
pub use edge::Edge;
pub use graph::{GraphError, WeightedGraph};
pub use order::NodeOrder;
pub use ordered::{cmp_f64, OrdF64};
pub use union_find::UnionFind;
pub use view::GraphView;

/// Node identifier: an index into the graph's vertex set `0..n`.
pub type NodeId = usize;
