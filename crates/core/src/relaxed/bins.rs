//! Weight bins `E_0, E_1, …, E_m` (Section 2 of the paper).
//!
//! Let `W_i = r^i · α/n`. Bin 0 holds the edges of weight in
//! `I_0 = (0, α/n]` (plus any zero-weight edges between coincident
//! points); bin `i ≥ 1` holds the edges with weight in
//! `I_i = (W_{i-1}, W_i]`. The relaxed greedy algorithm processes one bin
//! per phase, in increasing order, and never needs an edge ordering inside
//! a bin — that relaxation is what makes the distributed version possible.

use tc_graph::{Edge, NodeOrder, WeightedGraph};

/// The partition of a graph's edges into weight bins.
///
/// The edges live in one exactly sized array, bin after bin, each bin
/// sorted; `offsets[i]..offsets[i + 1]` is bin `i`.
#[derive(Debug, Clone)]
pub struct BinPartition {
    w0: f64,
    r: f64,
    edges: Vec<Edge>,
    offsets: Vec<usize>,
}

impl BinPartition {
    /// Partitions the edges of `graph` into bins with bin-0 threshold `w0`
    /// (the paper's `α/n`, expressed in the active weight units) and
    /// growth factor `r > 1`.
    ///
    /// A counting pass over the edges' bin indices sizes every bin, a
    /// second pass fills them, and each bin is then sorted, so no storage
    /// is grown by pushing.
    ///
    /// # Panics
    ///
    /// Panics if `w0 <= 0` or `r <= 1`.
    pub fn new(graph: &WeightedGraph, w0: f64, r: f64) -> Self {
        Self::build(graph, w0, r, |edge| edge)
    }

    /// [`BinPartition::new`] for a phase loop that runs on the positions
    /// of `order`: the bins hold the same edges in the same order, each
    /// renumbered to positions after its bin is sorted, so the edges keep
    /// the order of `Edge`'s `Ord` on the original IDs and their original
    /// orientation (the endpoint with the lower original ID first).
    pub(crate) fn in_order(graph: &WeightedGraph, w0: f64, r: f64, order: &NodeOrder) -> Self {
        Self::build(graph, w0, r, |edge| order.edge_to_positions(edge))
    }

    fn build(graph: &WeightedGraph, w0: f64, r: f64, relabel: impl Fn(Edge) -> Edge) -> Self {
        assert!(w0 > 0.0, "the bin-0 threshold must be positive");
        assert!(r > 1.0, "the bin growth factor must exceed 1");
        let mut partition = Self {
            w0,
            r,
            edges: Vec::new(),
            offsets: Vec::new(),
        };
        // The bin of every edge, in `graph.edges()` order, from a table
        // of the thresholds `upper(i)` built once: the same index
        // `bin_index` computes, without its two `powi` per edge.
        let max_weight = graph.edges().map(|edge| edge.weight).fold(0.0, f64::max);
        let table = partition.thresholds(max_weight);
        let bin_of: Vec<u32> = graph
            .edges()
            .map(|edge| partition.table_index(&table, edge.weight) as u32)
            .collect();
        let mut counts = vec![0usize];
        for &idx in &bin_of {
            let idx = idx as usize;
            if idx >= counts.len() {
                counts.resize(idx + 1, 0);
            }
            counts[idx] += 1;
        }
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut total = 0;
        offsets.push(total);
        for count in counts {
            total += count;
            offsets.push(total);
        }
        let mut next = offsets.clone();
        let placeholder = Edge {
            u: 0,
            v: 0,
            weight: 0.0,
        };
        let mut edges = vec![placeholder; total];
        for (edge, &idx) in graph.edges().zip(&bin_of) {
            let idx = idx as usize;
            edges[next[idx]] = edge;
            next[idx] += 1;
        }
        // `graph.edges()` is deterministic (adjacency insertion order),
        // but every downstream consumer (greedy processing, ablation
        // variants) expects the canonical by-weight sequence; sorting here
        // also keeps bin contents independent of construction history.
        for bin in offsets.windows(2) {
            let bin = &mut edges[bin[0]..bin[1]];
            bin.sort();
            for edge in bin {
                *edge = relabel(*edge);
            }
        }
        partition.edges = edges;
        partition.offsets = offsets;
        partition
    }

    /// The index of the bin an edge of the given weight belongs to.
    pub fn bin_index(&self, weight: f64) -> usize {
        self.index_with(weight, |i| self.upper(i))
    }

    /// The thresholds `upper(0..)` far enough to index every weight up to
    /// `max_weight` without leaving the table.
    fn thresholds(&self, max_weight: f64) -> Vec<f64> {
        let last = self.bin_index(max_weight) + 2;
        (0..=last).map(|i| self.upper(i)).collect()
    }

    /// [`Self::bin_index`] with the thresholds read from `table` (and
    /// computed past its end), so the index is the same bit for bit.
    fn table_index(&self, table: &[f64], weight: f64) -> usize {
        self.index_with(weight, |i| {
            table.get(i).copied().unwrap_or_else(|| self.upper(i))
        })
    }

    /// Smallest `i ≥ 1` with `upper(i) ≥ weight` (0 for `weight ≤ w0`),
    /// from a logarithm estimate corrected in both directions against
    /// the thresholds `upper` returns.
    fn index_with(&self, weight: f64, upper: impl Fn(usize) -> f64) -> usize {
        if weight <= self.w0 {
            return 0;
        }
        let raw = (weight / self.w0).ln() / self.r.ln();
        let mut i = raw.ceil() as usize;
        // Guard against floating-point boundary errors in both directions.
        while i > 1 && upper(i - 1) >= weight {
            i -= 1;
        }
        while upper(i) < weight {
            i += 1;
        }
        i
    }

    /// Number of bins (indices `0..num_bins()`); at least 1.
    pub fn num_bins(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The edges of bin `i` (empty slice if `i` is out of range).
    pub fn bin(&self, i: usize) -> &[Edge] {
        if i < self.num_bins() {
            &self.edges[self.offsets[i]..self.offsets[i + 1]]
        } else {
            &[]
        }
    }

    /// Upper weight threshold `W_i` of bin `i` (`W_0 = α/n`).
    pub fn upper(&self, i: usize) -> f64 {
        self.w0 * self.r.powi(i as i32)
    }

    /// Lower weight threshold of bin `i` (`0` for bin 0, `W_{i-1}` else).
    pub fn lower(&self, i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            self.upper(i - 1)
        }
    }

    /// Indices of the non-empty bins, ascending. The algorithm only spends
    /// phases on these.
    pub fn non_empty_bins(&self) -> Vec<usize> {
        (0..self.num_bins())
            .filter(|&i| self.offsets[i] < self.offsets[i + 1])
            .collect()
    }

    /// Total number of edges across all bins.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn graph_with_weights(weights: &[f64]) -> WeightedGraph {
        let mut g = WeightedGraph::new(weights.len() + 1);
        for (i, &w) in weights.iter().enumerate() {
            g.add_edge(i, i + 1, w);
        }
        g
    }

    #[test]
    fn edges_fall_into_the_right_intervals() {
        let g = graph_with_weights(&[0.005, 0.02, 0.04, 0.09, 0.5]);
        let bins = BinPartition::new(&g, 0.01, 2.0);
        // thresholds: W_0 = 0.01, W_1 = 0.02, W_2 = 0.04, W_3 = 0.08, ...
        assert_eq!(bins.bin_index(0.005), 0);
        assert_eq!(bins.bin_index(0.01), 0);
        assert_eq!(bins.bin_index(0.02), 1);
        assert_eq!(bins.bin_index(0.021), 2);
        assert_eq!(bins.bin_index(0.04), 2);
        assert_eq!(bins.bin_index(0.09), 4);
        assert_eq!(bins.bin(0).len(), 1);
        assert_eq!(bins.bin(1).len(), 1);
        assert_eq!(bins.bin(2).len(), 1);
        assert_eq!(bins.edge_count(), 5);
    }

    #[test]
    fn thresholds_grow_geometrically() {
        let g = graph_with_weights(&[0.5]);
        let bins = BinPartition::new(&g, 0.1, 1.5);
        assert!((bins.upper(0) - 0.1).abs() < 1e-12);
        assert!((bins.upper(1) - 0.15).abs() < 1e-12);
        assert!((bins.upper(3) - 0.3375).abs() < 1e-12);
        assert_eq!(bins.lower(0), 0.0);
        assert!((bins.lower(2) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn non_empty_bins_are_reported_in_order() {
        let g = graph_with_weights(&[0.005, 0.5, 0.51]);
        let bins = BinPartition::new(&g, 0.01, 2.0);
        let non_empty = bins.non_empty_bins();
        assert_eq!(non_empty[0], 0);
        assert!(non_empty.len() >= 2);
        assert!(non_empty.windows(2).all(|w| w[0] < w[1]));
        for &i in &non_empty {
            assert!(!bins.bin(i).is_empty());
        }
    }

    #[test]
    fn out_of_range_bin_is_empty() {
        let g = graph_with_weights(&[0.005]);
        let bins = BinPartition::new(&g, 0.01, 2.0);
        assert!(bins.bin(10).is_empty());
        assert_eq!(bins.num_bins(), 1);
    }

    #[test]
    fn zero_weight_edges_go_to_bin_zero() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 1, 0.0);
        let bins = BinPartition::new(&g, 0.01, 2.0);
        assert_eq!(bins.bin(0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn growth_factor_must_exceed_one() {
        let g = graph_with_weights(&[0.5]);
        let _ = BinPartition::new(&g, 0.01, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn threshold_must_be_positive() {
        let g = graph_with_weights(&[0.5]);
        let _ = BinPartition::new(&g, 0.0, 2.0);
    }

    /// The push-grown partition: one `Vec` per bin, grown edge by edge in
    /// `graph.edges()` order, each bin sorted afterwards.
    fn push_grown_bins(graph: &WeightedGraph, partition: &BinPartition) -> Vec<Vec<Edge>> {
        let mut bins: Vec<Vec<Edge>> = vec![Vec::new()];
        for edge in graph.edges() {
            let idx = partition.bin_index(edge.weight);
            if idx >= bins.len() {
                bins.resize(idx + 1, Vec::new());
            }
            bins[idx].push(edge);
        }
        for bin in &mut bins {
            bin.sort();
        }
        bins
    }

    fn edge_bits(edges: &[Edge]) -> Vec<(usize, usize, u64)> {
        edges
            .iter()
            .map(|e| (e.u, e.v, e.weight.to_bits()))
            .collect()
    }

    proptest! {
        /// The exact-size bins hold the same edges, in the same order, as
        /// the push-grown reference — on random graphs with repeated and
        /// zero weights, whatever order the edges were inserted in.
        #[test]
        fn exact_size_bins_match_the_push_grown_reference(
            seed in 0u64..1_000,
            n in 2usize..30,
            p in 0.05f64..0.6,
            w0 in 1e-3f64..0.1,
            r in 1.05f64..3.0,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = WeightedGraph::new(n);
            for u in (0..n).rev() {
                for v in 0..u {
                    if rng.gen_bool(p) {
                        let w = match rng.gen_range(0..4) {
                            0 => 0.0,
                            1 => 0.25,
                            _ => rng.gen_range(0.0..1.0),
                        };
                        g.add_edge(u, v, w);
                    }
                }
            }
            let bins = BinPartition::new(&g, w0, r);
            let reference = push_grown_bins(&g, &bins);
            prop_assert_eq!(bins.num_bins(), reference.len());
            prop_assert_eq!(bins.edge_count(), g.edge_count());
            for (i, expected) in reference.iter().enumerate() {
                prop_assert_eq!(edge_bits(bins.bin(i)), edge_bits(expected));
            }
            let non_empty: Vec<usize> = (0..reference.len())
                .filter(|&i| !reference[i].is_empty())
                .collect();
            prop_assert_eq!(bins.non_empty_bins(), non_empty);
            prop_assert!(bins.bin(reference.len()).is_empty());
        }

        /// The threshold table indexes every weight exactly as the
        /// `bin_index` formula does: random weights, and weights at each
        /// threshold and one ulp on either side of it.
        #[test]
        fn the_threshold_table_matches_the_bin_index_formula(
            weights in proptest::collection::vec(0.0f64..2.0, 1..40),
            w0 in 1e-4f64..0.1,
            r in 1.001f64..3.0,
        ) {
            let g = graph_with_weights(&weights);
            let bins = BinPartition::new(&g, w0, r);
            let max_weight = weights.iter().copied().fold(0.0, f64::max);
            let table = bins.thresholds(max_weight);
            let mut probes = weights.clone();
            for i in 0..table.len() + 2 {
                let at = bins.upper(i);
                probes.extend([at, f64::from_bits(at.to_bits() - 1), f64::from_bits(at.to_bits() + 1)]);
            }
            for w in probes {
                prop_assert_eq!(bins.table_index(&table, w), bins.bin_index(w), "weight {}", w);
            }
        }

        #[test]
        fn every_weight_lands_in_its_interval(
            w in 1e-6f64..1.0,
            w0 in 1e-4f64..0.1,
            r in 1.001f64..3.0,
        ) {
            let mut g = WeightedGraph::new(2);
            g.add_edge(0, 1, w);
            let bins = BinPartition::new(&g, w0, r);
            let i = bins.bin_index(w);
            prop_assert!(w <= bins.upper(i) + 1e-15);
            prop_assert!(w > bins.lower(i) - 1e-15 || i == 0);
        }

        #[test]
        fn bins_partition_all_edges(weights in proptest::collection::vec(1e-4f64..1.0, 1..40)) {
            let g = graph_with_weights(&weights);
            let bins = BinPartition::new(&g, 0.01, 1.3);
            prop_assert_eq!(bins.edge_count(), weights.len());
            let mut seen = 0;
            for i in 0..bins.num_bins() {
                for e in bins.bin(i) {
                    prop_assert!(e.weight <= bins.upper(i) + 1e-12);
                    if i > 0 {
                        prop_assert!(e.weight > bins.lower(i) - 1e-12);
                    }
                    seen += 1;
                }
            }
            prop_assert_eq!(seen, weights.len());
        }
    }
}
