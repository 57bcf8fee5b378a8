//@path: crates/fake/src/lib.rs
use tc_graph::{properties, CsrGraph, WeightedGraph};

pub fn measured_stretch(base: &WeightedGraph, spanner: &WeightedGraph) -> f64 {
    properties::stretch_factor(&CsrGraph::from(base), &CsrGraph::from(spanner))
}

pub fn read(x: Option<u32>) -> u32 {
    x.map_or(0, |v| v)
}
