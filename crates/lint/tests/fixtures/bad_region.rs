//@path: crates/bench/src/fake_region.rs
//! Seeds scheduler-discipline violations inside parallel-region closures:
//! a write to a captured binding in the region body, and one inside a
//! claimed step.

use tc_graph::par::{region, ClaimQueue};

pub fn racy_region(items: &[f64]) -> f64 {
    let mut scratch = vec![(); 2];
    let mut total = 0.0;
    region(&mut scratch, |worker, _| {
        total += worker.index() as f64;
    });
    let queue = ClaimQueue::new();
    let mut seen = 0;
    let _ = region(&mut scratch, |worker, _| {
        worker.map_claimed(&queue, items.len(), |i| {
            seen += 1;
            items[i]
        })
    });
    total + seen as f64
}
