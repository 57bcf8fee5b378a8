//@path: crates/bench/src/fake_region_ok.rs
//! A disciplined region: per-worker scratch (written through the region
//! closure's parameter, also from inside a claimed step), per-item
//! returns, the caller's merged result reported after the region.

use tc_graph::par::{region, ClaimQueue};

pub fn quiet_region(items: &[f64]) -> f64 {
    let mut scratch: Vec<(Vec<f64>, usize)> = vec![(Vec::new(), 0); 2];
    let queue = ClaimQueue::new();
    let per_item = region(&mut scratch, |worker, (buffer, seen)| {
        worker.map_claimed(&queue, items.len(), |i| {
            *seen += 1;
            buffer.clear();
            buffer.extend([items[i], items[i]]);
            buffer.iter().sum::<f64>()
        })
    });
    let total: f64 = per_item.iter().sum();
    println!("total {total}");
    total
}
