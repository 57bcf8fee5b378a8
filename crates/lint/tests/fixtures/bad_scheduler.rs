//@path: crates/bench/src/fake_sweep.rs
//! Seeds scheduler-discipline violations inside worker closures: direct
//! I/O, a write to a captured accumulator, atomic traffic, and transitive
//! I/O through a helper.

use std::sync::atomic::{AtomicUsize, Ordering};
use tc_graph::par::par_map_with;

fn log_row(x: f64) {
    eprintln!("row {x}");
}

pub fn noisy_sweep(items: &[f64]) -> Vec<f64> {
    par_map_with(items, 4, || (), |_, x| {
        println!("working on {x}");
        *x + 1.0
    })
}

/// A row helper in the shape of the experiments' `push_rows`: the rule
/// inspects the row closures handed to it.
fn push_rows(cells: &[f64], row: impl Fn(&f64) -> f64 + Sync) -> Vec<f64> {
    par_map_with(cells, 0, || (), |_, _, cell| row(cell))
}

pub fn racy_total(items: &[f64]) -> f64 {
    let mut total = 0.0;
    let counter = AtomicUsize::new(0);
    let row = |x: &f64| {
        total += 1.0;
        counter.fetch_add(1, Ordering::SeqCst);
        log_row(*x);
        *x
    };
    push_rows(items, row);
    total + items.len() as f64
}
