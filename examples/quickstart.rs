//! Quickstart: deploy a random wireless network, build a (1+ε)-spanner
//! with the paper's relaxed greedy algorithm, and verify the three
//! guaranteed properties.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tc_spanner::{build_spanner, verify::verify_spanner};
use tc_ubg::{generators, UbgBuilder};

fn main() {
    // 1. Deploy 300 nodes uniformly at random in a square sized for an
    //    average of ~12 radio neighbours per node (radio range = 1).
    let n = 300;
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let side = generators::side_for_target_degree(n, 2, 12.0);
    let points = generators::uniform_points(&mut rng, n, 2, side);
    let network = UbgBuilder::unit_disk().build(points).unwrap();
    println!(
        "deployed {} nodes, radio graph has {} links (max degree {})",
        network.len(),
        network.graph().edge_count(),
        network.graph().max_degree()
    );

    // 2. Build a 1.5-spanner (epsilon = 0.5).
    let epsilon = 0.5;
    let result = build_spanner(&network, epsilon).expect("epsilon and alpha are valid");
    println!(
        "relaxed greedy kept {} edges across {} phases",
        result.spanner.edge_count(),
        result.phase_count()
    );

    // 3. Verify stretch, degree and weight.
    let report = verify_spanner(network.graph(), &result.spanner, result.params.t);
    println!(
        "stretch      : {:.4} (target {:.2}) -> ok = {}",
        report.stretch, report.t, report.stretch_ok
    );
    println!(
        "max degree   : {} (input had {})",
        report.max_degree,
        network.graph().max_degree()
    );
    println!("weight ratio : {:.3} x w(MST)", report.weight_ratio);
    println!("mean degree  : {:.2}", result.spanner.mean_degree());
    assert!(
        report.stretch_ok,
        "the spanner must meet its stretch target"
    );
}
