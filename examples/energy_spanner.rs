//! Energy-aware topology control (the paper's Section 1.6 extensions).
//!
//! Builds spanners under the energy metric |uv|^γ for several path-loss
//! exponents and reports the power-cost saving over transmitting at
//! maximum power, plus a fault-tolerance check of the selected topology.
//!
//! Run with:
//! ```text
//! cargo run --release --example energy_spanner
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tc_graph::properties::stretch_factor;
use tc_graph::CsrGraph;
use tc_spanner::extensions::energy::{energy_spanner, power_cost_comparison};
use tc_spanner::extensions::fault_tolerant::{
    fault_tolerance_report, fault_tolerant_greedy, FaultKind,
};
use tc_spanner::EdgeWeighting;
use tc_ubg::{generators, UbgBuilder};

fn main() {
    let n = 200;
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let side = generators::side_for_target_degree(n, 2, 12.0);
    let points = generators::uniform_points(&mut rng, n, 2, side);
    let network = UbgBuilder::unit_disk().build(points).unwrap();
    println!(
        "network: {} nodes, {} links",
        network.len(),
        network.graph().edge_count()
    );

    println!("\n== energy spanners (epsilon = 0.5) ==");
    for gamma in [2.0, 3.0, 4.0] {
        let result = energy_spanner(&network, 0.5, 1.0, gamma).expect("valid parameters");
        let energy_base = EdgeWeighting::Power { c: 1.0, gamma }.weighted_graph(&network);
        let stretch = stretch_factor(
            &CsrGraph::from(&*energy_base),
            &CsrGraph::from(&result.spanner),
        );
        let power = power_cost_comparison(&network, &result.spanner, 1.0, gamma);
        println!(
            "gamma = {gamma}: {} edges, energy stretch {:.3}, power cost {:.3} of max-power topology",
            result.spanner.edge_count(),
            stretch,
            power.ratio
        );
    }

    println!("\n== 1-fault-tolerant spanner (t = 2) ==");
    let robust = fault_tolerant_greedy(network.graph(), 2.0, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let report = fault_tolerance_report(
        &mut rng,
        network.graph(),
        &robust,
        2.0,
        1,
        FaultKind::Edge,
        50,
    );
    println!(
        "kept {} edges; worst residual stretch over {} single-edge-fault trials: {:.3} (violations: {})",
        robust.edge_count(),
        report.trials,
        report.worst_stretch,
        report.violations
    );
}
