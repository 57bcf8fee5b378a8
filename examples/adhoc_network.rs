//! Topology control for an ad-hoc network with unreliable long links.
//!
//! This is the scenario the paper's introduction motivates: nodes in a
//! 3-dimensional deployment (no "flat world" assumption), where links
//! beyond a fraction α of the nominal radio range may or may not exist
//! because of fading and obstructions. We model it as an α-quasi unit ball
//! graph with a distance-falloff grey zone, build the spanner, and compare
//! the selected topology against transmitting at maximum power.
//!
//! Run with:
//! ```text
//! cargo run --release --example adhoc_network
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tc_spanner::{build_spanner, build_spanner_distributed, verify::verify_spanner};
use tc_ubg::{generators, GreyZonePolicy, UbgBuilder};

fn main() {
    let n = 250;
    let alpha = 0.6;
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let side = generators::side_for_target_degree(n, 3, 14.0);
    let points = generators::uniform_points(&mut rng, n, 3, side);
    let network = UbgBuilder::new(alpha)
        .grey_zone(GreyZonePolicy::DistanceFalloff { seed: 99 })
        .build(points)
        .unwrap();
    println!(
        "3-dimensional alpha-UBG: n = {}, alpha = {}, links = {}, valid model instance = {}",
        network.len(),
        network.alpha(),
        network.graph().edge_count(),
        network.is_valid_alpha_ubg()
    );

    // Sequential construction.
    let epsilon = 1.0;
    let result = build_spanner(&network, epsilon).expect("valid parameters");
    let report = verify_spanner(network.graph(), &result.spanner, result.params.t);
    println!("-- sequential relaxed greedy --");
    println!(
        "kept {} of {} links, stretch {:.3} (target {:.1}), max degree {}, weight {:.2} x MST",
        report.spanner_edges,
        report.base_edges,
        report.stretch,
        report.t,
        report.max_degree,
        report.weight_ratio
    );

    // Distributed construction with round accounting.
    let out = build_spanner_distributed(&network, epsilon).expect("valid parameters");
    println!("-- distributed relaxed greedy --");
    println!(
        "rounds = {}, log n * log* n = {:.1}, normalised = {:.2}, MIS messages = {}",
        out.rounds,
        out.log_n * out.log_star_n as f64,
        out.normalized_rounds(),
        out.messages
    );
    let phases = &out.result.phases;
    println!(
        "phases processed = {}, largest bin = {} edges",
        phases.len(),
        phases.iter().map(|p| p.edges_in_bin).max().unwrap_or(0)
    );
}
