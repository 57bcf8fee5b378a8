//! End-to-end integration tests spanning every crate of the workspace:
//! network model → spanner construction (sequential and distributed) →
//! verification, plus the extensions and the baselines on the same
//! instances.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use topology_control::prelude::*;
use topology_control::spanner::extensions::energy::{energy_spanner, power_cost_comparison};
use topology_control::spanner::extensions::fault_tolerant::{
    fault_tolerance_report, fault_tolerant_greedy, FaultKind,
};
use topology_control::spanner::MisProtocol;

fn deploy(seed: u64, n: usize, alpha: f64) -> UnitBallGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let side = generators::side_for_target_degree(n, 2, 12.0);
    let points = generators::uniform_points(&mut rng, n, 2, side);
    UbgBuilder::new(alpha)
        .grey_zone(GreyZonePolicy::Probabilistic {
            probability: 0.5,
            seed,
        })
        .build(points)
        .unwrap()
}

#[test]
fn sequential_pipeline_meets_all_three_guarantees() {
    let network = deploy(1, 200, 1.0);
    let result = build_spanner(&network, 0.5).unwrap();
    let report = verify_spanner(network.graph(), &result.spanner, result.params.t);
    assert!(report.stretch_ok, "violations: {:?}", report.violations);
    // Degree and weight are O(1)/O(MST) asymptotically; on this workload
    // the constants are small.
    assert!(report.max_degree <= 16, "max degree {}", report.max_degree);
    assert!(
        report.weight_ratio < 12.0,
        "weight ratio {}",
        report.weight_ratio
    );
    // Linear size.
    assert!(result.spanner.edge_count() <= 8 * network.len());
}

#[test]
fn distributed_pipeline_matches_sequential_guarantees_and_counts_rounds() {
    let network = deploy(2, 150, 0.75);
    let seq = build_spanner(&network, 1.0).unwrap();
    let dist = build_spanner_distributed(&network, 1.0).unwrap();
    for spanner in [&seq.spanner, &dist.result.spanner] {
        let report = verify_spanner(network.graph(), spanner, 2.0);
        assert!(report.stretch_ok);
    }
    assert!(dist.rounds > 0);
    assert!(dist.messages > 0);
    // The round count should be far below a trivial protocol that floods
    // the whole network once per edge, and within a (large, parameter-
    // dependent) constant times the paper's polylog bound. The constant is
    // dominated by the number of non-empty weight bins, i.e. by 1/ln(r)
    // with the strict Theorem-13 parameters; the growth *trend* is checked
    // separately in tests/paper_claims.rs.
    assert!(
        (dist.rounds as f64) < 400.0 * dist.log_n * dist.log_star_n.max(1) as f64,
        "rounds {} look super-polylogarithmic",
        dist.rounds
    );
    assert!(dist.rounds < network.len() * network.graph().edge_count());
}

#[test]
fn distributed_with_luby_mis_also_verifies() {
    let network = deploy(3, 120, 1.0);
    let params = SpannerParams::for_epsilon(1.0, 1.0).unwrap();
    let out = DistributedRelaxedGreedy::new(params)
        .with_mis_protocol(MisProtocol::Luby { seed: 5 })
        .run(&network);
    let report = verify_spanner(network.graph(), &out.result.spanner, params.t);
    assert!(report.stretch_ok);
}

#[test]
fn smaller_epsilon_gives_denser_spanners() {
    let network = deploy(4, 150, 1.0);
    let tight = build_spanner(&network, 0.25).unwrap();
    let loose = build_spanner(&network, 2.0).unwrap();
    assert!(tight.spanner.edge_count() >= loose.spanner.edge_count());
    let tight_report = verify_spanner(network.graph(), &tight.spanner, tight.params.t);
    let loose_report = verify_spanner(network.graph(), &loose.spanner, loose.params.t);
    assert!(tight_report.stretch_ok && loose_report.stretch_ok);
}

#[test]
fn energy_extension_saves_power_and_keeps_energy_stretch() {
    let network = deploy(5, 150, 1.0);
    let result = energy_spanner(&network, 0.5, 1.0, 2.0).unwrap();
    let energy_base = EdgeWeighting::Power { c: 1.0, gamma: 2.0 }.weighted_graph(&network);
    let report = verify_spanner(&energy_base, &result.spanner, result.params.t);
    assert!(report.stretch_ok);
    let power = power_cost_comparison(&network, &result.spanner, 1.0, 2.0);
    assert!(power.ratio <= 1.0 + 1e-9);
}

#[test]
fn fault_tolerant_extension_survives_edge_faults() {
    let network = deploy(6, 120, 1.0);
    let spanner = fault_tolerant_greedy(network.graph(), 2.0, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let report = fault_tolerance_report(
        &mut rng,
        network.graph(),
        &spanner,
        2.0,
        1,
        FaultKind::Edge,
        25,
    );
    assert_eq!(
        report.violations, 0,
        "worst stretch {}",
        report.worst_stretch
    );
}

#[test]
fn baselines_run_on_the_same_instance_and_ours_has_the_best_stretch_guarantee() {
    let network = deploy(7, 180, 1.0);
    let ours = build_spanner(&network, 0.5).unwrap();
    let ours_report = verify_spanner(network.graph(), &ours.spanner, ours.params.t);
    assert!(ours_report.stretch_ok);
    for baseline in Baseline::all() {
        let graph = baseline.build(&network);
        let report = verify_spanner(network.graph(), &graph, ours.params.t);
        // Baselines stay subgraphs of the radio graph and are sparse, but
        // none of them is required to meet the 1.5 stretch bound.
        assert!(
            network.graph().contains_subgraph(&graph),
            "{}",
            baseline.name()
        );
        assert!(report.spanner_edges <= ours_report.base_edges);
    }
}

#[test]
fn three_dimensional_network_end_to_end() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let side = generators::side_for_target_degree(100, 3, 14.0);
    let points = generators::uniform_points(&mut rng, 100, 3, side);
    let network = UbgBuilder::new(0.8).build(points).unwrap();
    assert!(network.is_valid_alpha_ubg());
    let result = build_spanner(&network, 1.0).unwrap();
    let report = verify_spanner(network.graph(), &result.spanner, result.params.t);
    assert!(report.stretch_ok);
}

#[test]
fn corridor_topology_is_handled() {
    // High-diameter network: many phases have only a handful of edges.
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    let points = generators::corridor_points(&mut rng, 120, 2, 25.0, 1.0);
    let network = UbgBuilder::unit_disk().build(points).unwrap();
    let result = build_spanner(&network, 0.5).unwrap();
    let report = verify_spanner(network.graph(), &result.spanner, result.params.t);
    assert!(report.stretch_ok);
}

#[test]
fn clustered_topology_is_handled() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let points = generators::clustered_points(&mut rng, 150, 2, 4.0, 6, 0.4);
    let network = UbgBuilder::new(0.7).build(points).unwrap();
    let result = build_spanner(&network, 1.0).unwrap();
    let report = verify_spanner(network.graph(), &result.spanner, result.params.t);
    assert!(report.stretch_ok);
}
