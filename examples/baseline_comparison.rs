//! Side-by-side comparison with classical topology-control algorithms.
//!
//! Reproduces the qualitative comparison of the paper's Section 1.3: the
//! relaxed greedy spanner is the only construction that simultaneously
//! achieves (1+ε) stretch, constant maximum degree and O(MST) weight.
//!
//! Run with:
//! ```text
//! cargo run --release --example baseline_comparison
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tc_baselines::Baseline;
use tc_spanner::{build_spanner, seq_greedy, verify::verify_spanner};
use tc_ubg::{generators, UbgBuilder};

fn main() {
    let n = 250;
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let side = generators::side_for_target_degree(n, 2, 12.0);
    let points = generators::uniform_points(&mut rng, n, 2, side);
    let network = UbgBuilder::unit_disk().build(points).unwrap();

    let mut rows: Vec<(String, tc_graph::WeightedGraph)> = Vec::new();
    let ours = build_spanner(&network, 0.5).expect("valid parameters");
    rows.push(("relaxed-greedy (eps=0.5)".into(), ours.spanner));
    rows.push((
        "seq-greedy (t=1.5)".into(),
        seq_greedy(network.graph(), 1.5),
    ));
    for baseline in Baseline::all() {
        rows.push((baseline.name(), baseline.build(&network)));
    }
    rows.push(("input UDG".into(), network.graph().clone()));

    println!(
        "{:<28} {:>7} {:>8} {:>9} {:>10}",
        "algorithm", "edges", "max deg", "stretch", "w/w(MST)"
    );
    for (name, graph) in rows {
        let r = verify_spanner(network.graph(), &graph, 1.5);
        println!(
            "{:<28} {:>7} {:>8} {:>9.3} {:>10.3}",
            name, r.spanner_edges, r.max_degree, r.stretch, r.weight_ratio
        );
    }
    println!(
        "\nOnly the greedy spanners bound the stretch by 1+eps; only the relaxed greedy\n\
         additionally ships a distributed O(log n * log* n)-round construction (see the\n\
         distributed_rounds example)."
    );
}
