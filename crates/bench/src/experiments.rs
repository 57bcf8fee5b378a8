//! The experiment suite: one function per table/series of EXPERIMENTS.md.
//!
//! Every table function returns `Result<Table, ParamError>`: a bad
//! parameter combination aborts the sweep with a diagnostic instead of
//! panicking inside a worker thread. A parallel table is a slice of cells
//! and one row function, run over [`par_map_with`] on `TC_THREADS`
//! workers or all available cores.

use crate::table::{fmt_f, Table};
use crate::workloads::Workload;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use tc_baselines::Baseline;
use tc_graph::par::par_map_with;
use tc_graph::{mst, CsrGraph, WeightedGraph};
use tc_spanner::extensions::energy::{energy_spanner, power_cost_comparison};
use tc_spanner::extensions::fault_tolerant::{
    fault_tolerance_report, fault_tolerant_greedy, FaultKind,
};
use tc_spanner::verify::{verify_spanner, VerificationReport};
use tc_spanner::{
    seq_greedy, AblationConfig, DistributedRelaxedGreedy, EdgeWeighting, ParamError, RelaxedGreedy,
    SpannerParams,
};
use tc_ubg::UnitBallGraph;

/// One experiment cell: a table row, or the parameter error that stopped
/// it. Cells run on worker threads, so errors are carried back to the
/// table function instead of panicking in the pool.
type RowResult = Result<Vec<String>, ParamError>;

/// How large the experiment sweeps are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scale {
    /// Tiny instances for unit tests and smoke runs.
    Smoke,
    /// The sweep recorded in EXPERIMENTS.md.
    Paper,
}

impl Scale {
    fn node_counts(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![40, 80],
            Scale::Paper => vec![50, 100, 200, 400, 800],
        }
    }

    /// Sizes of the round-complexity sweeps (E4, F2). The distributed
    /// construction runs on the phase engine, so the paper sweep reaches
    /// 10^5 nodes in seconds.
    fn rounds_node_counts(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![40, 80],
            Scale::Paper => vec![50, 100, 200, 400, 800, 1600, 6400, 25_600, 102_400],
        }
    }

    fn epsilons(&self) -> Vec<f64> {
        match self {
            Scale::Smoke => vec![0.5],
            Scale::Paper => vec![0.25, 0.5, 1.0, 2.0],
        }
    }

    fn comparison_n(&self) -> usize {
        match self {
            Scale::Smoke => 60,
            Scale::Paper => 250,
        }
    }

    fn trials(&self) -> usize {
        match self {
            Scale::Smoke => 5,
            Scale::Paper => 40,
        }
    }
}

/// Runs `row` on every cell over [`par_map_with`] and pushes the rows
/// onto `table` in cell order. The first failing cell, in cell order,
/// aborts the table.
fn push_rows<C: Sync>(
    mut table: Table,
    cells: &[C],
    row: impl Fn(&C) -> RowResult + Sync,
) -> Result<Table, ParamError> {
    for result in par_map_with(cells, 0, || (), |_, _, cell| row(cell)) {
        table.push_row(result?);
    }
    Ok(table)
}

fn run_sequential(
    ubg: &UnitBallGraph,
    epsilon: f64,
) -> Result<(SpannerParams, WeightedGraph), ParamError> {
    let params = SpannerParams::for_epsilon(epsilon, ubg.alpha())?;
    let result = RelaxedGreedy::new(params).run(ubg);
    Ok((params, result.spanner))
}

/// Formats a report's stretch cell, surfacing disconnected pairs (which
/// the finite `stretch` field deliberately excludes) next to the value.
fn fmt_stretch(report: &VerificationReport) -> String {
    if report.disconnected_pairs > 0 {
        format!(
            "{} (+{} disconnected)",
            fmt_f(report.stretch),
            report.disconnected_pairs
        )
    } else {
        fmt_f(report.stretch)
    }
}

/// E1 — Theorem 10: the measured stretch never exceeds `t = 1 + ε`.
pub fn e1_stretch(scale: Scale) -> Result<Table, ParamError> {
    let table = Table::new(
        "E1",
        "Stretch vs. target (Theorem 10)",
        &["n", "alpha", "eps", "t", "stretch", "within target"],
    );
    let mut cells = Vec::new();
    for &n in &scale.node_counts() {
        for &eps in &scale.epsilons() {
            for &alpha in &[0.75, 1.0] {
                cells.push((n, eps, alpha));
            }
        }
    }
    push_rows(table, &cells, |&(n, eps, alpha)| {
        let ubg = Workload::alpha_ubg(1000 + n as u64, n, alpha).build();
        let (params, spanner) = run_sequential(&ubg, eps)?;
        let report = verify_spanner(ubg.graph(), &spanner, params.t);
        Ok(vec![
            n.to_string(),
            fmt_f(alpha),
            fmt_f(eps),
            fmt_f(params.t),
            fmt_stretch(&report),
            report.stretch_ok.to_string(),
        ])
    })
}

/// E2 — Theorem 11: the spanner's maximum degree stays constant as `n`
/// grows (while the input's maximum degree grows with density/fluctuations).
pub fn e2_degree(scale: Scale) -> Result<Table, ParamError> {
    let table = Table::new(
        "E2",
        "Maximum degree vs. n (Theorem 11)",
        &[
            "n",
            "input max deg",
            "spanner max deg",
            "spanner mean deg",
            "edges per node",
        ],
    );
    let eps = 0.5;
    push_rows(table, &scale.node_counts(), |&n| {
        let ubg = Workload::udg(2000 + n as u64, n).build();
        let (params, spanner) = run_sequential(&ubg, eps)?;
        let report = verify_spanner(ubg.graph(), &spanner, params.t);
        Ok(vec![
            n.to_string(),
            ubg.graph().max_degree().to_string(),
            report.max_degree.to_string(),
            fmt_f(spanner.mean_degree()),
            fmt_f(report.spanner_edges as f64 / n as f64),
        ])
    })
}

/// E3 — Theorem 13: the spanner weight stays within a constant factor of
/// the MST weight as `n` grows.
pub fn e3_weight(scale: Scale) -> Result<Table, ParamError> {
    let table = Table::new(
        "E3",
        "Weight vs. MST (Theorem 13)",
        &[
            "n",
            "w(MST)",
            "w(spanner)",
            "w(spanner)/w(MST)",
            "w(input)/w(MST)",
        ],
    );
    let eps = 0.5;
    push_rows(table, &scale.node_counts(), |&n| {
        let ubg = Workload::udg(3000 + n as u64, n).build();
        let (_, spanner) = run_sequential(&ubg, eps)?;
        let mst_w = mst::mst_weight(&ubg.to_csr());
        Ok(vec![
            n.to_string(),
            fmt_f(mst_w),
            fmt_f(spanner.total_weight()),
            fmt_f(spanner.total_weight() / mst_w),
            fmt_f(ubg.graph().total_weight() / mst_w),
        ])
    })
}

/// E4 — the round complexity of the distributed algorithm, normalised by
/// the paper's `log n · log* n` bound.
pub fn e4_rounds(scale: Scale) -> Result<Table, ParamError> {
    let table = Table::new(
        "E4",
        "Distributed rounds vs. n (main theorem)",
        &[
            "n",
            "rounds",
            "log2 n",
            "log* n",
            "rounds/(log n·log* n)",
            "MIS messages",
            "phases",
        ],
    );
    let eps = 1.0;
    push_rows(table, &scale.rounds_node_counts(), |&n| {
        let ubg = Workload::udg(4000 + n as u64, n).build();
        let params = SpannerParams::for_epsilon(eps, ubg.alpha())?;
        let out = DistributedRelaxedGreedy::new(params).run(&ubg);
        Ok(vec![
            n.to_string(),
            out.rounds.to_string(),
            fmt_f(out.log_n),
            out.log_star_n.to_string(),
            fmt_f(out.normalized_rounds()),
            out.messages.to_string(),
            out.result.phases.len().to_string(),
        ])
    })
}

/// E5 — comparison against the classical topology-control baselines
/// (Section 1.3's qualitative claim, measured).
pub fn e5_baselines(scale: Scale) -> Result<Table, ParamError> {
    let mut table = Table::new(
        "E5",
        "Comparison with classical topology-control algorithms",
        &[
            "algorithm",
            "edges",
            "max deg",
            "stretch",
            "w/w(MST)",
            "power cost ratio",
        ],
    );
    let n = scale.comparison_n();
    let ubg = Workload::udg(555, n).build();
    let eps = 0.5;

    let (params, relaxed) = run_sequential(&ubg, eps)?;
    let mut entries: Vec<(String, WeightedGraph)> = Vec::new();
    entries.push(("relaxed-greedy (this paper)".to_string(), relaxed));
    entries.push(("seq-greedy".to_string(), seq_greedy(ubg.graph(), params.t)));
    for baseline in Baseline::all() {
        entries.push((baseline.name(), baseline.build(&ubg)));
    }
    entries.push(("input UDG".to_string(), ubg.graph().clone()));
    for (name, graph) in entries {
        let report = verify_spanner(ubg.graph(), &graph, params.t);
        let power = power_cost_comparison(&ubg, &graph, 1.0, 2.0);
        table.push_row(vec![
            name,
            report.spanner_edges.to_string(),
            report.max_degree.to_string(),
            fmt_stretch(&report),
            fmt_f(report.weight_ratio),
            fmt_f(power.ratio),
        ]);
    }
    Ok(table)
}

/// E6 — sensitivity to the α parameter and the grey-zone realisation.
pub fn e6_alpha(scale: Scale) -> Result<Table, ParamError> {
    let table = Table::new(
        "E6",
        "Sensitivity to alpha (quasi-UBG generality)",
        &[
            "alpha",
            "input edges",
            "spanner edges",
            "stretch",
            "max deg",
            "w/w(MST)",
        ],
    );
    let n = scale.comparison_n();
    let eps = 1.0;
    let alphas = match scale {
        Scale::Smoke => vec![0.5, 1.0],
        Scale::Paper => vec![0.3, 0.5, 0.7, 0.9, 1.0],
    };
    push_rows(table, &alphas, |&alpha| {
        let ubg = Workload::alpha_ubg(6000 + (alpha * 100.0) as u64, n, alpha).build();
        let (params, spanner) = run_sequential(&ubg, eps)?;
        let report = verify_spanner(ubg.graph(), &spanner, params.t);
        Ok(vec![
            fmt_f(alpha),
            report.base_edges.to_string(),
            report.spanner_edges.to_string(),
            format!(
                "{} ({})",
                fmt_stretch(&report),
                if report.stretch_ok { "ok" } else { "VIOLATION" }
            ),
            report.max_degree.to_string(),
            fmt_f(report.weight_ratio),
        ])
    })
}

/// E7 — energy spanners (extension 2) and the power-cost measure
/// (extension 3).
pub fn e7_energy(scale: Scale) -> Result<Table, ParamError> {
    let table = Table::new(
        "E7",
        "Energy spanners and power cost (Section 1.6, extensions 2-3)",
        &[
            "gamma",
            "energy stretch",
            "t",
            "spanner power cost",
            "full power cost",
            "ratio",
        ],
    );
    let n = scale.comparison_n();
    let eps = 0.5;
    let gammas = match scale {
        Scale::Smoke => vec![2.0],
        Scale::Paper => vec![2.0, 3.0, 4.0],
    };
    push_rows(table, &gammas, |&gamma| {
        let ubg = Workload::udg(7000 + gamma as u64, n).build();
        let result = energy_spanner(&ubg, eps, 1.0, gamma)?;
        let energy_base = EdgeWeighting::Power { c: 1.0, gamma }.weighted_graph(&ubg);
        let report = verify_spanner(&energy_base, &result.spanner, result.params.t);
        let power = power_cost_comparison(&ubg, &result.spanner, 1.0, gamma);
        Ok(vec![
            fmt_f(gamma),
            fmt_stretch(&report),
            fmt_f(result.params.t),
            fmt_f(power.spanner),
            fmt_f(power.full_topology),
            fmt_f(power.ratio),
        ])
    })
}

/// E8 — k-fault-tolerant spanners (extension 1): residual stretch under
/// random edge faults.
pub fn e8_fault_tolerance(scale: Scale) -> Result<Table, ParamError> {
    let mut table = Table::new(
        "E8",
        "Fault tolerance (Section 1.6, extension 1)",
        &[
            "k",
            "edges kept",
            "edges/n",
            "worst residual stretch",
            "violations",
            "trials",
        ],
    );
    let n = scale.comparison_n().min(160);
    let t = 2.0;
    let ubg = Workload::udg(888, n).build();
    let ks = match scale {
        Scale::Smoke => vec![0, 1],
        Scale::Paper => vec![0, 1, 2],
    };
    for k in ks {
        let spanner = fault_tolerant_greedy(ubg.graph(), t, k);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let report = fault_tolerance_report(
            &mut rng,
            ubg.graph(),
            &spanner,
            t,
            k.max(1),
            FaultKind::Edge,
            scale.trials(),
        );
        table.push_row(vec![
            k.to_string(),
            spanner.edge_count().to_string(),
            fmt_f(spanner.edge_count() as f64 / n as f64),
            fmt_f(report.worst_stretch),
            report.violations.to_string(),
            report.trials.to_string(),
        ]);
    }
    Ok(table)
}

/// E9 — ablation: what each mechanism of the relaxed greedy construction
/// contributes (DESIGN.md calls these out as the design choices to
/// ablate). Every variant must still meet the stretch target; the columns
/// show what is paid in edges, degree and weight when a mechanism is
/// removed.
pub fn e9_ablation(scale: Scale) -> Result<Table, ParamError> {
    let table = Table::new(
        "E9",
        "Ablation of the relaxed-greedy mechanisms (coarse bins, r = 1.5)",
        &[
            "variant",
            "edges",
            "max deg",
            "stretch",
            "w/w(MST)",
            "within target",
        ],
    );
    let n = scale.comparison_n();
    let ubg = Workload::udg(777, n).build();
    // With the strict Theorem-13 bin growth (r barely above 1) each bin
    // holds only a handful of edges and the filtering mechanisms rarely
    // fire, so the ablation is run with a coarse practical bin growth that
    // makes each phase process many edges at once — the regime where the
    // covered-edge filter, cluster-pair dedup and redundancy removal do
    // real work. The stretch guarantee (Theorem 10) does not depend on r.
    let params = SpannerParams::for_epsilon(0.5, 1.0)?.with_bin_growth(1.5);
    let variants = AblationConfig::named_variants();
    push_rows(table, &variants, |&(name, config)| {
        let result = tc_spanner::run_ablation(&ubg, params, config);
        let report = verify_spanner(ubg.graph(), &result.spanner, params.t);
        Ok(vec![
            name.to_string(),
            report.spanner_edges.to_string(),
            report.max_degree.to_string(),
            fmt_stretch(&report),
            fmt_f(report.weight_ratio),
            report.stretch_ok.to_string(),
        ])
    })
}

/// F1 — figure-style series: the distribution (percentiles) of per-edge
/// stretch for a single representative run.
pub fn f1_stretch_cdf(scale: Scale) -> Result<Table, ParamError> {
    let mut table = Table::new(
        "F1",
        "Per-edge stretch distribution (single run, eps = 0.5)",
        &["percentile", "stretch"],
    );
    let n = scale.comparison_n();
    let ubg = Workload::udg(1234, n).build();
    let (_, spanner) = run_sequential(&ubg, 0.5)?;
    let mut stretches: Vec<f64> =
        tc_graph::properties::edge_stretches(&ubg.to_csr(), &CsrGraph::from(&spanner))
            .into_iter()
            .map(|s| s.stretch)
            .collect();
    stretches.sort_by(tc_graph::cmp_f64);
    for &(label, q) in &[
        ("p10", 0.10),
        ("p50", 0.50),
        ("p90", 0.90),
        ("p99", 0.99),
        ("max", 1.0),
    ] {
        let idx = ((stretches.len() as f64 - 1.0) * q).round() as usize;
        table.push_row(vec![label.to_string(), fmt_f(stretches[idx])]);
    }
    Ok(table)
}

/// F2 — figure-style series: rounds of the distributed algorithm against
/// the `c·log n·log* n` reference curve (reports the implied constant `c`).
pub fn f2_rounds_series(scale: Scale) -> Result<Table, ParamError> {
    let table = Table::new(
        "F2",
        "Rounds vs. reference curve c*log(n)*log*(n)",
        &[
            "n",
            "rounds",
            "reference log n*log* n",
            "implied constant c",
        ],
    );
    let eps = 1.0;
    push_rows(table, &scale.rounds_node_counts(), |&n| {
        let ubg = Workload::udg(9000 + n as u64, n).build();
        let params = SpannerParams::for_epsilon(eps, ubg.alpha())?;
        let out = DistributedRelaxedGreedy::new(params).run(&ubg);
        let reference = out.log_n * out.log_star_n.max(1) as f64;
        Ok(vec![
            n.to_string(),
            out.rounds.to_string(),
            fmt_f(reference),
            fmt_f(out.rounds as f64 / reference),
        ])
    })
}

/// Runs every experiment at the given scale, in order. The first parameter
/// error aborts the sweep.
pub fn all_experiments(scale: Scale) -> Result<Vec<Table>, ParamError> {
    Ok(vec![
        e1_stretch(scale)?,
        e2_degree(scale)?,
        e3_weight(scale)?,
        e4_rounds(scale)?,
        e5_baselines(scale)?,
        e6_alpha(scale)?,
        e7_energy(scale)?,
        e8_fault_tolerance(scale)?,
        e9_ablation(scale)?,
        f1_stretch_cdf(scale)?,
        f2_rounds_series(scale)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(cells: &[usize], failing: &[usize]) -> Result<Table, ParamError> {
        push_rows(Table::new("T", "cells", &["cell"]), cells, |&cell| {
            if failing.contains(&cell) {
                return Err(ParamError::StretchTooSmall { t: cell as f64 });
            }
            Ok(vec![cell.to_string()])
        })
    }

    #[test]
    fn push_rows_keeps_cell_order_and_reports_the_first_failing_cell() {
        let cells: Vec<usize> = (0..40).collect();
        assert_eq!(
            numbered(&cells, &[23, 7]).unwrap_err(),
            ParamError::StretchTooSmall { t: 7.0 }
        );
        let rows = numbered(&cells, &[]).unwrap().rows;
        let expected: Vec<Vec<String>> = cells.iter().map(|c| vec![c.to_string()]).collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn e1_smoke_confirms_the_stretch_target() {
        let table = e1_stretch(Scale::Smoke).expect("smoke parameters are valid");
        assert!(!table.rows.is_empty());
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "true", "row {row:?}");
        }
    }

    #[test]
    fn e2_and_e3_smoke_produce_bounded_ratios() {
        let degree = e2_degree(Scale::Smoke).expect("smoke parameters are valid");
        for row in &degree.rows {
            let max_deg: f64 = row[2].parse().unwrap();
            assert!(max_deg <= 30.0, "spanner degree {max_deg} looks unbounded");
        }
        let weight = e3_weight(Scale::Smoke).expect("smoke parameters are valid");
        for row in &weight.rows {
            let ratio: f64 = row[3].parse().unwrap();
            assert!((1.0 - 1e-9..40.0).contains(&ratio), "weight ratio {ratio}");
        }
    }

    #[test]
    fn e4_smoke_counts_rounds() {
        let table = e4_rounds(Scale::Smoke).expect("smoke parameters are valid");
        for row in &table.rows {
            let rounds: usize = row[1].parse().unwrap();
            assert!(rounds > 0);
        }
    }

    #[test]
    fn e5_smoke_includes_our_algorithm_and_baselines() {
        let table = e5_baselines(Scale::Smoke).expect("smoke parameters are valid");
        let names: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(names.iter().any(|n| n.contains("relaxed-greedy")));
        assert!(names.iter().any(|n| n.contains("gabriel")));
        assert!(names.len() >= 8);
    }

    #[test]
    fn remaining_smoke_tables_have_rows() {
        assert!(!e6_alpha(Scale::Smoke).unwrap().rows.is_empty());
        assert!(!e7_energy(Scale::Smoke).unwrap().rows.is_empty());
        assert!(!e8_fault_tolerance(Scale::Smoke).unwrap().rows.is_empty());
        assert_eq!(f1_stretch_cdf(Scale::Smoke).unwrap().rows.len(), 5);
        assert!(!f2_rounds_series(Scale::Smoke).unwrap().rows.is_empty());
    }

    #[test]
    fn e9_smoke_keeps_every_variant_within_the_stretch_target() {
        let table = e9_ablation(Scale::Smoke).expect("smoke parameters are valid");
        assert_eq!(table.rows.len(), 5);
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "true", "row {row:?}");
        }
    }
}
