//! Scaling-study runners: strong/weak scaling sweeps over virtual world
//! sizes, and the analytic multinomial scaling series (Figures 24–25).

use crate::des::{des_run, DesReport};
use crate::model::CostModel;
use edgeswitch_core::{ParallelOutcome, Run};
use edgeswitch_graph::Graph;

/// One point of a scaling curve.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// World size `p`.
    pub p: usize,
    /// Predicted runtime (virtual seconds).
    pub runtime_s: f64,
    /// Speedup over the modeled sequential baseline.
    pub speedup: f64,
    /// Network packets exchanged (= logical messages under the DES).
    pub packets: u64,
    /// Max/mean workload imbalance across ranks.
    pub workload_imbalance: f64,
}

/// Run a strong-scaling sweep: fixed graph, varying `p`.
///
/// `make_run` receives each `p` and returns the [`Run`] to execute under
/// the DES — budget, scheme, step size, seed and, for adversarial
/// relabeling experiments, an explicit partitioner
/// ([`Run::prepared`]).
pub fn strong_scaling<F>(
    graph: &Graph,
    ps: &[usize],
    cost: &CostModel,
    make_run: F,
) -> Vec<ScalePoint>
where
    F: Fn(usize) -> Run,
{
    ps.iter()
        .map(|&p| {
            let run = make_run(p);
            assert_eq!(run.config().processors, p);
            let (outcome, report) = des_run(&run, graph, cost);
            scale_point(p, &outcome, &report)
        })
        .collect()
}

/// Run a weak-scaling sweep: the per-`p` graph and run come from
/// `make_instance` (the paper grows the graph with `p` in one variant
/// and fixes it in the other, with `t = p · c` in both).
pub fn weak_scaling<F>(ps: &[usize], cost: &CostModel, make_instance: F) -> Vec<ScalePoint>
where
    F: Fn(usize) -> (Graph, Run),
{
    ps.iter()
        .map(|&p| {
            let (graph, run) = make_instance(p);
            let (outcome, report) = des_run(&run, &graph, cost);
            scale_point(p, &outcome, &report)
        })
        .collect()
}

fn scale_point(p: usize, outcome: &ParallelOutcome, report: &DesReport) -> ScalePoint {
    let workload = outcome.workload();
    ScalePoint {
        p,
        runtime_s: report.runtime_ns / 1e9,
        speedup: report.speedup,
        packets: report.packets,
        workload_imbalance: edgeswitch_graph::partition::stats::imbalance(&workload),
    }
}

/// Analytic multinomial strong-scaling series (Figure 24): fixed
/// `n` trials and `l` outcomes, varying `p`.
pub fn multinomial_strong_scaling(
    n: u64,
    l: usize,
    ps: &[usize],
    cost: &CostModel,
) -> Vec<(usize, f64, f64)> {
    let seq = cost.sequential_multinomial_ns(n);
    ps.iter()
        .map(|&p| {
            let t = cost.parallel_multinomial_ns(n, l, p);
            (p, t / 1e9, seq / t)
        })
        .collect()
}

/// Analytic multinomial weak-scaling series (Figure 25): `n = p·per_p`,
/// `l = p`.
pub fn multinomial_weak_scaling(per_p: u64, ps: &[usize], cost: &CostModel) -> Vec<(usize, f64)> {
    ps.iter()
        .map(|&p| {
            let n = p as u64 * per_p;
            (p, cost.parallel_multinomial_ns(n, p, p) / 1e9)
        })
        .collect()
}

/// Measure real per-operation costs on this host to ground the cost
/// model: times a short sequential switch run and a binomial draw.
/// Returns a calibrated model (latency parameters keep their defaults —
/// they describe the simulated interconnect, not this host).
pub fn calibrate(sample_graph: &Graph, seed: u64) -> CostModel {
    use std::time::Instant;
    let mut model = CostModel::default();

    // Sequential switch cost (set-up — the graph clone — stays outside
    // the clock).
    let ops = 50_000u64.min(10 * sample_graph.num_edges() as u64);
    let mut engine = Run::sequential()
        .switches(ops)
        .seed(seed)
        .start(sample_graph)
        .expect("a sequential switch run always starts");
    let start = Instant::now();
    engine.advance(u64::MAX);
    let elapsed = start.elapsed().as_nanos() as f64;
    if engine.performed() > 0 {
        model.seq_switch_ns = elapsed / engine.performed() as f64;
        model.local_op_ns = model.seq_switch_ns * 0.8;
        model.msg_handle_ns = model.seq_switch_ns * 0.4;
        model.latency_ns = model.seq_switch_ns * 2.3;
    }

    // BINV trial cost.
    let mut rng = edgeswitch_dist::root_rng(seed);
    let n = 20_000_000u64;
    let start = Instant::now();
    let x = edgeswitch_dist::binomial(n, 0.5, &mut rng);
    let elapsed = start.elapsed().as_nanos() as f64;
    if x > 0 {
        model.binv_trial_ns = (elapsed / x as f64).clamp(0.5, 100.0);
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_core::config::StepSize;
    use edgeswitch_dist::root_rng;
    use edgeswitch_graph::generators::erdos_renyi_gnm;
    use edgeswitch_graph::SchemeKind;

    #[test]
    fn strong_scaling_produces_monotone_points() {
        let mut rng = root_rng(1);
        let g = erdos_renyi_gnm(300, 1800, &mut rng);
        let pts = strong_scaling(&g, &[4, 16, 64], &CostModel::default(), |p| {
            Run::simulated(p)
                .switches(6000)
                .scheme(SchemeKind::HashUniversal)
                .step_size(StepSize::FractionOfT(4))
                .seed(5)
        });
        assert_eq!(pts.len(), 3);
        assert!(pts[0].runtime_s > pts[2].runtime_s, "runtime must drop");
        assert!(pts[2].speedup > pts[0].speedup);
    }

    #[test]
    fn weak_scaling_runtime_is_bounded() {
        let pts = weak_scaling(&[2, 4, 8], &CostModel::default(), |p| {
            let mut rng = root_rng(p as u64);
            let g = erdos_renyi_gnm(100 * p, 500 * p, &mut rng);
            let run = Run::simulated(p)
                .switches(500 * p as u64)
                .step_size(StepSize::FractionOfT(2))
                .seed(6);
            (g, run)
        });
        // Runtime may grow (communication) but must stay within a small
        // factor — each rank's share of work is constant. (p = 1 is
        // excluded: it pays no network latency at all.)
        let ratio = pts[2].runtime_s / pts[0].runtime_s;
        assert!(ratio < 4.0, "weak scaling blew up: ratio {ratio}");
    }

    #[test]
    fn multinomial_series_shapes() {
        let cost = CostModel::default();
        let strong = multinomial_strong_scaling(10_000_000_000_000, 20, &[64, 256, 1024], &cost);
        assert!(strong[2].2 > strong[0].2, "speedup grows with p");
        assert!(strong[2].2 > 800.0, "paper reports ≈925 at p=1024");

        let weak = multinomial_weak_scaling(20_000_000_000, &[64, 256, 1024], &cost);
        let ratio = weak[2].1 / weak[0].1;
        assert!(ratio < 1.3, "weak multinomial near-flat, got {ratio}");
    }

    #[test]
    fn calibrate_returns_positive_costs() {
        let mut rng = root_rng(2);
        let g = erdos_renyi_gnm(200, 1000, &mut rng);
        let m = calibrate(&g, 3);
        assert!(m.seq_switch_ns > 0.0);
        assert!(m.binv_trial_ns > 0.0);
        assert!(m.latency_ns > m.msg_handle_ns);
    }
}
