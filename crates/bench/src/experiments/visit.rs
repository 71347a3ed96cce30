//! Visit-rate accuracy (Table 1, Figure 2) and the dataset inventory
//! (Table 2).

use super::ExpConfig;
use crate::report::{f, table, Report};
use crate::{dataset_graph, full_visit_ops};
use edgeswitch_core::run::Run;
use edgeswitch_dist::switch_ops_for_visit_rate;
use edgeswitch_graph::generators::Dataset;
use edgeswitch_json::json;

/// Desired visit-rate grid of Section 3.1: `x = 0.1, 0.2, …, 1.0`.
fn visit_grid() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

/// Observed visit rates per desired rate, over `reps` sequential runs on
/// the Miami stand-in.
fn observe(cfg: &ExpConfig) -> Vec<(f64, Vec<f64>)> {
    let base = dataset_graph(Dataset::Miami, cfg.scale, cfg.seed);
    let m = base.num_edges() as u64;
    visit_grid()
        .into_iter()
        .map(|x| {
            let t = switch_ops_for_visit_rate(m, x);
            let observed: Vec<f64> = (0..cfg.reps)
                .map(|rep| {
                    Run::sequential()
                        .switches(t)
                        .seed(cfg.seed ^ (rep as u64 + 1) ^ (x * 1000.0) as u64)
                        .execute(&base)
                        .visit_rate()
                })
                .collect();
            (x, observed)
        })
        .collect()
}

/// Table 1: average error rate and standard deviation of observed visit
/// rates against the desired rates.
pub fn table1(cfg: &ExpConfig) -> Report {
    let series = observe(cfg);
    let mut rows = Vec::new();
    let mut abs_err_sum = 0.0;
    let mut x_sum = 0.0;
    let mut max_err: f64 = 0.0;
    for (x, obs) in &series {
        let mean = obs.iter().sum::<f64>() / obs.len() as f64;
        let var = obs.iter().map(|o| (o - mean) * (o - mean)).sum::<f64>() / obs.len() as f64;
        for o in obs {
            abs_err_sum += (x - o).abs();
            x_sum += x;
            max_err = max_err.max((x - o).abs() / x * 100.0);
        }
        rows.push(vec![
            f(*x, 1),
            f(mean, 6),
            format!("{:.2e}", var.sqrt()),
            f((x - mean).abs() / x * 100.0, 4),
        ]);
    }
    let avg_err = abs_err_sum / x_sum * 100.0;
    let rendered = format!(
        "{}\naverage error rate = {:.4}%  (paper: avg 0.007%, max 0.027%)\nmax error rate = {max_err:.4}%\n",
        table(&["x (desired)", "mean observed", "stddev", "err %"], &rows),
        avg_err
    );
    Report {
        id: "table1".into(),
        title: "visit-rate accuracy of t = E[T]/2 (Section 3.1)".into(),
        data: json!({
            "series": series.iter().map(|(x, obs)| json!({"x": x, "observed": obs})).collect::<Vec<_>>(),
            "avg_error_pct": avg_err,
            "max_error_pct": max_err,
            "paper": {"avg_error_pct": 0.007, "max_error_pct": 0.027},
        }),
        rendered,
    }
}

/// Figure 2: desired vs observed visit rate with min/max bars.
pub fn fig2(cfg: &ExpConfig) -> Report {
    let series = observe(cfg);
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|(x, obs)| {
            let min = obs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = obs.iter().cloned().fold(0.0, f64::max);
            vec![f(*x, 1), f(min, 6), f(max, 6)]
        })
        .collect();
    Report {
        id: "fig2".into(),
        title: "observed vs desired visit rate (error bars = min/max)".into(),
        data: json!(series
            .iter()
            .map(|(x, obs)| json!({"x": x, "observed": obs}))
            .collect::<Vec<_>>()),
        rendered: table(&["desired x", "observed min", "observed max"], &rows),
    }
}

/// Table 2: dataset inventory — paper sizes and this repro's scaled
/// stand-ins, with the generated graphs' actual statistics.
pub fn table2(cfg: &ExpConfig) -> Report {
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for ds in Dataset::scaling_set() {
        let spec = ds.spec(cfg.scale);
        let g = dataset_graph(ds, cfg.scale, cfg.seed);
        rows.push(vec![
            spec.name.to_string(),
            spec.class.to_string(),
            format!(
                "{:.2}M/{:.1}M",
                spec.paper_vertices as f64 / 1e6,
                spec.paper_edges as f64 / 1e6
            ),
            format!("{}", g.num_vertices()),
            format!("{}", g.num_edges()),
            f(g.avg_degree(), 2),
            f(spec.avg_degree, 2),
            format!("{}", full_visit_ops(g.num_edges())),
        ]);
        data.push(edgeswitch_json::json!({
            "name": spec.name, "class": spec.class,
            "paper_vertices": spec.paper_vertices, "paper_edges": spec.paper_edges,
            "n": g.num_vertices(), "m": g.num_edges(),
            "avg_degree": g.avg_degree(), "paper_avg_degree": spec.avg_degree,
        }));
    }
    Report {
        id: "table2".into(),
        title: "dataset inventory (scaled stand-ins for Table 2)".into(),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(
            &[
                "network",
                "class",
                "paper n/m",
                "n",
                "m",
                "avg deg",
                "paper deg",
                "t(x=1)",
            ],
            &rows,
        ),
    }
}
