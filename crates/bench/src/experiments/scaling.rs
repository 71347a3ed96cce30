//! Scaling figures: strong scaling (Figures 4, 14, 15), weak scaling
//! (Figures 5, 23) and the adversarial worst case (Figure 22), all on
//! the virtual cluster (`edgeswitch-scalesim`).

use super::ExpConfig;
use crate::report::{f, table, Report};
use crate::{dataset_graph, full_visit_ops, scaling_processor_grid};
use edgeswitch_core::config::StepSize;
use edgeswitch_core::Run;
use edgeswitch_dist::rng::root_rng;
use edgeswitch_graph::generators::{preferential_attachment, Dataset};
use edgeswitch_graph::partition::adversary::division_worst_case;
use edgeswitch_graph::{Partitioner, SchemeKind};
use edgeswitch_json::json;
use edgeswitch_scalesim::{strong_scaling, weak_scaling, CostModel, ScalePoint};

/// The figures' run per `p`: `t` operations, step size `t/100`.
fn run_for(scheme: SchemeKind, t: u64, seed: u64) -> impl Fn(usize) -> Run {
    move |p| {
        Run::simulated(p)
            .switches(t)
            .scheme(scheme)
            .step_size(StepSize::FractionOfT(100))
            .seed(seed)
    }
}

fn render_curves(curves: &[(String, Vec<ScalePoint>)]) -> String {
    let mut rows = Vec::new();
    for (name, pts) in curves {
        for pt in pts {
            rows.push(vec![
                name.clone(),
                pt.p.to_string(),
                f(pt.runtime_s, 3),
                f(pt.speedup, 1),
                f(pt.workload_imbalance, 2),
            ]);
        }
    }
    table(&["series", "p", "time (s)", "speedup", "imbalance"], &rows)
}

fn curves_json(curves: &[(String, Vec<ScalePoint>)]) -> edgeswitch_json::Json {
    let point = |pt: &ScalePoint| {
        json!({
            "p": pt.p,
            "runtime_s": pt.runtime_s,
            "speedup": pt.speedup,
            "packets": pt.packets,
            "workload_imbalance": pt.workload_imbalance,
        })
    };
    json!(curves
        .iter()
        .map(|(name, pts)| json!({
            "series": name,
            "points": pts.iter().map(point).collect::<Vec<_>>(),
        }))
        .collect::<Vec<_>>())
}

/// Strong scaling of the CP algorithm over the eight scaling datasets
/// (Figure 4): visit rate 1, step size `t/100`.
pub fn fig4(cfg: &ExpConfig) -> Report {
    strong_scaling_figure(
        cfg,
        SchemeKind::Consecutive,
        "fig4",
        "strong scaling, CP scheme, 8 graphs (x = 1, s = t/100)",
    )
}

/// Strong scaling of the HP-U algorithm (Figure 14).
pub fn fig14(cfg: &ExpConfig) -> Report {
    strong_scaling_figure(
        cfg,
        SchemeKind::HashUniversal,
        "fig14",
        "strong scaling, HP-U scheme, 8 graphs (x = 1, s = t/100)",
    )
}

fn strong_scaling_figure(cfg: &ExpConfig, scheme: SchemeKind, id: &str, title: &str) -> Report {
    let cost = CostModel::default();
    let ps = scaling_processor_grid();
    let mut curves = Vec::new();
    for ds in Dataset::scaling_set() {
        let g = dataset_graph(ds, cfg.scale, cfg.seed);
        let t = full_visit_ops(g.num_edges());
        let pts = strong_scaling(&g, &ps, &cost, run_for(scheme, t, cfg.seed));
        curves.push((ds.name().to_string(), pts));
    }
    Report {
        id: id.into(),
        title: title.into(),
        data: curves_json(&curves),
        rendered: render_curves(&curves),
    }
}

/// Strong-scaling comparison of all four schemes on Miami and PA
/// (Figure 15).
pub fn fig15(cfg: &ExpConfig) -> Report {
    let cost = CostModel::default();
    let ps = scaling_processor_grid();
    let mut curves = Vec::new();
    for ds in [Dataset::Miami, Dataset::Pa100M] {
        let g = dataset_graph(ds, cfg.scale, cfg.seed);
        let t = full_visit_ops(g.num_edges());
        for scheme in SchemeKind::all() {
            let pts = strong_scaling(&g, &ps, &cost, run_for(scheme, t, cfg.seed));
            curves.push((format!("{}/{}", ds.name(), scheme.label()), pts));
        }
    }
    Report {
        id: "fig15".into(),
        title: "strong scaling by partitioning scheme, Miami & PA".into(),
        data: curves_json(&curves),
        rendered: render_curves(&curves),
    }
}

/// Weak scaling of the CP algorithm on PA graphs (Figure 5): a fixed
/// graph and a `p`-proportional graph, `t = p·c`, `s = t/1000`.
pub fn fig5(cfg: &ExpConfig) -> Report {
    weak_scaling_figure(
        cfg,
        &[SchemeKind::Consecutive],
        "fig5",
        "weak scaling, CP scheme, fixed & growing PA graphs",
    )
}

/// Weak scaling of all four schemes (Figure 23).
pub fn fig23(cfg: &ExpConfig) -> Report {
    weak_scaling_figure(
        cfg,
        &SchemeKind::all(),
        "fig23",
        "weak scaling comparison of the four schemes on PA graphs",
    )
}

fn weak_scaling_figure(cfg: &ExpConfig, schemes: &[SchemeKind], id: &str, title: &str) -> Report {
    let cost = CostModel::default();
    let ps = vec![16usize, 64, 256, 1024];
    // Paper: growing = p × 0.1M vertices, fixed = 102.4M vertices,
    // t = p × 10M, s = t/1000. Scaled 1/1000 (and by cfg.scale).
    let per_p_vertices = ((100.0 * cfg.scale) as usize).max(50);
    let fixed_n = ((102_400.0 * cfg.scale) as usize).max(2000);
    let ops_per_p = ((10_000.0 * cfg.scale) as u64).max(1000);
    let seed = cfg.seed;
    let mut curves = Vec::new();
    for &scheme in schemes {
        let make_run = move |p: usize| {
            Run::simulated(p)
                .switches(ops_per_p * p as u64)
                .scheme(scheme)
                .step_size(StepSize::FractionOfT(1000))
                .seed(seed)
        };
        let growing = weak_scaling(&ps, &cost, |p| {
            let mut rng = root_rng(seed ^ p as u64);
            let n = (per_p_vertices * p).max(64);
            (preferential_attachment(n, 10, &mut rng), make_run(p))
        });
        curves.push((format!("{}/growing", scheme.label()), growing));
        let fixed_graph = {
            let mut rng = root_rng(seed ^ 0xF1BED);
            preferential_attachment(fixed_n, 10, &mut rng)
        };
        let fixed = weak_scaling(&ps, &cost, |p| (fixed_graph.clone(), make_run(p)));
        curves.push((format!("{}/fixed", scheme.label()), fixed));
    }
    Report {
        id: id.into(),
        title: title.into(),
        data: curves_json(&curves),
        rendered: render_curves(&curves),
    }
}

/// Adversarial worst case for HP-D (Figure 22): speedup at `p = 1024`
/// of the relabeled PA graph under each scheme.
pub fn fig22(cfg: &ExpConfig) -> Report {
    let cost = CostModel::default();
    let p = 1024usize;
    let g = dataset_graph(Dataset::Pa100M, cfg.scale, cfg.seed);
    let t = full_visit_ops(g.num_edges());
    // Relabel so HP-D piles the high-degree vertices on one rank.
    let relabeled = division_worst_case(&g, p, p / 4).apply(&g);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    let mut run = |label: &str, graph: &edgeswitch_graph::Graph, part: Partitioner, scheme| {
        let pts = strong_scaling(graph, &[p], &cost, |p| {
            let run = run_for(scheme, t, cfg.seed)(p);
            let config = run.config().clone();
            run.prepared(config, Some(part.clone()))
        });
        let pt = &pts[0];
        rows.push(vec![
            label.to_string(),
            f(pt.speedup, 1),
            f(pt.workload_imbalance, 2),
        ]);
        data.push(json!({"scheme": label, "speedup": pt.speedup,
                         "imbalance": pt.workload_imbalance}));
    };
    let mut rng = root_rng(cfg.seed ^ 0x22);
    run(
        "HP-D (adversarial labels)",
        &relabeled,
        Partitioner::hash_division(p),
        SchemeKind::HashDivision,
    );
    run(
        "HP-D (natural labels)",
        &g,
        Partitioner::hash_division(p),
        SchemeKind::HashDivision,
    );
    run(
        "HP-U (adversarial labels)",
        &relabeled,
        Partitioner::hash_universal(p, &mut rng),
        SchemeKind::HashUniversal,
    );
    run(
        "CP (adversarial labels)",
        &relabeled,
        Partitioner::consecutive(&relabeled, p),
        SchemeKind::Consecutive,
    );
    Report {
        id: "fig22".into(),
        title: "worst-case scenario speedups on PA, p = 1024".into(),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(&["configuration", "speedup", "imbalance"], &rows),
    }
}
