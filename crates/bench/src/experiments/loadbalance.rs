//! Load-balance figures (16–21): vertex, edge, and workload
//! distributions per partitioning scheme, before and after a full-visit
//! run, including the adversarial HP-D worst case.

use super::ExpConfig;
use crate::report::{f, table, Report};
use crate::{dataset_graph, full_visit_ops};
use edgeswitch_core::config::{ParallelConfig, StepSize};
use edgeswitch_core::Run;
use edgeswitch_dist::rng::root_rng;
use edgeswitch_graph::generators::Dataset;
use edgeswitch_graph::partition::adversary::division_worst_case;
use edgeswitch_graph::partition::stats::{coefficient_of_variation, imbalance, PartitionStats};
use edgeswitch_graph::{Graph, Partitioner, SchemeKind};
use edgeswitch_json::json;

/// World size for the distribution figures. The paper uses `p = 1024`
/// on graphs 1000× larger; at this repository's dataset scale the same
/// per-partition load (~1-2k edges, tens of vertices) corresponds to
/// `p = 64`.
const P: usize = 64;

/// Distribution figures get a 2× dataset-scale boost so partitions hold
/// multiple label communities (the regime where CP's migration skew is
/// visible).
fn lb_scale(cfg: &ExpConfig) -> f64 {
    cfg.scale * 2.0
}

fn build(scheme: SchemeKind, g: &Graph, seed: u64) -> Partitioner {
    let mut rng = root_rng(seed ^ 0x10ad);
    Partitioner::build(scheme, g, P, &mut rng)
}

/// Mean of the first and last deciles — the paper's CP skew is a
/// monotone drift across ranks (low ranks gain edges, high ranks lose
/// them), which min/max statistics alone do not show.
fn decile_means(counts: &[u64]) -> (f64, f64) {
    let k = (counts.len() / 10).max(1);
    let head = counts[..k].iter().sum::<u64>() as f64 / k as f64;
    let tail = counts[counts.len() - k..].iter().sum::<u64>() as f64 / k as f64;
    (head, tail)
}

fn summarize(counts: &[u64]) -> Vec<String> {
    let (head, tail) = decile_means(counts);
    let min = *counts.iter().min().unwrap_or(&0);
    let max = *counts.iter().max().unwrap_or(&0);
    let mean = counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64;
    vec![
        min.to_string(),
        max.to_string(),
        f(mean, 1),
        f(imbalance(counts), 3),
        f(coefficient_of_variation(counts), 3),
        f(head, 1),
        f(tail, 1),
    ]
}

fn summary_json(counts: &[u64]) -> edgeswitch_json::Json {
    let (head, tail) = decile_means(counts);
    json!({
        "first_decile_mean": head,
        "last_decile_mean": tail,
        "min": counts.iter().min(),
        "max": counts.iter().max(),
        "mean": counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64,
        "imbalance": imbalance(counts),
        "cv": coefficient_of_variation(counts),
        "counts": counts,
    })
}

const SUMMARY_HEADER: [&str; 9] = [
    "scheme",
    "quantity",
    "min",
    "max",
    "mean",
    "max/mean",
    "cv",
    "rank 0-10%",
    "rank 90-100%",
];

/// Figure 16: vertices per processor, by scheme (Miami).
pub fn fig16(cfg: &ExpConfig) -> Report {
    initial_distribution(
        cfg,
        true,
        "fig16",
        "vertices per processor by scheme, Miami, p = 64",
    )
}

/// Figure 17: initial edges per processor, by scheme (Miami).
pub fn fig17(cfg: &ExpConfig) -> Report {
    initial_distribution(
        cfg,
        false,
        "fig17",
        "initial edges per processor by scheme, Miami, p = 64",
    )
}

fn initial_distribution(cfg: &ExpConfig, vertices: bool, id: &str, title: &str) -> Report {
    let g = dataset_graph(Dataset::Miami, lb_scale(cfg), cfg.seed);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for scheme in SchemeKind::all() {
        let part = build(scheme, &g, cfg.seed);
        let stats = PartitionStats::measure(&g, &part);
        let counts = if vertices {
            &stats.vertices
        } else {
            &stats.edges
        };
        let mut row = vec![
            scheme.label().to_string(),
            if vertices { "vertices" } else { "edges" }.to_string(),
        ];
        row.extend(summarize(counts));
        rows.push(row);
        data.push(json!({"scheme": scheme.label(), "summary": summary_json(counts)}));
    }
    Report {
        id: id.into(),
        title: title.into(),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(&SUMMARY_HEADER, &rows),
    }
}

/// Run a full-visit parallel process and return (final edges, workload).
fn full_run(g: &Graph, scheme: SchemeKind, part: &Partitioner, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let t = full_visit_ops(g.num_edges());
    let pcfg = ParallelConfig::new(P)
        .with_scheme(scheme)
        .with_step_size(StepSize::FractionOfT(100))
        .with_seed(seed);
    let out = Run::simulated(P)
        .switches(t)
        .prepared(pcfg, Some(part.clone()))
        .execute(g)
        .into_parallel()
        .expect("simulated run");
    (out.final_edges.clone(), out.workload())
}

/// Figure 18: edges per processor at completion, by scheme (Miami). CP's
/// distribution skews badly (clustered label-local edges migrate away);
/// HP schemes stay balanced.
pub fn fig18(cfg: &ExpConfig) -> Report {
    let g = dataset_graph(Dataset::Miami, lb_scale(cfg), cfg.seed);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for scheme in SchemeKind::all() {
        let part = build(scheme, &g, cfg.seed);
        let (final_edges, _) = full_run(&g, scheme, &part, cfg.seed);
        let mut row = vec![scheme.label().to_string(), "final edges".to_string()];
        row.extend(summarize(&final_edges));
        rows.push(row);
        data.push(json!({"scheme": scheme.label(), "summary": summary_json(&final_edges)}));
    }
    Report {
        id: "fig18".into(),
        title: "edges per processor at completion by scheme, Miami, p = 64".into(),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(&SUMMARY_HEADER, &rows),
    }
}

/// Figure 19: workload (switch operations) per processor, Miami.
pub fn fig19(cfg: &ExpConfig) -> Report {
    workload_figure(
        cfg,
        Dataset::Miami,
        "fig19",
        "workload distribution by scheme, Miami, p = 64",
    )
}

/// Figure 20: workload per processor, PA graph.
pub fn fig20(cfg: &ExpConfig) -> Report {
    workload_figure(
        cfg,
        Dataset::Pa100M,
        "fig20",
        "workload distribution by scheme, PA, p = 64",
    )
}

fn workload_figure(cfg: &ExpConfig, ds: Dataset, id: &str, title: &str) -> Report {
    let g = dataset_graph(ds, lb_scale(cfg), cfg.seed);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for scheme in SchemeKind::all() {
        let part = build(scheme, &g, cfg.seed);
        let (_, workload) = full_run(&g, scheme, &part, cfg.seed);
        let mut row = vec![scheme.label().to_string(), "switch ops".to_string()];
        row.extend(summarize(&workload));
        rows.push(row);
        data.push(json!({"scheme": scheme.label(), "summary": summary_json(&workload)}));
    }
    Report {
        id: id.into(),
        title: title.into(),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(&SUMMARY_HEADER, &rows),
    }
}

/// Figure 21: the adversarial HP-D worst case — the relabeled PA graph
/// piles its hubs on one processor, whose workload dwarfs the rest.
pub fn fig21(cfg: &ExpConfig) -> Report {
    let g = dataset_graph(Dataset::Pa100M, lb_scale(cfg), cfg.seed);
    let target = P / 4;
    let relabeled = division_worst_case(&g, P, target).apply(&g);
    let part = Partitioner::hash_division(P);
    let (_, workload) = full_run(&relabeled, SchemeKind::HashDivision, &part, cfg.seed);
    let hot = workload[target];
    let rest_mean = (workload.iter().sum::<u64>() - hot) as f64 / (P - 1) as f64;
    let mut row = vec!["HP-D adversarial".to_string(), "switch ops".to_string()];
    row.extend(summarize(&workload));
    let rendered = format!(
        "{}\nhot rank {target}: {hot} ops vs {rest_mean:.1} mean elsewhere ({:.1}x)\n",
        table(&SUMMARY_HEADER, &[row]),
        hot as f64 / rest_mean.max(1.0),
    );
    Report {
        id: "fig21".into(),
        title: "adversarial worst-case workload, HP-D on relabeled PA, p = 64".into(),
        data: json!({
            "target_rank": target,
            "hot_workload": hot,
            "mean_other": rest_mean,
            "summary": summary_json(&workload),
        }),
        rendered,
    }
}
