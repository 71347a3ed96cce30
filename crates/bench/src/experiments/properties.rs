//! Network-property trajectories under switching (Figures 12–13): the
//! sequential and parallel processes must change the average clustering
//! coefficient and average shortest-path distance the same way.

use super::ExpConfig;
use crate::dataset_graph;
use crate::report::{f, table, Report};
use edgeswitch_core::config::StepSize;
use edgeswitch_core::run::Run;
use edgeswitch_dist::rng::root_rng;
use edgeswitch_dist::switch_ops_for_visit_rate;
use edgeswitch_graph::generators::Dataset;
use edgeswitch_graph::metrics::{average_clustering_sampled, average_shortest_path_sampled};
use edgeswitch_graph::{Graph, SchemeKind};
use edgeswitch_json::json;

const GRAPHS: [Dataset; 3] = [Dataset::Miami, Dataset::LiveJournal, Dataset::Flickr];
const P: usize = 256;
const CC_SAMPLES: usize = 2000;
const PATH_SOURCES: usize = 40;

fn trajectory<M>(cfg: &ExpConfig, metric: M, id: &str, title: &str) -> Report
where
    M: Fn(&Graph, u64) -> f64,
{
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for ds in GRAPHS {
        let base = dataset_graph(ds, cfg.scale, cfg.seed);
        let m = base.num_edges() as u64;
        for i in 0..=10u32 {
            let x = i as f64 / 10.0;
            let t = switch_ops_for_visit_rate(m, x);
            // Sequential trajectory point.
            let gs = Run::sequential()
                .switches(t)
                .seed(cfg.seed ^ (i as u64) ^ 0x5E9)
                .execute(&base)
                .into_sequential()
                .expect("sequential run")
                .graph;
            let seq_val = metric(&gs, cfg.seed ^ i as u64);
            // Parallel trajectory point.
            let gp = if t == 0 {
                base.clone()
            } else {
                Run::simulated(P)
                    .switches(t)
                    .scheme(SchemeKind::Consecutive)
                    .step_size(StepSize::FractionOfT(100))
                    .seed(cfg.seed ^ (i as u64) << 8)
                    .execute(&base)
                    .into_parallel()
                    .expect("parallel outcome")
                    .graph
            };
            let par_val = metric(&gp, cfg.seed ^ i as u64);
            rows.push(vec![
                ds.name().into(),
                f(x, 1),
                f(seq_val, 4),
                f(par_val, 4),
            ]);
            data.push(json!({"graph": ds.name(), "x": x,
                             "sequential": seq_val, "parallel": par_val}));
        }
    }
    Report {
        id: id.into(),
        title: title.into(),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(&["graph", "visit rate", "sequential", "parallel"], &rows),
    }
}

/// Figure 12: average clustering coefficient vs visit rate.
pub fn fig12(cfg: &ExpConfig) -> Report {
    trajectory(
        cfg,
        |g, seed| {
            let mut rng = root_rng(seed ^ 0xCC);
            average_clustering_sampled(g, CC_SAMPLES.min(g.num_vertices()), &mut rng)
        },
        "fig12",
        "avg clustering coefficient vs visit rate, sequential vs parallel",
    )
}

/// Figure 13: average shortest-path distance vs visit rate (sampled
/// BFS, as the paper's approximate computation).
pub fn fig13(cfg: &ExpConfig) -> Report {
    trajectory(
        cfg,
        |g, seed| {
            let mut rng = root_rng(seed ^ 0xAD);
            average_shortest_path_sampled(g, PATH_SOURCES, &mut rng)
        },
        "fig13",
        "avg shortest-path distance vs visit rate, sequential vs parallel",
    )
}
