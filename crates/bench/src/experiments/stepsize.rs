//! Step-size studies (Figures 6–11): the CP scheme's trade-off between
//! speedup (larger steps amortize the collectives) and error rate
//! (larger steps let `q` go stale).

use super::ExpConfig;
use crate::report::{f, table, Report};
use crate::{dataset_graph, full_visit_ops};
use edgeswitch_core::config::StepSize;
use edgeswitch_core::error_rate::error_rate;
use edgeswitch_core::run::Run;
use edgeswitch_graph::generators::Dataset;
use edgeswitch_graph::{Graph, SchemeKind};
use edgeswitch_json::json;
use edgeswitch_scalesim::{des_run, CostModel};

/// Block count of the error-rate metric (the paper uses `r = 20`).
const R_BLOCKS: usize = 20;

/// Step sizes studied, as divisors of `t` (the paper's absolute sizes
/// 0.5M–9.4M on Miami's t = 468M correspond to roughly t/1000 … t/50).
fn step_divisors() -> Vec<u64> {
    vec![1000, 300, 100, 30, 10]
}

fn speedup_at(
    g: &Graph,
    t: u64,
    p: usize,
    div: u64,
    scheme: SchemeKind,
    seed: u64,
    cost: &CostModel,
) -> f64 {
    let run = Run::simulated(p)
        .switches(t)
        .scheme(scheme)
        .step_size(StepSize::FractionOfT(div))
        .seed(seed);
    des_run(&run, g, cost).1.speedup
}

/// Mean error rate between `reps` parallel runs and matched sequential
/// runs; also returns the seq-vs-seq baseline.
fn error_rates(
    g: &Graph,
    t: u64,
    p: usize,
    step: StepSize,
    scheme: SchemeKind,
    cfg: &ExpConfig,
) -> (f64, f64) {
    let mut par_vs_seq = 0.0;
    let mut seq_vs_seq = 0.0;
    for rep in 0..cfg.reps {
        let seed = cfg.seed ^ (0x51e9 * (rep as u64 + 1));
        let sequential = |s: u64| {
            Run::sequential()
                .switches(t)
                .seed(s)
                .execute(g)
                .into_sequential()
                .expect("sequential run")
                .graph
        };
        let gs1 = sequential(seed ^ 1);
        let gs2 = sequential(seed ^ 2);
        let out = Run::simulated(p)
            .switches(t)
            .scheme(scheme)
            .step_size(step)
            .seed(seed ^ 3)
            .execute(g)
            .into_parallel()
            .expect("parallel outcome");
        par_vs_seq += error_rate(&gs1, &out.graph, R_BLOCKS);
        seq_vs_seq += error_rate(&gs1, &gs2, R_BLOCKS);
    }
    (par_vs_seq / cfg.reps as f64, seq_vs_seq / cfg.reps as f64)
}

/// Figure 6: strong scaling of CP on Miami for several step sizes.
pub fn fig6(cfg: &ExpConfig) -> Report {
    let g = dataset_graph(Dataset::Miami, cfg.scale, cfg.seed);
    let t = full_visit_ops(g.num_edges());
    let cost = CostModel::default();
    let ps = [64usize, 256, 1024];
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for div in step_divisors() {
        for &p in &ps {
            let s = speedup_at(&g, t, p, div, SchemeKind::Consecutive, cfg.seed, &cost);
            rows.push(vec![format!("t/{div}"), p.to_string(), f(s, 1)]);
            data.push(json!({"step": format!("t/{div}"), "p": p, "speedup": s}));
        }
    }
    Report {
        id: "fig6".into(),
        title: "strong scaling vs step size, Miami, CP".into(),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(&["step size", "p", "speedup"], &rows),
    }
}

/// Figure 7: error rate vs processors for several step sizes (CP,
/// Miami) — roughly flat in `p`.
pub fn fig7(cfg: &ExpConfig) -> Report {
    let g = dataset_graph(Dataset::Miami, cfg.scale, cfg.seed);
    let t = full_visit_ops(g.num_edges());
    // Scaled-down p grid: the paper's m/p ≈ 50k per partition maps to
    // p ≤ 256 at 1/1000 dataset scale.
    let ps = [16usize, 64, 256];
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for div in [1000u64, 100, 10] {
        for &p in &ps {
            let (er, base) = error_rates(
                &g,
                t,
                p,
                StepSize::FractionOfT(div),
                SchemeKind::Consecutive,
                cfg,
            );
            rows.push(vec![
                format!("t/{div}"),
                p.to_string(),
                f(er, 3),
                f(base, 3),
            ]);
            data.push(json!({"step": format!("t/{div}"), "p": p,
                             "error_rate": er, "seq_baseline": base}));
        }
    }
    Report {
        id: "fig7".into(),
        title: "error rate vs p per step size, Miami, CP (r = 20)".into(),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(&["step size", "p", "ER(seq,par) %", "ER(seq,seq) %"], &rows),
    }
}

/// Figure 8: speedup vs step size at `p = 1024` (Miami, CP).
pub fn fig8(cfg: &ExpConfig) -> Report {
    step_sweep_speedup(
        cfg,
        &[Dataset::Miami],
        "fig8",
        "speedup vs step size, Miami, CP, p = 1024",
    )
}

/// Figure 9: error rate vs step size at `p = 1024` with the seq-vs-seq
/// baseline (Miami, CP).
pub fn fig9(cfg: &ExpConfig) -> Report {
    step_sweep_error(
        cfg,
        &[Dataset::Miami],
        "fig9",
        "error rate vs step size, Miami, CP, p = 64 (r = 20)",
    )
}

/// Figure 10: speedup vs step size for four graphs.
pub fn fig10(cfg: &ExpConfig) -> Report {
    step_sweep_speedup(
        cfg,
        &[
            Dataset::Flickr,
            Dataset::Miami,
            Dataset::LiveJournal,
            Dataset::ErdosRenyi,
        ],
        "fig10",
        "speedup vs step size, 4 graphs, CP, p = 1024",
    )
}

/// Figure 11: error rate vs step size for four graphs.
pub fn fig11(cfg: &ExpConfig) -> Report {
    step_sweep_error(
        cfg,
        &[
            Dataset::Flickr,
            Dataset::Miami,
            Dataset::LiveJournal,
            Dataset::ErdosRenyi,
        ],
        "fig11",
        "error rate vs step size, 4 graphs, CP, p = 64 (r = 20)",
    )
}

fn step_sweep_speedup(cfg: &ExpConfig, sets: &[Dataset], id: &str, title: &str) -> Report {
    let cost = CostModel::default();
    let p = 1024;
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &ds in sets {
        let g = dataset_graph(ds, cfg.scale, cfg.seed);
        let t = full_visit_ops(g.num_edges());
        for div in step_divisors() {
            let s = speedup_at(&g, t, p, div, SchemeKind::Consecutive, cfg.seed, &cost);
            rows.push(vec![ds.name().into(), format!("t/{div}"), f(s, 1)]);
            data.push(json!({"graph": ds.name(), "step": format!("t/{div}"), "speedup": s}));
        }
    }
    Report {
        id: id.into(),
        title: title.into(),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(&["graph", "step size", "speedup"], &rows),
    }
}

fn step_sweep_error(cfg: &ExpConfig, sets: &[Dataset], id: &str, title: &str) -> Report {
    // Error-rate sweeps use p = 64 to keep the paper's per-partition
    // load at this dataset scale (see table3's note).
    let p = 64;
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &ds in sets {
        let g = dataset_graph(ds, cfg.scale, cfg.seed);
        let t = full_visit_ops(g.num_edges());
        for div in step_divisors() {
            let (er, base) = error_rates(
                &g,
                t,
                p,
                StepSize::FractionOfT(div),
                SchemeKind::Consecutive,
                cfg,
            );
            rows.push(vec![
                ds.name().into(),
                format!("t/{div}"),
                f(er, 3),
                f(base, 3),
            ]);
            data.push(json!({"graph": ds.name(), "step": format!("t/{div}"),
                             "error_rate": er, "seq_baseline": base}));
        }
    }
    Report {
        id: id.into(),
        title: title.into(),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(
            &["graph", "step size", "ER(seq,par) %", "ER(seq,seq) %"],
            &rows,
        ),
    }
}
