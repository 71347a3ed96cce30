//! Ablations of design choices the paper motivates but does not plot:
//!
//! - **quota policy**: Algorithm 2 selects partners (and the multinomial
//!   splits quotas) with probability `|E_i|/|E|`. Replacing that with a
//!   uniform `1/p` breaks the stochastic equivalence argument — the
//!   ablation measures how much similarity degrades on a CP-partitioned
//!   clustered graph, where partition loads skew the most.
//! - **network latency**: the distributed algorithm is latency-bound
//!   (each operation's critical path is a short message chain), so
//!   predicted speedup at large `p` should scale almost inversely with
//!   the interconnect latency.

use super::ExpConfig;
use crate::report::{f, table, Report};
use crate::{dataset_graph, full_visit_ops};
use edgeswitch_core::config::{QuotaPolicy, StepSize};
use edgeswitch_core::error_rate::error_rate;
use edgeswitch_core::run::Run;
use edgeswitch_graph::generators::Dataset;
use edgeswitch_graph::SchemeKind;
use edgeswitch_json::json;
use edgeswitch_scalesim::{des_run, CostModel};

/// Quota-policy ablation: error rate and workload skew, edge-proportional
/// vs uniform, CP on the Miami stand-in.
pub fn ablation_quota(cfg: &ExpConfig) -> Report {
    let g = dataset_graph(Dataset::Miami, cfg.scale, cfg.seed);
    let t = full_visit_ops(g.num_edges());
    let p = 64;
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for (label, policy) in [
        ("|E_i|/|E| (paper)", QuotaPolicy::EdgeProportional),
        ("uniform 1/p (ablation)", QuotaPolicy::Uniform),
    ] {
        let mut er_sum = 0.0;
        let mut contended = 0u64;
        let mut forfeited = 0u64;
        for rep in 0..cfg.reps {
            let seed = cfg.seed ^ (0xab1a * (rep as u64 + 1));
            let gs = Run::sequential()
                .switches(t)
                .seed(seed ^ 1)
                .execute(&g)
                .into_sequential()
                .expect("sequential run")
                .graph;
            let out = Run::simulated(p)
                .switches(t)
                .scheme(SchemeKind::Consecutive)
                .step_size(StepSize::FractionOfT(100))
                .quota_policy(policy)
                .seed(seed ^ 2)
                .execute(&g)
                .into_parallel()
                .expect("parallel outcome");
            er_sum += error_rate(&gs, &out.graph, 20);
            contended += out.per_rank.iter().map(|s| s.aborts_contended).sum::<u64>();
            forfeited += out.forfeited();
        }
        let n = cfg.reps as f64;
        rows.push(vec![
            label.to_string(),
            f(er_sum / n, 3),
            f(contended as f64 / n, 0),
            f(forfeited as f64 / n, 0),
        ]);
        data.push(json!({"policy": label, "error_rate": er_sum / n,
                         "contended_aborts": contended as f64 / n,
                         "forfeited": forfeited as f64 / n}));
    }
    Report {
        id: "ablation-quota".into(),
        title: "ablation: edge-proportional vs uniform quota/partner weighting".into(),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(
            &[
                "quota policy",
                "ER(seq,par) %",
                "contended aborts",
                "forfeited",
            ],
            &rows,
        ),
    }
}

/// Latency ablation: predicted speedup at `p = 1024` against interconnect
/// latency (everything else fixed).
pub fn ablation_latency(cfg: &ExpConfig) -> Report {
    let g = dataset_graph(Dataset::Pa100M, cfg.scale, cfg.seed);
    let t = full_visit_ops(g.num_edges());
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for mult in [0.5f64, 1.0, 2.0, 4.0] {
        let mut cost = CostModel::default();
        cost.latency_ns *= mult;
        let run = Run::simulated(1024)
            .switches(t)
            .scheme(SchemeKind::Consecutive)
            .step_size(StepSize::FractionOfT(100))
            .seed(cfg.seed);
        let (_, report) = des_run(&run, &g, &cost);
        rows.push(vec![
            format!("{:.0}", cost.latency_ns),
            f(report.speedup, 1),
            f(report.runtime_ns / 1e6, 1),
        ]);
        data.push(
            json!({"latency_ns": cost.latency_ns, "speedup": report.speedup,
                         "runtime_ms": report.runtime_ns / 1e6}),
        );
    }
    Report {
        id: "ablation-latency".into(),
        title: "ablation: speedup at p = 1024 vs interconnect latency (PA graph)".into(),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(&["latency (ns)", "speedup", "runtime (ms)"], &rows),
    }
}
