//! Multinomial scaling (Figures 24–25): the parallel algorithm of
//! Section 6 at the paper's trial counts (10⁴ billion trials), on the
//! virtual cluster, grounded by a real measured run.

use super::ExpConfig;
use crate::report::{f, table, Report};
use edgeswitch_dist::multinomial::multinomial;
use edgeswitch_dist::parallel::{multinomial_partitioned, trial_share};
use edgeswitch_dist::rng::root_rng;
use edgeswitch_json::json;
use edgeswitch_scalesim::{multinomial_strong_scaling, multinomial_weak_scaling, CostModel};
use std::time::Instant;

/// Calibrate the per-trial BINV cost on this host with a real
/// measurement, then return (model, measured ns/trial, verification
/// draw).
fn calibrated(cfg: &ExpConfig) -> (CostModel, f64, Vec<u64>) {
    let mut model = CostModel::default();
    let n = ((50_000_000.0 * cfg.scale) as u64).max(1_000_000);
    let l = 20usize;
    let q = vec![1.0 / l as f64; l];
    let mut rng = root_rng(cfg.seed ^ 0x24);
    let start = Instant::now();
    let x = multinomial(n, &q, &mut rng);
    let per_trial = start.elapsed().as_nanos() as f64 / n as f64;
    model.binv_trial_ns = per_trial.clamp(0.5, 100.0);
    (model, per_trial, x)
}

/// Figure 24: strong scaling of parallel multinomial generation,
/// `N = 10000B`, `ℓ = 20`, uniform probabilities.
pub fn fig24(cfg: &ExpConfig) -> Report {
    let (model, per_trial, sample) = calibrated(cfg);
    let n = 10_000_000_000_000u64; // the paper's 10000B trials
    let ps = [64usize, 128, 256, 512, 1024];
    let series = multinomial_strong_scaling(n, 20, &ps, &model);
    // Real distributed-semantics verification at small scale: the
    // partitioned draw (what each virtual rank computes) sums to N.
    let verify_n = 1_000_000u64;
    let mut rng = root_rng(cfg.seed ^ 0x2424);
    let verify = multinomial_partitioned(verify_n, &[0.05; 20], 64, &mut rng);
    assert_eq!(verify.iter().sum::<u64>(), verify_n);

    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|(p, time_s, speedup)| vec![p.to_string(), f(*time_s, 1), f(*speedup, 1)])
        .collect();
    let rendered = format!(
        "{}\nmeasured BINV cost: {per_trial:.2} ns/trial (host calibration)\n\
         paper: 71 s and speedup 925 at p = 1024\n",
        table(&["p", "time (s)", "speedup"], &rows)
    );
    Report {
        id: "fig24".into(),
        title: "multinomial strong scaling, N = 10000B, l = 20".into(),
        data: json!({
            "series": series.iter().map(|(p, t, s)| json!({"p": p, "time_s": t, "speedup": s})).collect::<Vec<_>>(),
            "measured_ns_per_trial": per_trial,
            "calibration_sample_sum": sample.iter().sum::<u64>(),
            "paper": {"p": 1024, "time_s": 71, "speedup": 925},
        }),
        rendered,
    }
}

/// Figure 25: weak scaling, `N = p × 20B`, `ℓ = p`, uniform.
pub fn fig25(cfg: &ExpConfig) -> Report {
    let (model, per_trial, _) = calibrated(cfg);
    let ps = [64usize, 128, 256, 512, 1024];
    let series = multinomial_weak_scaling(20_000_000_000, &ps, &model);
    // Semantics check: trial shares partition N exactly at every p.
    for &p in &ps {
        let n = p as u64 * 1000;
        let total: u64 = (0..p).map(|r| trial_share(n, p, r)).sum();
        assert_eq!(total, n);
    }
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|(p, time_s)| vec![p.to_string(), f(*time_s, 2)])
        .collect();
    let rendered = format!(
        "{}\nmeasured BINV cost: {per_trial:.2} ns/trial\n\
         paper: near-constant runtime across p (perfect weak scaling)\n",
        table(&["p", "time (s)"], &rows)
    );
    Report {
        id: "fig25".into(),
        title: "multinomial weak scaling, N = p x 20B, l = p".into(),
        data: json!({
            "series": series.iter().map(|(p, t)| json!({"p": p, "time_s": t})).collect::<Vec<_>>(),
            "measured_ns_per_trial": per_trial,
        }),
        rendered,
    }
}
