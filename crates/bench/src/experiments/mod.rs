//! One experiment per table/figure of the paper. Each function returns a
//! [`Report`]; the `repro` binary dispatches by
//! id and archives results under `results/`.

pub mod ablation;
pub mod genscale;
pub mod loadbalance;
pub mod mixing;
pub mod multinomial;
pub mod properties;
pub mod scaling;
pub mod similarity;
pub mod stepsize;
pub mod telemetry;
pub mod trace;
pub mod visit;

use crate::report::Report;

/// Shared experiment knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Dataset scale (1.0 = the default 1/1000-of-paper size).
    pub scale: f64,
    /// Repetitions for experiments reporting averages over runs.
    pub reps: u32,
    /// Master seed.
    pub seed: u64,
    /// `repro trace` only: include the per-step timeline in the report
    /// data (the repro binary additionally writes it as `trace.jsonl`
    /// when invoked with `--timeline`).
    pub timeline: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 1.0,
            reps: 3,
            seed: 20140901, // ICPP 2014
            timeline: false,
        }
    }
}

/// All experiment ids, in the paper's presentation order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "table1", "fig2", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
        "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
        "fig21", "fig22", "fig23", "table3", "fig24", "fig25",
    ]
}

/// Ablation experiment ids (not paper figures; run via `repro <id>` or
/// `repro ablations`).
pub fn ablation_ids() -> Vec<&'static str> {
    vec!["ablation-quota", "ablation-latency"]
}

/// Diagnostic experiment ids (protocol telemetry, not paper figures; run
/// via `repro <id>` or `repro diagnostics`).
pub fn diagnostic_ids() -> Vec<&'static str> {
    vec!["telemetry-steps", "trace"]
}

/// Performance-tracking experiment ids (not paper figures; the repro
/// binary archives these as `BENCH_<id>.json` for regression tracking).
pub fn perf_ids() -> Vec<&'static str> {
    vec!["mixing", "genscale"]
}

/// Run one experiment by id; `None` for an unknown id.
pub fn run(id: &str, cfg: &ExpConfig) -> Option<Report> {
    Some(match id {
        "ablation-quota" => ablation::ablation_quota(cfg),
        "ablation-latency" => ablation::ablation_latency(cfg),
        "telemetry-steps" => telemetry::telemetry_steps(cfg),
        "trace" => trace::trace(cfg),
        "mixing" => mixing::mixing(cfg),
        "genscale" => genscale::genscale(cfg),
        "table1" => visit::table1(cfg),
        "fig2" => visit::fig2(cfg),
        "table2" => visit::table2(cfg),
        "fig4" => scaling::fig4(cfg),
        "fig5" => scaling::fig5(cfg),
        "fig6" => stepsize::fig6(cfg),
        "fig7" => stepsize::fig7(cfg),
        "fig8" => stepsize::fig8(cfg),
        "fig9" => stepsize::fig9(cfg),
        "fig10" => stepsize::fig10(cfg),
        "fig11" => stepsize::fig11(cfg),
        "fig12" => properties::fig12(cfg),
        "fig13" => properties::fig13(cfg),
        "fig14" => scaling::fig14(cfg),
        "fig15" => scaling::fig15(cfg),
        "fig16" => loadbalance::fig16(cfg),
        "fig17" => loadbalance::fig17(cfg),
        "fig18" => loadbalance::fig18(cfg),
        "fig19" => loadbalance::fig19(cfg),
        "fig20" => loadbalance::fig20(cfg),
        "fig21" => loadbalance::fig21(cfg),
        "fig22" => scaling::fig22(cfg),
        "fig23" => scaling::fig23(cfg),
        "table3" => similarity::table3(cfg),
        "fig24" => multinomial::fig24(cfg),
        "fig25" => multinomial::fig25(cfg),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        for id in ["fig99", "hotpath"] {
            assert!(run(id, &ExpConfig::default()).is_none(), "{id}");
        }
    }

    #[test]
    fn all_ids_are_known() {
        // Smoke-run only the cheapest one; the rest are covered by the
        // repro binary and integration tests.
        assert!(all_ids().contains(&"table1"));
        assert_eq!(all_ids().len(), 26);
    }
}
