//! Table 3: error-rate comparison of the parallel schemes against the
//! sequential algorithm — HP schemes in a single step, CP in one step
//! and with step size `t/100`.

use super::ExpConfig;
use crate::report::{f, table, Report};
use crate::{dataset_graph, full_visit_ops};
use edgeswitch_core::config::StepSize;
use edgeswitch_core::error_rate::error_rate;
use edgeswitch_core::run::Run;
use edgeswitch_graph::generators::Dataset;
use edgeswitch_graph::SchemeKind;
use edgeswitch_json::json;

const P: usize = 64;
const R_BLOCKS: usize = 20;

/// Table 3 (visit rate 1, r = 20, averaged over reps).
///
/// The paper runs p = 1024 on graphs with m/p ≈ 50k edges per
/// partition; at this repository's 1/1000 dataset scale the same
/// per-partition load corresponds to p = 64, which is what we use —
/// keeping p at 1024 would starve partitions (~15 edges each) and
/// overstate contention effects the paper's regime never sees.
pub fn table3(cfg: &ExpConfig) -> Report {
    let graphs = [Dataset::Miami, Dataset::SmallWorld, Dataset::LiveJournal];
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for ds in graphs {
        let base = dataset_graph(ds, cfg.scale, cfg.seed);
        let t = full_visit_ops(base.num_edges());
        let mut seq_seq = 0.0;
        let mut scheme_er = [0.0f64; 5]; // HP-D, HP-M, HP-U (1 step), CP 1 step, CP t/100
        for rep in 0..cfg.reps {
            let seed = cfg.seed ^ (0x7ab1e3 * (rep as u64 + 1));
            let sequential = |s: u64| {
                Run::sequential()
                    .switches(t)
                    .seed(s)
                    .execute(&base)
                    .into_sequential()
                    .expect("sequential run")
                    .graph
            };
            let gs1 = sequential(seed ^ 1);
            let gs2 = sequential(seed ^ 2);
            seq_seq += error_rate(&gs1, &gs2, R_BLOCKS);

            let runs: [(usize, SchemeKind, StepSize); 5] = [
                (0, SchemeKind::HashDivision, StepSize::SingleStep),
                (1, SchemeKind::HashMultiplication, StepSize::SingleStep),
                (2, SchemeKind::HashUniversal, StepSize::SingleStep),
                (3, SchemeKind::Consecutive, StepSize::SingleStep),
                (4, SchemeKind::Consecutive, StepSize::FractionOfT(100)),
            ];
            for (slot, scheme, step) in runs {
                let out = Run::simulated(P)
                    .switches(t)
                    .scheme(scheme)
                    .step_size(step)
                    .seed(seed ^ (slot as u64 + 3))
                    .execute(&base)
                    .into_parallel()
                    .expect("parallel outcome");
                scheme_er[slot] += error_rate(&gs1, &out.graph, R_BLOCKS);
            }
        }
        let n = cfg.reps as f64;
        seq_seq /= n;
        for er in scheme_er.iter_mut() {
            *er /= n;
        }
        rows.push(vec![
            ds.name().into(),
            f(seq_seq, 3),
            f(scheme_er[0], 3),
            f(scheme_er[1], 3),
            f(scheme_er[2], 3),
            f(scheme_er[3], 3),
            f(scheme_er[4], 3),
        ]);
        data.push(json!({
            "graph": ds.name(),
            "seq_vs_seq": seq_seq,
            "hpd_1step": scheme_er[0],
            "hpm_1step": scheme_er[1],
            "hpu_1step": scheme_er[2],
            "cp_1step": scheme_er[3],
            "cp_t100": scheme_er[4],
        }));
    }
    Report {
        id: "table3".into(),
        title: format!("error-rate comparison of schemes vs sequential (x = 1, p = {P}, r = 20)"),
        data: edgeswitch_json::Json::Arr(data),
        rendered: table(
            &[
                "network",
                "seq-vs-seq",
                "HP-D 1step",
                "HP-M 1step",
                "HP-U 1step",
                "CP 1step",
                "CP t/100",
            ],
            &rows,
        ),
    }
}
