//! Developer sweep: speedup across world sizes under the default cost
//! model, on a mid-size Erdős–Rényi workload.
//!
//! ```text
//! cargo run --release -p edgeswitch-scalesim --example sweep
//! ```

use edgeswitch_core::config::StepSize;
use edgeswitch_core::Run;
use edgeswitch_dist::root_rng;
use edgeswitch_graph::generators::erdos_renyi_gnm;
use edgeswitch_graph::SchemeKind;
use edgeswitch_scalesim::{des_run, CostModel};

fn main() {
    let mut rng = root_rng(42);
    let g = erdos_renyi_gnm(20000, 200_000, &mut rng);
    let t = 1_200_000u64;
    let cost = CostModel::default();
    for p in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let run = Run::simulated(p)
            .switches(t)
            .scheme(SchemeKind::HashUniversal)
            .step_size(StepSize::FractionOfT(100))
            .seed(7);
        let (out, rep) = des_run(&run, &g, &cost);
        println!(
            "p={:4}  time={:9.3}ms  speedup={:7.2}  msgs/op={:.1}  local%={:.0}",
            p,
            rep.runtime_ns / 1e6,
            rep.speedup,
            rep.packets as f64 / t as f64,
            100.0 * out.per_rank.iter().map(|s| s.performed_local).sum::<u64>() as f64
                / out.performed() as f64
        );
    }
}
