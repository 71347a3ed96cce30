//! Scaling study on the virtual cluster: predict the strong-scaling
//! curve of the distributed algorithm up to 1024 processors (the
//! Figure 4/14 experiment at example scale).
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use edge_switching::prelude::*;

fn main() {
    let mut rng = root_rng(9);
    let g = preferential_attachment(20_000, 10, &mut rng);
    let t = switch_ops_for_visit_rate(g.num_edges() as u64, 1.0);
    println!(
        "PA graph: n = {}, m = {}; t = {t} switch operations (visit rate 1)\n",
        g.num_vertices(),
        g.num_edges()
    );

    let cost = CostModel::default();
    println!(
        "cost model: seq switch {:.0} ns, latency {:.0} ns, msg overhead {:.0} ns",
        cost.seq_switch_ns, cost.latency_ns, cost.msg_handle_ns
    );
    println!("\nscheme   p      time(s)   speedup   imbalance");

    for scheme in [SchemeKind::Consecutive, SchemeKind::HashUniversal] {
        let points = strong_scaling(&g, &[16, 64, 256, 1024], &cost, |p| {
            Run::simulated(p)
                .switches(t)
                .scheme(scheme)
                .step_size(StepSize::FractionOfT(100))
                .seed(17)
        });
        for pt in points {
            println!(
                "{:6} {:5} {:10.3} {:9.1} {:11.2}",
                scheme.label(),
                pt.p,
                pt.runtime_s,
                pt.speedup,
                pt.workload_imbalance
            );
        }
    }

    println!(
        "\nEvery protocol message is logically exchanged inside the simulator;\n\
         only the clock is modeled (LogGP-style). The paper's 64-node cluster\n\
         reports speedups of ~85-110 at 640-1024 ranks on 1000x larger graphs."
    );
}
