//! Per-step protocol diagnostics from the [`StepTelemetry`] layer the
//! drivers now record: operation starts vs completions, contention
//! blocking, speculative-batch outcomes, message-variant traffic, and
//! (for the DES) how each step's virtual time splits between its
//! collective boundary and its conversation drain. Not a paper figure —
//! a diagnostic surface for the protocol itself, run via
//! `repro diagnostics`.
//!
//! This module is also the *single* owner of per-step telemetry
//! rendering: the table/JSON row shapes here are shared by
//! `repro diagnostics`, the `repro trace --timeline` export and the
//! `distributed_switch` example, so the column vocabulary cannot drift
//! between surfaces.

use super::ExpConfig;
use crate::report::{f, table, Report};
use crate::{dataset_graph, full_visit_ops};
use edgeswitch_core::config::StepSize;
use edgeswitch_core::parallel::{MsgCounts, MsgKind, ParallelOutcome, StepTelemetry};
use edgeswitch_core::Run;
use edgeswitch_graph::generators::Dataset;
use edgeswitch_graph::SchemeKind;
use edgeswitch_json::{json, Json};
use edgeswitch_scalesim::{des_run, CostModel};

/// Header of the driver-independent per-step telemetry columns, in the
/// order [`step_cells`] renders them.
pub const STEP_HEADER: [&str; 13] = [
    "step",
    "ops",
    "started",
    "performed",
    "local",
    "served",
    "blocked",
    "propose",
    "abort",
    "msgs",
    "pkts",
    "wpeak",
    "parked",
];

/// The shared (driver-independent) cells of one step's telemetry row.
pub fn step_cells(step: usize, s: &StepTelemetry) -> Vec<String> {
    vec![
        step.to_string(),
        s.ops.to_string(),
        s.started.to_string(),
        s.performed.to_string(),
        s.local_fastpath.to_string(),
        s.served.to_string(),
        s.blocked.to_string(),
        s.logical_msgs.get(MsgKind::Propose).to_string(),
        s.logical_msgs.get(MsgKind::Abort).to_string(),
        s.logical_msgs.total().to_string(),
        s.packets.to_string(),
        s.window_peak.to_string(),
        s.parked.to_string(),
    ]
}

/// One table row per step: the shared columns plus whatever
/// driver-specific cells `extra` appends (pair them with extra header
/// columns after [`STEP_HEADER`]).
pub fn step_table_rows(
    telemetry: &[StepTelemetry],
    extra: impl Fn(&StepTelemetry) -> Vec<String>,
) -> Vec<Vec<String>> {
    telemetry
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut row = step_cells(i, s);
            row.extend(extra(s));
            row
        })
        .collect()
}

/// One step as a JSON record carrying the full telemetry field set
/// (logical columns plus the per-step timing split). `driver`, when
/// given, tags the row for mixed-driver timelines.
pub fn step_json_row(driver: Option<&str>, step: usize, s: &StepTelemetry) -> Json {
    let mut row = json!({
        "step": step as u64,
        "ops": s.ops,
        "started": s.started,
        "performed": s.performed,
        "local_fastpath": s.local_fastpath,
        "forfeited": s.forfeited,
        "served": s.served,
        "blocked": s.blocked,
        "logical_msgs": s.logical_msgs.total(),
        "packets": s.packets,
        "window_peak": s.window_peak,
        "parked": s.parked,
        "barrier_ns": s.barrier_ns,
        "qrefresh_ns": s.qrefresh_ns,
        "wait_ns": s.wait_ns,
        "boundary_ns": s.boundary_ns,
        "drain_ns": s.drain_ns,
    });
    if let Some(driver) = driver {
        row["driver"] = json!(driver);
    }
    row
}

/// All steps as JSON rows (see [`step_json_row`]).
pub fn step_json_rows(driver: Option<&str>, telemetry: &[StepTelemetry]) -> Vec<Json> {
    telemetry
        .iter()
        .enumerate()
        .map(|(i, s)| step_json_row(driver, i, s))
        .collect()
}

/// `variant` / `count` table rows of the non-zero message kinds.
pub fn msg_variant_rows(totals: &MsgCounts) -> Vec<Vec<String>> {
    MsgKind::ALL
        .iter()
        .filter(|k| totals.get(**k) > 0)
        .map(|k| vec![k.label().to_string(), totals.get(*k).to_string()])
        .collect()
}

/// A rendered whole-run protocol summary: step/start/blocking totals,
/// per-variant message counts, the pipelining figures and (when the
/// speculative path ran) the batch outcome split. Shared by the repro
/// diagnostics and the `distributed_switch` example.
pub fn protocol_summary(out: &ParallelOutcome, window: usize) -> String {
    let totals = out.logical_msg_totals();
    let mut s = format!(
        "telemetry: {} steps, {} ops started, {} blocked-on-contention events\n",
        out.telemetry.len(),
        out.telemetry.iter().map(|t| t.started).sum::<u64>(),
        out.blocked_events(),
    );
    s.push_str("messages by variant:");
    for (kind, count) in totals.iter().filter(|(_, c)| *c > 0) {
        s.push_str(&format!(" {}={count}", kind.label()));
    }
    s.push('\n');
    s.push_str(&format!(
        "pipelining: window = {} conversations/rank, peak occupancy = {}, \
         {} logical messages in {} packets, {} parked waits\n",
        window,
        out.window_peak(),
        totals.total(),
        out.packet_total(),
        out.parked_events(),
    ));
    s
}

/// Per-step telemetry of a FIFO run and a DES run of the same
/// configuration: the two must agree on every logical column (same
/// schedule), and the DES adds the virtual-time phase split.
pub fn telemetry_steps(cfg: &ExpConfig) -> Report {
    let g = dataset_graph(Dataset::Miami, cfg.scale, cfg.seed);
    let t = full_visit_ops(g.num_edges());
    let p = 16;
    let steps = 8;
    let run = Run::simulated(p)
        .switches(t)
        .scheme(SchemeKind::Consecutive)
        .step_size(StepSize::FractionOfT(steps))
        .seed(cfg.seed);

    let fifo = run.execute(&g).into_parallel().expect("simulated mode");
    let (des, des_report) = des_run(&run, &g, &CostModel::default());

    let mut rendered = String::from("FIFO driver, per step:\n");
    rendered.push_str(&table(
        &STEP_HEADER,
        &step_table_rows(&fifo.telemetry, |_| Vec::new()),
    ));
    rendered.push_str("\nDES driver (same logical schedule + virtual time), per step:\n");
    let mut des_header: Vec<&str> = STEP_HEADER.to_vec();
    des_header.extend(["boundary (us)", "drain (us)"]);
    rendered.push_str(&table(
        &des_header,
        &step_table_rows(&des.telemetry, |s| {
            vec![f(s.boundary_ns / 1e3, 1), f(s.drain_ns / 1e3, 1)]
        }),
    ));
    let totals = fifo.logical_msg_totals();
    rendered.push_str("\nmessage totals by variant (FIFO):\n");
    rendered.push_str(&table(&["variant", "count"], &msg_variant_rows(&totals)));
    rendered.push('\n');
    rendered.push_str(&protocol_summary(&fifo, run.config().window));

    let fast: u64 = fifo.telemetry.iter().map(|s| s.local_fastpath).sum();
    let performed = fifo.performed();
    rendered.push_str(&format!(
        "\nlocal fast path: {fast} of {performed} switches ({}%) applied inline, \
         bypassing the conversation protocol\n",
        f(100.0 * fast as f64 / performed.max(1) as f64, 1),
    ));

    let kinds: Vec<Json> = totals
        .iter()
        .map(|(k, c)| json!({"variant": k.label(), "count": c}))
        .collect();
    Report {
        id: "telemetry-steps".into(),
        title: "per-step protocol telemetry: FIFO vs DES on the Miami stand-in".into(),
        data: json!({
            "p": p as u64,
            "t": t,
            "window": run.config().window as u64,
            "window_peak": fifo.window_peak(),
            "parked_events": fifo.parked_events(),
            "local_fastpath_total": fast,
            "local_fraction": fast as f64 / performed.max(1) as f64,
            "packet_total": fifo.packet_total(),
            "fifo_steps": step_json_rows(None, &fifo.telemetry),
            "des_steps": step_json_rows(None, &des.telemetry),
            "message_kinds": kinds,
            "blocked_events": fifo.blocked_events(),
            "des_runtime_ns": des_report.runtime_ns,
            "drivers_agree": fifo.graph.same_edge_set(&des.graph),
        }),
        rendered,
    }
}
