//! Per-step protocol diagnostics from the [`StepTelemetry`] layer the
//! drivers now record: operation starts vs completions, contention
//! blocking, message-variant traffic, and (from the DES's report) how
//! each step's virtual time splits between its collective boundary and
//! its conversation drain. Not a paper figure — a diagnostic surface for
//! the protocol itself, run via `repro diagnostics`.
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
use edgeswitch_scalesim::{des_run, CostModel, DesStep};

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

/// One table row per step, in [`STEP_HEADER`]'s columns.
pub fn step_table_rows(telemetry: &[StepTelemetry]) -> Vec<Vec<String>> {
    (telemetry.iter().enumerate())
        .map(|(i, s)| step_cells(i, s))
        .collect()
}

/// One step as a JSON record carrying the full telemetry field set (a
/// step's time is in the run's `RunReport`, not here). `driver`, when
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
/// configuration: the two record equal rows (same schedule), and the
/// DES's report adds each step's virtual-time phase split.
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
    assert_eq!(
        fifo.telemetry, des.telemetry,
        "FIFO and DES step rows diverged"
    );

    let mut rendered = String::from("FIFO driver, per step:\n");
    rendered.push_str(&table(&STEP_HEADER, &step_table_rows(&fifo.telemetry)));
    rendered.push_str("\nDES driver (the same rows), virtual time per step:\n");
    let us = |ns: u64| f(ns as f64 / 1e3, 1);
    let des_rows: Vec<Vec<String>> = (des_report.steps.iter().enumerate())
        .map(|(i, s)| vec![i.to_string(), us(s.boundary), us(s.drain), us(s.wait)])
        .collect();
    let des_steps: Vec<Json> = (des_report.steps.iter().enumerate())
        .map(des_json_row)
        .collect();
    rendered.push_str(&table(
        &["step", "boundary (us)", "drain (us)", "wait (us)"],
        &des_rows,
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
            "des_steps": des_steps,
            "message_kinds": kinds,
            "blocked_events": fifo.blocked_events(),
            "des_runtime_ns": des_report.runtime_ns,
            "drivers_agree": fifo.graph.same_edge_set(&des.graph),
        }),
        rendered,
    }
}

/// One step of the DES's report as a JSON record.
fn des_json_row((step, s): (usize, &DesStep)) -> Json {
    json!({
        "step": step as u64,
        "boundary_ns": s.boundary,
        "collective_ns": s.collective,
        "drain_ns": s.drain,
        "wait_ns": s.wait,
    })
}
