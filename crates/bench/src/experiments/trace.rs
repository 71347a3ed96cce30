//! `trace` — the observability export: one seeded Erdős–Rényi instance
//! run under all three drivers with probes attached ([`ObsSpec::Spans`]),
//! emitting each driver's [`RunReport`] — phase span histograms,
//! per-kind round-trip latencies, gauges — plus a per-step timeline
//! (included in the report data when `--timeline` is passed; the repro
//! binary additionally writes it as `trace.jsonl`). Not a paper figure —
//! the measurement surface ISSUE 4 adds, run via `repro trace` or
//! `repro diagnostics`.

use super::ExpConfig;
use crate::report::{f, table, Report};
use edgeswitch_core::config::StepSize;
use edgeswitch_core::obs::{ObsSpec, RunReport};
use edgeswitch_core::parallel::StepTelemetry;
use edgeswitch_core::Run;
use edgeswitch_dist::root_rng;
use edgeswitch_graph::generators::erdos_renyi_gnm;
use edgeswitch_json::{json, Json};
use edgeswitch_scalesim::{des_run, CostModel};

fn scaled(base: usize, scale: f64, floor: usize) -> usize {
    ((base as f64 * scale) as usize).max(floor)
}

fn phase_rows(report: &RunReport) -> Vec<Vec<String>> {
    report
        .phases
        .iter()
        .map(|p| {
            vec![
                p.phase.clone(),
                format!("{}/{}", p.hist.timed, p.hist.count),
                f(p.hist.p50_ns as f64 / 1e3, 1),
                f(p.hist.p99_ns as f64 / 1e3, 1),
                f(p.hist.max_ns as f64 / 1e3, 1),
                f(p.hist.sum_ns as f64 / 1e6, 2),
            ]
        })
        .collect()
}

fn rtt_rows(report: &RunReport) -> Vec<Vec<String>> {
    report
        .rtt
        .iter()
        .map(|r| {
            vec![
                r.kind.clone(),
                r.hist.count.to_string(),
                f(r.hist.p50_ns as f64 / 1e3, 1),
                f(r.hist.p99_ns as f64 / 1e3, 1),
                f(r.hist.max_ns as f64 / 1e3, 1),
            ]
        })
        .collect()
}

fn render_report(rendered: &mut String, name: &str, report: &RunReport) {
    rendered.push_str(&format!(
        "\n{name} (clock: {}, ranks: {}, wall: {} ms)\nphases:\n",
        report.clock,
        report.ranks,
        f(report.wall_ns as f64 / 1e6, 2)
    ));
    rendered.push_str(&table(
        &[
            "phase",
            "timed/count",
            "p50 (us)",
            "p99 (us)",
            "max (us)",
            "sum (ms)",
        ],
        &phase_rows(report),
    ));
    if report.rtt.iter().any(|r| r.hist.count > 0) {
        rendered.push_str("round trips:\n");
        rendered.push_str(&table(
            &["kind", "count", "p50 (us)", "p99 (us)", "max (us)"],
            &rtt_rows(report),
        ));
    }
    let active: Vec<String> = report
        .gauges
        .iter()
        .filter(|g| g.samples > 0)
        .map(|g| format!("{}: mean {} peak {}", g.gauge, f(g.mean, 1), g.peak))
        .collect();
    if !active.is_empty() {
        rendered.push_str(&format!("gauges: {}\n", active.join("; ")));
    }
}

/// One driver's per-step timeline rows (the `trace.jsonl` content):
/// the shared telemetry row shape, tagged with the driver name.
fn timeline_json(driver: &str, telemetry: &[StepTelemetry]) -> Vec<Json> {
    super::telemetry::step_json_rows(Some(driver), telemetry)
}

/// `trace` — observed runs of all three drivers on one seeded ER
/// instance.
pub fn trace(cfg: &ExpConfig) -> Report {
    let mut rng = root_rng(cfg.seed);
    let g = erdos_renyi_gnm(
        scaled(5_000, cfg.scale, 64),
        scaled(25_000, cfg.scale, 128),
        &mut rng,
    );
    let t = 4 * g.num_edges() as u64;
    let p = 4;
    let steps = 8;

    let seq = Run::sequential()
        .switches(t)
        .seed(cfg.seed)
        .probe(ObsSpec::Spans)
        .execute(&g)
        .into_sequential()
        .expect("sequential run");
    let seq_report = seq.outcome.report.expect("observed sequential run");

    let threaded_run = Run::parallel(p)
        .switches(t)
        .seed(cfg.seed)
        .step_size(StepSize::FractionOfT(steps))
        .probe(ObsSpec::Spans);
    let threaded = threaded_run
        .execute(&g)
        .into_parallel()
        .expect("parallel run");
    let thr_report = threaded.report.clone().expect("observed threaded run");

    let (des, _) = des_run(&threaded_run, &g, &CostModel::default());
    let des_report = des.report.clone().expect("observed DES run");

    let mut rendered = format!(
        "observed run: ER n={} m={} t={t} p={p} (seed {})\n",
        g.num_vertices(),
        g.num_edges(),
        cfg.seed
    );
    render_report(&mut rendered, "sequential", &seq_report);
    render_report(&mut rendered, "threaded", &thr_report);
    render_report(&mut rendered, "DES (virtual time)", &des_report);

    let mut timeline = Vec::new();
    if cfg.timeline {
        timeline.extend(timeline_json("threaded", &threaded.telemetry));
        timeline.extend(timeline_json("des", &des.telemetry));
        rendered.push_str(&format!(
            "\ntimeline: {} per-step rows included in the report data\n",
            timeline.len()
        ));
    }

    Report {
        id: "trace".into(),
        title: "observability trace: phase spans, latencies and gauges per driver".into(),
        data: json!({
            "t": t,
            "p": p as u64,
            "sequential": seq_report.to_json(),
            "threaded": thr_report.to_json(),
            "des": des_report.to_json(),
            "timeline": timeline,
        }),
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_core::obs::Phase;

    fn tiny(timeline: bool) -> ExpConfig {
        ExpConfig {
            scale: 0.01,
            reps: 1,
            seed: 11,
            timeline,
        }
    }

    #[test]
    fn trace_reports_all_drivers() {
        let r = trace(&tiny(false));
        assert_eq!(r.id, "trace");
        for driver in ["sequential", "threaded", "des"] {
            let report = &r.data[driver];
            assert!(report["wall_ns"].as_u64().unwrap() > 0, "{driver} wall");
            assert_eq!(
                report["phases"].as_arr().unwrap().len(),
                Phase::COUNT,
                "{driver} phases"
            );
        }
        assert_eq!(r.data["sequential"]["clock"].as_str(), Some("monotonic"));
        assert_eq!(r.data["threaded"]["clock"].as_str(), Some("monotonic"));
        assert_eq!(r.data["des"]["clock"].as_str(), Some("virtual"));
        // No timeline requested: the rows stay out of the archive.
        assert!(r.data["timeline"].as_arr().unwrap().is_empty());
        // The threaded protocol exercises every instrumented phase, and
        // the first span of a phase is always timed.
        for phase in r.data["threaded"]["phases"].as_arr().unwrap() {
            if phase["phase"].as_str() == Some("trade-shuffle") {
                // Curveball-only phase; this experiment traces the
                // switch protocol.
                continue;
            }
            let count = phase["hist"]["count"].as_u64().unwrap();
            let timed = phase["hist"]["timed"].as_u64().unwrap();
            assert!(
                1 <= timed && timed <= count,
                "threaded phase {:?}: {timed} of {count} spans timed",
                phase["phase"]
            );
        }
        // Conversation lifetimes (propose) and commit round trips cross
        // ranks under hash partitioning.
        let rtt = r.data["threaded"]["rtt"].as_arr().unwrap();
        assert_eq!(rtt[0]["kind"].as_str(), Some("propose"));
        assert!(rtt[0]["hist"]["count"].as_u64().unwrap() > 0);
        // The DES records its step boundary in virtual time.
        let des_phases = r.data["des"]["phases"].as_arr().unwrap();
        let barrier = des_phases
            .iter()
            .find(|p| p["phase"].as_str() == Some("step-barrier"))
            .unwrap();
        assert!(barrier["hist"]["sum_ns"].as_u64().unwrap() > 0);
        let timed = barrier["hist"]["timed"].as_u64().unwrap();
        assert!(1 <= timed && timed <= barrier["hist"]["count"].as_u64().unwrap());
    }

    #[test]
    fn trace_timeline_rows_cover_both_parallel_drivers() {
        let r = trace(&tiny(true));
        let rows = r.data["timeline"].as_arr().unwrap();
        assert!(!rows.is_empty());
        assert!(rows
            .iter()
            .any(|x| x["driver"].as_str() == Some("threaded")));
        assert!(rows.iter().any(|x| x["driver"].as_str() == Some("des")));
        for row in rows {
            assert!(row["ops"].as_u64().is_some());
            assert!(row["logical_msgs"].as_u64().is_some());
        }
    }
}
