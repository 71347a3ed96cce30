//! Observability conformance: probes may watch, never steer.
//!
//! The obs layer records spans, round trips and gauges, but draws no
//! randomness and changes no control flow, so a run observed with
//! [`ObsSpec::Spans`] must be *bit-identical* to the same seeded run
//! with probes off — on every driver and at every pipelining window.
//! The second half pins the [`RunReport`] JSON schema that `repro
//! trace` exports.

mod common;

use common::{des, simulated, threaded, under};
use edge_switching::core::obs::{ProgressEvent, SpanTotals};
use edge_switching::prelude::*;
use std::sync::mpsc::channel;

/// `trades` Curveball trades under `cfg` on the world `run` names.
fn trade_run(run: Run, g: &Graph, trades: u64, cfg: &ParallelConfig) -> ParallelOutcome {
    let run = run.randomizer(Randomizer::Curveball).switches(trades);
    under(run, g, cfg)
}

fn graph(seed: u64) -> Graph {
    let mut rng = root_rng(seed);
    contact_network(
        ContactParams {
            n: 800,
            community_size: 40,
            intra_degree: 10.0,
            inter_degree: 3.0,
        },
        &mut rng,
    )
}

fn config(p: usize, window: usize) -> ParallelConfig {
    ParallelConfig::new(p)
        .with_scheme(SchemeKind::HashUniversal)
        .with_step_size(StepSize::FractionOfT(8))
        .with_seed(909)
        .with_window(window)
}

/// Assert two parallel outcomes agree on every logical field, the step
/// rows whole. The observed run's timings are in its report, which is
/// not compared.
fn assert_logically_identical(plain: &ParallelOutcome, observed: &ParallelOutcome, label: &str) {
    assert!(
        plain.graph.same_edge_set(&observed.graph),
        "{label}: probe changed the switched graph"
    );
    assert_eq!(plain.per_rank, observed.per_rank, "{label}: rank stats");
    assert_eq!(plain.steps, observed.steps, "{label}: steps");
    assert_eq!(plain.final_edges, observed.final_edges, "{label}: edges");
    assert_eq!(
        plain.performed(),
        observed.performed(),
        "{label}: performed"
    );
    assert_eq!(
        plain.forfeited(),
        observed.forfeited(),
        "{label}: forfeited"
    );
    assert_eq!(plain.telemetry, observed.telemetry, "{label}: telemetry");
}

#[test]
fn sequential_probe_identity() {
    let g = graph(21);
    let plain = Run::sequential().switches(2_000).seed(5).execute(&g);
    let observed = Run::sequential()
        .switches(2_000)
        .seed(5)
        .probe(ObsSpec::Spans)
        .execute(&g);
    assert!(plain.graph().same_edge_set(observed.graph()));
    assert_eq!(plain.performed(), observed.performed());
    assert!(plain.report().is_none());
    let report = observed.report().expect("observed run");
    assert_eq!(report.clock, "monotonic");
    assert_eq!(report.ranks, 1);
    assert!(report.phase(Phase::Sample).hist.count > 0);
    assert!(report.phase(Phase::Legality).hist.count > 0);
    assert!(report.phase(Phase::SwitchApply).hist.count > 0);
    // Sequential Algorithm 1 has no protocol phases.
    assert_eq!(report.phase(Phase::MsgWait).hist.count, 0);
    assert_eq!(report.phase(Phase::StepBarrier).hist.count, 0);
}

#[test]
fn fifo_probe_identity_across_windows() {
    let g = graph(22);
    let t = 2_000;
    for window in [1usize, 16] {
        let cfg = config(8, window);
        let plain = simulated(&g, t, &cfg);
        let observed = simulated(&g, t, &cfg.clone().with_obs(ObsSpec::Spans));
        assert_logically_identical(&plain, &observed, &format!("FIFO window {window}"));
        assert!(plain.report.is_none());
        let report = observed.report.as_ref().expect("observed run");
        assert_eq!(report.clock, "monotonic");
        assert_eq!(report.ranks, 8);
        assert!(report.phase(Phase::Sample).hist.count > 0);
        assert!(report.phase(Phase::StepBarrier).hist.count > 0);
    }
}

/// A probe leaves no trace in a simulated world's state: three steps in,
/// the observed engine's snapshot is byte for byte the unobserved one's,
/// and the two finish with equal step rows.
#[test]
fn observed_simulated_snapshots_are_byte_identical() {
    let g = graph(31);
    let engines = [false, true].map(|observed| {
        let run = Run::simulated(2).switches(3000).seed(11);
        let run = if observed {
            run.probe(ObsSpec::Spans)
        } else {
            run
        };
        let mut engine = run.start(&g).expect("a steppable run");
        for _ in 0..3 {
            engine.advance(1);
        }
        engine
    });
    let [plain, observed] = engines;
    // Compared whole, not printed: a failure would dump ~17 KB of bytes.
    assert!(
        plain.snapshot() == observed.snapshot(),
        "the observed world's snapshot differs"
    );
    let finish = |engine: Engine| engine.finish().into_parallel().expect("a simulated world");
    let (plain, observed) = (finish(plain), finish(observed));
    assert!(plain.report.is_none() && observed.report.is_some());
    assert_eq!(plain.steps, 3);
    assert_eq!(plain.telemetry, observed.telemetry);
}

#[test]
fn des_probe_identity_and_virtual_time() {
    let g = graph(23);
    let t = 2_000;
    for window in [1usize, 16] {
        let cfg = config(8, window);
        let (plain, _) = des(&g, t, &cfg);
        let (observed, des_report) = des(&g, t, &cfg.clone().with_obs(ObsSpec::Spans));
        assert_logically_identical(&plain, &observed, &format!("DES window {window}"));
        // The observed DES must also still agree with the FIFO oracle.
        let fifo = simulated(&g, t, &cfg);
        assert!(fifo.graph.same_edge_set(&observed.graph));

        // DES spans are recorded on the simulated clock: the report says
        // so, and its step-boundary time is real virtual time while the
        // within-handler phases are zero-width by construction (model
        // work is instantaneous; only messaging and barriers cost).
        let report = observed.report.as_ref().expect("observed run");
        assert_eq!(report.clock, "virtual");
        assert!(report.phase(Phase::Sample).hist.count > 0);
        assert!(report.phase(Phase::StepBarrier).hist.sum_ns > 0);
        assert!(report.phase(Phase::QRefresh).hist.count > 0);
        assert!(report.wall_ns > 0);
        assert!(des_report.runtime_ns > 0.0);
    }
}

#[test]
fn threaded_probe_identity_at_one_rank() {
    // The threaded engine is only schedule-deterministic at p=1; there
    // the bit-identity claim holds exactly.
    let g = graph(24);
    let t = 1_500;
    for window in [1usize, 16] {
        let cfg = config(1, window);
        let plain = threaded(&g, t, &cfg);
        let observed = threaded(&g, t, &cfg.clone().with_obs(ObsSpec::Spans));
        assert_logically_identical(&plain, &observed, &format!("threaded p=1 window {window}"));
    }
}

#[test]
fn threaded_observed_run_reports_all_phases_and_round_trips() {
    // At p>1 the threaded schedule is OS-dependent, so the probe claim
    // is invariant-shaped: observation leaves the guarantees intact and
    // the report covers the whole protocol.
    let g = graph(25);
    let t = 2_000;
    let cfg = config(4, DEFAULT_WINDOW).with_obs(ObsSpec::Spans);
    let out = threaded(&g, t, &cfg);
    out.graph.check_invariants().unwrap();
    assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
    assert_eq!(out.performed() + out.forfeited(), t);

    let report = out.report.as_ref().expect("observed run");
    assert_eq!(report.clock, "monotonic");
    assert_eq!(report.ranks, 4);
    assert!(report.wall_ns > 0);
    for phase in Phase::ALL {
        if phase == Phase::TradeShuffle {
            // Curveball-only phase; the switch protocol never records
            // it. Covered by the trade engine's observed-run test.
            continue;
        }
        let stat = report.phase(phase);
        assert!(stat.hist.count > 0, "phase {:?} never recorded", phase);
        assert!(stat.hist.max_ns >= stat.hist.p50_ns);
    }
    // Conversation lifetimes and commit round trips cross ranks under
    // hash partitioning, so their histograms must be populated.
    let propose = report.rtt_of(MsgKind::Propose).expect("reported kind");
    assert!(propose.hist.count > 0);
    assert!(propose.hist.p50_ns > 0);
    let remove = report.rtt_of(MsgKind::CommitRemove).expect("reported kind");
    assert!(remove.hist.count > 0);
    // Comm-layer gauges come from mpilite: the window was occupied and
    // the receive queues were observed.
    assert!(report.gauge("window-occupancy").expect("gauge").samples > 0);
    assert!(report.gauge("recv-queue-depth").expect("gauge").samples > 0);
}

#[test]
fn curveball_observed_run_is_probe_identical_and_covers_trade_phase() {
    // The probe-identity claim extends to the Curveball trade engines:
    // probes draw no randomness, so observed runs replay the exact
    // trade schedule — and the report covers the trade-shuffle phase
    // that the switch protocol never records.
    let g = graph(28);
    let trades = 1_200;
    let cfg = config(4, DEFAULT_WINDOW);
    let observed_cfg = cfg.clone().with_obs(ObsSpec::Spans);

    let plain = trade_run(Run::simulated(4), &g, trades, &cfg);
    let observed = trade_run(Run::simulated(4), &g, trades, &observed_cfg);
    assert_logically_identical(&plain, &observed, "FIFO curveball");
    let report = observed.report.as_ref().expect("observed run");
    assert!(report.ranks == 4 && report.wall_ns > 0);
    // The parallel driver spans the shuffle itself; reassignment is
    // carried by TradeHome messages, which have no span of their own.
    assert!(
        report.phase(Phase::TradeShuffle).hist.count > 0,
        "no trade shuffle was ever recorded"
    );

    let eng_plain = trade_run(Run::parallel(4), &g, trades, &cfg);
    let eng_obs = trade_run(Run::parallel(4), &g, trades, &observed_cfg);
    assert_logically_identical(&eng_plain, &eng_obs, "threaded curveball");
    let report = eng_obs.report.as_ref().expect("observed run");
    assert_eq!(report.clock, "monotonic");
    assert!(report.phase(Phase::TradeShuffle).hist.count > 0);
    assert!(
        report.phase(Phase::StepBarrier).hist.count > 0,
        "pass barrier never recorded"
    );
}

/// Every world times its step boundary: an observed run's report holds
/// one barrier span per step per timing rank (a simulated world times
/// its boundary on rank 0, each real rank its own), for both
/// randomizers, on the simulated and the threaded world alike — the
/// real worlds open their steps through the same boundary code as the
/// simulated one.
#[test]
fn observed_runs_time_the_boundary_of_every_step() {
    let g = graph(29);
    let cfg = config(2, DEFAULT_WINDOW).with_obs(ObsSpec::Spans);
    for (world, run, timing_ranks) in [
        ("simulated", Run::simulated(2), 1),
        ("threaded", Run::parallel(2), 2),
    ] {
        let switches = under(run.clone().switches(2_000), &g, &cfg);
        let trades = trade_run(run, &g, 1_600, &cfg);
        for (randomizer, out) in [("switch", &switches), ("curveball", &trades)] {
            let label = format!("{world} {randomizer}");
            assert!(out.steps > 1, "{label}: too few steps");
            let report = out.report.as_ref().expect("observed run");
            let barriers = report.phase(Phase::StepBarrier).hist.count;
            assert_eq!(barriers, timing_ranks * out.steps, "{label}");
        }
    }
}

#[test]
fn run_report_json_schema_is_stable() {
    // The golden schema `repro trace` exports and downstream tooling
    // parses: field names, array order and per-entry keys are pinned
    // here; widening the schema is fine, renames are a breaking change.
    let g = graph(26);
    let cfg = config(4, DEFAULT_WINDOW).with_obs(ObsSpec::Spans);
    let out = simulated(&g, 1_000, &cfg);
    let v = out.report.as_ref().expect("observed run").to_json();

    fn keys(v: &edgeswitch_json::Json) -> Vec<&str> {
        let fields = v.as_obj().expect("object");
        fields.keys().map(String::as_str).collect()
    }

    assert_eq!(
        keys(&v),
        vec![
            "clock",
            "gauges",
            "phases",
            "ranks",
            "rtt",
            "schema_version",
            "wall_ns"
        ],
        "top-level keys changed"
    );
    assert_eq!(v["schema_version"].as_u64(), Some(2));
    assert_eq!(v["clock"].as_str(), Some("monotonic"));
    assert_eq!(v["ranks"].as_u64(), Some(4));

    let phases = v["phases"].as_arr().unwrap();
    let labels: Vec<&str> = phases
        .iter()
        .map(|p| p["phase"].as_str().unwrap())
        .collect();
    assert_eq!(
        labels,
        vec![
            "sample",
            "legality",
            "msg-wait",
            "switch-apply",
            "step-barrier",
            "q-refresh",
            "local-fastpath",
            "trade-shuffle"
        ],
        "phase labels or order changed"
    );
    for p in phases {
        assert_eq!(
            keys(&p["hist"]),
            vec!["count", "max_ns", "p50_ns", "p90_ns", "p99_ns", "sum_ns", "timed"],
            "histogram summary keys changed"
        );
        let (count, timed) = (p["hist"]["count"].as_u64(), p["hist"]["timed"].as_u64());
        assert!(timed <= count && (count == Some(0)) == (timed == Some(0)));
    }

    let rtt = v["rtt"].as_arr().unwrap();
    let kinds: Vec<&str> = rtt.iter().map(|r| r["kind"].as_str().unwrap()).collect();
    assert_eq!(
        kinds,
        vec!["propose", "validate", "commit-add", "commit-remove"],
        "round-trip kinds or order changed"
    );

    let gauges = v["gauges"].as_arr().unwrap();
    let names: Vec<&str> = gauges
        .iter()
        .map(|g| g["gauge"].as_str().unwrap())
        .collect();
    assert_eq!(
        names,
        vec![
            "window-occupancy",
            "serving-depth",
            "recv-queue-depth",
            "park"
        ],
        "gauge names or order changed"
    );
    for g in gauges {
        assert_eq!(keys(g), vec!["gauge", "mean", "peak", "samples"]);
    }
}

/// Per-phase span counts of a report.
fn phase_counts(report: &RunReport) -> [u64; Phase::COUNT] {
    Phase::ALL.map(|phase| report.phase(phase).hist.count)
}

/// `run` on `g` started as an engine with a streaming probe attached and
/// advanced in 4096-operation pieces — the job service's loop — with the
/// last span totals it streamed.
fn streamed(run: Run, g: &Graph) -> (RunOutcome, SpanTotals) {
    let mut engine = run.start(g).expect("sequential runs step");
    let (tx, rx) = channel();
    engine.attach_probe(tx, 1024);
    while !engine.is_done() {
        engine.advance(4096);
    }
    let out = engine.finish();
    let last = rx
        .try_iter()
        .filter_map(|ev| match ev {
            ProgressEvent::Spans(totals) => Some(totals),
            ProgressEvent::Step(_) => None,
        })
        .last()
        .expect("the probe streams its final totals");
    (out, last)
}

/// Same edges in the same pool order — the order later draws read.
fn assert_same_pool(a: &Graph, b: &Graph, label: &str) {
    assert_eq!(a.edge_digest(), b.edge_digest(), "{label}: digest");
    assert!(a.pool().iter().eq(b.pool().iter()), "{label}: pool order");
}

#[test]
fn sequential_switch_spans_are_counted_exactly() {
    // Timing is sampled, counting is not: every attempt is one sample
    // and one legality span, every performed switch one apply span —
    // whether the spans land in a report or stream out of a stepped
    // engine, which still ends bit-identical to an unobserved run.
    let g = graph(29);
    let run = || Run::sequential().switches(20_000).seed(29);
    let plain = run().execute(&g);
    let observed = run().probe(ObsSpec::Spans).execute(&g);
    let seq = observed.into_sequential().expect("sequential run");
    let (out, report) = (&seq.outcome, seq.outcome.report.as_ref().unwrap());
    let attempts = out.performed + out.rejects.total();
    assert!(out.rejects.total() > 0, "the run must exercise rejections");
    assert_eq!(report.phase(Phase::Sample).hist.count, attempts);
    assert_eq!(report.phase(Phase::Legality).hist.count, attempts);
    assert_eq!(report.phase(Phase::SwitchApply).hist.count, out.performed);
    for stat in &report.phases {
        let h = stat.hist;
        assert!(h.timed <= h.count && (h.count == 0) == (h.timed == 0));
    }
    assert_same_pool(plain.graph(), &seq.graph, "observed");

    let (stepped, totals) = streamed(run(), &g);
    assert_eq!(totals.counts, phase_counts(report));
    assert_eq!(totals.total, phase_counts(report).iter().sum::<u64>());
    assert_same_pool(plain.graph(), stepped.graph(), "streamed");
}

#[test]
fn sequential_curveball_spans_are_counted_exactly() {
    let g = graph(30);
    let run = || {
        Run::sequential()
            .randomizer(Randomizer::Curveball)
            .switches(6_000)
            .seed(30)
    };
    let plain = run().execute(&g);
    let observed = run().probe(ObsSpec::Spans).execute(&g);
    let report = observed.report().expect("observed run").clone();
    let trades = observed.performed();
    assert_eq!(report.phase(Phase::TradeShuffle).hist.count, trades);
    assert!(report.phase(Phase::TradeShuffle).hist.timed >= 1);
    assert_same_pool(plain.graph(), observed.graph(), "observed");

    let (stepped, totals) = streamed(run(), &g);
    assert_eq!(totals.counts, phase_counts(&report));
    assert_same_pool(plain.graph(), stepped.graph(), "streamed");
}
