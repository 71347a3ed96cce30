//! Driver conformance: every driver sits behind [`Run`] and runs the
//! shared transport/`StepHarness` machinery, so their logical results
//! must line up.
//!
//! - However a stepped [`Engine`] is driven — any `advance` size,
//!   with or without a snapshot/resume in the middle, observed or not —
//!   `finish()` equals the one-shot `execute()` (the table in
//!   [`stepped_engine_conformance_table`]), and the digests the parent
//!   commit computed are pinned ([`golden_digests_are_pinned`]), and so
//!   are the simulated protocols' message ledgers
//!   ([`protocol_ledger_is_pinned`], [`curveball_ledger_is_pinned`]).
//! - The sequential engine runs on the edge pool alone; an independent
//!   Algorithm 1 that maintains the whole `Graph` makes the same
//!   switches and leaves the same pool order
//!   ([`pool_only_engine_equals_the_graph_maintaining_reference`]).
//! - The FIFO simulator and the DES execute the *same* global causal
//!   schedule (the DES only annotates it with virtual time), so for a
//!   fixed `(graph, t, config)` their [`ParallelOutcome`]s must be
//!   identical in every logical field.
//! - The threaded engine's schedule depends on OS interleaving, so it is
//!   held to the seed-independent invariants instead: degree sequence,
//!   simplicity, and total performed + forfeited operations.

mod common;

use common::{des, frozen_sequential, process, simulated, threaded, under};
use edge_switching::core::parallel::process_backend_supported;
use edge_switching::core::parallel::wire::{
    decode_seq_checkpoint, decode_switch_world, encode_seq_checkpoint,
};
use edge_switching::core::sequential::LOOKAHEAD;
use edge_switching::core::{SeqCheckpoint, SequentialOutcome, SequentialResumable};
use edge_switching::dist::BlockRng64;
use edge_switching::graph::generators::families::{complete, star};
use edge_switching::prelude::*;
use edge_switching::scalesim::DesReport;
use std::io::{BufRead, BufReader};
use std::process::Stdio;
use std::time::{Duration, Instant};

fn clustered_graph(seed: u64) -> Graph {
    let mut rng = root_rng(seed);
    contact_network(
        ContactParams {
            n: 1000,
            community_size: 40,
            intra_degree: 12.0,
            inter_degree: 3.0,
        },
        &mut rng,
    )
}

fn config(p: usize) -> ParallelConfig {
    ParallelConfig::new(p)
        .with_scheme(SchemeKind::HashUniversal)
        .with_step_size(StepSize::FractionOfT(10))
        .with_seed(4242)
}

/// A Curveball builder carrying `budget`.
fn trades(run: Run, budget: Budget) -> Run {
    run.randomizer(Randomizer::Curveball).budget(budget)
}

/// Curveball on the FIFO-simulated world.
fn simulated_trades(g: &Graph, budget: Budget, cfg: &ParallelConfig) -> ParallelOutcome {
    under(trades(Run::simulated(cfg.processors), budget), g, cfg)
}

/// Curveball on the threaded world.
fn trades_on_threads(g: &Graph, budget: Budget, cfg: &ParallelConfig) -> ParallelOutcome {
    under(trades(Run::parallel(cfg.processors), budget), g, cfg)
}

/// Curveball on the simulated world under the DES.
fn des_trades(g: &Graph, budget: Budget, cfg: &ParallelConfig) -> (ParallelOutcome, DesReport) {
    let run = trades(Run::simulated(cfg.processors), budget).prepared(cfg.clone(), None);
    des_run(&run, g, &CostModel::default())
}

/// What the sequential Curveball engine did to a graph: its counters,
/// and the outcome `finish` tore down into.
struct SequentialTrades {
    graph: Graph,
    passes: u64,
    neighbors_moved: u64,
    out: SequentialOutcome,
}

/// `budget` on the sequential Curveball engine, pass by pass.
fn sequential_trades(g: &Graph, budget: Budget, seed: u64) -> SequentialTrades {
    let mut engine = CurveballResumable::new(g, budget, seed);
    while !engine.is_done() {
        engine.step();
    }
    let (passes, neighbors_moved) = (engine.passes(), engine.neighbors_moved());
    let (graph, out) = engine.finish();
    SequentialTrades {
        graph,
        passes,
        neighbors_moved,
        out,
    }
}

// ---------------------------------------------------------------------
// The stepped engine: one conformance table
// ---------------------------------------------------------------------

/// Everything logical about an outcome: the switched graph's digest, the
/// operation count, every reject/abort/forfeit counter, the visit count
/// and the visit set (plus, for a simulated world, its step and message
/// ledger).
#[derive(Debug, PartialEq)]
struct Logical {
    digest: u64,
    performed: u64,
    visited: usize,
    unvisited: Vec<u64>,
    counters: Vec<u64>,
    per_rank: Vec<RankStats>,
}

fn logical(out: &RunOutcome) -> Logical {
    let digest = out.graph().edge_digest();
    let performed = out.performed();
    match out {
        RunOutcome::Sequential(run) => {
            let o = &run.outcome;
            Logical {
                digest,
                performed,
                visited: o.visits.visited(),
                unvisited: remaining_sorted(&o.visits, &run.graph),
                counters: vec![
                    o.abandoned,
                    o.rejects.self_loop,
                    o.rejects.useless,
                    o.rejects.parallel,
                ],
                per_rank: Vec::new(),
            }
        }
        RunOutcome::Parallel(o) => Logical {
            digest,
            performed,
            visited: o.visits.visited(),
            unvisited: remaining_sorted(&o.visits, &o.graph),
            counters: vec![
                o.forfeited(),
                o.steps,
                o.packet_total(),
                o.logical_msg_totals().total(),
                o.blocked_events(),
            ],
            per_rank: o.per_rank.clone(),
        },
    }
}

/// Drive `run` to the end in `advance(size)` calls; with `cut`, snapshot
/// once a third of the budget is performed, drop the engine — the
/// process dying — and continue from `Run::resume`.
fn drive(run: &Run, g: &Graph, size: u64, cut: bool) -> RunOutcome {
    let mut engine = run.start(g).expect("steppable run");
    if cut {
        let third = engine.budget() / 3;
        while engine.performed() < third {
            engine.advance(size.min(third));
        }
        assert!(!engine.is_done(), "the run ended before the cut point");
        let bytes = engine.snapshot();
        drop(engine);
        engine = run.resume(g, &bytes).expect("own snapshot resumes");
    }
    while !engine.is_done() {
        engine.advance(size);
    }
    engine.finish()
}

/// (randomizer ∈ {switch, Curveball}) × (mode ∈ {sequential, simulated
/// p ∈ {1, 2, 4}}) × (advance size ∈ {1, 37, 4096, all}) ×
/// (uninterrupted | snapshot → drop → resume) × (unobserved |
/// observed): `finish()` equals `execute()` in every logical field.
/// Pause points consume no randomness, a snapshot carries the complete
/// state, and probes only read. (A Curveball engine advances a whole
/// pass per call, whatever the size.)
#[test]
fn stepped_engine_conformance_table() {
    let g = clustered_graph(61);
    let t = 2_500;
    let modes = [
        ("sequential", Run::sequential()),
        ("simulated p=1", Run::simulated(1)),
        ("simulated p=2", Run::simulated(2)),
        ("simulated p=4", Run::simulated(4)),
    ];
    let rows = [Randomizer::Switch, Randomizer::Curveball]
        .into_iter()
        .flat_map(|randomizer| modes.clone().map(|(mode, run)| (randomizer, mode, run)));
    for (randomizer, mode, run) in rows {
        let mode = format!("{randomizer:?} {mode}");
        let run = run
            .randomizer(randomizer)
            .switches(t)
            .seed(4242)
            .scheme(SchemeKind::HashUniversal)
            .step_size(StepSize::FractionOfT(10));
        let oneshot = run.execute(&g);
        assert!(oneshot.report().is_none());
        let expect = logical(&oneshot);
        // Curveball stops at the first pass boundary at or past `t`.
        match randomizer {
            Randomizer::Switch => assert_eq!(expect.performed, t, "{mode}"),
            Randomizer::Curveball => assert!(expect.performed >= t, "{mode}"),
        }
        for size in [1u64, 37, 4096, u64::MAX] {
            for cut in [false, true] {
                for probe in [ObsSpec::Off, ObsSpec::Spans] {
                    let row = format!("{mode} advance={size} cut={cut} probe={probe:?}");
                    let out = drive(&run.clone().probe(probe), &g, size, cut);
                    assert_eq!(logical(&out), expect, "{row}");
                    // A started engine reports iff probed; the snapshot
                    // never carries the probe.
                    assert_eq!(
                        out.report().is_some(),
                        probe == ObsSpec::Spans && !cut,
                        "{row}"
                    );
                }
            }
        }
        // `execute` observed is the same run too.
        let observed = run.clone().probe(ObsSpec::Spans).execute(&g);
        assert_eq!(logical(&observed), expect, "{mode} execute observed");
        assert!(observed.report().is_some());
    }
}

/// (graph ∈ {ER, PA, star, one edge, no edge}) × (seed) × (t ∈ {1, 37,
/// 3000}) × (chunk size): the engine, which reads and writes only the
/// `EdgePool`, against [`frozen_sequential`], which applies every switch
/// to the whole `Graph`. Same draws from the same stream, so everything
/// must agree — down to the order of the edges in the pool, compared as
/// the bytes of the two states' checkpoints — and the graph `finish`
/// builds in bulk must be the graph the reference kept current edge by
/// edge.
///
/// The chunk sizes straddle the engine's lookahead (`LOOKAHEAD`): a
/// chunk shorter than, equal to and just past the distance its scout
/// draws ahead must still leave the stream exactly where the reference
/// does. The star starves and the two tiny graphs never switch; in a
/// debug build the pool asserts that no scout prefetches or reads a
/// slot at or past its length on any of them.
#[test]
fn pool_only_engine_equals_the_graph_maintaining_reference() {
    let graphs = [
        ("er", erdos_renyi_gnm(400, 2000, &mut root_rng(7))),
        ("pa", preferential_attachment(300, 5, &mut root_rng(8))),
        // No legal switch exists: both sides must give up the same way.
        ("star", star(9)),
        // Fewer than two edges: nothing is drawn at all.
        ("one-edge", Graph::from_edges(3, [Edge::new(0, 2)]).unwrap()),
        ("no-edge", Graph::new(4)),
    ];
    let d = LOOKAHEAD as u64;
    for (name, g) in &graphs {
        for seed in [3u64, 11, 4242] {
            for t in [1u64, 37, 3000] {
                if *name == "star" && (t != 37 || seed != 3) {
                    continue;
                }
                let mut reference = g.clone();
                let mut rng = BlockRng64::new(root_rng(seed));
                let frozen = frozen_sequential(&mut reference, t, &mut rng);
                let frozen_state = encode_seq_checkpoint(&SeqCheckpoint {
                    seed,
                    n: reference.num_vertices(),
                    t,
                    performed: frozen.performed,
                    abandoned: t - frozen.performed,
                    rejects: frozen.rejects,
                    visits: frozen.visits(reference.edges()),
                    graph_edges: reference.edges().collect(),
                    rng_words: rng.words_served(),
                });
                for chunk in [1u64, 2, d - 1, d, d + 1, 37, 4096, u64::MAX] {
                    let row = format!("{name} seed={seed} t={t} chunk={chunk}");
                    let mut engine = SequentialResumable::new(g.clone(), t, seed);
                    while !engine.is_done() {
                        engine.step(chunk);
                    }
                    assert_eq!(
                        encode_seq_checkpoint(&engine.checkpoint()),
                        frozen_state,
                        "{row}: engine state (counters, tracker, pool order, stream position)"
                    );
                    let (switched, out) = engine.finish();
                    switched
                        .check_invariants()
                        .unwrap_or_else(|why| panic!("{row}: {why}"));
                    assert_eq!(out.performed, frozen.performed, "{row}");
                    assert_eq!(out.rejects, frozen.rejects, "{row}");
                    assert_eq!(out.visits, frozen.visits(switched.edges()), "{row}");
                    assert_eq!(switched.edge_digest(), reference.edge_digest(), "{row}");
                    for v in 0..switched.num_vertices() as u64 {
                        assert_eq!(switched.neighbors(v), reference.neighbors(v), "{row}");
                    }
                }
            }
        }
    }
}

/// `build_stores` → the ranks switch → `assemble_graph`, at every world
/// size the deterministic driver covers: the stores carry no adjacency,
/// so the assembled graph's is built from nothing but their pools and
/// has to come out whole.
#[test]
fn assembled_graphs_are_whole_at_every_world_size() {
    let g = clustered_graph(62);
    for p in [1usize, 2, 4] {
        let out = simulated(&g, 2_000, &config(p));
        out.graph
            .check_invariants()
            .unwrap_or_else(|why| panic!("p={p}: {why}"));
        assert_eq!(out.graph.degree_sequence(), g.degree_sequence(), "p={p}");
        assert_eq!(out.performed() + out.forfeited(), 2_000, "p={p}");
    }
}

/// The digests of `Run::sequential`, `Run::simulated(4)` and sequential
/// Curveball as the parent commit of the stepped-engine refactor
/// (36c62d0) computed them: replacing the one-shot drivers by `start →
/// advance → finish` moved no bit.
///
/// The generator is the repository's own (`edgeswitch_dist::rng`, whose
/// tests pin its word stream), so the pins hold wherever this builds.
#[test]
fn golden_digests_are_pinned() {
    let g = erdos_renyi_gnm(400, 2000, &mut root_rng(7));
    let runs = [
        Run::sequential().switches(3000).seed(11),
        Run::simulated(4).switches(3000).seed(11),
        Run::sequential()
            .randomizer(Randomizer::Curveball)
            .switches(1000)
            .seed(11),
    ];
    let got: Vec<(u64, u64)> = runs
        .iter()
        .map(|run| {
            let out = run.execute(&g);
            (out.graph().edge_digest(), out.performed())
        })
        .collect();
    let pinned = [
        (0x76dc_0aa6_6e5f_520e, 3000),
        (0x0eb1_c98e_df99_5404, 3000),
        (0x2773_2574_6a94_5fc2, 1000),
    ];
    assert_eq!(got, pinned);
}

/// [`Graph::sorted_edges`] as it was before it walked the sorted
/// adjacency: collect the pool, sort.
fn sorted_edges_by_sort(g: &Graph) -> Vec<Edge> {
    let mut edges: Vec<Edge> = g.edges().collect();
    edges.sort_unstable();
    edges
}

/// [`Graph::edge_digest`] as it was before it walked the sorted
/// adjacency: collect the pool's keys, sort, fold.
fn edge_digest_by_sort(g: &Graph) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    let mut keys: Vec<u64> = g.edges().map(|e| e.key()).collect();
    keys.sort_unstable();
    let mut h = mix(0x65646765_u64 ^ g.num_vertices() as u64);
    for k in keys {
        h = mix(h ^ k.wrapping_mul(0x9e3779b97f4a7c15));
    }
    h
}

/// `sorted_edges` and `edge_digest` walk the sorted neighbour lists
/// instead of sorting the pool; on every kind of graph they equal the
/// collect-and-sort they replace — including graphs whose pool order is
/// far from key order (a switch run's swap-removes) and a Curveball
/// output, built in ascending key order.
#[test]
fn ascending_walk_equals_the_sort_it_replaces() {
    let mut rng = root_rng(3);
    let er = erdos_renyi_gnm(300, 1200, &mut rng);
    let pa = preferential_attachment(400, 3, &mut rng);
    let isolated = Graph::from_edges(
        12,
        [(9, 2), (2, 5), (11, 0), (5, 9)].map(|(a, b)| Edge::new(a, b)),
    )
    .unwrap();
    let switched = Run::sequential().switches(2000).seed(5).execute(&er);
    let switched_p = Run::simulated(3).switches(2000).seed(5).execute(&pa);
    let traded = Run::sequential()
        .randomizer(Randomizer::Curveball)
        .switches(300)
        .seed(5)
        .execute(&pa);
    let graphs = [
        &er,
        &pa,
        &star(50),
        &Graph::new(0),
        &Graph::new(1),
        &isolated,
        switched.graph(),
        switched_p.graph(),
        traded.graph(),
    ];
    for (i, g) in graphs.into_iter().enumerate() {
        assert_eq!(g.sorted_edges(), sorted_edges_by_sort(g), "graph {i}");
        assert_eq!(g.edge_digest(), edge_digest_by_sort(g), "graph {i}");
    }
    // The switched graphs really do hold their edges out of key order.
    for g in [switched.graph(), switched_p.graph(), &isolated] {
        assert!(!g.edges().eq(g.sorted_edges()));
    }
}

/// The bytes of a snapshot, pinned as format 4 writes them: a
/// sequential engine and a simulated p = 2 world, each `advance`d part
/// way on a fixed instance. Checkpoints on disk (and with them a service
/// job's resume) stay readable only while the format and every field in
/// it — pool order, visit marks, counters, stream position — are
/// unchanged; a digest of the bytes fails on any of them. Beside each, a
/// digest of what the snapshot holds, whatever the format: the edges in
/// order, the sorted keys of the unvisited ones and every counter, as
/// commit 0e06a1f (format 2, a sorted key per unvisited edge) computed
/// it. Format 3 changed how the marks are written, not what is written.
/// Format 4 dropped the trade visit message kind, so a telemetry row
/// holds one counter fewer: the world's content digest moved with its
/// counter arrays (it is format 3's with a zero slot appended to each)
/// and its bytes shrank by 8 a row; the sequential content did not move.
#[test]
fn snapshot_bytes_are_pinned() {
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
    let keys = |edges: &[Edge]| edges.iter().map(|e| e.key()).collect::<Vec<u64>>();
    let unvisited = |edges: &[Edge], bits: &[u64]| {
        let mut set: Vec<u64> = (0..edges.len())
            .filter(|&i| bits[i / 64] >> (i % 64) & 1 == 1)
            .map(|i| edges[i].key())
            .collect();
        set.sort_unstable();
        set
    };
    let content = |sequential: bool, bytes: &[u8]| {
        // Flat tuples, field for field as the format-2 digest formatted them.
        let text = if sequential {
            let c = decode_seq_checkpoint(bytes).expect("own snapshot");
            let (edges, set) = (
                keys(&c.graph_edges),
                unvisited(&c.graph_edges, &c.visits.unvisited),
            );
            let (initial, rng) = (c.visits.initial, c.rng_words);
            let (seed, n, t, performed, abandoned) = (c.seed, c.n, c.t, c.performed, c.abandoned);
            let all = (
                seed, n, t, performed, abandoned, c.rejects, initial, rng, edges, set,
            );
            format!("{all:?}")
        } else {
            let s = decode_switch_world(bytes).expect("own snapshot");
            let ranks: Vec<_> = (s.ranks.iter())
                .map(|r| {
                    let edges = keys(&r.store_edges);
                    let set = unvisited(&r.store_edges, &r.visits.unvisited);
                    let initial = r.visits.initial;
                    (
                        r.rank,
                        edges,
                        initial,
                        set,
                        r.stats,
                        r.conv_seq,
                        r.rng_words,
                    )
                })
                .collect();
            let (seed, p, n, t, next_step) = (s.seed, s.p, s.n, s.schedule, s.next_step);
            let (comm, telemetry, initial) = (&s.comm, &s.telemetry, &s.initial_edges);
            let all = (seed, p, n, t, next_step, ranks, comm, telemetry, initial);
            format!("{all:?}")
        };
        fnv1a(text.as_bytes())
    };
    let g = erdos_renyi_gnm(400, 2000, &mut root_rng(7));
    let runs = [
        (Run::sequential().switches(3000).seed(11), 1000),
        (Run::simulated(2).switches(3000).seed(11), 3),
    ];
    let got: Vec<(usize, u64, u64)> = runs
        .iter()
        .map(|(run, advances)| {
            let mut engine = run.start(&g).expect("steppable run");
            for _ in 0..*advances {
                engine.advance(1);
            }
            let bytes = engine.snapshot();
            let sequential = *advances == 1000;
            (bytes.len(), fnv1a(&bytes), content(sequential, &bytes))
        })
        .collect();
    let pinned = [
        (16_361, 0x7eca_aaa2_d3ac_1366, 0xa140_d5d3_e685_cb93),
        (17_905, 0x0adb_74a7_6d26_1695, 0x73ee_e657_2a4a_db31),
    ];
    assert_eq!(got, pinned);
}

/// The protocol's exact ledger on one fixed instance, pinned at p ∈ {1,
/// 2, 4}: steps, performed switches, aborts, blocked events, switches
/// taken by the local fast path, logical messages per kind and packets,
/// as commit 1ead348 computed them. These seed-determined counters are
/// what the §4–§6 scaling argument rests on, and unlike a wall-clock
/// ratio they mean the same on any box: a protocol change that sends
/// more messages per switch, or a fast path that stops firing (every
/// counter but the fast-path column is identical with it off), fails
/// here.
#[test]
fn protocol_ledger_is_pinned() {
    let g = preferential_attachment(5_000, 5, &mut root_rng(3));
    assert_eq!(g.num_edges(), 24_975);
    let got: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|p| {
            let out = Run::simulated(p)
                .visit_rate(0.5)
                .seed(9)
                .execute(&g)
                .into_parallel()
                .expect("parallel outcome");
            let msgs = out.logical_msg_totals();
            let fastpath: u64 = out.telemetry.iter().map(|s| s.local_fastpath).sum();
            // The simulators deliver one logical message per packet, and
            // one partition owning everything sends nothing and commits
            // every switch inline.
            assert_eq!(out.packet_total(), msgs.total(), "p={p}");
            if p == 1 {
                assert_eq!(msgs.total(), 0);
                assert_eq!(fastpath, out.performed());
            }
            (
                p,
                out.steps,
                out.performed(),
                out.per_rank.iter().map(RankStats::aborts).sum::<u64>(),
                out.blocked_events(),
                fastpath,
                *msgs.slots(),
                out.packet_total(),
            )
        })
        .collect();
    // (p, steps, performed, aborts, blocked, fast path, logical messages
    // in `MsgKind` slot order, packets): 0, 4.43 and 6.73 messages per
    // switch at p = 1, 2, 4.
    #[rustfmt::skip]
    let pinned = vec![
        (1, 101, 8655, 211, 0, 8655, [0; MsgKind::COUNT], 0),
        (2, 101, 8655, 199, 0, 3531,
         [4447, 5188, 5150, 38, 17, 5133, 4375, 9508, 4375, 72, 0, 0, 0, 0, 0], 38_303),
        (4, 101, 8655, 223, 0, 1561,
         [6580, 8091, 8025, 66, 29, 7996, 6457, 14453, 6457, 123, 0, 0, 0, 0, 0], 58_277),
    ];
    assert_eq!(got, pinned);
}

/// The Curveball protocol's exact ledger on one fixed instance, pinned at
/// p ∈ {1, 2, 4}: passes, trades, neighbours moved, the edge digest and
/// the two trade message kinds as commit ff35cc4 computed them; packets
/// and, under the DES, the virtual time of every pass (boundary + drain)
/// and its packet total as they stand since visit marks ride the tokens
/// (no visit report is sent). A change to how trade traffic is routed,
/// counted or charged fails here.
#[test]
fn curveball_ledger_is_pinned() {
    let g = preferential_attachment(2_000, 5, &mut root_rng(3));
    let got: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|p| {
            let run = Run::simulated(p)
                .randomizer(Randomizer::Curveball)
                .switches(4_500)
                .seed(9);
            let out = run.execute(&g).into_parallel().expect("parallel outcome");
            let msgs = out.logical_msg_totals();
            let (des, report) = des_run(&run, &g, &CostModel::default());
            assert!(des.graph.same_edge_set(&out.graph), "p={p}");
            (
                p,
                out.steps,
                out.performed(),
                out.telemetry.iter().map(|s| s.neighbors_moved).sum::<u64>(),
                out.graph.edge_digest(),
                [msgs.get(MsgKind::TradeLoad), msgs.get(MsgKind::TradeHome)],
                out.packet_total(),
                report
                    .step_ns
                    .iter()
                    .map(|&ns| ns as u64)
                    .collect::<Vec<_>>(),
                report.packets,
            )
        })
        .collect();
    // (p, passes, trades, neighbours moved, digest, [TradeLoad,
    // TradeHome], packets, DES ns per pass, DES packets):
    // every driver at every p makes the sequential engine's trades, so
    // only the traffic columns move with p.
    #[rustfmt::skip]
    let pinned = vec![
        (1, 5, 5000, 98_656, 0x4780_10a9_1a04_5819, [0, 0], 0,
         vec![1_774_852, 1_778_152, 1_775_752, 1_772_752, 1_776_352], 0),
        (2, 5, 5000, 98_656, 0x4780_10a9_1a04_5819, [26_689, 3_988], 30_677,
         vec![1_781_504, 1_778_504, 1_775_654, 1_776_204, 1_771_504], 30_677),
        (4, 5, 5000, 98_656, 0x4780_10a9_1a04_5819, [44_777, 9_423], 54_200,
         vec![1_484_408, 1_489_508, 1_504_808, 1_472_108, 1_471_708], 54_200),
    ];
    assert_eq!(got, pinned);
}

#[test]
fn fifo_and_des_produce_identical_logical_outcomes() {
    let g = clustered_graph(31);
    let t = 4_000;
    let cfg = config(12);

    let fifo = simulated(&g, t, &cfg);
    let (des, report) = des(&g, t, &cfg);

    // Same schedule → same graph, same counters, same telemetry.
    assert!(fifo.graph.same_edge_set(&des.graph));
    assert_eq!(fifo.steps, des.steps);
    assert_eq!(fifo.per_rank, des.per_rank);
    assert_eq!(fifo.final_edges, des.final_edges);
    assert_eq!(fifo.initial_edges, des.initial_edges);
    assert_eq!(fifo.performed(), des.performed());
    assert_eq!(fifo.forfeited(), des.forfeited());
    assert_eq!(fifo.visit_rate(), des.visit_rate());
    assert_eq!(fifo.telemetry.len(), des.telemetry.len());
    for (a, b) in fifo.telemetry.iter().zip(des.telemetry.iter()) {
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.started, b.started);
        assert_eq!(a.performed, b.performed);
        assert_eq!(a.forfeited, b.forfeited);
        assert_eq!(a.served, b.served);
        assert_eq!(a.blocked, b.blocked);
        assert_eq!(a.logical_msgs, b.logical_msgs);
    }
    // The DES layers timing on top without changing message counts.
    assert_eq!(
        fifo.comm.iter().map(|c| c.packets_sent).sum::<u64>(),
        report.packets
    );
    assert!(report.runtime_ns > 0.0);
}

/// FIFO≡DES is the correctness oracle for the pipelined protocol: it
/// must hold at every window depth, not just the stop-and-wait special
/// case, and the window bound itself must be visible in the telemetry.
#[test]
fn fifo_des_conformance_holds_across_windows() {
    let g = clustered_graph(34);
    let t = 2_000;
    let mut peaks = Vec::new();
    for window in [1usize, 4, 16] {
        let cfg = config(8).with_window(window);
        let fifo = simulated(&g, t, &cfg);
        let (des, _) = des(&g, t, &cfg);
        assert!(
            fifo.graph.same_edge_set(&des.graph),
            "FIFO and DES diverged at window {window}"
        );
        assert_eq!(
            fifo.per_rank, des.per_rank,
            "stats diverged at window {window}"
        );
        assert_eq!(fifo.final_edges, des.final_edges);
        assert_eq!(fifo.performed(), des.performed());
        assert_eq!(fifo.window_peak(), des.window_peak());
        assert_eq!(fifo.packet_total(), des.packet_total());
        assert_eq!(fifo.parked_events(), des.parked_events());
        // Occupancy never exceeds the configured bound, and the books
        // still balance however deep the pipeline runs.
        assert!(fifo.window_peak() <= window as u64);
        assert_eq!(fifo.performed() + fifo.forfeited(), t);
        assert_eq!(fifo.graph.degree_sequence(), g.degree_sequence());
        peaks.push(fifo.window_peak());
    }
    // window=1 is stop-and-wait by construction; deeper windows must
    // actually overlap conversations on this workload.
    assert_eq!(peaks[0], 1);
    assert!(peaks[1] > 1, "window 4 never pipelined");
    assert!(peaks[2] >= peaks[1]);
}

#[test]
fn threaded_engine_matches_schedule_independent_invariants() {
    let g = clustered_graph(32);
    let t = 3_000;
    run_threaded_invariants(&g, t, &config(6).with_window(1));
    run_threaded_invariants(&g, t, &config(6).with_window(DEFAULT_WINDOW));
}

fn run_threaded_invariants(g: &Graph, t: u64, cfg: &ParallelConfig) {
    let sim = simulated(g, t, cfg);
    let eng = threaded(g, t, cfg);

    for out in [&sim, &eng] {
        out.graph.check_invariants().unwrap();
        assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
        assert_eq!(out.performed() + out.forfeited(), t);
        assert_eq!(out.steps, sim.steps);
        assert_eq!(out.initial_edges, sim.initial_edges);
        // Telemetry totals account for every operation and completion.
        assert_eq!(out.telemetry.len(), out.steps as usize);
        assert_eq!(out.telemetry.iter().map(|s| s.ops).sum::<u64>(), t);
        assert_eq!(
            out.telemetry.iter().map(|s| s.performed).sum::<u64>(),
            out.performed()
        );
        assert_eq!(
            out.telemetry.iter().map(|s| s.forfeited).sum::<u64>(),
            out.forfeited()
        );
        // Every started attempt terminates in exactly one Done or Abort
        // (forfeits via an emptied partition never start).
        let aborts: u64 = out.per_rank.iter().map(|s| s.aborts()).sum();
        assert_eq!(
            out.telemetry.iter().map(|s| s.started).sum::<u64>(),
            out.performed() + aborts
        );
    }

    // The engine's per-variant counters agree between the telemetry
    // layer and the mpilite per-kind counters (protocol messages only;
    // the comm stats additionally count collective traffic).
    let eng_msgs = eng.logical_msg_totals();
    for kind in MsgKind::ALL {
        if kind == MsgKind::Coll {
            continue;
        }
        let from_comm: u64 = eng
            .comm
            .iter()
            .map(|c| c.logical_by_kind[kind as usize])
            .sum();
        assert_eq!(
            eng_msgs.get(kind),
            from_comm,
            "kind {:?} disagrees between telemetry and comm stats",
            kind
        );
    }
}

/// Everything logical must agree between two runs of the same seeded
/// configuration that differ only in fast-path setting or driver; the
/// fast-path attribution counters are excluded (an off run reports
/// zero where an on run attributes). DES virtual-time fields are also
/// excluded: skipping self-deliveries removes their per-message
/// charges without touching the causal schedule.
fn assert_fastpath_identical(on: &ParallelOutcome, off: &ParallelOutcome, ctx: &str) {
    assert!(on.graph.same_edge_set(&off.graph), "graph diverged: {ctx}");
    assert_eq!(on.steps, off.steps, "steps diverged: {ctx}");
    assert_eq!(on.final_edges, off.final_edges, "edges diverged: {ctx}");
    assert_eq!(on.initial_edges, off.initial_edges);
    assert_eq!(on.visit_rate(), off.visit_rate(), "visits diverged: {ctx}");
    let strip = |s: &RankStats| {
        let mut s = *s;
        s.performed_fastpath = 0;
        s
    };
    assert_eq!(
        on.per_rank.iter().map(strip).collect::<Vec<_>>(),
        off.per_rank.iter().map(strip).collect::<Vec<_>>(),
        "stats diverged: {ctx}"
    );
    assert_eq!(on.telemetry.len(), off.telemetry.len());
    for (a, b) in on.telemetry.iter().zip(off.telemetry.iter()) {
        assert_eq!(a.ops, b.ops, "ops diverged: {ctx}");
        assert_eq!(a.started, b.started, "started diverged: {ctx}");
        assert_eq!(a.performed, b.performed, "performed diverged: {ctx}");
        assert_eq!(a.forfeited, b.forfeited, "forfeited diverged: {ctx}");
        assert_eq!(a.served, b.served, "served diverged: {ctx}");
        assert_eq!(a.blocked, b.blocked, "blocked diverged: {ctx}");
        assert_eq!(a.parked, b.parked, "parked diverged: {ctx}");
        assert_eq!(a.window_peak, b.window_peak, "peak diverged: {ctx}");
        assert_eq!(a.packets, b.packets, "packets diverged: {ctx}");
        assert_eq!(a.logical_msgs, b.logical_msgs, "messages diverged: {ctx}");
    }
}

/// The local fast path is a pure execution-strategy change: with it on
/// (the default) or off, seeded runs are bit-identical in every logical
/// field — across simulators, processor counts and window depths.
#[test]
fn local_fastpath_toggle_is_bit_identical_across_simulators() {
    let g = clustered_graph(35);
    let t = 2_000;
    for p in [1usize, 2, 4] {
        for window in [1usize, 16] {
            let on = config(p).with_window(window);
            let off = on.clone().with_local_fastpath(false);
            let fifo_on = simulated(&g, t, &on);
            let fifo_off = simulated(&g, t, &off);
            assert_fastpath_identical(&fifo_on, &fifo_off, &format!("FIFO p={p} window={window}"));
            let (des_on, _) = des(&g, t, &on);
            let (des_off, _) = des(&g, t, &off);
            assert_fastpath_identical(&des_on, &des_off, &format!("DES p={p} window={window}"));
            // Disabled runs attribute nothing to the fast path.
            for off in [&fifo_off, &des_off] {
                assert!(
                    off.per_rank.iter().all(|s| s.performed_fastpath == 0),
                    "disabled fast path still attributed switches at p={p}"
                );
                assert!(off.telemetry.iter().all(|s| s.local_fastpath == 0));
            }
            // The toggle also commutes with the FIFO≡DES oracle — with
            // both on, even the attribution counters agree exactly.
            assert_eq!(
                fifo_on.per_rank, des_on.per_rank,
                "FIFO-on vs DES-on stats diverged at p={p} window={window}"
            );
            // The fast path actually fires, and the telemetry column sums
            // to the per-rank attribution.
            let fp: u64 = fifo_on.per_rank.iter().map(|s| s.performed_fastpath).sum();
            assert!(fp > 0, "fast path never fired at p={p} window={window}");
            assert_eq!(
                fp,
                fifo_on
                    .telemetry
                    .iter()
                    .map(|s| s.local_fastpath)
                    .sum::<u64>()
            );
            if p == 1 {
                // One partition owns everything: every switch is local
                // and every replacement endpoint resolves locally.
                assert_eq!(fp, fifo_on.performed());
            }
        }
    }
}

/// At `p = 1` the threaded engine has no cross-rank interleaving, so the
/// toggle must be bit-identical there too (and the engine must agree
/// with the simulator outright). At higher `p` the schedule is
/// OS-dependent and the fast path is held to accounting invariants.
#[test]
fn local_fastpath_toggle_on_the_threaded_engine() {
    let g = clustered_graph(36);
    let t = 2_000;
    for window in [1usize, 16] {
        let on = config(1).with_window(window);
        let off = on.clone().with_local_fastpath(false);
        let eng_on = threaded(&g, t, &on);
        let eng_off = threaded(&g, t, &off);
        assert_fastpath_identical(&eng_on, &eng_off, &format!("threaded p=1 window={window}"));
        assert!(eng_off.per_rank.iter().all(|s| s.performed_fastpath == 0));
        let fifo = simulated(&g, t, &on);
        assert!(
            eng_on.graph.same_edge_set(&fifo.graph),
            "threaded p=1 diverged from the simulator at window {window}"
        );
        assert_eq!(eng_on.per_rank, fifo.per_rank);
    }
    for p in [2usize, 4] {
        let out = threaded(&g, t, &config(p));
        out.graph.check_invariants().unwrap();
        assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
        assert_eq!(out.performed() + out.forfeited(), t);
        let fp: u64 = out.per_rank.iter().map(|s| s.performed_fastpath).sum();
        let fp_tel: u64 = out.telemetry.iter().map(|s| s.local_fastpath).sum();
        assert_eq!(
            fp, fp_tel,
            "telemetry and stats disagree on fast-path count"
        );
        for s in &out.per_rank {
            assert!(
                s.performed_fastpath <= s.performed_local,
                "fast-path switches are a subset of local switches"
            );
        }
        assert!(
            fp > 0,
            "fast path never fired on the threaded engine at p={p}"
        );
    }
}

/// Process-backend re-entry hook, not a test: rank children spawned by
/// the process-backend tests below are this same test binary re-executed
/// with argv selecting exactly this `#[ignore]`d name. With the shm
/// environment set, `child_entry_from_env` runs the rank loop and exits
/// before libtest ever sees the process; without it this is a no-op.
#[test]
#[ignore = "process-backend child entry point, not a test"]
fn shm_child_entry() {
    child_entry_from_env();
}

/// At `p = 1` the process engine, like the threaded engine, has no
/// cross-rank interleaving: the child rank must replay exactly the FIFO
/// simulator's schedule, bit for bit, across window depths — despite
/// crossing a process boundary twice (boot blob out, result blob back).
#[test]
fn process_engine_p1_is_bit_identical_to_simulator() {
    if !process_backend_supported() {
        eprintln!("process backend unsupported on this platform; skipping");
        return;
    }
    let g = clustered_graph(41);
    let t = 2_000;
    for window in [1usize, 16] {
        let cfg = config(1).with_window(window);
        let fifo = simulated(&g, t, &cfg);
        let proc = process(&g, t, &cfg);
        let ctx = format!("process p=1 window={window}");
        assert!(
            proc.graph.same_edge_set(&fifo.graph),
            "graph diverged: {ctx}"
        );
        assert_eq!(proc.steps, fifo.steps, "steps diverged: {ctx}");
        assert_eq!(proc.per_rank, fifo.per_rank, "stats diverged: {ctx}");
        assert_eq!(proc.final_edges, fifo.final_edges, "edges diverged: {ctx}");
        assert_eq!(proc.initial_edges, fifo.initial_edges);
        assert_eq!(
            proc.visit_rate(),
            fifo.visit_rate(),
            "visits diverged: {ctx}"
        );
        // The rank's marks crossed the shm rings as a bitmap over its
        // store: the same set must come out.
        assert_eq!(
            remaining_sorted(&proc.visits, &proc.graph),
            remaining_sorted(&fifo.visits, &fifo.graph),
            "visit sets diverged: {ctx}"
        );
        assert_eq!(proc.telemetry.len(), fifo.telemetry.len());
        for (a, b) in proc.telemetry.iter().zip(fifo.telemetry.iter()) {
            assert_eq!(a.ops, b.ops, "ops diverged: {ctx}");
            assert_eq!(a.started, b.started, "started diverged: {ctx}");
            assert_eq!(a.performed, b.performed, "performed diverged: {ctx}");
            assert_eq!(a.forfeited, b.forfeited, "forfeited diverged: {ctx}");
            assert_eq!(a.served, b.served, "served diverged: {ctx}");
            assert_eq!(a.blocked, b.blocked, "blocked diverged: {ctx}");
            assert_eq!(a.window_peak, b.window_peak, "peak diverged: {ctx}");
            assert_eq!(a.local_fastpath, b.local_fastpath);
            assert_eq!(a.packets, b.packets, "packets diverged: {ctx}");
            assert_eq!(a.logical_msgs, b.logical_msgs, "messages diverged: {ctx}");
        }
    }
}

/// At `p > 1` the process engine's schedule depends on OS interleaving
/// (like the threaded engine's), so the two drivers are compared on
/// schedule-independent logical outcomes across processor counts ×
/// window depths: the permanent invariants hold for both, and
/// everything determined by `(graph, t, config)` alone — step count,
/// step sizes, initial edge count — agrees exactly.
#[test]
fn process_engine_matches_threaded_logical_outcomes() {
    if !process_backend_supported() {
        eprintln!("process backend unsupported on this platform; skipping");
        return;
    }
    let g = clustered_graph(42);
    let t = 1_500;
    for p in [2usize, 4, 8] {
        for window in [1usize, 16] {
            let cfg = config(p).with_window(window);
            let thr = threaded(&g, t, &cfg);
            let proc = process(&g, t, &cfg);
            let ctx = format!("p={p} window={window}");
            for out in [&thr, &proc] {
                out.graph.check_invariants().unwrap();
                assert_eq!(out.graph.degree_sequence(), g.degree_sequence(), "{ctx}");
                assert_eq!(out.performed() + out.forfeited(), t, "{ctx}");
                assert_eq!(out.telemetry.len(), out.steps as usize, "{ctx}");
                assert_eq!(out.telemetry.iter().map(|s| s.ops).sum::<u64>(), t);
                assert_eq!(
                    out.telemetry.iter().map(|s| s.performed).sum::<u64>(),
                    out.performed()
                );
                let aborts: u64 = out.per_rank.iter().map(|s| s.aborts()).sum();
                assert_eq!(
                    out.telemetry.iter().map(|s| s.started).sum::<u64>(),
                    out.performed() + aborts,
                    "{ctx}"
                );
                // Per-kind message counters agree between the
                // telemetry layer and the transport's own books.
                let msgs = out.logical_msg_totals();
                for kind in MsgKind::ALL {
                    if kind == MsgKind::Coll {
                        continue;
                    }
                    let from_comm: u64 = out
                        .comm
                        .iter()
                        .map(|c| c.logical_by_kind[kind as usize])
                        .sum();
                    assert_eq!(msgs.get(kind), from_comm, "kind {kind:?}: {ctx}");
                }
            }
            // Everything fixed by `(graph, t, config)` alone is
            // identical across the two transports.
            assert_eq!(proc.steps, thr.steps, "steps diverged: {ctx}");
            assert_eq!(proc.initial_edges, thr.initial_edges, "{ctx}");
            assert_eq!(proc.per_rank.len(), thr.per_rank.len());
            for (a, b) in proc.telemetry.iter().zip(thr.telemetry.iter()) {
                assert_eq!(a.ops, b.ops, "step sizes diverged: {ctx}");
            }
            // Both worlds run one `Comm`: a step's collectives, and the
            // collective packets they send, are fixed by the step count.
            assert_eq!(proc.comm.len(), thr.comm.len());
            for (rank, (a, b)) in proc.comm.iter().zip(thr.comm.iter()).enumerate() {
                assert_eq!(a.collectives, b.collectives, "rank {rank}: {ctx}");
                assert_eq!(a.collectives, 2 * proc.steps, "rank {rank}: {ctx}");
                let coll = MsgKind::Coll as usize;
                assert_eq!(
                    a.logical_by_kind[coll], b.logical_by_kind[coll],
                    "rank {rank}: {ctx}"
                );
            }
        }
    }
}

/// Orphan-safety driver, not a test: launches a process-backend run far
/// too long to finish, with child-pid announcements on, so the kill test
/// below can murder this driver mid-run and watch the rank children die
/// with it (PDEATHSIG plus the liveness word in the shm header).
#[test]
#[ignore = "orphan-safety driver for killing_the_launcher_reaps_rank_children"]
fn shm_orphan_driver() {
    if !process_backend_supported() {
        return;
    }
    let g = clustered_graph(43);
    let cfg = config(2).with_proc_opts(ProcOpts {
        announce_children: true,
        ..ProcOpts::default()
    });
    // ~10^9 switches: minutes of work — the parent kills us long before.
    process(&g, 1_000_000_000, &cfg);
}

/// Read the state letter from `/proc/<pid>/stat` — `None` once the pid is
/// gone. The state field follows the parenthesised comm, which may itself
/// contain anything, so parse from the *last* `)`.
fn proc_state(pid: u32) -> Option<char> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    stat.rsplit(')').next()?.trim().chars().next()
}

/// Kill-parent-mid-run: SIGKILL the launcher while its rank children are
/// grinding, then assert the children disappear on their own. SIGKILL
/// means no destructor runs in the launcher — only the PDEATHSIG set in
/// `pre_exec` (and the shm liveness word polled on park) can reap them.
#[test]
fn killing_the_launcher_reaps_rank_children() {
    if !process_backend_supported() {
        eprintln!("process backend unsupported on this platform; skipping");
        return;
    }
    let exe = std::env::current_exe().expect("own test binary");
    let mut driver = std::process::Command::new(exe)
        .args(["shm_orphan_driver", "--include-ignored", "--nocapture"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn orphan driver");
    // The launcher announces each rank child as `shm-child-pid: <pid>`.
    let stdout = driver.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout);
    let mut pids: Vec<u32> = Vec::new();
    let mut line = String::new();
    while pids.len() < 2 {
        line.clear();
        let n = lines.read_line(&mut line).expect("read driver stdout");
        assert!(n > 0, "driver exited before announcing both rank children");
        // Not anchored: libtest's `test shm_orphan_driver ...` progress
        // prefix lands on the same line as the first announcement.
        if let Some(at) = line.find("shm-child-pid: ") {
            let rest = line[at + "shm-child-pid: ".len()..].trim();
            pids.push(rest.parse().expect("pid"));
        }
    }
    for &pid in &pids {
        assert!(proc_state(pid).is_some(), "announced child {pid} not alive");
    }
    driver.kill().expect("kill driver");
    driver.wait().expect("reap driver");
    // Children must vanish without anyone waiting on them. A zombie
    // counts as dead: it stopped running and awaits only init's reap.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut remaining = pids;
    while !remaining.is_empty() {
        remaining.retain(|&pid| !matches!(proc_state(pid), None | Some('Z')));
        if remaining.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "rank children survived the launcher's death: {remaining:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

// ---------------------------------------------------------------------
// Curveball trade conformance
// ---------------------------------------------------------------------
//
// The trade protocol is *stronger* than the switch protocol: its
// counting-based forwarding makes every driver — sequential engine,
// FIFO simulator, DES, threaded engine — bit-identical at every
// processor count, not just schedule-equivalent. These tests pin that.

/// Collect the unvisited keys an outcome's visits mark over its graph, in
/// sorted order, so two drivers' visit *sets* (not just rates) can be
/// compared exactly whatever order their graphs hold the edges in.
fn remaining_sorted(visits: &Visits, graph: &Graph) -> Vec<u64> {
    let edges: Vec<Edge> = graph.edges().collect();
    let mut keys: Vec<u64> = visits.unvisited_edges(&edges).map(|e| e.key()).collect();
    keys.sort_unstable();
    keys
}

/// Sequential ≡ simulated at every p: the parallel trade protocol
/// replays the sequential engine's trades exactly (same RNG stream per
/// trade, same neighbor multisets), so graph, visit set, and work
/// counters are bit-identical — the Curveball analogue of FIFO≡DES.
#[test]
fn curveball_sequential_and_simulator_are_bit_identical() {
    let g = clustered_graph(51);
    let budget = Budget::Ops(1_000);
    let seq = sequential_trades(&g, budget, 4242);
    let trades = seq.out.performed;
    assert!(trades >= 1_000, "budget not met sequentially");

    for p in [1usize, 2, 4] {
        let sim = simulated_trades(&g, budget, &config(p));
        let ctx = format!("curveball p={p}");
        assert!(
            sim.graph.same_edge_set(&seq.graph),
            "graph diverged from sequential: {ctx}"
        );
        assert_eq!(
            sim.visits.visited(),
            seq.out.visits.visited(),
            "visit counts diverged: {ctx}"
        );
        assert_eq!(
            remaining_sorted(&sim.visits, &sim.graph),
            remaining_sorted(&seq.out.visits, &seq.graph),
            "visit sets diverged: {ctx}"
        );
        assert_eq!(sim.performed(), trades, "trade counts diverged: {ctx}");
        assert_eq!(sim.steps, seq.passes, "pass counts diverged: {ctx}");
        assert_eq!(
            sim.telemetry.iter().map(|s| s.trades).sum::<u64>(),
            trades,
            "telemetry trades diverged: {ctx}"
        );
        assert_eq!(
            sim.telemetry.iter().map(|s| s.neighbors_moved).sum::<u64>(),
            seq.neighbors_moved,
            "neighbors_moved diverged: {ctx}"
        );
        assert_eq!(sim.forfeited(), 0, "trades never forfeit: {ctx}");
    }
}

/// FIFO ≡ DES for parallel trades at p ∈ {1, 2, 4}: the DES executes the
/// same causal schedule on virtual clocks, so every logical field must
/// agree — and the DES report's packet total must match the comm books.
#[test]
fn curveball_fifo_and_des_produce_identical_outcomes() {
    let g = clustered_graph(52);
    let budget = Budget::Ops(1_200);
    for p in [1usize, 2, 4] {
        let cfg = config(p);
        let fifo = simulated_trades(&g, budget, &cfg);
        let (des, report) = des_trades(&g, budget, &cfg);
        let ctx = format!("curveball FIFO vs DES p={p}");
        assert!(fifo.graph.same_edge_set(&des.graph), "graph: {ctx}");
        assert_eq!(fifo.steps, des.steps, "steps: {ctx}");
        assert_eq!(fifo.per_rank, des.per_rank, "stats: {ctx}");
        assert_eq!(fifo.final_edges, des.final_edges, "edges: {ctx}");
        assert_eq!(fifo.initial_edges, des.initial_edges, "{ctx}");
        assert_eq!(fifo.visit_rate(), des.visit_rate(), "visits: {ctx}");
        assert_eq!(
            remaining_sorted(&fifo.visits, &fifo.graph),
            remaining_sorted(&des.visits, &des.graph),
            "visit sets: {ctx}"
        );
        assert_eq!(fifo.telemetry.len(), des.telemetry.len());
        for (a, b) in fifo.telemetry.iter().zip(des.telemetry.iter()) {
            assert_eq!(a.ops, b.ops, "ops: {ctx}");
            assert_eq!(a.trades, b.trades, "trades: {ctx}");
            assert_eq!(a.neighbors_moved, b.neighbors_moved, "moved: {ctx}");
            assert_eq!(a.packets, b.packets, "packets: {ctx}");
            assert_eq!(a.logical_msgs, b.logical_msgs, "messages: {ctx}");
        }
        assert_eq!(
            fifo.comm.iter().map(|c| c.packets_sent).sum::<u64>(),
            report.packets,
            "{ctx}"
        );
    }
}

/// The threaded trade engine is bit-identical to the simulator at every
/// p (not just p = 1): counting-based firing makes trade outcomes
/// independent of OS message interleaving. Logical message totals also
/// agree up to the threaded driver's explicit EndOfStep drain markers;
/// packets are coalesced, and every world counts trades as performed.
#[test]
fn curveball_threaded_engine_is_bit_identical_to_simulator() {
    let g = clustered_graph(53);
    let budget = Budget::Ops(1_000);
    for p in [1usize, 2, 4] {
        let cfg = config(p);
        let fifo = simulated_trades(&g, budget, &cfg);
        let eng = trades_on_threads(&g, budget, &cfg);
        let ctx = format!("curveball threaded p={p}");
        assert!(eng.graph.same_edge_set(&fifo.graph), "graph: {ctx}");
        assert_eq!(eng.steps, fifo.steps, "steps: {ctx}");
        assert_eq!(eng.per_rank, fifo.per_rank, "stats: {ctx}");
        assert_eq!(eng.final_edges, fifo.final_edges, "edges: {ctx}");
        assert_eq!(eng.initial_edges, fifo.initial_edges, "{ctx}");
        assert_eq!(
            remaining_sorted(&eng.visits, &eng.graph),
            remaining_sorted(&fifo.visits, &fifo.graph),
            "visit sets: {ctx}"
        );
        assert_eq!(eng.telemetry.len(), fifo.telemetry.len());
        let eng_msgs = eng.logical_msg_totals();
        let fifo_msgs = fifo.logical_msg_totals();
        // The simulators deliver in lockstep and never need the explicit
        // end-of-pass marker; every other kind must match exactly.
        assert_eq!(fifo_msgs.get(MsgKind::EndOfStep), 0, "{ctx}");
        for kind in MsgKind::ALL {
            if kind == MsgKind::EndOfStep {
                continue;
            }
            assert_eq!(
                eng_msgs.get(kind),
                fifo_msgs.get(kind),
                "kind {kind:?}: {ctx}"
            );
        }
        for (a, b) in eng.telemetry.iter().zip(fifo.telemetry.iter()) {
            assert_eq!(a.ops, b.ops, "ops: {ctx}");
            assert_eq!(a.trades, b.trades, "trades: {ctx}");
            assert_eq!(a.neighbors_moved, b.neighbors_moved, "moved: {ctx}");
            // Trade traffic leaves through the send coalescer: a packet
            // carries one message or a batch of them.
            assert!(a.packets <= a.logical_msgs.total(), "packets: {ctx}");
        }
        if p > 1 {
            assert!(eng.packet_total() < eng_msgs.total(), "no batch: {ctx}");
        }
        // A rank's collectives: the initial-count gather, one visited-count
        // gather per pass, and the gather that ends the run.
        for (rank, comm) in eng.comm.iter().enumerate() {
            assert_eq!(comm.collectives, eng.steps + 2, "rank {rank}: {ctx}");
        }
        // The step loops count executed trades as performed operations,
        // pass by pass, on every world.
        let (des, _) = des_trades(&g, budget, &cfg);
        for (world, out) in [("FIFO", &fifo), ("DES", &des), ("threaded", &eng)] {
            let per_pass: u64 = out.telemetry.iter().map(|s| s.performed).sum();
            assert_eq!(per_pass, out.performed(), "{world} performed: {ctx}");
        }
    }
}

/// Schedule-independent Curveball invariants: after N passes the degree
/// sequence is exactly preserved, the graph stays simple, runs are
/// deterministic per seed, and distinct seeds actually diverge.
#[test]
fn curveball_preserves_degrees_and_is_seed_deterministic() {
    let g = clustered_graph(54);
    let budget = Budget::Ops(2_000);
    let out = simulated_trades(&g, budget, &config(4));
    out.graph.check_invariants().unwrap();
    assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
    assert!(
        !out.graph.same_edge_set(&g),
        "four passes left the graph untouched"
    );

    let again = simulated_trades(&g, budget, &config(4));
    assert!(again.graph.same_edge_set(&out.graph), "same seed diverged");
    assert_eq!(again.per_rank, out.per_rank);

    let other = simulated_trades(&g, budget, &config(4).with_seed(777));
    other.graph.check_invariants().unwrap();
    assert_eq!(other.graph.degree_sequence(), g.degree_sequence());
    assert!(
        !other.graph.same_edge_set(&out.graph),
        "different seeds produced the same graph"
    );
}

/// A visit-rate budget terminates at the first pass boundary at or past
/// the target, identically across sequential and parallel drivers.
#[test]
fn curveball_visit_rate_budget_agrees_across_drivers() {
    let g = clustered_graph(55);
    let budget = Budget::VisitRate(0.6);
    let seq = sequential_trades(&g, budget, 4242);
    assert!(seq.out.visit_rate() >= 0.6, "sequential missed the target");
    for p in [1usize, 4] {
        let sim = simulated_trades(&g, budget, &config(p));
        assert!(sim.visit_rate() >= 0.6, "p={p} missed the target");
        assert!(sim.graph.same_edge_set(&seq.graph), "p={p} graph diverged");
        assert_eq!(sim.steps, seq.passes, "p={p} pass count diverged");
        assert_eq!(
            sim.visits.visited(),
            seq.out.visits.visited(),
            "p={p} visit counts diverged"
        );
    }
}

/// The stall guard ends a visit-rate run that cannot progress, on every
/// Curveball driver alike. In K₅ every trade pairs two adjacent vertices
/// with the same other neighbours (`D = ∅`), so no pass visits an edge:
/// each driver stops after the guard's 3 passes of 2 trades, with the
/// graph as it was.
#[test]
fn curveball_stall_guard_stops_every_driver() {
    let g = complete(5);
    let budget = Budget::VisitRate(0.9);
    let seq = sequential_trades(&g, budget, 4242);
    assert_eq!((seq.passes, seq.out.performed), (3, 6), "sequential");
    assert_eq!(seq.out.visit_rate(), 0.0, "sequential");
    assert!(seq.graph.same_edge_set(&g), "sequential");
    let cfg = config(2);
    let simulated = simulated_trades(&g, budget, &cfg);
    let threaded = trades_on_threads(&g, budget, &cfg);
    for (world, out) in [("simulated", &simulated), ("threaded", &threaded)] {
        assert_eq!((out.steps, out.performed()), (3, 6), "{world}");
        assert_eq!(out.visit_rate(), 0.0, "{world}");
        assert!(out.graph.same_edge_set(&g), "{world}");
    }
}

/// A star is the only graph of its degree sequence. A leaf–leaf trade
/// has `D = ∅`, and a hub–leaf trade's `D` (the other leaves) is
/// one-sided, so its one possible deal is the identity and visits
/// nothing: each driver stops after the guard's 3 passes of 4 trades at
/// visit rate 0, with the graph as it was.
#[test]
fn curveball_star_stalls_on_every_driver() {
    let g = star(8);
    let budget = Budget::VisitRate(0.9);
    let seq = sequential_trades(&g, budget, 1);
    assert_eq!((seq.passes, seq.out.performed), (3, 12), "sequential");
    assert_eq!(seq.out.visit_rate(), 0.0, "sequential");
    assert!(seq.graph.same_edge_set(&g), "sequential");
    let cfg = config(2).with_seed(1);
    let simulated = simulated_trades(&g, budget, &cfg);
    let threaded = trades_on_threads(&g, budget, &cfg);
    for (world, out) in [("simulated", &simulated), ("threaded", &threaded)] {
        assert_eq!((out.steps, out.performed()), (3, 12), "{world}");
        assert_eq!(out.visit_rate(), 0.0, "{world}");
        assert!(out.graph.same_edge_set(&g), "{world}");
    }
}

/// The builder's knobs and a prepared config name the same Curveball
/// run, on the threaded world as on the simulated one.
#[test]
fn run_builder_dispatches_curveball() {
    let g = clustered_graph(56);
    let out = Run::parallel(4)
        .randomizer(Randomizer::Curveball)
        .switches(1_000)
        .seed(4242)
        .scheme(SchemeKind::HashUniversal)
        .execute(&g);
    let sim = simulated_trades(
        &g,
        Budget::Ops(1_000),
        &ParallelConfig::new(4)
            .with_scheme(SchemeKind::HashUniversal)
            .with_seed(4242),
    );
    assert!(out.graph().same_edge_set(&sim.graph));
    assert_eq!(out.performed(), sim.performed());
    assert_eq!(out.graph().degree_sequence(), g.degree_sequence());

    let seq = Run::sequential()
        .randomizer(Randomizer::Curveball)
        .visit_rate(0.5)
        .seed(7)
        .execute(&g);
    assert!(seq.visit_rate() >= 0.5);
    assert_eq!(seq.graph().degree_sequence(), g.degree_sequence());
}

#[test]
fn fifo_des_conformance_holds_across_schemes_and_policies() {
    let g = clustered_graph(33);
    let t = 1_500;
    for scheme in [SchemeKind::Consecutive, SchemeKind::HashUniversal] {
        let cfg = ParallelConfig::new(8)
            .with_scheme(scheme)
            .with_step_size(StepSize::FractionOfT(5))
            .with_seed(77);
        let fifo = simulated(&g, t, &cfg);
        let (des, _) = des(&g, t, &cfg);
        assert!(
            fifo.graph.same_edge_set(&des.graph),
            "FIFO and DES diverged under {scheme:?}"
        );
        assert_eq!(fifo.per_rank, des.per_rank);
    }
}
