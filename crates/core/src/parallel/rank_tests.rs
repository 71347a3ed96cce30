//! White-box tests of the protocol state machine: each message path is
//! driven by hand against small hand-built partitions.

use super::harness::{probability_vector, RankMachine, StepHarness};
use super::msg::{ConvId, Msg, Outbox};
use super::rank::{RankState, RankStats, StartResult};
use super::tests::simulated;
use crate::config::{ParallelConfig, StepSize};
use crate::switch::RejectReason;
use edgeswitch_graph::generators::erdos_renyi_gnm;
use edgeswitch_graph::sampling::EdgePool;
use edgeswitch_graph::store::build_stores;
use edgeswitch_graph::{Edge, Graph, Partitioner, SchemeKind};
use std::collections::VecDeque;

fn conv(initiator: u32, seq: u64) -> ConvId {
    ConvId { initiator, seq }
}

/// Two ranks under HP-D(2): even labels on rank 0, odd labels on rank 1,
/// stop-and-wait window (the classic protocol).
fn two_rank_world(edges0: &[(u64, u64)], edges1: &[(u64, u64)]) -> (RankState, RankState) {
    two_rank_world_windowed(edges0, edges1, 1, true)
}

/// [`two_rank_world`] with an explicit pipelining window and local
/// fast-path setting.
fn two_rank_world_windowed(
    edges0: &[(u64, u64)],
    edges1: &[(u64, u64)],
    window: usize,
    fastpath: bool,
) -> (RankState, RankState) {
    let part = Partitioner::hash_division(2);
    let mk = |rank: usize, edges: &[(u64, u64)]| {
        let mut store = EdgePool::new();
        for &(a, b) in edges {
            let e = Edge::new(a, b);
            assert_eq!(part.owner(e.src()), rank, "edge {e} misassigned in test");
            store.insert(e);
        }
        let config = ParallelConfig::new(2)
            .with_seed(99)
            .with_window(window)
            .with_local_fastpath(fastpath);
        RankState::new(rank, part.clone(), store, &config)
    };
    (mk(0, edges0), mk(1, edges1))
}

/// Deliver every outbox message, tracking which rank emitted it.
fn pump(states: &mut [&mut RankState], src: usize, out: &mut Outbox) {
    let mut queue: Vec<(usize, usize, Msg)> = Vec::new();
    while let Some((dst, msg)) = out.pop() {
        queue.push((dst, src, msg));
    }
    while !queue.is_empty() {
        let (dst, from, msg) = queue.remove(0);
        let mut next = Outbox::new();
        states[dst].handle(from, msg, &mut next);
        while let Some((d2, m2)) = next.pop() {
            queue.push((d2, dst, m2));
        }
    }
}

#[test]
fn validator_reserves_and_releases_potential_edges() {
    let (mut r0, _r1) = two_rank_world(&[(0, 2), (4, 6)], &[]);
    let mut out = Outbox::new();
    let c = conv(1, 1);
    // Rank 0 validates edge (0, 8): free -> Ok.
    r0.handle(
        1,
        Msg::Validate {
            conv: c,
            edge: Edge::new(0, 8),
        },
        &mut out,
    );
    let (dst, reply) = out.pop().unwrap();
    assert_eq!(dst, 1);
    assert!(matches!(reply, Msg::ValidateOk { .. }));
    // The same edge is now a potential edge: a second validation fails.
    r0.handle(
        1,
        Msg::Validate {
            conv: conv(1, 2),
            edge: Edge::new(0, 8),
        },
        &mut out,
    );
    assert!(matches!(out.pop().unwrap().1, Msg::ValidateFail { .. }));
    // Release frees it again.
    r0.handle(
        1,
        Msg::Release {
            conv: c,
            edge: Edge::new(0, 8),
        },
        &mut out,
    );
    r0.handle(
        1,
        Msg::Validate {
            conv: conv(1, 3),
            edge: Edge::new(0, 8),
        },
        &mut out,
    );
    assert!(matches!(out.pop().unwrap().1, Msg::ValidateOk { .. }));
}

#[test]
fn validator_rejects_existing_edge() {
    let (mut r0, _r1) = two_rank_world(&[(0, 2)], &[]);
    let mut out = Outbox::new();
    r0.handle(
        1,
        Msg::Validate {
            conv: conv(1, 1),
            edge: Edge::new(0, 2),
        },
        &mut out,
    );
    assert!(matches!(out.pop().unwrap().1, Msg::ValidateFail { .. }));
}

#[test]
fn commit_add_materializes_reserved_edge() {
    let (mut r0, _r1) = two_rank_world(&[], &[]);
    let mut out = Outbox::new();
    let c = conv(1, 1);
    let e = Edge::new(2, 4);
    r0.handle(1, Msg::Validate { conv: c, edge: e }, &mut out);
    assert!(matches!(out.pop().unwrap().1, Msg::ValidateOk { .. }));
    assert_eq!(r0.edge_count(), 0, "potential edges are not yet real");
    r0.handle(1, Msg::CommitAdd { conv: c, edge: e }, &mut out);
    let (dst, ack) = out.pop().unwrap();
    assert_eq!(dst, 1);
    assert!(matches!(ack, Msg::CommitAck { .. }));
    assert_eq!(r0.edge_count(), 1);
    assert!(r0.store().contains(e));
}

#[test]
fn proposal_on_empty_partition_aborts_contended() {
    let (mut r0, _r1) = two_rank_world(&[], &[]);
    let mut out = Outbox::new();
    r0.handle(
        1,
        Msg::Propose {
            conv: conv(1, 1),
            e1: Edge::new(1, 3),
        },
        &mut out,
    );
    match out.pop().unwrap().1 {
        Msg::Abort { reason, .. } => assert_eq!(reason, RejectReason::Contended),
        other => panic!("expected Abort, got {other:?}"),
    }
}

#[test]
fn full_global_switch_between_two_ranks() {
    // Rank 0 owns (0,2); rank 1 owns (1,3). A cross or straight switch
    // yields replacements owned by rank 0 and rank 1 in all cases; run
    // the whole conversation by hand.
    let (mut r0, mut r1) = two_rank_world(&[(0, 2)], &[(1, 3)]);
    r0.begin_step(1, &[0.5, 0.5]);
    r1.begin_step(0, &[0.5, 0.5]);
    let mut out = Outbox::new();
    // Drive r0 until it manages to start (its partner draw may pick
    // itself and abort on the self-propose path; retry).
    let mut started = false;
    for _ in 0..64 {
        match r0.try_start(&mut out) {
            StartResult::Started => {
                started = true;
                let mut states = [&mut r0, &mut r1];
                pump(&mut states, 0, &mut out);
                if states[0].step_done() {
                    break;
                }
            }
            StartResult::Idle => break,
            StartResult::Blocked => panic!("nothing should block here"),
        }
    }
    assert!(started);
    assert!(r0.step_done(), "rank 0 must finish its single operation");
    // Books balance: 2 edges total, degree multiset preserved.
    assert_eq!(r0.edge_count() + r1.edge_count(), 2);
    let (out0, out1) = (
        r0.into_output(Default::default()),
        r1.into_output(Default::default()),
    );
    assert_eq!(out0.stats.performed, 1);
    assert_eq!(out1.stats.performed, 0);
    let mut endpoints: Vec<u64> = (out0.keys.iter().chain(&out1.keys))
        .map(|&k| Edge::from_key(k))
        .flat_map(|e| [e.src(), e.dst()])
        .collect();
    endpoints.sort_unstable();
    assert_eq!(endpoints, vec![0, 1, 2, 3]);
}

#[test]
fn abort_releases_first_edge_for_reuse() {
    let (mut r0, mut r1) = two_rank_world(&[(0, 2)], &[]);
    r0.begin_step(1, &[0.0, 1.0]); // partner is always rank 1
    r1.begin_step(0, &[0.0, 1.0]);
    let mut out = Outbox::new();
    assert_eq!(r0.try_start(&mut out), StartResult::Started);
    let mut states = [&mut r0, &mut r1];
    // Rank 1 has no edges: Contended abort flows back, releasing e1.
    pump(&mut states, 0, &mut out);
    assert!(!r0.step_done(), "operation must be retried, not completed");
    assert_eq!(r0.stats.aborts_contended, 1);
    // e1 must be free again: the next start succeeds.
    assert_eq!(r0.try_start(&mut out), StartResult::Started);
}

/// Deliver one rank's outbox into a world FIFO queue (self-addressed
/// messages re-enter in place), mirroring the drivers' routing.
fn route(
    states: &mut [RankState],
    src: usize,
    out: &mut Outbox,
    queue: &mut VecDeque<(usize, usize, Msg)>,
) {
    while let Some((dst, msg)) = out.pop() {
        if dst == src {
            states[src].handle(src, msg, out);
        } else {
            queue.push_back((dst, src, msg));
        }
    }
}

/// Seeded property test: however the window pipelines conversations,
/// no two concurrently in-flight conversations of a rank ever hold a
/// reservation on the same first edge, occupancy respects the bound,
/// and every in-flight first edge is actually locked.
#[test]
fn concurrent_conversations_hold_disjoint_reservations() {
    const WINDOW: usize = 4;
    let edges0: Vec<(u64, u64)> = (0..60).map(|i| (2 * i, 2 * i + 6)).collect();
    let edges1: Vec<(u64, u64)> = (0..60).map(|i| (2 * i + 1, 2 * i + 7)).collect();
    let (r0, r1) = two_rank_world_windowed(&edges0, &edges1, WINDOW, true);
    let mut states = [r0, r1];
    for st in &mut states {
        st.begin_step(25, &[0.5, 0.5]);
    }

    let check = |states: &[RankState]| {
        for st in states {
            let e1s = st.inflight_e1s();
            assert!(e1s.len() <= WINDOW, "window bound violated");
            let reserved = st.reserved_edges();
            let mut seen = std::collections::HashSet::new();
            for e in &e1s {
                assert!(seen.insert(*e), "two in-flight conversations lock {e}");
                // The reservation is dropped by the commit itself (the
                // edge leaves the store at the same instant), possibly
                // before the Done/acks retire the conversation — so the
                // lock need only cover e1 while it is still switchable.
                if st.store().contains(*e) {
                    assert!(reserved.contains(e), "live in-flight e1 {e} not reserved");
                }
            }
        }
    };

    let mut queue: VecDeque<(usize, usize, Msg)> = VecDeque::new();
    let mut out = Outbox::new();
    for sweep in 0..100_000 {
        // Fill each rank's window, checking the property after every
        // state-machine interaction.
        let mut any_started = false;
        for i in 0..states.len() {
            let mut starts = 0;
            while starts < WINDOW {
                match states[i].try_start(&mut out) {
                    StartResult::Started => {
                        starts += 1;
                        any_started = true;
                        route(&mut states, i, &mut out, &mut queue);
                        check(&states);
                    }
                    _ => break,
                }
            }
        }
        // Deliver one queued message, then re-check.
        if let Some((dst, src, msg)) = queue.pop_front() {
            states[dst].handle(src, msg, &mut out);
            route(&mut states, dst, &mut out, &mut queue);
            check(&states);
        } else if !any_started {
            break;
        }
        assert!(sweep < 99_999, "world did not quiesce");
    }
    assert!(states.iter().all(|st| st.step_done()));
    assert!(
        states.iter().map(|st| st.stats.performed).sum::<u64>() > 0,
        "the pipelined world must perform switches"
    );
}

/// With the local fast path on (the default), self-partner switches
/// mutate the store inline without a conversation record. Seeded
/// property: however those inline applies interleave with pipelined
/// protocol traffic, the reservation books stay consistent — no
/// promised (potential) edge ever materializes behind its validator's
/// back, no edge is simultaneously locked and promised, and in-flight
/// first-edge locks stay disjoint.
///
/// The edge lists are mixed-parity on purpose: under HP-D(2) a
/// self-partner recombination can produce a foreign-owned replacement,
/// so this world exercises both the pure-local inline apply and the
/// fast path's fall back onto the validation protocol.
#[test]
fn fastpath_applies_respect_reservation_disjointness() {
    const WINDOW: usize = 4;
    let edges0: Vec<(u64, u64)> = (0..60).map(|i| (2 * i, 2 * i + 3)).collect();
    let edges1: Vec<(u64, u64)> = (0..60).map(|i| (2 * i + 1, 2 * i + 4)).collect();
    let (r0, r1) = two_rank_world_windowed(&edges0, &edges1, WINDOW, true);
    let mut states = [r0, r1];
    for st in &mut states {
        st.begin_step(40, &[0.5, 0.5]);
    }

    let check = |states: &[RankState]| {
        for st in states {
            let reserved = st.reserved_edges();
            for e in st.potential_edges() {
                assert!(
                    !st.store().contains(e),
                    "promised edge {e} materialized behind its validator's back"
                );
                assert!(
                    !reserved.contains(&e),
                    "edge {e} is both locked (existing) and promised (future)"
                );
            }
            let mut seen = std::collections::HashSet::new();
            for e in st.inflight_e1s() {
                assert!(seen.insert(e), "two in-flight conversations lock {e}");
            }
        }
    };

    let mut queue: VecDeque<(usize, usize, Msg)> = VecDeque::new();
    let mut out = Outbox::new();
    for sweep in 0..100_000 {
        let mut any_started = false;
        for i in 0..states.len() {
            let mut starts = 0;
            while starts < WINDOW {
                match states[i].try_start(&mut out) {
                    StartResult::Started => {
                        starts += 1;
                        any_started = true;
                        route(&mut states, i, &mut out, &mut queue);
                        check(&states);
                    }
                    _ => break,
                }
            }
        }
        if let Some((dst, src, msg)) = queue.pop_front() {
            states[dst].handle(src, msg, &mut out);
            route(&mut states, dst, &mut out, &mut queue);
            check(&states);
        } else if !any_started {
            break;
        }
        assert!(sweep < 99_999, "world did not quiesce");
    }
    assert!(states.iter().all(|st| st.step_done()));
    let fastpath: u64 = states.iter().map(|st| st.stats.performed_fastpath).sum();
    let local: u64 = states.iter().map(|st| st.stats.performed_local).sum();
    assert!(
        fastpath > 0,
        "the fast path must fire in a half-local world"
    );
    assert!(
        fastpath <= local,
        "fast-path switches are a subset of local switches"
    );
}

/// A stop-and-wait reference driver: the pre-window world loop (one
/// `try_start` per rank per sweep, strictly one conversation in flight)
/// re-implemented against the public state-machine surface.
fn stop_and_wait_reference(
    graph: &Graph,
    t: u64,
    cfg: &ParallelConfig,
) -> (Vec<RankStats>, Vec<(u64, u64)>) {
    let mut rng = cfg.root_rng();
    let part = Partitioner::build(cfg.scheme, graph, cfg.processors, &mut rng);
    let stores = build_stores(graph, &part);
    let mut states: Vec<RankState> = stores
        .into_iter()
        .enumerate()
        .map(|(rank, store)| RankState::new(rank, part.clone(), store, &cfg.clone().with_window(1)))
        .collect();
    let harness = StepHarness::new(t, cfg);
    let mut queue: VecDeque<(usize, usize, Msg)> = VecDeque::new();
    let mut out = Outbox::new();
    for step in 0..harness.steps() {
        let counts: Vec<u64> = states.iter().map(|st| st.edge_count()).collect();
        let q = probability_vector(&counts, harness.uniform_q());
        let quotas = edgeswitch_dist::multinomial_owned_world(
            harness.step_ops(step),
            &q,
            states.iter_mut().map(|st| st.rng_mut()),
        );
        for (st, &qi) in states.iter_mut().zip(&quotas) {
            st.begin_step(qi, &q);
        }
        loop {
            while let Some((dst, src, msg)) = queue.pop_front() {
                states[dst].handle(src, msg, &mut out);
                route(&mut states, dst, &mut out, &mut queue);
            }
            let mut any_started = false;
            for i in 0..states.len() {
                if matches!(states[i].try_start(&mut out), StartResult::Started) {
                    any_started = true;
                    route(&mut states, i, &mut out, &mut queue);
                }
            }
            if !any_started && queue.is_empty() {
                break;
            }
        }
    }
    let mut stats = Vec::new();
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for st in states {
        let out = st.into_output(Default::default());
        stats.push(out.stats);
        let out_edges = out.keys.iter().map(|&k| Edge::from_key(k));
        edges.extend(out_edges.map(|e| (e.src(), e.dst())));
    }
    edges.sort_unstable();
    (stats, edges)
}

/// `window = 1` must reproduce the pre-window engine's outcome stream
/// exactly: same per-rank statistics, same final edge set as the
/// stop-and-wait reference driver, under several seeds and schemes.
#[test]
fn window_one_is_bit_identical_to_stop_and_wait() {
    for (seed, p, t, scheme) in [
        (4242u64, 6usize, 1200u64, SchemeKind::HashUniversal),
        (7, 3, 900, SchemeKind::Consecutive),
    ] {
        let mut rng = edgeswitch_dist::root_rng(seed);
        let g = erdos_renyi_gnm(400, 2000, &mut rng);
        let cfg = ParallelConfig::new(p)
            .with_scheme(scheme)
            .with_step_size(StepSize::FractionOfT(10))
            .with_seed(seed ^ 0x55)
            .with_window(1);
        let (ref_stats, ref_edges) = stop_and_wait_reference(&g, t, &cfg);
        let out = simulated(&g, t, &cfg);
        assert_eq!(
            out.per_rank, ref_stats,
            "per-rank stream diverged (seed {seed})"
        );
        let mut sim_edges: Vec<(u64, u64)> =
            out.graph.edges().map(|e| (e.src(), e.dst())).collect();
        sim_edges.sort_unstable();
        assert_eq!(
            sim_edges, ref_edges,
            "final edge set diverged (seed {seed})"
        );
    }
}

/// The fold's regression test: a self-partner draw whose replacement is
/// foreign leaves the fast path through the same partner function
/// `on_propose` calls, so from the `Validate` fan-out on the conversation
/// must be the `local_fastpath = false` run's message for message — the
/// only difference is the self-addressed `Propose` the fast path skips.
/// Edges `(4i, 4i+1)` pair an even `src` (rank 0 under HP-D(2)) with an
/// odd endpoint, so recombining any two yields one even-src and one
/// odd-src replacement: exactly one foreign owner on the first switch.
#[test]
fn fastpath_foreign_replacement_runs_the_partner_conversation() {
    let edges0: Vec<(u64, u64)> = (0..12).map(|i| (4 * i, 4 * i + 1)).collect();
    let run = |fastpath: bool| {
        let (r0, r1) = two_rank_world_windowed(&edges0, &[], 1, fastpath);
        let mut states = [r0, r1];
        states[0].begin_step(6, &[1.0, 0.0]); // partner draw is always self
        states[1].begin_step(0, &[1.0, 0.0]);
        let mut trace: Vec<(usize, usize, Msg)> = Vec::new();
        let mut mid = None;
        let mut out = Outbox::new();
        while states[0].try_start(&mut out) == StartResult::Started {
            let mut queue: VecDeque<(usize, usize, Msg)> = VecDeque::new();
            route(&mut states, 0, &mut out, &mut queue);
            // The partner conversation of the first switch, caught with
            // its `Validate` in flight.
            mid.get_or_insert_with(|| {
                let mut reserved = states[0].reserved_edges();
                reserved.sort_unstable();
                (
                    states[0].serving_pending(),
                    states[0].inflight_e1s(),
                    reserved,
                    states[0].potential_edges(),
                )
            });
            while let Some((dst, src, msg)) = queue.pop_front() {
                trace.push((src, dst, msg.clone()));
                states[dst].handle(src, msg, &mut out);
                route(&mut states, dst, &mut out, &mut queue);
            }
        }
        assert!(states[0].step_done());
        let ends = states.map(|st| {
            let o = st.into_output(Default::default());
            // The one counter that differs by design: inline applies.
            let stats = RankStats {
                performed_fastpath: 0,
                ..o.stats
            };
            (
                stats,
                o.keys
                    .iter()
                    .map(|&k| Edge::from_key(k))
                    .collect::<Vec<Edge>>(),
            )
        });
        (trace, mid.expect("at least one switch started"), ends)
    };
    let (trace, mid, ends) = run(true);
    assert!(
        matches!(trace[0], (0, 1, Msg::Validate { .. })),
        "the first switch must take the foreign-replacement arm: {:?}",
        trace[0]
    );
    let (serving, e1s, reserved, potential) = &mid;
    assert!(serving, "a PartnerConv awaits the foreign verdict");
    assert_eq!((e1s.len(), reserved.len(), potential.len()), (1, 2, 1));
    let (ref_trace, ref_mid, ref_ends) = run(false);
    assert_eq!(trace, ref_trace, "message sequence");
    assert_eq!(mid, ref_mid, "partner conversation state");
    assert_eq!(ends, ref_ends, "stats and pool order");
}

#[test]
fn begin_step_resets_quota_accounting() {
    let (mut r0, _r1) = two_rank_world(&[(0, 2), (4, 6)], &[]);
    r0.begin_step(0, &[1.0, 0.0]);
    assert!(r0.step_done());
    r0.begin_step(5, &[1.0, 0.0]);
    assert!(!r0.step_done());
}
