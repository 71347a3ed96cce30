//! Parallel global Curveball trades over the shared driver machinery.
//!
//! A pass is a random perfect matching computed identically on every
//! rank from `(seed, pass)` with zero communication (see
//! [`crate::trade`]). Trade `k = (u, v)` executes on the rank that owns
//! `u` (the pair's smaller endpoint). The protocol is a counting-based
//! forwarding scheme:
//!
//! 1. **Load routing.** At pass start each rank withdraws every owned
//!    edge with a matched endpoint from its store and routes it — as a
//!    coalesced [`Msg::TradeLoad`] per `(rank, trade)` — to the trade
//!    with the *smallest* index among its endpoints' trades.
//! 2. **Firing.** Trade `k` knows exactly how many edges must arrive:
//!    `deg(u) + deg(v) - [{u,v} ∈ E]`, where the degrees are the static
//!    full degrees (trades preserve every degree) and the partner-edge
//!    correction is locally checkable at pass start (the reduced edge
//!    `{u,v}` lives on `owner(u)`, which is the executor; no trade `j ≠
//!    k` can create or destroy `{u,v}` because a perfect matching gives
//!    `u` and `v` to no other trade). When the count is reached, the
//!    trade splits the arrivals into the two sorted neighbor lists,
//!    re-deals the disjoint union with the per-trade RNG and emits its
//!    outputs.
//! 3. **Forward or settle.** Each output edge whose far endpoint sits
//!    in a *later* trade is forwarded there ([`Msg::TradeLoad`]);
//!    everything else goes home to the owner of its smaller endpoint
//!    ([`Msg::TradeHome`]). Re-dealt initial edges are reported to the
//!    tracker that owns them ([`Msg::TradeVisit`]).
//!
//! An edge incident to two matched vertices therefore flows through the
//! lower-indexed trade first and the higher-indexed one second — the
//! arrival *set* at trade `k` is exactly the sequential engine's
//! neighborhood state after trades `0..k`, so the parallel run is
//! **bit-identical** to [`crate::trade::sequential_curveball`] under the same
//! seed at any `p`. Dependencies point strictly from lower to higher
//! trade indices, so the pass is deadlock-free by induction: trade `0`'s
//! loads all arrive at pass start, and trade `k` waits only on trades
//! that fire before it.

use super::engine::run_threaded_world;
use super::harness::{
    assemble_outcome, ParallelOutcome, RankOutput, RankTransport, RunMeta, StepTelemetry,
    WorldTransport,
};
use super::msg::{Msg, Outbox};
use super::rank::RankStats;
use crate::config::ParallelConfig;
use crate::obs::{Clock, MonoClock, Obs, Phase};
use crate::trade::{
    redeal, split_sorted, trade_rng, PassController, PassPlan, TradeBudget, NO_TRADE,
};
use crate::visit::VisitTracker;
use edgeswitch_graph::hashing::FxHashMap;
use edgeswitch_graph::store::build_stores;
use edgeswitch_graph::{Edge, Graph, PartitionStore, Partitioner, VertexId};
use mpilite::{CollCarrier, CommStats};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One pending trade on its executor rank.
#[derive(Debug)]
struct TradeSlot {
    u: VertexId,
    v: VertexId,
    /// Exact arrival count: `deg(u) + deg(v) - partner`.
    expected: usize,
    /// Whether the partner edge `{u, v}` existed at pass start.
    partner: bool,
    /// Edge keys received so far.
    arrived: Vec<u64>,
}

/// One rank's Curveball state: the partition store plus the pass's
/// pending trades.
struct TradeRankState {
    rank: usize,
    part: Partitioner,
    /// Static full degrees of every vertex (trades preserve them).
    degrees: Arc<Vec<u32>>,
    seed: u64,
    store: PartitionStore,
    tracker: VisitTracker,
    stats: RankStats,
    obs: Obs,
    /// Pending trades by trade index (Fx-hashed: iteration depends only
    /// on contents, keeping message emission deterministic per seed).
    slots: FxHashMap<u32, TradeSlot>,
    /// Slots not yet fired this pass.
    unfired: usize,
}

impl TradeRankState {
    fn new(
        rank: usize,
        part: Partitioner,
        degrees: Arc<Vec<u32>>,
        store: PartitionStore,
        seed: u64,
    ) -> Self {
        let tracker = VisitTracker::new(store.edges());
        TradeRankState {
            rank,
            part,
            degrees,
            seed,
            store,
            tracker,
            stats: RankStats::default(),
            obs: Obs::noop(),
            slots: FxHashMap::default(),
            unfired: 0,
        }
    }

    fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    fn into_output(self, comm: CommStats) -> RankOutput {
        RankOutput {
            store: self.store,
            tracker: self.tracker,
            stats: self.stats,
            comm,
            obs: self.obs.finish(),
        }
    }

    /// The rank executing trade `k` of `plan`.
    fn executor(&self, plan: &PassPlan, k: u32) -> usize {
        self.part.owner(plan.pairs[k as usize].0)
    }

    /// Open this rank's trade slots and route every owned edge with a
    /// matched endpoint to its first trade. Trades expecting zero
    /// arrivals (two isolated vertices) fire immediately.
    fn begin_pass(&mut self, plan: &PassPlan, out: &mut Outbox, tel: &mut StepTelemetry) {
        debug_assert!(self.slots.is_empty() && self.unfired == 0);
        for (k, &(u, v)) in plan.pairs.iter().enumerate() {
            if self.part.owner(u) != self.rank {
                continue;
            }
            // The partner edge {u,v} is reduced onto owner(u) — this
            // rank — and no other trade of the matching can create or
            // destroy it, so the correction is exact for the whole pass.
            let partner = self.store.contains(Edge::new(u, v));
            let expected = self.degrees[u as usize] as usize + self.degrees[v as usize] as usize
                - partner as usize;
            self.slots.insert(
                k as u32,
                TradeSlot {
                    u,
                    v,
                    expected,
                    partner,
                    arrived: Vec::with_capacity(expected),
                },
            );
            self.unfired += 1;
        }
        // Withdraw and route the pass's traveling edges, coalesced per
        // (destination, trade) in deterministic key order.
        let traveling: Vec<Edge> = self
            .store
            .edges()
            .filter(|e| plan.trade_of(e.src()) != NO_TRADE || plan.trade_of(e.dst()) != NO_TRADE)
            .collect();
        let mut loads: BTreeMap<(usize, u32), Vec<u64>> = BTreeMap::new();
        for e in traveling {
            let removed = self.store.remove(e);
            debug_assert!(removed);
            // NO_TRADE is u32::MAX, so the min picks the matched side.
            let k = plan.trade_of(e.src()).min(plan.trade_of(e.dst()));
            loads
                .entry((self.executor(plan, k), k))
                .or_default()
                .push(e.key());
        }
        for ((dst, k), edges) in loads {
            out.push(dst, Msg::TradeLoad { trade: k, edges });
        }
        let mut ready: Vec<u32> = self
            .slots
            .iter()
            .filter(|(_, s)| s.expected == 0)
            .map(|(&k, _)| k)
            .collect();
        ready.sort_unstable();
        for k in ready {
            self.fire(plan, k, out, tel);
        }
    }

    /// Handle one protocol message of the current pass.
    fn handle(&mut self, plan: &PassPlan, msg: Msg, out: &mut Outbox, tel: &mut StepTelemetry) {
        match msg {
            Msg::TradeLoad { trade, edges } => {
                let slot = self
                    .slots
                    .get_mut(&trade)
                    .expect("trade loads only target open slots on the executor");
                slot.arrived.extend_from_slice(&edges);
                debug_assert!(slot.arrived.len() <= slot.expected);
                if slot.arrived.len() == slot.expected {
                    self.fire(plan, trade, out, tel);
                }
            }
            Msg::TradeHome { edges } => {
                for key in edges {
                    let inserted = self.store.insert(Edge::from_key(key));
                    debug_assert!(inserted, "settled trade edges are simple and disjoint");
                }
            }
            Msg::TradeVisit { edges } => {
                for key in edges {
                    self.tracker.record_removal(Edge::from_key(key));
                }
            }
            other => unreachable!("switch-protocol message {other:?} during a trade pass"),
        }
    }

    /// Execute trade `k`: split the arrivals, re-deal the disjoint
    /// union, report visits and forward or settle every output edge.
    fn fire(&mut self, plan: &PassPlan, k: u32, out: &mut Outbox, tel: &mut StepTelemetry) {
        let slot = self.slots.remove(&k).expect("firing an open slot");
        self.unfired -= 1;
        let (u, v) = (slot.u, slot.v);
        let partner_key = Edge::new(u, v).key();
        let shuffle_start = self.obs.now();
        let mut a: Vec<VertexId> = Vec::new();
        let mut b: Vec<VertexId> = Vec::new();
        for &key in &slot.arrived {
            if slot.partner && key == partner_key {
                continue;
            }
            let e = Edge::from_key(key);
            if e.touches(u) {
                a.push(e.other(u));
            } else {
                b.push(e.other(v));
            }
        }
        debug_assert_eq!(
            a.len(),
            self.degrees[u as usize] as usize - slot.partner as usize
        );
        debug_assert_eq!(
            b.len(),
            self.degrees[v as usize] as usize - slot.partner as usize
        );
        // Arrival order is delivery-dependent; the sorted lists (and the
        // length-only RNG consumption of the re-deal) are not — this is
        // what makes every driver bit-identical to the sequential engine.
        a.sort_unstable();
        b.sort_unstable();
        let split = split_sorted(&a, &b);
        let mut rng = trade_rng(self.seed, plan.pass, k);
        let (new_a, new_b) = redeal(&split.only_a, &split.only_b, &mut rng);
        self.obs.span_since(Phase::TradeShuffle, shuffle_start);
        self.stats.performed += 1;
        tel.trades += 1;
        tel.neighbors_moved += (split.only_a.len() + split.only_b.len()) as u64;

        // Re-dealt initial edges count as visited; tell their trackers.
        let mut visits: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for &x in &split.only_a {
            let e = Edge::new(u, x);
            visits
                .entry(self.part.owner(e.src()))
                .or_default()
                .push(e.key());
        }
        for &y in &split.only_b {
            let e = Edge::new(v, y);
            visits
                .entry(self.part.owner(e.src()))
                .or_default()
                .push(e.key());
        }

        // Outputs, in deterministic order: the partner edge, the common
        // edges of both endpoints, then the re-dealt assignments.
        let mut loads: BTreeMap<(usize, u32), Vec<u64>> = BTreeMap::new();
        let mut homes: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        {
            let mut route_output = |near: VertexId, far: VertexId| {
                let e = Edge::new(near, far);
                let j = plan.trade_of(far);
                if j != NO_TRADE && j > k {
                    // The far endpoint trades later this pass; its trade
                    // needs this edge before it can fire.
                    loads
                        .entry((self.executor(plan, j), j))
                        .or_default()
                        .push(e.key());
                } else {
                    // Unmatched far endpoint, or its trade already fired
                    // (an arrival from trade j < k proves j has fired).
                    homes
                        .entry(self.part.owner(e.src()))
                        .or_default()
                        .push(e.key());
                }
            };
            if slot.partner {
                route_output(u, v);
            }
            for &x in &split.common {
                route_output(u, x);
                route_output(v, x);
            }
            for &z in &new_a {
                route_output(u, z);
            }
            for &z in &new_b {
                route_output(v, z);
            }
        }
        for ((dst, j), edges) in loads {
            out.push(dst, Msg::TradeLoad { trade: j, edges });
        }
        for (dst, edges) in homes {
            out.push(dst, Msg::TradeHome { edges });
        }
        for (dst, edges) in visits {
            out.push(dst, Msg::TradeVisit { edges });
        }
    }
}

// ---------------------------------------------------------------------
// World driver (FIFO simulator, DES)
// ---------------------------------------------------------------------

/// Run Curveball passes over a single-process world transport (FIFO
/// simulator, DES) — the trade counterpart of
/// [`SimWorld`](super::resume::SimWorld), not yet steppable.
pub(crate) fn simulated_trades<T: WorldTransport>(
    graph: &Graph,
    budget: TradeBudget,
    config: &ParallelConfig,
    part: &Partitioner,
    transport: &mut T,
) -> ParallelOutcome {
    let p = config.processors;
    assert_eq!(part.num_parts(), p, "partitioner size must match config");
    let stores = build_stores(graph, part);
    let initial_edges: Vec<u64> = stores.iter().map(|s| s.num_edges() as u64).collect();
    let initial_total: u64 = initial_edges.iter().sum();
    let n = graph.num_vertices();
    let degrees = Arc::new(degree_table(graph));

    let clock: Option<Arc<dyn Clock>> = if config.obs.enabled() {
        Some(
            transport
                .obs_clock()
                .unwrap_or_else(|| Arc::new(MonoClock::new())),
        )
    } else {
        None
    };
    let mut states: Vec<TradeRankState> = stores
        .into_iter()
        .enumerate()
        .map(|(rank, store)| {
            let state =
                TradeRankState::new(rank, part.clone(), degrees.clone(), store, config.seed);
            match &clock {
                Some(clock) => state.with_obs(config.obs.build(clock.clone())),
                None => state,
            }
        })
        .collect();
    let mut comm_stats = vec![CommStats::default(); p];
    let run_start = clock.as_ref().map_or(0, |c| c.now_ns());

    let mut ctl = PassController::new(budget);
    let mut telemetry = Vec::new();
    let mut out = Outbox::new();
    loop {
        let visited: u64 = states
            .iter()
            .map(|st| st.tracker.visited_count() as u64)
            .sum();
        if !ctl.should_continue(n, initial_total, visited) {
            break;
        }
        let plan = PassPlan::build(n, config.seed, ctl.pass);
        if plan.pairs.is_empty() {
            break;
        }
        transport.begin_step(plan.pairs.len() as u64, p);
        let barrier_start = states.first_mut().map_or(0, |st| st.obs.now());
        let barrier_end = states.first_mut().map_or(0, |st| st.obs.now());
        let mut tel = StepTelemetry {
            ops: plan.pairs.len() as u64,
            ..StepTelemetry::default()
        };
        for i in 0..p {
            states[i].begin_pass(&plan, &mut out, &mut tel);
            route_trade_world(
                transport,
                &mut states,
                &plan,
                i,
                &mut out,
                &mut comm_stats,
                &mut tel,
            );
        }
        while let Some((dst, src, msg)) = transport.pop_any() {
            let _ = src;
            states[dst].handle(&plan, msg, &mut out, &mut tel);
            route_trade_world(
                transport,
                &mut states,
                &plan,
                dst,
                &mut out,
                &mut comm_stats,
                &mut tel,
            );
        }
        assert!(
            states.iter().all(|st| st.unfired == 0),
            "trade pass wedged: queue drained with unfired trades"
        );
        let (boundary_ns, drain_ns) = transport.end_step();
        tel.boundary_ns = boundary_ns;
        tel.drain_ns = drain_ns;
        let des_owned = match states.first_mut() {
            Some(st) => transport.record_step_spans(&mut st.obs, &mut tel),
            None => true,
        };
        if !des_owned {
            if let Some(st) = states.first_mut() {
                let barrier_ns = barrier_end.saturating_sub(barrier_start);
                st.obs.span(Phase::StepBarrier, barrier_ns);
                tel.barrier_ns = barrier_ns as f64;
            }
        }
        telemetry.push(tel);
        ctl.finish_pass(plan.pairs.len() as u64);
    }

    let meta = clock.as_ref().map(|c| RunMeta {
        clock: c.label(),
        wall_ns: c.now_ns().saturating_sub(run_start),
    });
    let outputs: Vec<RankOutput> = states
        .into_iter()
        .zip(comm_stats)
        .map(|(state, comm)| state.into_output(comm))
        .collect();
    assemble_outcome(n, ctl.pass, initial_edges, outputs, telemetry, meta)
}

/// Route one rank's trade outbox through a world transport (mirror of
/// the switch protocol's `route_world`, including its traffic
/// accounting).
fn route_trade_world<T: WorldTransport>(
    transport: &mut T,
    states: &mut [TradeRankState],
    plan: &PassPlan,
    src: usize,
    out: &mut Outbox,
    comm_stats: &mut [CommStats],
    tel: &mut StepTelemetry,
) {
    while let Some((dst, msg)) = out.pop() {
        if dst == src {
            transport.on_self_delivery(src);
            states[src].handle(plan, msg, out, tel);
        } else {
            comm_stats[src].packets_sent += 1;
            comm_stats[src].bytes_sent += msg.wire_size() as u64;
            msg.record_kinds(&mut comm_stats[src].logical_by_kind);
            comm_stats[dst].packets_received += 1;
            tel.logical_msgs.record(&msg);
            tel.packets += 1;
            transport.deliver(src, dst, msg);
        }
    }
}

/// Full degree of every vertex, the static arrival-count table.
fn degree_table(graph: &Graph) -> Vec<u32> {
    (0..graph.num_vertices())
        .map(|v| graph.degree(v as VertexId) as u32)
        .collect()
}

// ---------------------------------------------------------------------
// Threaded driver
// ---------------------------------------------------------------------

/// Curveball trades on `p` threaded ranks split by `part`: the trade
/// rank body on the scaffold [`threaded_switch`](super::engine) runs on.
pub(crate) fn threaded_trades(
    graph: &Graph,
    budget: TradeBudget,
    config: &ParallelConfig,
    part: &Partitioner,
) -> ParallelOutcome {
    let n = graph.num_vertices();
    let degrees = Arc::new(degree_table(graph));
    run_threaded_world(graph, config, part, |transport, store, obs| {
        let rank = transport.rank();
        let mut state =
            TradeRankState::new(rank, part.clone(), degrees.clone(), store, config.seed)
                .with_obs(obs);
        let telemetry = run_trade_rank(transport, &mut state, budget, n);
        (state.into_output(transport.stats()), telemetry)
    })
}

/// One rank's whole Curveball run: allgather the visited counts at each
/// pass boundary (every rank reaches the identical continue/stop
/// decision), then run the pass's event loop until every rank signals
/// `EndOfStep`.
fn run_trade_rank<T: RankTransport>(
    transport: &mut T,
    state: &mut TradeRankState,
    budget: TradeBudget,
    n: usize,
) -> Vec<StepTelemetry> {
    let initial_total: u64 = transport
        .exchange_edge_counts(state.tracker.initial_count() as u64)
        .iter()
        .sum();
    let mut ctl = PassController::new(budget);
    let mut telemetry = Vec::new();
    loop {
        // The allgather doubles as the inter-pass barrier: per-pair FIFO
        // order means every peer's pass traffic (its EndOfStep was its
        // last send) has drained before its count arrives here.
        let barrier_start = state.obs.now();
        let visited: u64 = transport
            .exchange_edge_counts(state.tracker.visited_count() as u64)
            .iter()
            .sum();
        state.obs.span_since(Phase::StepBarrier, barrier_start);
        if !ctl.should_continue(n, initial_total, visited) {
            break;
        }
        let plan = PassPlan::build(n, state.seed, ctl.pass);
        if plan.pairs.is_empty() {
            break;
        }
        telemetry.push(run_trade_pass(transport, state, &plan));
        ctl.finish_pass(plan.pairs.len() as u64);
    }
    telemetry
}

/// One pass of the rank event loop (mirror of
/// [`super::harness::run_rank_step`] without quotas or windows: trades
/// fire purely on arrival counts).
fn run_trade_pass<T: RankTransport>(
    transport: &mut T,
    state: &mut TradeRankState,
    plan: &PassPlan,
) -> StepTelemetry {
    let p = transport.size();
    let mut tel = StepTelemetry::default();
    let mut out = Outbox::new();
    state.begin_pass(plan, &mut out, &mut tel);
    tel.ops = state.slots.len() as u64 + tel.trades; // owned trades (fired + pending)
    drain_trade_outbox(transport, state, plan, &mut out, &mut tel);

    let mut eos = 0usize;
    let mut signaled = false;
    let mut wait_ns_acc = 0u64;
    loop {
        while let Some((_src, msg)) = transport.try_recv() {
            dispatch_trade(transport, state, plan, msg, &mut out, &mut eos, &mut tel);
        }
        if !signaled && state.unfired == 0 {
            for dst in 0..p {
                if dst != transport.rank() {
                    tel.logical_msgs.record(&Msg::EndOfStep);
                    tel.packets += 1;
                    transport.send(dst, Msg::EndOfStep);
                }
            }
            eos += 1; // count self
            signaled = true;
        }
        if signaled && eos == p {
            break;
        }
        let wait_start = state.obs.now();
        let (_src, msg) = transport.recv_block();
        let waited = state.obs.now().saturating_sub(wait_start);
        state.obs.span(Phase::MsgWait, waited);
        wait_ns_acc += waited;
        dispatch_trade(transport, state, plan, msg, &mut out, &mut eos, &mut tel);
    }
    tel.wait_ns = wait_ns_acc as f64;
    tel
}

/// Handle one incoming message of the pass.
fn dispatch_trade<T: RankTransport>(
    transport: &mut T,
    state: &mut TradeRankState,
    plan: &PassPlan,
    msg: Msg,
    out: &mut Outbox,
    eos: &mut usize,
    tel: &mut StepTelemetry,
) {
    match msg {
        Msg::EndOfStep => *eos += 1,
        m => {
            state.handle(plan, m, out, tel);
            drain_trade_outbox(transport, state, plan, out, tel);
        }
    }
}

/// Send queued messages: self-addressed ones re-enter the state machine
/// in place; the rest go out one packet per message (they are already
/// coalesced per `(destination, trade)` at the firing sites, so the
/// packet and logical counts agree with the simulators').
fn drain_trade_outbox<T: RankTransport>(
    transport: &mut T,
    state: &mut TradeRankState,
    plan: &PassPlan,
    out: &mut Outbox,
    tel: &mut StepTelemetry,
) {
    while let Some((dst, msg)) = out.pop() {
        if dst == transport.rank() {
            transport.on_self_delivery(dst);
            state.handle(plan, msg, out, tel);
        } else {
            tel.logical_msgs.record(&msg);
            tel.packets += 1;
            transport.send(dst, msg);
        }
    }
}
