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
//! **bit-identical** to [`crate::trade::CurveballResumable`] under the same
//! seed at any `p`. Dependencies point strictly from lower to higher
//! trade indices, so the pass is deadlock-free by induction: trade `0`'s
//! loads all arrive at pass start, and trade `k` waits only on trades
//! that fire before it.
//!
//! [`TradeRankState`] is a [`RankMachine`] that never starts anything (a
//! trade fires inside `handle`), so the shared step loops run a pass as
//! they run a switch step, and the one simulated world steps, snapshots
//! and resumes it. Only the pass boundary is Curveball's own: the pass
//! controller's [`Schedule`] impl here. Between passes a rank's whole
//! state is its store, tracker and trade count.

use super::engine::run_threaded_world;
use super::harness::{
    route_world, run_rank, FifoTransport, Opened, ParallelOutcome, RankMachine, RankOutput,
    RankTransport, Schedule, StepTelemetry, WorldTransport,
};
use super::msg::{Msg, Outbox};
use super::rank::{RankCheckpoint, RankStats, StartResult};
use super::resume::{SimWorld, WorldSnapshot};
use crate::config::{Budget, ParallelConfig};
use crate::obs::{Obs, Phase};
use crate::trade::{redeal, split_sorted, trade_rng, PassController, PassPlan, NO_TRADE};
use crate::visit::VisitTracker;
use edgeswitch_graph::hashing::FxHashMap;
use edgeswitch_graph::{Edge, Graph, PartitionStore, Partitioner, VertexId};
use mpilite::CommStats;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One pending trade on its executor rank.
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
pub(crate) struct TradeRankState {
    rank: usize,
    part: Partitioner,
    /// Static full degrees of every vertex (trades preserve them).
    degrees: Arc<Vec<u32>>,
    seed: u64,
    store: PartitionStore,
    tracker: VisitTracker,
    stats: RankStats,
    obs: Obs,
    /// The current pass's matching (shared by every rank of a simulated
    /// world).
    plan: Arc<PassPlan>,
    /// This pass's trades not yet fired, by trade index (Fx-hashed:
    /// iteration depends only on contents, keeping message emission
    /// deterministic per seed).
    slots: FxHashMap<u32, TradeSlot>,
}

impl TradeRankState {
    fn new(
        rank: usize,
        part: Partitioner,
        degrees: Arc<Vec<u32>>,
        store: PartitionStore,
        seed: u64,
        obs: Obs,
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
            obs,
            plan: Arc::default(),
            slots: FxHashMap::default(),
        }
    }

    /// The rank executing trade `k` of `plan`.
    fn executor(&self, plan: &PassPlan, k: u32) -> usize {
        self.part.owner(plan.pairs[k as usize].0)
    }

    /// Open this rank's trade slots and route every owned edge with a
    /// matched endpoint to its first trade. Trades expecting zero
    /// arrivals (two isolated vertices) fire immediately.
    fn begin_pass(&mut self, plan: &Arc<PassPlan>, out: &mut Outbox, tel: &mut StepTelemetry) {
        debug_assert!(self.slots.is_empty());
        self.plan = Arc::clone(plan);
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
        out.seal();
        let mut ready: Vec<u32> = self
            .slots
            .iter()
            .filter(|(_, s)| s.expected == 0)
            .map(|(&k, _)| k)
            .collect();
        ready.sort_unstable();
        for k in ready {
            self.fire(k, out, tel);
        }
    }

    /// Execute trade `k` of the current pass: split the arrivals, re-deal
    /// the disjoint union, report visits and forward or settle every
    /// output edge. The outputs end in a flush point, as the pass's loads
    /// do: a coalescing driver sends each trade's traffic as one packet
    /// per destination, so its packet count is as schedule-independent
    /// as the rest of the pass.
    fn fire(&mut self, k: u32, out: &mut Outbox, tel: &mut StepTelemetry) {
        let plan = Arc::clone(&self.plan);
        let slot = self.slots.remove(&k).expect("firing an open slot");
        let (u, v) = (slot.u, slot.v);
        let partner_key = Edge::new(u, v).key();
        let shuffle_start = self.obs.stamp(Phase::TradeShuffle);
        let (mut a, mut b) = (Vec::new(), Vec::new());
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
        let reduced = |x: VertexId| self.degrees[x as usize] as usize - slot.partner as usize;
        debug_assert_eq!((a.len(), b.len()), (reduced(u), reduced(v)));
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
        let redealt_a = split.only_a.iter().map(|&x| Edge::new(u, x));
        for e in redealt_a.chain(split.only_b.iter().map(|&y| Edge::new(v, y))) {
            let owner = self.part.owner(e.src());
            visits.entry(owner).or_default().push(e.key());
        }

        // Outputs, in deterministic order: the partner edge, the common
        // edges of both endpoints, then the re-dealt assignments.
        let mut loads: BTreeMap<(usize, u32), Vec<u64>> = BTreeMap::new();
        let mut homes: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        let mut route_output = |near: VertexId, far: VertexId| {
            let e = Edge::new(near, far);
            let j = plan.trade_of(far);
            if j != NO_TRADE && j > k {
                // The far endpoint trades later this pass; its trade needs
                // this edge before it can fire.
                loads
                    .entry((self.executor(&plan, j), j))
                    .or_default()
                    .push(e.key());
            } else {
                // Unmatched far endpoint, or its trade already fired (an
                // arrival from trade j < k proves j has fired).
                let owner = self.part.owner(e.src());
                homes.entry(owner).or_default().push(e.key());
            }
        };
        if slot.partner {
            route_output(u, v);
        }
        for &x in &split.common {
            route_output(u, x);
            route_output(v, x);
        }
        new_a.iter().for_each(|&z| route_output(u, z));
        new_b.iter().for_each(|&z| route_output(v, z));
        for ((dst, j), edges) in loads {
            out.push(dst, Msg::TradeLoad { trade: j, edges });
        }
        for (dst, edges) in homes {
            out.push(dst, Msg::TradeHome { edges });
        }
        for (dst, edges) in visits {
            out.push(dst, Msg::TradeVisit { edges });
        }
        out.seal();
    }
}

impl RankMachine for TradeRankState {
    type Schedule = PassController;
    const SEALS: bool = true;

    fn handle(&mut self, _: usize, msg: Msg, out: &mut Outbox, tel: &mut StepTelemetry) {
        match msg {
            Msg::TradeLoad { trade, edges } => {
                let slot = self
                    .slots
                    .get_mut(&trade)
                    .expect("trade loads only target open slots on the executor");
                slot.arrived.extend_from_slice(&edges);
                debug_assert!(slot.arrived.len() <= slot.expected);
                if slot.arrived.len() == slot.expected {
                    self.fire(trade, out, tel);
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

    /// Trades fire on arrival counts inside `handle`: nothing to start.
    fn try_start(&mut self, _: &mut Outbox) -> StartResult {
        StartResult::Idle
    }

    fn step_done(&self) -> bool {
        self.slots.is_empty()
    }

    fn inflight_len(&self) -> usize {
        0
    }

    fn window(&self) -> usize {
        1
    }

    fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    fn stats(&self) -> &RankStats {
        &self.stats
    }

    fn store(&self) -> &PartitionStore {
        &self.store
    }

    fn visits(&self) -> (usize, usize) {
        (self.tracker.initial_count(), self.tracker.visited_count())
    }

    fn checkpoint(&self) -> RankCheckpoint {
        debug_assert!(self.slots.is_empty(), "checkpoint taken mid-pass");
        let visits = self.tracker.visits(self.store.edges());
        RankCheckpoint::capture(&self.store, visits, self.stats)
    }

    fn into_output(self, comm: CommStats) -> RankOutput {
        RankOutput {
            visits: self.tracker.visits(self.store.edges()),
            store: self.store,
            stats: self.stats,
            comm,
            obs: self.obs.finish(),
        }
    }
}

/// Full degree of every vertex, the static arrival-count table.
fn degree_table(graph: &Graph) -> Arc<Vec<u32>> {
    Arc::new(
        (0..graph.num_vertices())
            .map(|v| graph.degree(v as VertexId) as u32)
            .collect(),
    )
}

impl<T: WorldTransport> SimWorld<T, TradeRankState> {
    /// Set up Curveball passes under `budget` on `config.processors`
    /// virtual ranks split by `part`, delivering through `transport`.
    pub(crate) fn curveball(
        graph: &Graph,
        budget: Budget,
        config: &ParallelConfig,
        part: &Partitioner,
        transport: T,
    ) -> Self {
        let degrees = degree_table(graph);
        let ctl = PassController::new(budget);
        SimWorld::set_up(graph, config, part, transport, ctl, |rank, store, obs| {
            TradeRankState::new(rank, part.clone(), degrees.clone(), store, config.seed, obs)
        })
    }
}

impl SimWorld<FifoTransport, TradeRankState> {
    /// [`SimWorld::resume`] for Curveball passes under `budget`.
    pub(crate) fn resume_curveball(
        graph: &Graph,
        budget: Budget,
        config: &ParallelConfig,
        part: &Partitioner,
        snap: &WorldSnapshot<PassController>,
    ) -> Result<Self, String> {
        let degrees = degree_table(graph);
        let ctl = PassController::new(budget);
        SimWorld::resume(graph, config, part, ctl, snap, |ckpt| TradeRankState {
            tracker: VisitTracker::from_marks(
                ckpt.tracker_initial,
                &ckpt.unvisited,
                &ckpt.store_edges,
            ),
            stats: ckpt.stats,
            ..TradeRankState::new(
                ckpt.rank,
                part.clone(),
                degrees.clone(),
                ckpt.store(),
                config.seed,
                Obs::noop(),
            )
        })
    }
}

/// `(initial, visited)` edge counts over every rank.
fn visit_totals(states: &[TradeRankState]) -> (u64, u64) {
    states.iter().fold((0, 0), |(i, v), st| {
        let t = &st.tracker;
        (i + t.initial_count() as u64, v + t.visited_count() as u64)
    })
}

/// Curveball's schedule in a simulated world: one pass per step, opened
/// by the visited-count gather, the pass decision and every rank
/// opening its pass (rank `i`'s loads routed before rank `i + 1` opens).
/// The pass count is decided as the run goes, so `steps` is the passes
/// run so far. A snapshot records the controller.
impl Schedule<TradeRankState> for PassController {
    type Snap = PassController;

    fn open<T: WorldTransport>(
        &mut self,
        _: u64,
        transport: &mut T,
        states: &mut [TradeRankState],
        out: &mut Outbox,
        comm_stats: &mut [CommStats],
    ) -> Opened {
        let barrier_start = states[0].obs.now();
        let (initial, visited) = visit_totals(states);
        let barrier_ns = states[0].obs.now().saturating_sub(barrier_start);
        let (n, seed) = (states[0].degrees.len(), states[0].seed);
        let plan = self.next_plan(n, seed, initial, visited);
        let plan = Arc::new(plan.expect("a pass opens only while the run goes on"));
        transport.begin_step(plan.pairs.len() as u64, states.len());
        let mut tel = StepTelemetry {
            ops: plan.pairs.len() as u64,
            barrier_ns: barrier_ns as f64,
            ..StepTelemetry::default()
        };
        for i in 0..states.len() {
            states[i].begin_pass(&plan, out, &mut tel);
            route_world(transport, states, i, out, comm_stats, &mut tel);
        }
        Opened {
            tel,
            spans: vec![(Phase::StepBarrier, barrier_ns)],
        }
    }

    fn is_done(&self, _: u64, states: &[TradeRankState]) -> bool {
        let (initial, visited) = visit_totals(states);
        !self.continues(states[0].degrees.len(), initial, visited)
    }

    fn steps(&self, step: u64) -> u64 {
        step
    }

    fn budget(&self, states: &[TradeRankState]) -> u64 {
        self.budget_trades(states[0].degrees.len())
    }

    fn snap(&self) -> PassController {
        *self
    }

    fn resume(self, step: u64, snap: &PassController) -> Result<Self, String> {
        if (snap.budget, snap.pass) != (self.budget, step) {
            let (budget, pass, run) = (snap.budget, snap.pass, self.budget);
            return Err(format!(
                "snapshot is of {budget:?} at pass {pass} of step {step}; the run is {run:?}"
            ));
        }
        Ok(*snap)
    }
}

/// Curveball trades on `p` threaded ranks split by `part`: each rank
/// runs the shared rank loop, every pass opened by the visited-count
/// allgather and the pass decision.
pub(crate) fn threaded_trades(
    graph: &Graph,
    budget: Budget,
    config: &ParallelConfig,
    part: &Partitioner,
) -> ParallelOutcome {
    let (n, degrees) = (graph.num_vertices(), degree_table(graph));
    run_threaded_world(graph, config, part, |transport, store, obs| {
        let rank = transport.rank();
        let mut state =
            TradeRankState::new(rank, part.clone(), degrees.clone(), store, config.seed, obs);
        let initial_total: u64 = transport
            .exchange_edge_counts(state.tracker.initial_count() as u64)
            .iter()
            .sum();
        let mut ctl = PassController::new(budget);
        let telemetry = run_rank(transport, &mut state, |transport, state, out| {
            // The allgather doubles as the inter-pass barrier: per-pair
            // FIFO order means every peer's pass traffic (its EndOfStep
            // was its last send) has drained before its count arrives.
            let barrier_start = state.obs.now();
            let visited: u64 = transport
                .exchange_edge_counts(state.tracker.visited_count() as u64)
                .iter()
                .sum();
            let barrier_ns = state.obs.now().saturating_sub(barrier_start);
            state.obs.span(Phase::StepBarrier, barrier_ns);
            let plan = Arc::new(ctl.next_plan(n, config.seed, initial_total, visited)?);
            let mut tel = StepTelemetry::default();
            state.begin_pass(&plan, out, &mut tel);
            tel.ops = state.slots.len() as u64 + tel.trades; // owned trades (fired + pending)
            Some(tel)
        });
        (state.into_output(transport.stats()), telemetry)
    })
}
