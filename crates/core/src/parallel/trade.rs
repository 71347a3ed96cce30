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
//!    trade runs the sequential engine's own step,
//!    `crate::trade::Trader::trade`, on the arrivals.
//! 3. **Forward or settle.** Each output edge whose far endpoint sits
//!    in a *later* trade is forwarded there ([`Msg::TradeLoad`]);
//!    everything else goes home to the owner of its smaller endpoint
//!    ([`Msg::TradeHome`]). The initial edges of a two-sided disjoint
//!    union are reported to the tracker that owns them
//!    ([`Msg::TradeVisit`]).
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
//! they run a switch step: the simulated world steps, snapshots and
//! resumes it, and the threaded world's ranks run it through the shared
//! rank body. Only the pass boundary is Curveball's own: [`Passes`], the
//! [`Schedule`] every world opens a pass through. Between passes a
//! rank's whole state is its store, tracker and trade count.

use super::harness::{Boundary, Opened, RankMachine, RankOutput, Schedule, StepTelemetry};
use super::msg::{Msg, Outbox};
use super::rank::{RankCheckpoint, RankStats, StartResult};
use crate::config::{Budget, ParallelConfig};
use crate::obs::{Obs, Phase};
use crate::trade::{token, trade_rng, untoken, PassController, PassPlan, Trader, NO_TRADE};
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
    /// Exact arrival count: `deg(u) + deg(v) - [{u, v} ∈ E]`.
    expected: usize,
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
    trader: Trader,
}

/// The rank executing trade `k` of `plan`.
fn executor(part: &Partitioner, plan: &PassPlan, k: u32) -> usize {
    part.owner(plan.pairs[k as usize].0)
}

impl TradeRankState {
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
                .entry((executor(&self.part, plan, k), k))
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

    /// Execute trade `k` of the current pass ([`Trader::trade`]): report
    /// visits and forward or settle every output edge. The outputs end
    /// in a flush point, as the pass's loads do: a coalescing driver
    /// sends each trade's traffic as one packet per destination, so its
    /// packet count is as schedule-independent as the rest of the pass.
    fn fire(&mut self, k: u32, out: &mut Outbox, tel: &mut StepTelemetry) {
        let plan = Arc::clone(&self.plan);
        let slot = self.slots.remove(&k).expect("firing an open slot");
        let part = &self.part;
        let shuffle_start = self.obs.stamp(Phase::TradeShuffle);
        let mut loads: BTreeMap<(usize, u32), Vec<u64>> = BTreeMap::new();
        let mut homes: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        let mut visits: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        // The trackers, not the keys, know which edges are unvisited:
        // every arrival is offered as one, and a tracker ignores the rest.
        let arrived = slot
            .arrived
            .iter()
            .map(|&key| token(Edge::from_key(key), true));
        let mut rng = trade_rng(self.seed, plan.pass, k);
        let moved = self.trader.trade(
            (slot.u, slot.v),
            arrived,
            &mut rng,
            |e| visits.entry(part.owner(e.src())).or_default().push(e.key()),
            |far, t| {
                let key = untoken(t).0;
                match plan.trade_of(far) {
                    // The far endpoint trades later this pass; its trade
                    // needs this edge before it can fire.
                    j if j != NO_TRADE && j > k => {
                        let dst = executor(part, &plan, j);
                        loads.entry((dst, j)).or_default().push(key);
                    }
                    // Unmatched far endpoint, or its trade already fired
                    // (an arrival from trade j < k proves j has fired).
                    _ => homes.entry(part.owner(key >> 32)).or_default().push(key),
                }
            },
        );
        self.obs.span_since(Phase::TradeShuffle, shuffle_start);
        self.stats.performed += 1;
        tel.trades += 1;
        tel.neighbors_moved += moved as u64;
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
    type Schedule = Passes;
    const SEALS: bool = true;

    fn build(
        rank: usize,
        part: &Partitioner,
        store: PartitionStore,
        config: &ParallelConfig,
        schedule: &Passes,
        obs: Obs,
    ) -> Self {
        let tracker = VisitTracker::new(store.edges());
        TradeRankState {
            rank,
            part: part.clone(),
            degrees: Arc::clone(&schedule.degrees),
            seed: config.seed,
            store,
            tracker,
            stats: RankStats::default(),
            obs,
            plan: Arc::default(),
            slots: FxHashMap::default(),
            trader: Trader::default(),
        }
    }

    fn rebuild(
        ckpt: &RankCheckpoint,
        part: &Partitioner,
        config: &ParallelConfig,
        schedule: &Passes,
    ) -> Self {
        let tracker =
            VisitTracker::from_marks(ckpt.tracker_initial, &ckpt.unvisited, &ckpt.store_edges);
        TradeRankState {
            tracker,
            stats: ckpt.stats,
            ..Self::build(ckpt.rank, part, ckpt.store(), config, schedule, Obs::noop())
        }
    }

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
            rank: self.store.rank(),
            visits: self.tracker.visits(self.store.edges()),
            keys: self.store.into_keys(),
            stats: self.stats,
            comm,
            obs: self.obs.finish(),
        }
    }
}

/// Curveball's schedule: one pass per step, opened by the visited-count
/// gather, the pass decision and every held rank opening its pass (in a
/// simulated world rank `i`'s loads are routed before rank `i + 1`
/// opens). The run's initial edge total is gathered at the first
/// boundary a world opens; the degree table is the static arrival count
/// every rank's trades wait for. The pass count is decided as the run
/// goes, so `steps` is the passes run so far. A snapshot records the
/// controller.
#[derive(Clone)]
pub(crate) struct Passes {
    ctl: PassController,
    initial: Option<u64>,
    degrees: Arc<Vec<u32>>,
}

impl Passes {
    /// Passes over `graph` under `budget`.
    pub(crate) fn new(graph: &Graph, budget: Budget) -> Self {
        let degrees = (0..graph.num_vertices() as VertexId).map(|v| graph.degree(v) as u32);
        Passes {
            ctl: PassController::new(budget),
            initial: None,
            degrees: Arc::new(degrees.collect()),
        }
    }
}

impl Schedule<TradeRankState> for Passes {
    type Snap = PassController;

    fn open<B: Boundary>(
        &mut self,
        _: u64,
        b: &mut B,
        states: &mut [TradeRankState],
        out: &mut Outbox,
    ) -> Option<Opened> {
        // The gathers double as the inter-pass barrier: per-pair FIFO
        // order means every peer's pass traffic (its EndOfStep was its
        // last send) has drained before its count arrives.
        let barrier_start = states[0].obs.now();
        let mut gather = |count: fn(&VisitTracker) -> usize| -> u64 {
            let mine = states.iter().map(|st| count(&st.tracker) as u64);
            b.allgather(mine).iter().sum()
        };
        let initial = *self
            .initial
            .get_or_insert_with(|| gather(VisitTracker::initial_count));
        let visited = gather(VisitTracker::visited_count);
        let barrier_ns = states[0].obs.now().saturating_sub(barrier_start);
        let (n, seed) = (self.degrees.len(), states[0].seed);
        let plan = Arc::new(self.ctl.next_plan(n, seed, initial, visited)?);
        b.begin_step(plan.pairs.len() as u64);
        let mut tel = StepTelemetry {
            barrier_ns: barrier_ns as f64,
            ..StepTelemetry::default()
        };
        for i in 0..states.len() {
            states[i].begin_pass(&plan, out, &mut tel);
            b.opened(states, i, out, &mut tel);
        }
        // The held ranks' trades, fired or pending.
        tel.ops = tel.trades + states.iter().map(|st| st.slots.len() as u64).sum::<u64>();
        Some(Opened {
            tel,
            spans: vec![(Phase::StepBarrier, barrier_ns)],
        })
    }

    fn is_done(&self, _: u64, states: &[TradeRankState]) -> bool {
        let total = |count: fn(&VisitTracker) -> usize| -> u64 {
            states.iter().map(|st| count(&st.tracker) as u64).sum()
        };
        let (initial, visited) = (
            total(VisitTracker::initial_count),
            total(VisitTracker::visited_count),
        );
        !self.ctl.continues(self.degrees.len(), initial, visited)
    }

    fn steps(&self, step: u64) -> u64 {
        step
    }

    fn budget(&self) -> u64 {
        self.ctl.budget_trades(self.degrees.len())
    }

    fn snap(&self) -> PassController {
        self.ctl
    }

    fn resume(self, step: u64, snap: &PassController) -> Result<Self, String> {
        if (snap.budget, snap.pass) != (self.ctl.budget, step) {
            let (budget, pass, run) = (snap.budget, snap.pass, self.ctl.budget);
            return Err(format!(
                "snapshot is of {budget:?} at pass {pass} of step {step}; the run is {run:?}"
            ));
        }
        Ok(Passes { ctl: *snap, ..self })
    }
}
