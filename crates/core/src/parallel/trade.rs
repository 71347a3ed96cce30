//! Parallel global Curveball trades over the shared driver machinery.
//!
//! A pass is a random perfect matching computed identically on every
//! rank from `(seed, pass)` with zero communication (see
//! [`crate::trade`]). Trade `k = (u, v)` executes on the rank that owns
//! `u` (the pair's smaller endpoint). The protocol is a counting-based
//! forwarding scheme:
//!
//! 1. **Load routing.** At pass start each rank withdraws every token
//!    it holds (a perfect matching leaves at most one vertex out, so
//!    every edge has a matched endpoint) and routes it — as a coalesced
//!    [`Msg::TradeLoad`] per `(rank, trade)` — to the trade with the
//!    *smallest* index among its endpoints' trades.
//! 2. **Firing.** Trade `k` knows exactly how many edges must arrive:
//!    `deg(u) + deg(v) - [{u,v} ∈ E]`, from the static degrees (trades
//!    preserve them). The partner edge `{u,v}` is the token whose
//!    endpoints share one trade, found in the routing scan on
//!    `owner(u)`, the executor; no other trade can create or destroy
//!    it. When the count is reached, the trade runs the sequential
//!    engine's own step, `crate::trade::Trader::trade`, on the arrivals.
//! 3. **Forward or settle.** Each output token whose far endpoint sits
//!    in a *later* trade is forwarded there ([`Msg::TradeLoad`]);
//!    everything else goes home to the owner of its smaller endpoint
//!    ([`Msg::TradeHome`]). A token's orientation is its visit mark
//!    (`crate::trade::token`), which the trade clears or passes on, so
//!    no visit needs a message of its own.
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
//! `TradeRankState` is a `RankMachine` that never starts anything (a
//! trade fires inside `handle`), so the shared step loops run a pass as
//! they run a switch step: the simulated world steps, snapshots and
//! resumes it, and the threaded world's ranks run it through the shared
//! rank body. Only the pass boundary is Curveball's own: `Passes`, the
//! `Schedule` every world opens a pass through. Between passes a
//! rank holds what the sequential engine holds: the tokens of the edges
//! whose smaller endpoint it owns, its initial edge count and its
//! statistics. An unvisited initial edge keeps its key, so it comes home
//! to the rank that started with it: a rank has visited its initial
//! edges but the marked tokens it holds.

use super::harness::{Boundary, Opened, RankMachine, RankOutput, Schedule, StepTelemetry};
use super::msg::{Msg, Outbox};
use super::rank::{RankCheckpoint, RankStats, StartResult};
use crate::config::{Budget, ParallelConfig};
use crate::obs::{Obs, Phase};
use crate::trade::{
    strip_marks, to_tokens, token, trade_rng, untoken, PassController, PassPlan, Trader, NO_TRADE,
};
use edgeswitch_graph::hashing::FxHashMap;
use edgeswitch_graph::sampling::EdgePool;
use edgeswitch_graph::{Edge, Graph, Partitioner, VertexId};
use mpilite::CommStats;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One pending trade on its executor rank.
struct TradeSlot {
    u: VertexId,
    v: VertexId,
    /// Exact arrival count: `deg(u) + deg(v) - [{u, v} ∈ E]`.
    expected: usize,
    /// Tokens received so far.
    arrived: Vec<u64>,
}

/// One rank's Curveball state: its tokens, initial edge count and
/// statistics, plus the pass's pending trades.
pub(crate) struct TradeRankState {
    rank: usize,
    part: Partitioner,
    /// Static full degrees of every vertex (trades preserve them).
    degrees: Arc<Vec<u32>>,
    seed: u64,
    /// Between passes, the token ([`token`]) of every edge whose smaller
    /// endpoint this rank owns; during a pass, those that came home.
    tokens: Vec<u64>,
    /// The rank's initial edges (the tokens it was built with).
    initial: usize,
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
    /// Rank `rank` of a fresh run, holding `tokens` as its initial edges.
    fn holding(
        rank: usize,
        part: &Partitioner,
        config: &ParallelConfig,
        schedule: &Passes,
        obs: Obs,
        tokens: Vec<u64>,
    ) -> Self {
        TradeRankState {
            rank,
            part: part.clone(),
            degrees: Arc::clone(&schedule.degrees),
            seed: config.seed,
            initial: tokens.len(),
            tokens,
            stats: RankStats::default(),
            obs,
            plan: Arc::default(),
            slots: FxHashMap::default(),
            trader: Trader::default(),
        }
    }

    /// Open this rank's trade slots and route every token it holds to
    /// its first trade. Trades expecting zero arrivals (two isolated
    /// vertices) fire immediately.
    fn begin_pass(&mut self, plan: &Arc<PassPlan>, out: &mut Outbox, tel: &mut StepTelemetry) {
        debug_assert!(self.slots.is_empty());
        self.plan = Arc::clone(plan);
        for (k, &(u, v)) in plan.pairs.iter().enumerate() {
            if self.part.owner(u) != self.rank {
                continue;
            }
            let expected = self.degrees[u as usize] as usize + self.degrees[v as usize] as usize;
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
        // Route every token, coalesced per (destination, trade) in
        // deterministic key order.
        let mut loads: BTreeMap<(usize, u32), Vec<u64>> = BTreeMap::new();
        for t in self.tokens.drain(..) {
            let (x, y) = plan.trades_of(t);
            if x == y {
                // The partner edge {u,v} of trade x, held here because
                // this rank owns u: it arrives once, not once per side.
                let slot = self
                    .slots
                    .get_mut(&x)
                    .expect("a partner edge's trade is local");
                slot.expected -= 1;
            }
            // NO_TRADE is u32::MAX, so the min picks the matched side.
            let k = x.min(y);
            debug_assert_ne!(k, NO_TRADE, "a matching leaves at most one vertex out");
            loads
                .entry((executor(&self.part, plan, k), k))
                .or_default()
                .push(t);
        }
        for ((dst, k), tokens) in loads {
            out.push(dst, Msg::TradeLoad { trade: k, tokens });
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

    /// Execute trade `k` of the current pass ([`Trader::trade`]) on its
    /// arrivals, marks and all, and forward or settle every output
    /// token. The outputs end in a flush point, as the pass's loads do:
    /// a coalescing driver sends each trade's traffic as one packet per
    /// destination, so its packet count is as schedule-independent as
    /// the rest of the pass.
    fn fire(&mut self, k: u32, out: &mut Outbox, tel: &mut StepTelemetry) {
        let plan = Arc::clone(&self.plan);
        let slot = self.slots.remove(&k).expect("firing an open slot");
        let part = &self.part;
        let shuffle_start = self.obs.stamp(Phase::TradeShuffle);
        let mut loads: BTreeMap<(usize, u32), Vec<u64>> = BTreeMap::new();
        let mut homes: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        let mut rng = trade_rng(self.seed, plan.pass, k);
        let moved = self.trader.trade(
            (slot.u, slot.v),
            slot.arrived,
            &mut rng,
            |_| {},
            |far, t| match plan.trade_of(far) {
                // The far endpoint trades later this pass; its trade
                // needs this edge before it can fire.
                j if j != NO_TRADE && j > k => {
                    let dst = executor(part, &plan, j);
                    loads.entry((dst, j)).or_default().push(t);
                }
                // Unmatched far endpoint, or its trade already fired
                // (an arrival from trade j < k proves j has fired).
                _ => {
                    let home = part.owner(untoken(t).0 >> 32);
                    homes.entry(home).or_default().push(t);
                }
            },
        );
        self.obs.span_since(Phase::TradeShuffle, shuffle_start);
        self.stats.performed += 1;
        tel.trades += 1;
        tel.neighbors_moved += moved as u64;
        for ((dst, j), tokens) in loads {
            out.push(dst, Msg::TradeLoad { trade: j, tokens });
        }
        for (dst, tokens) in homes {
            out.push(dst, Msg::TradeHome { tokens });
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
        store: EdgePool,
        config: &ParallelConfig,
        schedule: &Passes,
        obs: Obs,
    ) -> Self {
        let tokens = store.iter().map(|e| token(e, true)).collect();
        Self::holding(rank, part, config, schedule, obs, tokens)
    }

    fn rebuild(
        ckpt: &RankCheckpoint,
        part: &Partitioner,
        config: &ParallelConfig,
        schedule: &Passes,
    ) -> Self {
        let tokens = to_tokens(&ckpt.store_edges, &ckpt.visits);
        TradeRankState {
            initial: ckpt.visits.initial,
            stats: ckpt.stats,
            ..Self::holding(ckpt.rank, part, config, schedule, Obs::noop(), tokens)
        }
    }

    fn handle(&mut self, _: usize, msg: Msg, out: &mut Outbox, tel: &mut StepTelemetry) {
        match msg {
            Msg::TradeLoad { trade, tokens } => {
                let slot = self
                    .slots
                    .get_mut(&trade)
                    .expect("trade loads only target open slots on the executor");
                slot.arrived.extend_from_slice(&tokens);
                debug_assert!(slot.arrived.len() <= slot.expected);
                if slot.arrived.len() == slot.expected {
                    self.fire(trade, out, tel);
                }
            }
            Msg::TradeHome { tokens } => self.tokens.extend_from_slice(&tokens),
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

    /// Exact between passes, when every token is home.
    fn visits(&self) -> (usize, usize) {
        let unvisited = self.tokens.iter().filter(|&&t| untoken(t).1).count();
        (self.initial, self.initial - unvisited)
    }

    fn checkpoint(&self) -> RankCheckpoint {
        debug_assert!(self.slots.is_empty(), "checkpoint taken mid-pass");
        let mut keys = self.tokens.clone();
        let visits = strip_marks(&mut keys, self.initial);
        let edges = keys.into_iter().map(Edge::from_key).collect();
        RankCheckpoint::capture(self.rank, edges, visits, self.stats)
    }

    fn into_output(mut self, comm: CommStats) -> RankOutput {
        let visits = strip_marks(&mut self.tokens, self.initial);
        RankOutput {
            rank: self.rank,
            visits,
            keys: self.tokens,
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
        let mut gather = |count: fn((usize, usize)) -> usize| -> u64 {
            let mine = states.iter().map(|st| count(st.visits()) as u64);
            b.allgather(mine).iter().sum()
        };
        let initial = *self.initial.get_or_insert_with(|| gather(|(i, _)| i));
        let visited = gather(|(_, v)| v);
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
        let (initial, visited) = (states.iter().map(RankMachine::visits))
            .fold((0, 0), |(i, v), (initial, visited)| {
                (i + initial, v + visited)
            });
        !self
            .ctl
            .continues(self.degrees.len(), initial as u64, visited as u64)
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
