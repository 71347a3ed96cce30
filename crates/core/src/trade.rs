//! Global Curveball trades — the second randomization engine.
//!
//! One **pass** draws a uniform random perfect matching of the vertices
//! (Carstens/Hamann/Meyer et al., arXiv 1804.08487). Each matched pair
//! `(u, v)` executes one **trade**: the neighborhoods `N(u) \ {v}` and
//! `N(v) \ {u}` are split into their common part (which stays put) and
//! the disjoint union `D`, `D` is Fisher–Yates-shuffled with a
//! per-trade RNG, and the first `|N(u) \ N(v)|` entries become `u`'s new
//! disjoint neighbors, the rest `v`'s. Every vertex keeps its exact
//! degree — including the far endpoints, whose incident edge count is
//! untouched — and the graph stays simple by construction.
//!
//! **Determinism.** The matching of pass `P` and the shuffle of trade
//! `k` in pass `P` are drawn from substreams keyed only on
//! `(seed, P)` and `(seed, P, k)`, so any driver that executes the same
//! trades — in any order — produces bit-identical graphs. The parallel
//! driver ([`crate::parallel::trade`]) exploits this: it replays the
//! same per-trade streams out of order and still matches this
//! sequential engine ([`CurveballResumable`]) edge-for-edge. It also
//! makes a pass boundary a free pause point for snapshot and resume.
//!
//! **Storage.** A trade reads the edges at its two traders and nothing
//! else, so the sequential engine holds its edges as one flat list of
//! tokens (`token`) — no edge pool, no neighbour sets, no visit tracker. A
//! pass is the EM-GCB token flow the parallel driver runs between
//! ranks: each token waits in the bucket of the first trade that
//! touches it, and each trade (`Trader::trade`) sends every edge it
//! deals on to the next trade of the pass that touches it, or to the
//! pass's output list. The pool comes back only where a graph leaves
//! the engine, built once in ascending key order.
//!
//! **Visit-rate mapping.** A token's orientation is its visit mark. A
//! trade whose `D` has entries on both sides re-deals it, and every
//! initial edge of `D` counts as visited whether or not the shuffle
//! happens to reproduce it (it was re-randomized either way). A
//! one-sided `D` has one possible deal, the identity, so it visits
//! nothing. Common edges and the partner edge are untouched and not
//! marked. This makes [`crate::Run::visit_rate`] terminate for Curveball
//! in the same spirit as for switching: stop once the target fraction of
//! initial edges has been re-randomized.

use crate::config::Budget;
use crate::obs::{ObsSpec, Phase, ProgressEvent, SoloObs, StepProgress};
use crate::parallel::wire::encode_curveball_checkpoint;
use crate::run::{RunOutcome, SequentialRun, Stepped};
use crate::sequential::{check_distinct, check_snapshot, SequentialOutcome};
use crate::visit::{visit_rate, Visits};
use edgeswitch_dist::{substream_rng, Rng64};
use edgeswitch_graph::sampling::{fisher_yates_shuffle, random_matching};
use edgeswitch_graph::store::assemble_edges;
use edgeswitch_graph::{Edge, Graph, VertexId};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Salt decorrelating every Curveball stream (matchings and per-trade
/// shuffles) from the switch protocol's root/rank/substreams derived
/// from the same master seed.
const TRADE_STREAM_SALT: u64 = 0xcb11;

/// Sentinel in [`PassPlan::tidx`]: vertex is unmatched this pass.
pub(crate) const NO_TRADE: u32 = u32::MAX;

/// Consecutive zero-progress passes before a visit-rate run concludes
/// the graph cannot mix further (stars, empty graphs).
const STALL_PASS_LIMIT: u32 = 3;

/// The low half of a packed key, where an edge key holds its higher
/// label.
const LOW: u64 = 0xFFFF_FFFF;

/// The deterministic shape of one pass: the trade pairs and the inverse
/// vertex → trade-index map. Every driver (and every rank of the
/// parallel driver) rebuilds this identically from `(seed, pass)` with
/// zero communication.
#[derive(Default)]
pub(crate) struct PassPlan {
    /// The pass index this plan was drawn for.
    pub pass: u64,
    /// Trade `k` is `pairs[k] = (u, v)` with `u < v`.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Per vertex: its trade index this pass, or [`NO_TRADE`].
    pub tidx: Vec<u32>,
}

impl PassPlan {
    /// The matching of pass `pass` under `seed`.
    pub fn build(n: usize, seed: u64, pass: u64) -> PassPlan {
        let mut rng = substream_rng(seed ^ TRADE_STREAM_SALT, pass, 0);
        let pairs = random_matching(n, &mut rng);
        let mut tidx = vec![NO_TRADE; n];
        for (k, &(u, v)) in pairs.iter().enumerate() {
            tidx[u as usize] = k as u32;
            tidx[v as usize] = k as u32;
        }
        PassPlan { pass, pairs, tidx }
    }

    /// Trade index of `v` this pass ([`NO_TRADE`] if unmatched).
    #[inline]
    pub fn trade_of(&self, v: VertexId) -> u32 {
        self.tidx[v as usize]
    }

    /// The trade indices of a token's two endpoints.
    #[inline]
    pub(crate) fn trades_of(&self, token: u64) -> (u32, u32) {
        (self.trade_of(token >> 32), self.trade_of(token & LOW))
    }
}

/// The shuffle stream of trade `k` in pass `pass` (stream `0` is the
/// pass's matching draw).
pub(crate) fn trade_rng(seed: u64, pass: u64, trade: u32) -> Rng64 {
    substream_rng(seed ^ TRADE_STREAM_SALT, pass, trade as u64 + 1)
}

/// The token of edge `e`: its key ([`Edge::key`], low label in the high
/// half), with the halves swapped iff `e` is an initial edge not yet
/// visited.
#[inline]
pub(crate) fn token(e: Edge, unvisited: bool) -> u64 {
    let key = e.key();
    if unvisited {
        key.rotate_left(32)
    } else {
        key
    }
}

/// A token's edge key and visit mark (the inverse of [`token`]).
#[inline]
pub(crate) fn untoken(token: u64) -> (u64, bool) {
    let unvisited = token >> 32 > token & LOW;
    let key = if unvisited {
        token.rotate_left(32)
    } else {
        token
    };
    (key, unvisited)
}

/// The tokens of `edges` under the marks of `visits` over them (bit
/// `i % 64` of word `i / 64` marks `edges[i]`), in list order: the
/// inverse of [`strip_marks`].
pub(crate) fn to_tokens(edges: &[Edge], visits: &Visits) -> Vec<u64> {
    let mark = |i: usize| visits.unvisited[i / 64] >> (i % 64) & 1 == 1;
    (edges.iter().enumerate())
        .map(|(i, &e)| token(e, mark(i)))
        .collect()
}

/// Strip `tokens` to their edge keys in place, in their order, returning
/// the visits of `initial` initial edges, marks over that order.
pub(crate) fn strip_marks(tokens: &mut [u64], initial: usize) -> Visits {
    let mut unvisited = vec![0u64; tokens.len().div_ceil(64)];
    for (i, t) in tokens.iter_mut().enumerate() {
        let (key, mark) = untoken(*t);
        unvisited[i / 64] |= (mark as u64) << (i % 64);
        *t = key;
    }
    Visits { initial, unvisited }
}

/// One trade, as every driver executes it, with the two buffers it
/// reuses: a pass allocates only while they grow to its largest
/// neighbourhoods. A side entry is a far endpoint shifted left once,
/// its visit mark in the low bit.
#[derive(Default)]
pub(crate) struct Trader {
    /// `N(u) ∖ {v}`, then `u`'s disjoint part, then all of `D`.
    a: Vec<u64>,
    /// `N(v) ∖ {u}`, then `v`'s disjoint part.
    b: Vec<u64>,
}

impl Trader {
    /// Execute trade `(u, v)` on the tokens of every edge at `u` or `v`,
    /// in any order; returns the neighbours moved, `|D|`.
    ///
    /// The two sides are sorted by far endpoint and split by two
    /// pointers. The partner edge `{u, v}` and the common edges go out
    /// as they came; `D = (a∖b) ++ (b∖a)` is shuffled with `rng`, whose
    /// draws depend on `|D|` alone, and its first `|a∖b|` entries are
    /// dealt to `u`, the rest to `v`. So the outputs are a function of
    /// the token *set*, and every driver replays the same trade.
    /// `emit(far, token)` takes every output, in a fixed order: the
    /// partner edge, the common edges (`u`'s, then `v`'s, by far
    /// endpoint), then the deal. `visit(e)` takes every initial edge of
    /// a two-sided `D`; a one-sided `D` is dealt back as it came, marks
    /// and all.
    pub(crate) fn trade(
        &mut self,
        (u, v): (VertexId, VertexId),
        tokens: impl IntoIterator<Item = u64>,
        rng: &mut Rng64,
        mut visit: impl FnMut(Edge),
        mut emit: impl FnMut(VertexId, u64),
    ) -> usize {
        debug_assert!(u < v, "a trade pairs ({u},{v}) low label first");
        let Trader { a, b } = self;
        let entry = |far: VertexId, unvisited: bool| far << 1 | unvisited as u64;
        let out = |near: VertexId, side: u64| token(Edge::new(near, side >> 1), side & 1 == 1);
        a.clear();
        b.clear();
        for t in tokens {
            let (key, unvisited) = untoken(t);
            let (x, y) = (key >> 32, key & LOW);
            if (x, y) == (u, v) {
                emit(v, t);
            } else if x == u || y == u {
                a.push(entry(x ^ y ^ u, unvisited));
            } else {
                debug_assert!(x == v || y == v, "{key:#x} is no edge of trade ({u},{v})");
                b.push(entry(x ^ y ^ v, unvisited));
            }
        }
        a.sort_unstable();
        b.sort_unstable();
        // The disjoint parts are compacted to the front of their sides.
        let (mut i, mut j, mut only_a, mut only_b) = (0, 0, 0, 0);
        while i < a.len() && j < b.len() {
            match (a[i] >> 1).cmp(&(b[j] >> 1)) {
                Ordering::Equal => {
                    emit(a[i] >> 1, out(u, a[i]));
                    emit(b[j] >> 1, out(v, b[j]));
                    (i, j) = (i + 1, j + 1);
                }
                Ordering::Less => {
                    a[only_a] = a[i];
                    (i, only_a) = (i + 1, only_a + 1);
                }
                Ordering::Greater => {
                    b[only_b] = b[j];
                    (j, only_b) = (j + 1, only_b + 1);
                }
            }
        }
        a.drain(only_a..i);
        b.drain(only_b..j);
        let (only_a, moved) = (a.len(), a.len() + b.len());
        let redealt = only_a > 0 && only_a < moved;
        if redealt {
            let sides = a.iter().map(|&s| (u, s)).chain(b.iter().map(|&s| (v, s)));
            for (near, side) in sides.filter(|&(_, side)| side & 1 == 1) {
                visit(Edge::new(near, side >> 1));
            }
        }
        a.append(b);
        fisher_yates_shuffle(a, rng);
        for (i, &side) in a.iter().enumerate() {
            let near = if i < only_a { u } else { v };
            emit(side >> 1, out(near, side & !(redealt as u64)));
        }
        moved
    }
}

/// Whole-pass continuation policy shared by every Curveball driver; fed
/// the *global* visited count at each boundary (the parallel driver
/// allgathers it), so all ranks and drivers stop after the same pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PassController {
    pub budget: Budget,
    /// Next pass index (also: passes completed).
    pub pass: u64,
    /// Consecutive boundaries at which the visited count had not moved.
    pub stall: u32,
    /// The visited count at the last boundary that opened a pass.
    pub last_visited: u64,
}

impl PassController {
    pub fn new(budget: Budget) -> Self {
        PassController {
            budget,
            pass: 0,
            stall: 0,
            last_visited: 0,
        }
    }

    /// Trades executed so far on an `n`-vertex graph: `⌊n/2⌋` a pass.
    pub fn trades(&self, n: usize) -> u64 {
        self.pass.saturating_mul(n as u64 / 2)
    }

    /// The budget as a trade count: `t` under [`Budget::Ops`]; the trades
    /// run so far under a visit-rate target, which fixes no count.
    pub fn budget_trades(&self, n: usize) -> u64 {
        match self.budget {
            Budget::Ops(t) => t,
            Budget::VisitRate(_) => self.trades(n),
        }
    }

    /// The stall count a boundary at `visited_total` records.
    fn stall_at(&self, visited_total: u64) -> u32 {
        if self.pass > 0 && visited_total == self.last_visited {
            self.stall.saturating_add(1)
        } else {
            0
        }
    }

    /// Whether the boundary at `visited_total` (of `initial_total`
    /// initial edges) opens another pass of an `n`-vertex graph — a pure
    /// query, so `is_done` is exact before every pass.
    pub fn continues(&self, n: usize, initial_total: u64, visited_total: u64) -> bool {
        if n < 2 || initial_total == 0 {
            return false;
        }
        match self.budget {
            Budget::Ops(t) => self.trades(n) < t,
            Budget::VisitRate(x) => {
                let rate = visited_total as f64 / initial_total as f64;
                rate < x.min(1.0) && self.stall_at(visited_total) < STALL_PASS_LIMIT
            }
        }
    }

    /// The pass boundary of every driver: if it
    /// [`continues`](PassController::continues), record it and draw the
    /// next pass's matching.
    pub fn next_plan(
        &mut self,
        n: usize,
        seed: u64,
        initial_total: u64,
        visited_total: u64,
    ) -> Option<PassPlan> {
        if !self.continues(n, initial_total, visited_total) {
            return None;
        }
        self.stall = self.stall_at(visited_total);
        self.last_visited = visited_total;
        let plan = PassPlan::build(n, seed, self.pass);
        self.pass = self.pass.saturating_add(1);
        Some(plan)
    }
}

/// A [`CurveballResumable`] at a pass boundary (serialized in
/// [`crate::parallel::wire`]): as [`crate::SeqCheckpoint`], with the pass
/// controller for the budget and stream position — every draw is keyed
/// on `(seed, pass[, k])`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CurveballCheckpoint {
    pub seed: u64,
    pub n: usize,
    pub ctl: PassController,
    pub neighbors_moved: u64,
    /// Visits over `graph_edges`, as [`crate::SeqCheckpoint::visits`].
    pub visits: Visits,
    pub graph_edges: Vec<Edge>,
}

/// Sequential Curveball as a pausable engine, one pass per
/// [`CurveballResumable::step`]. Like
/// [`SequentialResumable`](crate::SequentialResumable): bit-identical
/// across any split and any checkpoint/restore, and a restored engine is
/// unobserved.
///
/// Between passes the engine is its edges as tokens, two counters
/// and the pass controller: the graph comes back only where it leaves
/// the engine ([`CurveballResumable::finish`],
/// `CurveballResumable::checkpoint`), its pool in ascending key order.
pub struct CurveballResumable {
    n: usize,
    /// Every edge's token, in the order the last pass dealt them.
    tokens: Vec<u64>,
    seed: u64,
    ctl: PassController,
    neighbors_moved: u64,
    /// Initial edges visited so far: the tokens that lost their mark.
    visited: u64,
    buckets: Buckets,
    trader: Trader,
    solo: SoloObs,
}

/// A pass's bucket layout, reused from pass to pass: trade `k`'s
/// arrivals fill `slots[start[k]..start[k + 1]]`, `fill[k]` is its next
/// free slot.
#[derive(Default)]
struct Buckets {
    start: Vec<usize>,
    fill: Vec<usize>,
    slots: Vec<u64>,
}

impl CurveballResumable {
    /// Start a run on `graph` under `budget` seeded with `seed`; every
    /// edge starts as an unvisited initial one. The graph, lent or
    /// given, is read once and not kept.
    pub fn new<'g>(graph: impl Into<Cow<'g, Graph>>, budget: Budget, seed: u64) -> Self {
        let graph = graph.into();
        let tokens = graph.edges().map(|e| token(e, true)).collect();
        Self::with_tokens(graph.num_vertices(), tokens, budget, seed)
    }

    /// A fresh engine on `n` vertices holding `tokens`.
    fn with_tokens(n: usize, tokens: Vec<u64>, budget: Budget, seed: u64) -> Self {
        CurveballResumable {
            n,
            tokens,
            seed,
            ctl: PassController::new(budget),
            neighbors_moved: 0,
            visited: 0,
            buckets: Buckets::default(),
            trader: Trader::default(),
            solo: SoloObs::new(ObsSpec::Off),
        }
    }

    /// Attach observation (builder-style): [`Phase`] spans, aggregated by
    /// [`CurveballResumable::finish`]; probes only read.
    pub fn with_obs(mut self, spec: ObsSpec) -> Self {
        self.solo = SoloObs::new(spec);
        self
    }

    /// Run the next pass, unless the budget is met; returns the trades
    /// it executed.
    ///
    /// Trade `k = (u, v)` receives every edge at `u` or `v`, the partner
    /// edge once: a count fixed at pass start, so prefix sums of the
    /// counts lay every trade's bucket out in one array. A token starts
    /// in the bucket of the first trade that touches it (a matching
    /// leaves at most one vertex out, so every edge has one). Trades run
    /// in index order, and each sends a token it deals to the bucket of
    /// its far endpoint's trade if that comes later in the pass, else to
    /// the output list: trade `k` sees its edges as trades `0..k` left
    /// them.
    pub fn step(&mut self) -> u64 {
        let initial = self.tokens.len() as u64;
        let Some(plan) = self.ctl.next_plan(self.n, self.seed, initial, self.visited) else {
            return 0;
        };
        let Buckets { start, fill, slots } = &mut self.buckets;
        let trades = plan.pairs.len();
        start.clear();
        start.resize(trades + 1, 0);
        for &t in &self.tokens {
            let (x, y) = plan.trades_of(t);
            if x != NO_TRADE {
                start[x as usize + 1] += 1;
            }
            if y != NO_TRADE && y != x {
                start[y as usize + 1] += 1;
            }
        }
        for k in 0..trades {
            start[k + 1] += start[k];
        }
        fill.clear();
        fill.extend_from_slice(&start[..trades]);
        slots.resize(start[trades], 0);
        for t in self.tokens.drain(..) {
            let (x, y) = plan.trades_of(t);
            let k = x.min(y) as usize;
            slots[fill[k]] = t;
            fill[k] += 1;
        }
        let (tokens, obs) = (&mut self.tokens, &mut self.solo.obs);
        let visited = &mut self.visited;
        for (k, &pair) in plan.pairs.iter().enumerate() {
            let base = start[k + 1];
            debug_assert_eq!(fill[k], base, "trade {k} starts with every arrival");
            let (held, ahead) = slots.split_at_mut(base);
            let mut rng = trade_rng(self.seed, plan.pass, k as u32);
            let shuffle_start = obs.stamp(Phase::TradeShuffle);
            let arrived = held[start[k]..].iter().copied();
            let moved = self.trader.trade(
                pair,
                arrived,
                &mut rng,
                |_| *visited += 1,
                |far, t| match plan.trade_of(far) {
                    j if j != NO_TRADE && j as usize > k => {
                        ahead[fill[j as usize] - base] = t;
                        fill[j as usize] += 1;
                    }
                    _ => tokens.push(t),
                },
            );
            obs.span_since(Phase::TradeShuffle, shuffle_start);
            self.neighbors_moved += moved as u64;
        }
        trades as u64
    }

    /// Whether the budget is met (or the graph cannot mix further).
    pub fn is_done(&self) -> bool {
        let initial = self.tokens.len() as u64;
        !self.ctl.continues(self.n, initial, self.visited)
    }

    /// Trades executed so far.
    pub fn performed(&self) -> u64 {
        self.ctl.trades(self.n)
    }

    /// Whole passes executed so far.
    pub fn passes(&self) -> u64 {
        self.ctl.pass
    }

    /// Neighbours re-dealt so far (summed `|D|`, the scheme's work).
    pub fn neighbors_moved(&self) -> u64 {
        self.neighbors_moved
    }

    /// Observed visit rate so far.
    pub fn visit_rate(&self) -> f64 {
        visit_rate(self.visited as usize, self.tokens.len())
    }

    /// Capture the complete engine state at a pass boundary, its edges
    /// in ascending key order and its visit marks over them.
    pub(crate) fn checkpoint(&self) -> CurveballCheckpoint {
        let mut keys = self.tokens.clone();
        let visits = at_rest(&mut keys);
        CurveballCheckpoint {
            seed: self.seed,
            n: self.n,
            ctl: self.ctl,
            neighbors_moved: self.neighbors_moved,
            visits,
            graph_edges: keys.into_iter().map(Edge::from_key).collect(),
        }
    }

    /// Rebuild the engine of the run on `graph` under `(budget, seed)`
    /// from an untrusted checkpoint, or say why it is not one of this
    /// run (as [`SequentialResumable::restore`](crate::SequentialResumable::restore)).
    /// The edges may come in any order, their marks following them.
    pub(crate) fn restore(
        graph: &Graph,
        budget: Budget,
        seed: u64,
        ckpt: &CurveballCheckpoint,
    ) -> Result<Self, String> {
        if (ckpt.seed, ckpt.ctl.budget) != (seed, budget) {
            return Err(format!(
                "checkpoint is of seed {} budget {:?}, the run is seed {seed} budget {budget:?}",
                ckpt.seed, ckpt.ctl.budget
            ));
        }
        let (edges, visits) = (&ckpt.graph_edges, &ckpt.visits);
        check_snapshot(graph, ckpt.n, edges, visits)?;
        check_distinct(edges)?;
        let tokens = to_tokens(edges, visits);
        Ok(CurveballResumable {
            ctl: ckpt.ctl,
            neighbors_moved: ckpt.neighbors_moved,
            visited: visits.visited() as u64,
            ..Self::with_tokens(ckpt.n, tokens, budget, seed)
        })
    }

    /// Tear down into the traded graph — its pool built here, in
    /// ascending key order, which `assemble_edges` takes as proof that
    /// the edges are distinct, so adjacency waits for its first reader —
    /// and the outcome (`performed` counts trades, the marks become
    /// visit marks over the graph's edges; `report` iff observed).
    pub fn finish(mut self) -> (Graph, SequentialOutcome) {
        self.buckets = Buckets::default();
        let performed = self.performed();
        let mut keys = std::mem::take(&mut self.tokens);
        let visits = at_rest(&mut keys);
        let report = self.solo.report();
        let graph = assemble_edges(self.n, keys.into_iter().map(Edge::from_key))
            .expect("a trade moves neighbors between the graph's own vertices");
        let outcome = SequentialOutcome {
            performed,
            abandoned: 0,
            rejects: Default::default(),
            visits,
            report,
        };
        (graph, outcome)
    }
}

/// Sort `tokens` by edge key and strip them to their keys — the edges at
/// rest, in ascending key order — returning their visits.
fn at_rest(tokens: &mut [u64]) -> Visits {
    tokens.sort_unstable_by_key(|&t| untoken(t).0);
    strip_marks(tokens, tokens.len())
}

/// A pass is the unit of `advance`.
impl Stepped for CurveballResumable {
    fn advance(&mut self, max_ops: u64) -> u64 {
        if max_ops > 0 {
            self.step();
        }
        0
    }

    fn progress(&self) -> StepProgress {
        StepProgress {
            step: self.passes(),
            steps: self.passes(),
            performed: self.performed(),
            budget: self.ctl.budget_trades(self.n),
            visit_rate: self.visit_rate(),
            done: self.is_done(),
            ..StepProgress::default()
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        encode_curveball_checkpoint(&self.checkpoint())
    }

    fn attach_probe(&mut self, tx: std::sync::mpsc::Sender<ProgressEvent>, every: u64) {
        self.solo.stream(tx, every);
    }

    fn finish(self: Box<Self>) -> RunOutcome {
        let (graph, outcome) = CurveballResumable::finish(*self);
        RunOutcome::Sequential(Box::new(SequentialRun { graph, outcome }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_dist::{root_rng, Rng};
    use edgeswitch_graph::generators::{erdos_renyi_gnm, preferential_attachment};
    use edgeswitch_graph::types::MAX_PACKED_VERTEX;
    use std::collections::BTreeSet;

    /// Trade `(u, v)` on `tokens` (which hold every edge at `u` or `v`)
    /// with the stream of `(seed, pass, k)`: `(emitted (far, token) in
    /// order, neighbours moved, edges visited)`.
    fn kernel(
        (u, v): (VertexId, VertexId),
        tokens: &[u64],
        (seed, pass, k): (u64, u64, u32),
    ) -> (Vec<(VertexId, u64)>, usize, Vec<Edge>) {
        let (mut emitted, mut visited) = (Vec::new(), Vec::new());
        let mut rng = trade_rng(seed, pass, k);
        let moved = Trader::default().trade(
            (u, v),
            tokens.iter().copied(),
            &mut rng,
            |e| visited.push(e),
            |far, t| emitted.push((far, t)),
        );
        (emitted, moved, visited)
    }

    /// Tokens of `(near, far)` edges, all marked `unvisited`.
    fn tokens(edges: &[(VertexId, VertexId)], unvisited: bool) -> Vec<u64> {
        let each = |&(a, b): &(VertexId, VertexId)| token(Edge::new(a, b), unvisited);
        edges.iter().map(each).collect()
    }

    #[test]
    fn tokens_round_trip_at_the_label_extremes() {
        let top = MAX_PACKED_VERTEX;
        for e in [Edge::new(0, 1), Edge::new(0, top), Edge::new(top - 1, top)] {
            for unvisited in [false, true] {
                let t = token(e, unvisited);
                assert_eq!(untoken(t), (e.key(), unvisited), "{e} {unvisited}");
            }
        }
        assert_eq!(token(Edge::new(0, top), false), 0x0000_0000_ffff_ffff);
        assert_eq!(token(Edge::new(0, top), true), 0xffff_ffff_0000_0000);
        // A trade between the extreme labels: 2 is common, 1 and 3 are
        // re-dealt (two-sided, so both visited), the partner stays.
        let edges = [(0, top), (0, 1), (0, 2), (top, 2), (top, 3)];
        let (out, moved, visited) = kernel((0, top), &tokens(&edges, true), (3, 0, 0));
        assert_eq!(moved, 2);
        assert_eq!(visited, vec![Edge::new(0, 1), Edge::new(3, top)]);
        let kept: Vec<(u64, bool)> = out[..3].iter().map(|&(_, t)| untoken(t)).collect();
        let stay = [(0, top), (0, 2), (2, top)].map(|(a, b)| (Edge::new(a, b).key(), true));
        assert_eq!(kept, stay);
        let mut dealt: Vec<Edge> = out[3..]
            .iter()
            .map(|&(far, t)| {
                let (key, unvisited) = untoken(t);
                assert!(!unvisited && Edge::from_key(key).touches(far));
                Edge::from_key(key)
            })
            .collect();
        dealt.sort_unstable();
        let kept_out = dealt == [Edge::new(0, 1), Edge::new(3, top)];
        assert!(kept_out || dealt == [Edge::new(0, 3), Edge::new(1, top)]);
    }

    #[test]
    fn split_sorted_partitions_correctly() {
        // N(10) = {1, 3, 5, 7, 11}, N(11) = {2, 3, 6, 7, 9, 10}, given
        // in no order: the partner and the common edges go out first, in
        // order, then D = {1, 5} ++ {2, 6, 9}, two to 10 and three to 11.
        let edges = [(11, 9), (10, 7), (10, 11), (11, 3), (10, 1), (11, 2)];
        let more = [(10, 5), (11, 7), (10, 3), (11, 6)];
        let all = [&edges[..], &more[..]].concat();
        let (out, moved, visited) = kernel((10, 11), &tokens(&all, false), (1, 0, 0));
        assert_eq!(moved, 5);
        assert!(visited.is_empty(), "no initial edge was unvisited");
        let stay = [(10, 11), (10, 3), (11, 3), (10, 7), (11, 7)];
        let first: Vec<u64> = out[..5].iter().map(|&(_, t)| t).collect();
        assert_eq!(first, tokens(&stay, false));
        let near = |&(far, t): &(VertexId, u64)| Edge::from_key(t).other(far);
        let to: Vec<VertexId> = out[5..].iter().map(near).collect();
        assert_eq!(to, [10, 10, 11, 11, 11]);
        // One side empty: D = {1, 2} is dealt back as it came, its marks
        // kept and nothing visited.
        let edges = [(5, 1), (5, 2)];
        let (out, moved, visited) = kernel((4, 5), &tokens(&edges, true), (1, 0, 1));
        assert_eq!(moved, 2);
        assert!(visited.is_empty());
        let got: BTreeSet<u64> = out.iter().map(|&(_, t)| t).collect();
        assert_eq!(got, tokens(&edges, true).into_iter().collect());
    }

    #[test]
    fn redeal_preserves_sizes_and_multiset() {
        let edges = [(0, 1), (0, 5), (0, 9), (3, 2), (3, 4)];
        let (out, moved, visited) = kernel((0, 3), &tokens(&edges, true), (7, 0, 0));
        assert_eq!((moved, visited.len()), (5, 5));
        let mut far: Vec<VertexId> = out.iter().map(|&(far, _)| far).collect();
        far.sort_unstable();
        assert_eq!(far, vec![1, 2, 4, 5, 9]);
        let near = |&(far, t): &(VertexId, u64)| Edge::from_key(untoken(t).0).other(far);
        let to_u = out.iter().filter(|o| near(o) == 0).count();
        assert_eq!((to_u, out.len() - to_u), (3, 2));
        assert!(
            out.iter().all(|&(_, t)| !untoken(t).1),
            "re-dealt means visited"
        );
    }

    /// The initial edges a reference run has not yet removed, by key —
    /// the visit marks the tokens' are held to.
    struct Tracker {
        initial: usize,
        unvisited: BTreeSet<u64>,
    }

    impl Tracker {
        fn new(edges: impl Iterator<Item = Edge>) -> Self {
            let unvisited: BTreeSet<u64> = edges.map(|e| e.key()).collect();
            Tracker {
                initial: unvisited.len(),
                unvisited,
            }
        }

        fn record_removal(&mut self, e: Edge) {
            self.unvisited.remove(&e.key());
        }

        fn visited_count(&self) -> usize {
            self.initial - self.unvisited.len()
        }

        /// The marks over `edges`, a list in its order.
        fn visits(&self, edges: impl Iterator<Item = Edge>) -> Visits {
            let mut visits = Visits {
                initial: self.initial,
                unvisited: Vec::new(),
            };
            for (i, e) in edges.enumerate() {
                if i % 64 == 0 {
                    visits.unvisited.push(0);
                }
                visits.unvisited[i / 64] |= (self.unvisited.contains(&e.key()) as u64) << (i % 64);
            }
            visits
        }
    }

    /// The trade as it was first written, kept as the reference the
    /// token trade is held to: withdraw every edge of the disjoint
    /// union, shuffle its values, re-insert all of them. A two-sided
    /// union's initial edges are visited; a one-sided one can only be
    /// dealt back, so it visits nothing.
    fn reference_trade(
        graph: &mut Graph,
        tracker: &mut Tracker,
        u: VertexId,
        v: VertexId,
        rng: &mut Rng64,
    ) -> usize {
        let a: BTreeSet<VertexId> = graph.neighbors(u).iter().filter(|&x| x != v).collect();
        let b: BTreeSet<VertexId> = graph.neighbors(v).iter().filter(|&x| x != u).collect();
        let only_a: Vec<VertexId> = a.difference(&b).copied().collect();
        let only_b: Vec<VertexId> = b.difference(&a).copied().collect();
        let mut d = [&only_a[..], &only_b[..]].concat();
        fisher_yates_shuffle(&mut d, rng);
        let redealt = !only_a.is_empty() && !only_b.is_empty();
        let withdrawn = only_a
            .iter()
            .map(|&x| (u, x))
            .chain(only_b.iter().map(|&y| (v, y)));
        for (near, far) in withdrawn {
            graph.remove_edge(Edge::new(near, far)).unwrap();
            if redealt {
                tracker.record_removal(Edge::new(near, far));
            }
        }
        for (i, &z) in d.iter().enumerate() {
            let near = if i < only_a.len() { u } else { v };
            graph.add_edge(Edge::new(near, z)).unwrap();
        }
        d.len()
    }

    /// The edges and visit marks of `graph` under `tracker`, as tokens.
    fn graph_tokens(graph: &Graph, tracker: &Tracker) -> Vec<u64> {
        (graph.edges())
            .map(|e| token(e, tracker.unvisited.contains(&e.key())))
            .collect()
    }

    /// One trade from the same state and RNG stream on both
    /// implementations: the kernel, on the tokens at `u` or `v`, and the
    /// reference, on the whole `Graph`, which becomes the traded graph.
    /// Returns `(neighbors moved, neighbors that changed endpoint)`.
    fn trade_both_ways(
        graph: &mut Graph,
        tracker: &mut Tracker,
        (u, v): (VertexId, VertexId),
        stream: (u64, u64, u32),
    ) -> (usize, usize) {
        let (seed, pass, k) = stream;
        let before = graph.clone();
        let (at, rest): (Vec<u64>, Vec<u64>) =
            graph_tokens(graph, tracker).into_iter().partition(|&t| {
                Edge::from_key(untoken(t).0).touches(u) || Edge::from_key(untoken(t).0).touches(v)
            });
        let want = reference_trade(graph, tracker, u, v, &mut trade_rng(seed, pass, k));
        let (out, got, _) = kernel((u, v), &at, stream);
        let ctx = format!("trade ({u},{v}) on stream {stream:?}");
        assert_eq!(got, want, "{ctx}: neighbors moved");
        let mut traded: Vec<u64> = rest
            .into_iter()
            .chain(out.iter().map(|&(_, t)| t))
            .collect();
        let mut expected = graph_tokens(graph, tracker);
        traded.sort_unstable();
        expected.sort_unstable();
        assert_eq!(traded, expected, "{ctx}: edges and marks");
        graph.check_invariants().expect(&ctx);
        let changed = before.edges().filter(|&e| !graph.has_edge(e)).count();
        (got, changed)
    }

    #[test]
    fn token_trade_equals_the_remove_all_reference() {
        let mut rng = root_rng(21);
        for (name, mut g) in [
            ("er", erdos_renyi_gnm(120, 900, &mut rng)),
            ("pa", preferential_attachment(150, 6, &mut rng)),
        ] {
            let mut tracker = Tracker::new(g.edges());
            let (mut adjacent, mut kept) = (0, 0);
            for k in 0..500u32 {
                let u = rng.gen_range(0..g.num_vertices() as u64);
                let v = rng.gen_range(0..g.num_vertices() as u64);
                if u == v {
                    continue;
                }
                let (u, v) = (u.min(v), u.max(v));
                adjacent += g.has_edge(Edge::new(u, v)) as u32;
                let (moved, changed) = trade_both_ways(&mut g, &mut tracker, (u, v), (5, 0, k));
                assert!(changed <= moved);
                kept += moved - changed;
            }
            // The sweep met the cases it is there for.
            assert!(adjacent > 0, "{name}: no adjacent pair traded");
            assert!(kept > 0, "{name}: every neighbor changed endpoint");
        }
    }

    #[test]
    fn token_trade_on_the_edge_cases() {
        let e = Edge::new;
        // D = ∅: two leaves of one hub share their only neighbor.
        let mut g = Graph::from_edges(4, [e(0, 1), e(0, 2), e(0, 3)]).unwrap();
        let mut tracker = Tracker::new(g.edges());
        assert_eq!(
            trade_both_ways(&mut g, &mut tracker, (1, 2), (1, 0, 0)),
            (0, 0)
        );
        assert_eq!(tracker.visited_count(), 0);
        // Hub × leaf, adjacent: the leaf's only neighbor is the hub
        // itself, so D is the hub's other neighbors, one-sided: all
        // return and none is visited.
        assert_eq!(
            trade_both_ways(&mut g, &mut tracker, (0, 1), (1, 0, 1)),
            (2, 0)
        );
        assert_eq!(tracker.visited_count(), 0, "a one-sided D visits nothing");
        // Hub × leaf, not adjacent: one of the hub's neighbors goes to
        // the leaf and the leaf's goes to the hub — or everything stays.
        let mut g = Graph::from_edges(7, [e(0, 1), e(0, 2), e(0, 3), e(0, 4), e(5, 6)]).unwrap();
        let mut tracker = Tracker::new(g.edges());
        let mut seen = [false; 2];
        for k in 0..40 {
            let (moved, changed) = trade_both_ways(&mut g, &mut tracker, (0, 5), (2, 0, k));
            assert_eq!(moved, 5);
            assert!(changed == 0 || changed == 2, "{changed}");
            seen[changed / 2] = true;
            assert_eq!(
                tracker.visited_count(),
                5,
                "re-dealt edges count as visited"
            );
        }
        assert_eq!(seen, [true, true], "both the dealt-back and the moved case");
    }

    /// (graph ∈ {ER, PA, star, two hubs sharing leaves, odd n, isolated
    /// vertices}) × (seed) × (budget ∈ {trades, visit rate}): the token
    /// engine against the same passes of [`reference_trade`] on a whole
    /// `Graph`. After every pass the engine's checkpoint holds the
    /// reference's edges, in ascending key order, its visit marks over
    /// them and its neighbours moved; the graph `finish` builds is whole,
    /// with its pool in ascending key order.
    #[test]
    fn token_engine_equals_the_graph_maintaining_reference() {
        let e = Edge::new;
        let star = Graph::from_edges(9, (1..9u64).map(|v| e(0, v))).unwrap();
        // Hubs 0 and 1 share leaves 4..10, own 2..4 and 10..12, and are
        // adjacent.
        let shared = (2..10u64).map(|x| e(0, x)).chain((4..12).map(|x| e(1, x)));
        let two_hubs = Graph::from_edges(12, shared.chain([e(0, 1), e(2, 3)])).unwrap();
        // Vertices 120..160 have no edge.
        let sparse = erdos_renyi_gnm(120, 300, &mut root_rng(43));
        let isolated = Graph::from_edges(160, sparse.edges()).unwrap();
        let graphs = [
            ("er", erdos_renyi_gnm(150, 700, &mut root_rng(41))),
            ("pa", preferential_attachment(200, 4, &mut root_rng(42))),
            ("star", star),
            ("two hubs", two_hubs),
            ("odd n", erdos_renyi_gnm(101, 400, &mut root_rng(44))),
            ("isolated", isolated),
        ];
        for (name, g) in &graphs {
            let n = g.num_vertices();
            for seed in [1u64, 9, 4242] {
                for budget in [Budget::Ops(3 * n as u64), Budget::VisitRate(0.95)] {
                    let row = format!("{name} seed={seed} {budget:?}");
                    let mut eng = CurveballResumable::new(g, budget, seed);
                    let mut reference = g.clone();
                    let mut tracker = Tracker::new(g.edges());
                    let mut ctl = PassController::new(budget);
                    let mut moved = 0u64;
                    loop {
                        let (initial, visited) = (g.num_edges() as u64, tracker.visited_count());
                        let plan = ctl.next_plan(n, seed, initial, visited as u64);
                        let trades = eng.step();
                        let Some(plan) = plan else {
                            assert_eq!(trades, 0, "{row}");
                            break;
                        };
                        assert_eq!(trades, plan.pairs.len() as u64, "{row}");
                        for (k, &(u, v)) in plan.pairs.iter().enumerate() {
                            let mut rng = trade_rng(seed, plan.pass, k as u32);
                            moved += reference_trade(&mut reference, &mut tracker, u, v, &mut rng)
                                as u64;
                        }
                        let at = format!("{row} pass {}", plan.pass);
                        let ckpt = eng.checkpoint();
                        assert_eq!(ckpt.graph_edges, reference.sorted_edges(), "{at}");
                        let edges = ckpt.graph_edges.iter().copied();
                        assert_eq!(ckpt.visits, tracker.visits(edges), "{at}");
                        assert_eq!(ckpt.neighbors_moved, moved, "{at}");
                    }
                    assert!(eng.is_done(), "{row}");
                    let (traded, out) = eng.finish();
                    traded
                        .check_invariants()
                        .unwrap_or_else(|why| panic!("{row}: {why}"));
                    assert!(
                        traded.edges().eq(reference.sorted_edges()),
                        "{row}: ascending pool"
                    );
                    assert_eq!(out.visits, tracker.visits(traded.edges()), "{row}");
                }
            }
        }
    }

    #[test]
    fn pass_plan_is_deterministic_and_consistent() {
        let a = PassPlan::build(101, 42, 3);
        let b = PassPlan::build(101, 42, 3);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.pairs.len(), 50);
        for (k, &(u, v)) in a.pairs.iter().enumerate() {
            assert!(u < v);
            assert_eq!(a.trade_of(u), k as u32);
            assert_eq!(a.trade_of(v), k as u32);
        }
        let c = PassPlan::build(101, 42, 4);
        assert_ne!(a.pairs, c.pairs, "passes draw distinct matchings");
    }

    /// What a whole Curveball run did, beside the graph it traded.
    struct Ran {
        passes: u64,
        moved: u64,
        out: SequentialOutcome,
    }

    /// Run `budget` on `g` pass by pass, under `spec`; `g` becomes the
    /// traded graph.
    fn curveball_observed(g: &mut Graph, budget: Budget, seed: u64, spec: ObsSpec) -> Ran {
        let given = std::mem::replace(g, Graph::new(0));
        let mut eng = CurveballResumable::new(given, budget, seed).with_obs(spec);
        while !eng.is_done() {
            assert!(eng.step() > 0, "a pass the controller opened runs trades");
        }
        assert_eq!(eng.step(), 0, "a finished engine opens no pass");
        let (passes, moved) = (eng.passes(), eng.neighbors_moved());
        let (traded, out) = eng.finish();
        *g = traded;
        Ran { passes, moved, out }
    }

    fn curveball(g: &mut Graph, budget: Budget, seed: u64) -> Ran {
        curveball_observed(g, budget, seed, ObsSpec::Off)
    }

    #[test]
    fn preserves_degree_sequence_and_simplicity() {
        let mut rng = root_rng(11);
        let mut g = erdos_renyi_gnm(300, 1200, &mut rng);
        let before = g.degree_sequence();
        let ran = curveball(&mut g, Budget::Ops(1000), 5);
        assert!(ran.out.performed >= 1000);
        assert!(ran.moved > 0);
        assert_eq!(g.degree_sequence(), before);
        g.check_invariants().unwrap();
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r = root_rng(12);
        let base = erdos_renyi_gnm(200, 800, &mut r);
        let mut g1 = base.clone();
        let o1 = curveball(&mut g1, Budget::Ops(500), 9);
        let mut g2 = base.clone();
        let o2 = curveball(&mut g2, Budget::Ops(500), 9);
        assert_eq!(g1.sorted_edges(), g2.sorted_edges());
        assert_eq!(o1.moved, o2.moved);
        let mut g3 = base.clone();
        curveball(&mut g3, Budget::Ops(500), 10);
        assert!(!g1.same_edge_set(&g3), "different seeds should diverge");
    }

    #[test]
    fn visit_rate_budget_terminates_at_target() {
        let mut rng = root_rng(13);
        let mut g = preferential_attachment(500, 5, &mut rng);
        let ran = curveball(&mut g, Budget::VisitRate(0.6), 3);
        let rate = ran.out.visit_rate();
        assert!(rate >= 0.6, "rate {rate}");
        assert!(ran.passes > 0);
    }

    #[test]
    fn star_graph_stalls_unchanged() {
        // A star is the only graph of its degree sequence, so no trade
        // changes it. Two leaves share their one neighbour (`D = ∅`); a
        // hub–leaf trade's `D` is the other leaves, one-sided, so its one
        // possible deal hands all of `D` back to the hub and visits
        // nothing. The stall guard ends the run after 3 passes of 4
        // trades. (K₅, where every `D` is empty, is in
        // `tests/driver_conformance.rs`.)
        let star = Graph::from_edges(8, (1..8u64).map(|v| Edge::new(0, v))).unwrap();
        let mut g = star.clone();
        let ran = curveball(&mut g, Budget::VisitRate(0.9), 1);
        assert!(g.same_edge_set(&star));
        assert!(ran.moved > 0, "hub–leaf trades re-deal a non-empty D");
        assert_eq!(ran.out.visit_rate(), 0.0);
        assert_eq!((ran.passes, ran.out.performed), (3, 12));
    }

    #[test]
    fn zero_budget_and_tiny_graphs_are_identity() {
        let mut rng = root_rng(14);
        let mut g = erdos_renyi_gnm(50, 100, &mut rng);
        let before = g.sorted_edges();
        let ran = curveball(&mut g, Budget::Ops(0), 1);
        assert_eq!(ran.passes, 0);
        assert_eq!(g.sorted_edges(), before);
        let mut g1 = Graph::new(1);
        let ran = curveball(&mut g1, Budget::Ops(10), 1);
        assert_eq!(ran.out.performed, 0);
        let mut g0 = Graph::new(0);
        let ran = curveball(&mut g0, Budget::VisitRate(0.5), 1);
        assert_eq!(ran.passes, 0);
    }

    #[test]
    fn randomizes_structure() {
        let mut rng = root_rng(15);
        let mut g = erdos_renyi_gnm(200, 1000, &mut rng);
        let before = g.clone();
        let ran = curveball(&mut g, Budget::VisitRate(0.95), 2);
        assert!(ran.out.visit_rate() >= 0.95);
        assert!(!g.same_edge_set(&before));
    }

    #[test]
    fn observed_run_is_bit_identical_and_reports_trade_phase() {
        let mut rng = root_rng(16);
        let base = erdos_renyi_gnm(100, 400, &mut rng);
        let mut plain = base.clone();
        curveball(&mut plain, Budget::Ops(200), 4);
        let mut observed = base.clone();
        let ran = curveball_observed(&mut observed, Budget::Ops(200), 4, ObsSpec::Spans);
        assert_eq!(plain.sorted_edges(), observed.sorted_edges());
        let report = ran.out.report.expect("observed run must report");
        let shuffle = report.phase(Phase::TradeShuffle);
        assert_eq!(shuffle.phase, "trade-shuffle");
        assert!(shuffle.hist.count > 0);
    }

    /// A checkpoint at every pass boundary, each restored into a fresh
    /// engine, ends where the uninterrupted run ends: same graph, same
    /// pool order, same counters — for both budget forms, and whether
    /// the checkpoint lists its edges in ascending key order, as this
    /// engine writes them, or in any other (a switch engine's history
    /// order, as earlier versions of this one wrote them).
    #[test]
    fn a_restored_engine_continues_bit_identically() {
        let g = preferential_attachment(300, 4, &mut root_rng(17));
        for budget in [Budget::Ops(700), Budget::VisitRate(0.8)] {
            let mut straight = CurveballResumable::new(&g, budget, 6);
            while !straight.is_done() {
                straight.step();
            }
            let want = straight.checkpoint();
            let (b, _) = straight.finish();
            for shuffled in [false, true] {
                let mut hopping = CurveballResumable::new(&g, budget, 6);
                while !hopping.is_done() {
                    let mut ckpt = hopping.checkpoint();
                    if shuffled {
                        let (edges, unvisited) = (&ckpt.graph_edges, &ckpt.visits.unvisited);
                        let mark = |i: usize| unvisited[i / 64] >> (i % 64) & 1 == 1;
                        let mut rows: Vec<(Edge, bool)> = edges
                            .iter()
                            .enumerate()
                            .map(|(i, &e)| (e, mark(i)))
                            .collect();
                        fisher_yates_shuffle(&mut rows, &mut root_rng(ckpt.ctl.pass));
                        ckpt.graph_edges = rows.iter().map(|&(e, _)| e).collect();
                        ckpt.visits.unvisited = vec![0; rows.len().div_ceil(64)];
                        for (i, _) in rows.iter().enumerate().filter(|(_, row)| row.1) {
                            ckpt.visits.unvisited[i / 64] |= 1 << (i % 64);
                        }
                    }
                    hopping =
                        CurveballResumable::restore(&g, budget, 6, &ckpt).expect("own checkpoint");
                    hopping.step();
                }
                let ctx = format!("{budget:?} shuffled={shuffled}");
                assert_eq!(hopping.checkpoint(), want, "{ctx}");
                let (a, _) = hopping.finish();
                assert!(a.edges().eq(b.edges()), "{ctx}: pool order");
            }
        }
    }

    #[test]
    fn restore_rejects_a_checkpoint_of_another_run() {
        let g = erdos_renyi_gnm(120, 500, &mut root_rng(18));
        let budget = Budget::Ops(200);
        let mut eng = CurveballResumable::new(&g, budget, 3);
        eng.step();
        let ckpt = eng.checkpoint();
        assert!(CurveballResumable::restore(&g, budget, 3, &ckpt).is_ok());
        assert!(CurveballResumable::restore(&g, budget, 4, &ckpt).is_err());
        let other_budget = Budget::VisitRate(0.5);
        assert!(CurveballResumable::restore(&g, other_budget, 3, &ckpt).is_err());
        let other = erdos_renyi_gnm(120, 500, &mut root_rng(19));
        assert!(CurveballResumable::restore(&other, budget, 3, &ckpt).is_err());
        let mut damaged = ckpt.clone();
        damaged.graph_edges.swap_remove(0);
        assert!(CurveballResumable::restore(&g, budget, 3, &damaged).is_err());
        // A stall counter at its ceiling ends the run; it never overflows.
        let full = Budget::VisitRate(1.0);
        let mut stalled = ckpt;
        stalled.ctl.budget = full;
        stalled.ctl.stall = u32::MAX;
        stalled.ctl.last_visited = eng.visited;
        let mut eng = CurveballResumable::restore(&g, full, 3, &stalled).unwrap();
        assert!(eng.is_done());
        assert_eq!(eng.step(), 0);
    }
}
