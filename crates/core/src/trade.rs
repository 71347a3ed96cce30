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
//! **Storage.** A trade reads two sorted neighbourhoods and nothing else,
//! so the sequential engine runs on the neighbour sets alone — no edge
//! pool, whose hash index no trade would read — and builds the pool
//! once, in ascending key order, where a graph leaves it
//! ([`Graph::from_adjacency`]). The switch engines are the mirror image:
//! they run on the pool alone.
//!
//! **Visit-rate mapping.** A trade *re-deals* exactly the edges whose
//! far endpoint lies in the disjoint union; those initial edges are
//! recorded as visited in the [`VisitTracker`] (whether or not the
//! shuffle happens to reproduce them — they were re-randomized either
//! way). Common edges are untouched and not marked. This makes
//! [`crate::Run::visit_rate`] terminate for Curveball in the same
//! spirit as for switching: stop once the target fraction of initial
//! edges has been re-randomized.

use crate::config::Budget;
use crate::obs::{Obs, ObsSpec, Phase, ProgressEvent, SoloObs, StepProgress};
use crate::parallel::wire::encode_curveball_checkpoint;
use crate::run::{RunOutcome, SequentialRun, Stepped};
use crate::sequential::{restore_pool, SequentialOutcome};
use crate::visit::VisitTracker;
use edgeswitch_dist::{substream_rng, Rng64};
use edgeswitch_graph::adjacency::{ascending_edges, NeighborSet};
use edgeswitch_graph::sampling::{fisher_yates_shuffle, random_matching};
use edgeswitch_graph::{Edge, Graph, VertexId};
use std::borrow::Cow;

/// Salt decorrelating every Curveball stream (matchings and per-trade
/// shuffles) from the switch protocol's root/rank/substreams derived
/// from the same master seed.
const TRADE_STREAM_SALT: u64 = 0xcb11;

/// Sentinel in [`PassPlan::tidx`]: vertex is unmatched this pass.
pub(crate) const NO_TRADE: u32 = u32::MAX;

/// Consecutive zero-progress passes before a visit-rate run concludes
/// the graph cannot mix further (stars, empty graphs).
const STALL_PASS_LIMIT: u32 = 3;

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
}

/// The shuffle stream of trade `k` in pass `pass` (stream `0` is the
/// pass's matching draw).
pub(crate) fn trade_rng(seed: u64, pass: u64, trade: u32) -> Rng64 {
    substream_rng(seed ^ TRADE_STREAM_SALT, pass, trade as u64 + 1)
}

/// A trade's neighborhood decomposition: `a`/`b` are the sorted
/// disjoint-neighbor lists of the two endpoints (each excluding the
/// other endpoint).
#[derive(Default)]
pub(crate) struct TradeSplit {
    /// Neighbors of both endpoints (edges stay put).
    pub common: Vec<VertexId>,
    /// Neighbors of `u` only.
    pub only_a: Vec<VertexId>,
    /// Neighbors of `v` only.
    pub only_b: Vec<VertexId>,
}

/// Two-pointer intersection of two sorted ascending vertex lists.
pub(crate) fn split_sorted(a: &[VertexId], b: &[VertexId]) -> TradeSplit {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be sorted");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be sorted");
    let mut split = TradeSplit::default();
    split_into(a.iter().copied(), b.iter().copied(), &mut split);
    split
}

/// [`split_sorted`] of two ascending sequences into `split`'s buffers,
/// which it clears first.
fn split_into(
    a: impl IntoIterator<Item = VertexId>,
    b: impl IntoIterator<Item = VertexId>,
    split: &mut TradeSplit,
) {
    split.common.clear();
    split.only_a.clear();
    split.only_b.clear();
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
        match x.cmp(&y) {
            std::cmp::Ordering::Equal => {
                split.common.push(x);
                a.next();
                b.next();
            }
            std::cmp::Ordering::Less => {
                split.only_a.push(x);
                a.next();
            }
            std::cmp::Ordering::Greater => {
                split.only_b.push(y);
                b.next();
            }
        }
    }
    split.only_a.extend(a);
    split.only_b.extend(b);
}

/// Shuffle the disjoint union `only_a ++ only_b` with the per-trade RNG
/// and re-deal it: the first `|only_a|` entries become the first
/// endpoint's new disjoint neighbors, the rest the second's. The RNG
/// consumption depends only on `|only_a| + |only_b|`, so every driver
/// replays it identically.
pub(crate) fn redeal(
    only_a: &[VertexId],
    only_b: &[VertexId],
    rng: &mut Rng64,
) -> (Vec<VertexId>, Vec<VertexId>) {
    let mut d: Vec<VertexId> = Vec::with_capacity(only_a.len() + only_b.len());
    d.extend_from_slice(only_a);
    d.extend_from_slice(only_b);
    fisher_yates_shuffle(&mut d, rng);
    let new_b = d.split_off(only_a.len());
    (d, new_b)
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
    pub tracker_initial: usize,
    /// Visit marks over `graph_edges`, as [`crate::SeqCheckpoint::unvisited`].
    pub unvisited: Vec<u64>,
    pub graph_edges: Vec<Edge>,
}

/// Sequential Curveball as a pausable engine, one pass per
/// [`CurveballResumable::step`]. Like
/// [`SequentialResumable`](crate::SequentialResumable): bit-identical
/// across any split and any checkpoint/restore, and a restored engine is
/// unobserved.
///
/// A trade reads the two traders' sorted neighbourhoods and nothing
/// else, so the engine holds the neighbour sets and no edge pool: the
/// pool comes back only where a graph leaves the engine
/// ([`CurveballResumable::finish`], [`CurveballResumable::checkpoint`]),
/// in ascending key order.
pub struct CurveballResumable {
    /// `adj[v]` is `N(v)`.
    adj: Vec<NeighborSet>,
    seed: u64,
    ctl: PassController,
    neighbors_moved: u64,
    tracker: VisitTracker,
    scratch: TradeScratch,
    solo: SoloObs,
}

impl CurveballResumable {
    /// Start a run on `graph` under `budget` seeded with `seed`. A
    /// `Graph` given away sheds its pool here; a `&Graph` lent has its
    /// neighbour sets cloned and its pool never copied.
    pub fn new<'g>(graph: impl Into<Cow<'g, Graph>>, budget: Budget, seed: u64) -> Self {
        let graph = graph.into();
        let tracker = VisitTracker::new(graph.edges());
        let adj = match graph {
            Cow::Borrowed(lent) => (0..lent.num_vertices() as VertexId)
                .map(|v| lent.neighbors(v).clone())
                .collect(),
            Cow::Owned(given) => given.into_adjacency(),
        };
        CurveballResumable {
            adj,
            seed,
            ctl: PassController::new(budget),
            neighbors_moved: 0,
            tracker,
            scratch: TradeScratch::default(),
            solo: SoloObs::new(ObsSpec::Off),
        }
    }

    /// Attach observation (builder-style): [`Phase`] spans, aggregated by
    /// [`CurveballResumable::finish`]; probes only read.
    pub fn with_obs(mut self, spec: ObsSpec) -> Self {
        self.solo = SoloObs::new(spec);
        self
    }

    /// `(initial, visited)` edge counts, as the pass controller reads them.
    fn visit_totals(&self) -> (u64, u64) {
        let t = &self.tracker;
        (t.initial_count() as u64, t.visited_count() as u64)
    }

    /// Run the next pass, unless the budget is met; returns the trades
    /// it executed.
    pub fn step(&mut self) -> u64 {
        let (initial, visited) = self.visit_totals();
        let n = self.adj.len();
        let Some(plan) = self.ctl.next_plan(n, self.seed, initial, visited) else {
            return 0;
        };
        for (k, &(u, v)) in plan.pairs.iter().enumerate() {
            let mut rng = trade_rng(self.seed, plan.pass, k as u32);
            self.neighbors_moved += run_trade(
                &mut self.adj,
                &mut self.tracker,
                (u, v),
                &mut rng,
                &mut self.scratch,
                &mut self.solo.obs,
            ) as u64;
        }
        plan.pairs.len() as u64
    }

    /// Whether the budget is met (or the graph cannot mix further).
    pub fn is_done(&self) -> bool {
        let (initial, visited) = self.visit_totals();
        !self.ctl.continues(self.adj.len(), initial, visited)
    }

    /// Trades executed so far.
    pub fn performed(&self) -> u64 {
        self.ctl.trades(self.adj.len())
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
        self.tracker.visit_rate()
    }

    /// Capture the complete engine state at a pass boundary, its edges
    /// in ascending key order and its visit marks over them.
    pub(crate) fn checkpoint(&self) -> CurveballCheckpoint {
        // A trade preserves every degree, so the edge count is the initial one.
        let mut graph_edges = Vec::with_capacity(self.tracker.initial_count());
        graph_edges.extend(ascending_edges(&self.adj));
        CurveballCheckpoint {
            seed: self.seed,
            n: self.adj.len(),
            ctl: self.ctl,
            neighbors_moved: self.neighbors_moved,
            tracker_initial: self.tracker.initial_count(),
            unvisited: self.tracker.visits(graph_edges.iter().copied()).unvisited,
            graph_edges,
        }
    }

    /// Rebuild the engine of the run on `graph` under `(budget, seed)`
    /// from an untrusted checkpoint, or say why it is not one of this
    /// run (as [`SequentialResumable::restore`](crate::SequentialResumable::restore)).
    /// The edges may come in any order: the neighbour sets they build
    /// are the same.
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
        let pool = restore_pool(
            graph,
            ckpt.n,
            &ckpt.graph_edges,
            ckpt.tracker_initial,
            &ckpt.unvisited,
        )?;
        let tracker =
            VisitTracker::from_marks(ckpt.tracker_initial, &ckpt.unvisited, &ckpt.graph_edges);
        let graph = Graph::from_pool(ckpt.n, pool).expect("restore_pool checked the endpoints");
        Ok(CurveballResumable {
            adj: graph.into_adjacency(),
            seed,
            ctl: ckpt.ctl,
            neighbors_moved: ckpt.neighbors_moved,
            tracker,
            scratch: TradeScratch::default(),
            solo: SoloObs::new(ObsSpec::Off),
        })
    }

    /// Tear down into the traded graph — its pool built here, in
    /// ascending key order — and the outcome (`performed` counts trades,
    /// the tracker becomes visit marks over the graph's edges; `report`
    /// iff observed).
    pub fn finish(self) -> (Graph, SequentialOutcome) {
        let (performed, report) = (self.performed(), self.solo.report());
        let graph = Graph::from_adjacency(self.adj).expect("a trade keeps the lists symmetric");
        let outcome = SequentialOutcome {
            performed,
            abandoned: 0,
            rejects: Default::default(),
            visits: self.tracker.visits(graph.edges()),
            report,
        };
        (graph, outcome)
    }
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
            budget: self.ctl.budget_trades(self.adj.len()),
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

/// The buffers a trade reuses: a pass allocates only while they grow to
/// its largest neighbourhoods.
#[derive(Default)]
struct TradeScratch {
    split: TradeSplit,
    /// Position `i` of the shuffled `only_a ++ only_b` holds its entry
    /// `deal[i]`.
    deal: Vec<u32>,
    /// Per entry of `only_a ++ only_b`: whether the deal gives it to `u`.
    dealt_to_u: Vec<bool>,
    /// [`NeighborSet::exchange`]'s merge buffer.
    merged: Vec<u32>,
}

/// Execute trade `(u, v)` on the neighbour sets `adj`; returns the
/// number of neighbors moved (`|D|`, the size of the re-dealt disjoint
/// union).
///
/// All of `D` is re-dealt and all of it is recorded as visited, but only
/// the neighbors whose endpoint *changes* are written: a neighbor dealt
/// back to the endpoint it came from keeps its edge, exactly as a common
/// neighbor does. The deal shuffles the positions of `only_a ++ only_b`
/// with the draws [`redeal`] spends on the values, so position `i` of
/// the shuffled union holds entry `deal[i]` of the unshuffled one and
/// the resulting edge set is [`redeal`]'s. A neighbor `x` that changes
/// endpoint has its own list rewritten by one shift
/// ([`NeighborSet::replace`]); `N(u)` and `N(v)` are each rebuilt once,
/// by a linear merge of what they keep and receive
/// ([`NeighborSet::exchange`]).
fn run_trade(
    adj: &mut [NeighborSet],
    tracker: &mut VisitTracker,
    (u, v): (VertexId, VertexId),
    rng: &mut Rng64,
    scratch: &mut TradeScratch,
    obs: &mut Obs,
) -> usize {
    let TradeScratch {
        split,
        deal,
        dealt_to_u,
        merged,
    } = scratch;
    let shuffle_start = obs.stamp(Phase::TradeShuffle);
    let (nu, nv) = (&adj[u as usize], &adj[v as usize]);
    split_into(
        nu.iter().filter(|&x| x != v),
        nv.iter().filter(|&x| x != u),
        split,
    );
    let (only_a, only_b) = (&split.only_a, &split.only_b);
    let moved = only_a.len() + only_b.len();
    // D holds distinct vertices, of which there are at most 2^32.
    deal.clear();
    deal.extend(0..moved as u32);
    fisher_yates_shuffle(deal, rng);
    obs.span_since(Phase::TradeShuffle, shuffle_start);
    if moved == 0 {
        return 0;
    }
    let apply_start = obs.stamp(Phase::SwitchApply);
    for &x in only_a {
        tracker.record_removal(Edge::new(u, x));
    }
    for &y in only_b {
        tracker.record_removal(Edge::new(v, y));
    }
    dealt_to_u.clear();
    dealt_to_u.resize(moved, false);
    for (i, &from) in deal.iter().enumerate() {
        dealt_to_u[from as usize] = i < only_a.len();
    }
    let (a_dealt_u, b_dealt_u) = dealt_to_u.split_at(only_a.len());
    // As many of `only_b` go to `u` as of `only_a` go to `v`.
    let a_to_v = || {
        let dealt = only_a.iter().zip(a_dealt_u);
        dealt.filter(|(_, &to_u)| !to_u).map(|(&x, _)| x)
    };
    let b_to_u = || {
        let dealt = only_b.iter().zip(b_dealt_u);
        dealt.filter(|(_, &to_u)| to_u).map(|(&y, _)| y)
    };
    if a_to_v().next().is_some() {
        for x in a_to_v() {
            assert!(
                adj[x as usize].replace(u, v),
                "{x} is a neighbor of {u} only"
            );
        }
        for y in b_to_u() {
            assert!(
                adj[y as usize].replace(v, u),
                "{y} is a neighbor of {v} only"
            );
        }
        assert!(adj[u as usize].exchange(a_to_v(), b_to_u(), merged));
        assert!(adj[v as usize].exchange(b_to_u(), a_to_v(), merged));
    }
    obs.span_since(Phase::SwitchApply, apply_start);
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_dist::root_rng;
    use edgeswitch_graph::generators::{erdos_renyi_gnm, preferential_attachment};

    #[test]
    fn split_sorted_partitions_correctly() {
        let s = split_sorted(&[1, 3, 5, 7], &[2, 3, 6, 7, 9]);
        assert_eq!(s.common, vec![3, 7]);
        assert_eq!(s.only_a, vec![1, 5]);
        assert_eq!(s.only_b, vec![2, 6, 9]);
        let s = split_sorted(&[], &[1, 2]);
        assert_eq!(s.common, Vec::<VertexId>::new());
        assert_eq!(s.only_b, vec![1, 2]);
    }

    #[test]
    fn redeal_preserves_sizes_and_multiset() {
        let mut rng = trade_rng(7, 0, 0);
        let (na, nb) = redeal(&[1, 5, 9], &[2, 4], &mut rng);
        assert_eq!(na.len(), 3);
        assert_eq!(nb.len(), 2);
        let mut all: Vec<VertexId> = na.iter().chain(nb.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 4, 5, 9]);
    }

    /// The trade as it was first written, kept as the reference the
    /// moved-only [`run_trade`] is held to: withdraw every edge of the
    /// disjoint union, [`redeal`] the values, re-insert all of them.
    fn reference_trade(
        graph: &mut Graph,
        tracker: &mut VisitTracker,
        u: VertexId,
        v: VertexId,
        rng: &mut Rng64,
    ) -> usize {
        let a: Vec<VertexId> = graph.neighbors(u).iter().filter(|&x| x != v).collect();
        let b: Vec<VertexId> = graph.neighbors(v).iter().filter(|&x| x != u).collect();
        let split = split_sorted(&a, &b);
        let (new_a, new_b) = redeal(&split.only_a, &split.only_b, rng);
        for &x in &split.only_a {
            graph.remove_edge(Edge::new(u, x)).unwrap();
            tracker.record_removal(Edge::new(u, x));
        }
        for &y in &split.only_b {
            graph.remove_edge(Edge::new(v, y)).unwrap();
            tracker.record_removal(Edge::new(v, y));
        }
        for &z in &new_a {
            graph.add_edge(Edge::new(u, z)).unwrap();
        }
        for &z in &new_b {
            graph.add_edge(Edge::new(v, z)).unwrap();
        }
        split.only_a.len() + split.only_b.len()
    }

    /// One trade from the same state and RNG stream on both
    /// implementations: the engine's, on `graph`'s neighbour sets and
    /// `scratch`, and the reference, on the whole `Graph`; `graph`
    /// becomes the traded graph. Returns `(neighbors moved, neighbors
    /// that changed endpoint)`.
    fn trade_both_ways(
        graph: &mut Graph,
        tracker: &mut VisitTracker,
        (u, v): (VertexId, VertexId),
        stream: (u64, u64, u32),
        scratch: &mut TradeScratch,
    ) -> (usize, usize) {
        let (seed, pass, k) = stream;
        let mut ref_graph = graph.clone();
        let mut ref_tracker = tracker.clone();
        let want = reference_trade(
            &mut ref_graph,
            &mut ref_tracker,
            u,
            v,
            &mut trade_rng(seed, pass, k),
        );
        let before = std::mem::take(graph);
        let mut adj = before.clone().into_adjacency();
        let mut rng = trade_rng(seed, pass, k);
        let got = run_trade(
            &mut adj,
            tracker,
            (u, v),
            &mut rng,
            scratch,
            &mut Obs::noop(),
        );
        // Both spent the same draws.
        let mut ref_rng = trade_rng(seed, pass, k);
        fisher_yates_shuffle(&mut vec![0u8; want], &mut ref_rng);
        assert_eq!(
            edgeswitch_dist::Rng::next_u64(&mut rng),
            edgeswitch_dist::Rng::next_u64(&mut ref_rng)
        );
        let ctx = format!("trade ({u},{v}) on stream {stream:?}");
        assert_eq!(got, want, "{ctx}: neighbors moved");
        for (w, nbrs) in adj.iter().enumerate() {
            assert_eq!(nbrs, ref_graph.neighbors(w as VertexId), "{ctx}: N({w})");
        }
        assert_eq!(
            tracker.visited_count(),
            ref_tracker.visited_count(),
            "{ctx}"
        );
        *graph = Graph::from_adjacency(adj).expect(&ctx);
        graph.check_invariants().expect(&ctx);
        let changed = before.edges().filter(|&e| !graph.has_edge(e)).count();
        (got, changed)
    }

    #[test]
    fn moved_only_trade_equals_the_remove_all_reference() {
        let mut rng = root_rng(21);
        for (name, mut g) in [
            ("er", erdos_renyi_gnm(120, 900, &mut rng)),
            ("pa", preferential_attachment(150, 6, &mut rng)),
        ] {
            let mut tracker = VisitTracker::new(g.edges());
            let mut scratch = TradeScratch::default();
            let (mut adjacent, mut kept) = (0, 0);
            for k in 0..500u32 {
                let u = edgeswitch_dist::Rng::gen_range(&mut rng, 0..g.num_vertices() as u64);
                let v = edgeswitch_dist::Rng::gen_range(&mut rng, 0..g.num_vertices() as u64);
                if u == v {
                    continue;
                }
                adjacent += g.has_edge(Edge::new(u, v)) as u32;
                let (moved, changed) =
                    trade_both_ways(&mut g, &mut tracker, (u, v), (5, 0, k), &mut scratch);
                assert!(changed <= moved);
                kept += moved - changed;
            }
            // The sweep met the cases it is there for.
            assert!(adjacent > 0, "{name}: no adjacent pair traded");
            assert!(kept > 0, "{name}: every neighbor changed endpoint");
        }
    }

    #[test]
    fn moved_only_trade_on_the_edge_cases() {
        let e = Edge::new;
        let mut scratch = TradeScratch::default();
        // D = ∅: two leaves of one hub share their only neighbor.
        let mut g = Graph::from_edges(4, [e(0, 1), e(0, 2), e(0, 3)]).unwrap();
        let mut tracker = VisitTracker::new(g.edges());
        assert_eq!(
            trade_both_ways(&mut g, &mut tracker, (1, 2), (1, 0, 0), &mut scratch),
            (0, 0)
        );
        assert_eq!(tracker.visited_count(), 0);
        // Hub × leaf, adjacent: the leaf's only neighbor is the hub
        // itself, so D is the hub's other neighbors and all return.
        assert_eq!(
            trade_both_ways(&mut g, &mut tracker, (0, 1), (1, 0, 1), &mut scratch),
            (2, 0)
        );
        assert_eq!(
            tracker.visited_count(),
            2,
            "re-dealt edges count as visited"
        );
        // Hub × leaf, not adjacent: one of the hub's neighbors goes to
        // the leaf and the leaf's goes to the hub — or everything stays.
        let mut g = Graph::from_edges(7, [e(0, 1), e(0, 2), e(0, 3), e(0, 4), e(5, 6)]).unwrap();
        let mut tracker = VisitTracker::new(g.edges());
        let mut seen = [false; 2];
        for k in 0..40 {
            let (moved, changed) =
                trade_both_ways(&mut g, &mut tracker, (0, 5), (2, 0, k), &mut scratch);
            assert_eq!(moved, 5);
            assert!(changed == 0 || changed == 2, "{changed}");
            seen[changed / 2] = true;
            assert_eq!(tracker.visited_count(), 5);
        }
        assert_eq!(seen, [true, true], "both the dealt-back and the moved case");
    }

    /// (graph ∈ {ER, PA, star, two hubs sharing leaves}) × (seed) ×
    /// (budget ∈ {trades, visit rate}): the engine, which holds only
    /// neighbour sets, against the same passes of [`reference_trade`] on
    /// a whole `Graph`. After every pass every neighbourhood, the visited
    /// count and the neighbours moved agree, and the graph `finish`
    /// builds is whole with its pool in ascending key order.
    #[test]
    fn adjacency_only_engine_equals_the_graph_maintaining_reference() {
        let e = Edge::new;
        let star = Graph::from_edges(9, (1..9u64).map(|v| e(0, v))).unwrap();
        // Hubs 0 and 1 share leaves 4..10, own 2..4 and 10..12, and are
        // adjacent.
        let shared = (2..10u64).map(|x| e(0, x)).chain((4..12).map(|x| e(1, x)));
        let two_hubs = Graph::from_edges(12, shared.chain([e(0, 1), e(2, 3)])).unwrap();
        let graphs = [
            ("er", erdos_renyi_gnm(150, 700, &mut root_rng(41))),
            ("pa", preferential_attachment(200, 4, &mut root_rng(42))),
            ("star", star),
            ("two hubs", two_hubs),
        ];
        for (name, g) in &graphs {
            let n = g.num_vertices();
            for seed in [1u64, 9, 4242] {
                for budget in [Budget::Ops(3 * n as u64), Budget::VisitRate(0.95)] {
                    let row = format!("{name} seed={seed} {budget:?}");
                    let mut eng = CurveballResumable::new(g, budget, seed);
                    let mut reference = g.clone();
                    let mut tracker = VisitTracker::new(g.edges());
                    let mut ctl = PassController::new(budget);
                    let mut moved = 0u64;
                    loop {
                        let (initial, visited) = eng.visit_totals();
                        let plan = ctl.next_plan(n, seed, initial, visited);
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
                        for (w, nbrs) in eng.adj.iter().enumerate() {
                            assert_eq!(nbrs, reference.neighbors(w as VertexId), "{at}: N({w})");
                        }
                        assert_eq!(eng.tracker.visited_count(), tracker.visited_count(), "{at}");
                        assert_eq!(eng.neighbors_moved(), moved, "{at}");
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
    fn star_graph_meets_its_target_unchanged() {
        // A star is the only graph of its degree sequence, so no trade
        // changes it — yet it does not stall. Two leaves share their one
        // neighbour (`D = ∅`), but a hub–leaf trade's `D` is the other
        // leaves: one side is empty, the one possible deal hands all of
        // `D` back to the hub, and all of `D` counts as visited. The run
        // meets its target within a few passes. (A graph that really
        // stalls, K₅, is in `tests/driver_conformance.rs`.)
        let star = Graph::from_edges(8, (1..8u64).map(|v| Edge::new(0, v))).unwrap();
        let mut g = star.clone();
        let ran = curveball(&mut g, Budget::VisitRate(0.9), 1);
        assert!(g.same_edge_set(&star));
        assert!(ran.moved > 0, "hub–leaf trades re-deal a non-empty D");
        assert!(ran.out.visit_rate() >= 0.9, "{}", ran.out.visit_rate());
        assert!(ran.passes < 100, "stall guard must bound the run");
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
                        let mut rng = root_rng(ckpt.ctl.pass);
                        fisher_yates_shuffle(&mut ckpt.graph_edges, &mut rng);
                        let edges = ckpt.graph_edges.iter().copied();
                        ckpt.unvisited = hopping.tracker.visits(edges).unvisited;
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
        stalled.ctl.last_visited = eng.tracker.visited_count() as u64;
        let mut eng = CurveballResumable::restore(&g, full, 3, &stalled).unwrap();
        assert!(eng.is_done());
        assert_eq!(eng.step(), 0);
    }
}
