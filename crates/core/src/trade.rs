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
//! sequential engine edge-for-edge.
//!
//! **Visit-rate mapping.** A trade *re-deals* exactly the edges whose
//! far endpoint lies in the disjoint union; those initial edges are
//! recorded as visited in the [`VisitTracker`] (whether or not the
//! shuffle happens to reproduce them — they were re-randomized either
//! way). Common edges are untouched and not marked. This makes
//! [`crate::Run::visit_rate`] terminate for Curveball in the same
//! spirit as for switching: stop once the target fraction of initial
//! edges has been re-randomized.

use crate::obs::{Obs, ObsSpec, Phase, RunReport};
use crate::visit::VisitTracker;
use edgeswitch_dist::{substream_rng, Rng64};
use edgeswitch_graph::sampling::{fisher_yates_shuffle, random_matching};
use edgeswitch_graph::{Edge, Graph, VertexId};

/// Salt decorrelating every Curveball stream (matchings and per-trade
/// shuffles) from the switch protocol's root/rank/substreams derived
/// from the same master seed.
const TRADE_STREAM_SALT: u64 = 0xcb11;

/// Sentinel in [`PassPlan::tidx`]: vertex is unmatched this pass.
pub(crate) const NO_TRADE: u32 = u32::MAX;

/// Consecutive zero-progress passes before a visit-rate run concludes
/// the graph cannot mix further (stars, empty graphs).
const STALL_PASS_LIMIT: u32 = 3;

/// Work budget of a Curveball run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TradeBudget {
    /// Run whole passes until at least this many trades have executed
    /// (a pass of an `n`-vertex graph executes `⌊n/2⌋` trades).
    Trades(u64),
    /// Run whole passes until the global visit rate reaches the target
    /// (clamped to `≤ 1`), giving up after [`STALL_PASS_LIMIT`]
    /// consecutive passes without progress.
    VisitRate(f64),
}

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
    let mut split = TradeSplit {
        common: Vec::new(),
        only_a: Vec::new(),
        only_b: Vec::new(),
    };
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                split.common.push(a[i]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                split.only_a.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                split.only_b.push(b[j]);
                j += 1;
            }
        }
    }
    split.only_a.extend_from_slice(&a[i..]);
    split.only_b.extend_from_slice(&b[j..]);
    split
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

/// Whole-pass continuation policy shared by every Curveball driver.
/// Each driver feeds it the *global* visited count before each pass
/// (the parallel driver allgathers it), so all ranks and all drivers
/// stop after exactly the same pass.
pub(crate) struct PassController {
    budget: TradeBudget,
    /// Next pass index (also: passes completed).
    pub pass: u64,
    trades: u64,
    stall: u32,
    last_visited: u64,
}

impl PassController {
    pub fn new(budget: TradeBudget) -> Self {
        PassController {
            budget,
            pass: 0,
            trades: 0,
            stall: 0,
            last_visited: 0,
        }
    }

    /// The pass boundary of every driver: decide whether to run another
    /// pass of an `n`-vertex graph and, if so, draw its matching and
    /// account its trades (`None` ends the run). `initial_total` is the
    /// global initial edge count (constant — trades preserve `m`),
    /// `visited_total` the global visited count so far.
    pub fn next_plan(
        &mut self,
        n: usize,
        seed: u64,
        initial_total: u64,
        visited_total: u64,
    ) -> Option<PassPlan> {
        if !self.should_continue(n, initial_total, visited_total) {
            return None;
        }
        let plan = PassPlan::build(n, seed, self.pass);
        if plan.pairs.is_empty() {
            return None;
        }
        self.trades += plan.pairs.len() as u64;
        self.pass += 1;
        Some(plan)
    }

    fn should_continue(&mut self, n: usize, initial_total: u64, visited_total: u64) -> bool {
        if n < 2 || initial_total == 0 {
            return false;
        }
        match self.budget {
            TradeBudget::Trades(t) => self.trades < t,
            TradeBudget::VisitRate(x) => {
                let rate = visited_total as f64 / initial_total as f64;
                if rate >= x.min(1.0) {
                    return false;
                }
                if self.pass > 0 && visited_total == self.last_visited {
                    self.stall += 1;
                } else {
                    self.stall = 0;
                }
                self.last_visited = visited_total;
                self.stall < STALL_PASS_LIMIT
            }
        }
    }
}

/// Result of a sequential Curveball run.
#[derive(Clone, Debug)]
pub struct CurveballOutcome {
    /// Whole passes executed.
    pub passes: u64,
    /// Trades executed (matched pairs processed; `⌊n/2⌋` per pass).
    pub trades: u64,
    /// Neighbors reassigned — summed sizes of the shuffled disjoint
    /// unions, the scheme's unit of work.
    pub neighbors_moved: u64,
    /// Visit tracking against the initial edge set.
    pub tracker: VisitTracker,
    /// Aggregated observability report (`Some` iff the run was observed).
    pub report: Option<RunReport>,
}

impl CurveballOutcome {
    /// Observed visit rate after the run.
    pub fn visit_rate(&self) -> f64 {
        self.tracker.visit_rate()
    }
}

/// Run Curveball passes on `graph` in place until `budget` is met.
pub fn sequential_curveball(graph: &mut Graph, budget: TradeBudget, seed: u64) -> CurveballOutcome {
    sequential_curveball_observed(graph, budget, seed, ObsSpec::Off)
}

/// [`sequential_curveball`] with observation attached ([`Phase`] spans
/// on the monotonic clock). Probes only read, so the traded graph is
/// bit-identical to an unobserved run under the same seed.
pub fn sequential_curveball_observed(
    graph: &mut Graph,
    budget: TradeBudget,
    seed: u64,
    spec: ObsSpec,
) -> CurveballOutcome {
    let mut obs = if spec.enabled() {
        spec.build_mono()
    } else {
        Obs::noop()
    };
    let run_start = obs.now();
    let mut outcome = CurveballOutcome {
        passes: 0,
        trades: 0,
        neighbors_moved: 0,
        tracker: VisitTracker::new(graph.edges()),
        report: None,
    };
    let n = graph.num_vertices();
    let initial_total = outcome.tracker.initial_count() as u64;
    let mut ctl = PassController::new(budget);
    while let Some(plan) = ctl.next_plan(
        n,
        seed,
        initial_total,
        outcome.tracker.visited_count() as u64,
    ) {
        for (k, &(u, v)) in plan.pairs.iter().enumerate() {
            let mut rng = trade_rng(seed, plan.pass, k as u32);
            outcome.neighbors_moved +=
                run_trade(graph, &mut outcome.tracker, u, v, &mut rng, &mut obs) as u64;
        }
        outcome.trades += plan.pairs.len() as u64;
        outcome.passes = ctl.pass;
    }
    if obs.enabled() {
        let wall_ns = obs.now().saturating_sub(run_start);
        if let Some(rec) = obs.finish() {
            outcome.report = Some(RunReport::from_obs("monotonic", 1, wall_ns, &rec, None));
        }
    }
    outcome
}

/// Execute one trade `(u, v)` on the full graph; returns the number of
/// neighbors moved (`|D|`, the size of the re-dealt disjoint union).
///
/// All of `D` is re-dealt and all of it is recorded as visited, but only
/// the neighbors whose endpoint *changes* are written: a neighbor dealt
/// back to the endpoint it came from keeps its edge, exactly as a common
/// neighbor does. The deal shuffles the positions of `only_a ++ only_b`
/// with the draws [`redeal`] spends on the values, so position `i` of
/// the shuffled union holds entry `deal[i]` of the unshuffled one and
/// the resulting edge set is [`redeal`]'s.
fn run_trade(
    graph: &mut Graph,
    tracker: &mut VisitTracker,
    u: VertexId,
    v: VertexId,
    rng: &mut Rng64,
    obs: &mut Obs,
) -> usize {
    let shuffle_start = obs.now();
    let a: Vec<VertexId> = graph.neighbors(u).iter().filter(|&x| x != v).collect();
    let b: Vec<VertexId> = graph.neighbors(v).iter().filter(|&x| x != u).collect();
    let TradeSplit { only_a, only_b, .. } = split_sorted(&a, &b);
    let moved = only_a.len() + only_b.len();
    // D holds distinct vertices, of which there are at most 2^32.
    let mut deal: Vec<u32> = (0..moved as u32).collect();
    fisher_yates_shuffle(&mut deal, rng);
    obs.span_since(Phase::TradeShuffle, shuffle_start);
    if moved == 0 {
        return 0;
    }
    let apply_start = obs.now();
    for &x in &only_a {
        tracker.record_removal(Edge::new(u, x));
    }
    for &y in &only_b {
        tracker.record_removal(Edge::new(v, y));
    }
    for (i, &from) in deal.iter().enumerate() {
        let from = from as usize;
        let (to_u, from_u) = (i < only_a.len(), from < only_a.len());
        if to_u == from_u {
            continue;
        }
        let (x, old, new) = if from_u {
            (only_a[from], u, v)
        } else {
            (only_b[from - only_a.len()], v, u)
        };
        graph
            .remove_edge(Edge::new(old, x))
            .expect("disjoint neighbor edge exists");
        graph
            .add_edge(Edge::new(new, x))
            .expect("a disjoint neighbor is new to the other endpoint");
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

    /// One trade on both implementations from the same state and RNG
    /// stream; returns `(neighbors moved, neighbors that changed
    /// endpoint)`.
    fn trade_both_ways(
        graph: &mut Graph,
        tracker: &mut VisitTracker,
        u: VertexId,
        v: VertexId,
        stream: (u64, u64, u32),
    ) -> (usize, usize) {
        let (seed, pass, k) = stream;
        let mut ref_graph = graph.clone();
        let mut ref_tracker = tracker.clone();
        let before: Vec<Edge> = graph.edges().collect();
        let want = reference_trade(
            &mut ref_graph,
            &mut ref_tracker,
            u,
            v,
            &mut trade_rng(seed, pass, k),
        );
        let mut rng = trade_rng(seed, pass, k);
        let got = run_trade(graph, tracker, u, v, &mut rng, &mut Obs::noop());
        // Both spent the same draws.
        let mut ref_rng = trade_rng(seed, pass, k);
        fisher_yates_shuffle(&mut vec![0u8; want], &mut ref_rng);
        assert_eq!(
            edgeswitch_dist::Rng::next_u64(&mut rng),
            edgeswitch_dist::Rng::next_u64(&mut ref_rng)
        );
        let ctx = format!("trade ({u},{v}) on stream {stream:?}");
        assert_eq!(got, want, "{ctx}: neighbors moved");
        assert_eq!(graph.sorted_edges(), ref_graph.sorted_edges(), "{ctx}");
        assert_eq!(
            tracker.visited_count(),
            ref_tracker.visited_count(),
            "{ctx}"
        );
        graph.check_invariants().expect(&ctx);
        let changed = before.iter().filter(|&&e| !graph.has_edge(e)).count();
        if changed == 0 {
            // Every neighbor dealt back: not one graph write, so even
            // the pool order stands.
            assert!(graph.edges().eq(before.iter().copied()), "{ctx}");
        }
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
            let (mut adjacent, mut kept) = (0, 0);
            for k in 0..500u32 {
                let u = edgeswitch_dist::Rng::gen_range(&mut rng, 0..g.num_vertices() as u64);
                let v = edgeswitch_dist::Rng::gen_range(&mut rng, 0..g.num_vertices() as u64);
                if u == v {
                    continue;
                }
                adjacent += g.has_edge(Edge::new(u, v)) as u32;
                let (moved, changed) = trade_both_ways(&mut g, &mut tracker, u, v, (5, 0, k));
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
        // D = ∅: two leaves of one hub share their only neighbor.
        let mut g = Graph::from_edges(4, [e(0, 1), e(0, 2), e(0, 3)]).unwrap();
        let mut tracker = VisitTracker::new(g.edges());
        assert_eq!(
            trade_both_ways(&mut g, &mut tracker, 1, 2, (1, 0, 0)),
            (0, 0)
        );
        assert_eq!(tracker.visited_count(), 0);
        // Hub × leaf, adjacent: the leaf's only neighbor is the hub
        // itself, so D is the hub's other neighbors and all return.
        assert_eq!(
            trade_both_ways(&mut g, &mut tracker, 0, 1, (1, 0, 1)),
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
            let (moved, changed) = trade_both_ways(&mut g, &mut tracker, 0, 5, (2, 0, k));
            assert_eq!(moved, 5);
            assert!(changed == 0 || changed == 2, "{changed}");
            seen[changed / 2] = true;
            assert_eq!(tracker.visited_count(), 5);
        }
        assert_eq!(seen, [true, true], "both the dealt-back and the moved case");
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

    #[test]
    fn preserves_degree_sequence_and_simplicity() {
        let mut rng = root_rng(11);
        let mut g = erdos_renyi_gnm(300, 1200, &mut rng);
        let before = g.degree_sequence();
        let out = sequential_curveball(&mut g, TradeBudget::Trades(1000), 5);
        assert!(out.trades >= 1000);
        assert!(out.neighbors_moved > 0);
        assert_eq!(g.degree_sequence(), before);
        g.check_invariants().unwrap();
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r = root_rng(12);
        let base = erdos_renyi_gnm(200, 800, &mut r);
        let mut g1 = base.clone();
        let o1 = sequential_curveball(&mut g1, TradeBudget::Trades(500), 9);
        let mut g2 = base.clone();
        let o2 = sequential_curveball(&mut g2, TradeBudget::Trades(500), 9);
        assert_eq!(g1.sorted_edges(), g2.sorted_edges());
        assert_eq!(o1.neighbors_moved, o2.neighbors_moved);
        let mut g3 = base.clone();
        sequential_curveball(&mut g3, TradeBudget::Trades(500), 10);
        assert!(!g1.same_edge_set(&g3), "different seeds should diverge");
    }

    #[test]
    fn visit_rate_budget_terminates_at_target() {
        let mut rng = root_rng(13);
        let mut g = preferential_attachment(500, 5, &mut rng);
        let out = sequential_curveball(&mut g, TradeBudget::VisitRate(0.6), 3);
        assert!(out.visit_rate() >= 0.6, "rate {}", out.visit_rate());
        assert!(out.passes > 0);
    }

    #[test]
    fn star_graph_stalls_gracefully() {
        // Every trade pairs two leaves whose only neighbor (the hub) is
        // common, or hits the hub whose partner's neighborhood is a
        // subset: a few passes may move nothing and the run must stop.
        let mut g = Graph::from_edges(8, (1..8u64).map(|v| Edge::new(0, v))).unwrap();
        let before = g.degree_sequence();
        let out = sequential_curveball(&mut g, TradeBudget::VisitRate(0.9), 1);
        assert_eq!(g.degree_sequence(), before);
        assert!(out.passes < 100, "stall guard must bound the run");
    }

    #[test]
    fn zero_budget_and_tiny_graphs_are_identity() {
        let mut rng = root_rng(14);
        let mut g = erdos_renyi_gnm(50, 100, &mut rng);
        let before = g.sorted_edges();
        let out = sequential_curveball(&mut g, TradeBudget::Trades(0), 1);
        assert_eq!(out.passes, 0);
        assert_eq!(g.sorted_edges(), before);
        let mut g1 = Graph::new(1);
        let out = sequential_curveball(&mut g1, TradeBudget::Trades(10), 1);
        assert_eq!(out.trades, 0);
        let mut g0 = Graph::new(0);
        let out = sequential_curveball(&mut g0, TradeBudget::VisitRate(0.5), 1);
        assert_eq!(out.passes, 0);
    }

    #[test]
    fn randomizes_structure() {
        let mut rng = root_rng(15);
        let mut g = erdos_renyi_gnm(200, 1000, &mut rng);
        let before = g.clone();
        let out = sequential_curveball(&mut g, TradeBudget::VisitRate(0.95), 2);
        assert!(out.visit_rate() >= 0.95);
        assert!(!g.same_edge_set(&before));
    }

    #[test]
    fn observed_run_is_bit_identical_and_reports_trade_phase() {
        let mut rng = root_rng(16);
        let base = erdos_renyi_gnm(100, 400, &mut rng);
        let mut plain = base.clone();
        sequential_curveball(&mut plain, TradeBudget::Trades(200), 4);
        let mut observed = base.clone();
        let out = sequential_curveball_observed(
            &mut observed,
            TradeBudget::Trades(200),
            4,
            ObsSpec::Spans,
        );
        assert_eq!(plain.sorted_edges(), observed.sorted_edges());
        let report = out.report.expect("observed run must report");
        let shuffle = report.phase(Phase::TradeShuffle);
        assert_eq!(shuffle.phase, "trade-shuffle");
        assert!(shuffle.hist.count > 0);
    }
}
