//! The sequential edge-switch algorithm (Algorithm 1, Section 3.3).
//!
//! Repeatedly draw two uniform random edges, flip the straight/cross
//! coin, and apply the switch unless it would create a self-loop or
//! parallel edge or is useless — in which case the operation restarts
//! with a fresh draw. `O(t log d_max)` expected for sparse graphs in the
//! paper, whose parallel-edge test searches an adjacency tree; here the
//! loop reads and writes one structure, the [`EdgePool`] (sampling and
//! the existence test are both its packed-key index), so an operation is
//! expected `O(1)`. Adjacency is not maintained while switching: the
//! engine takes the pool of the graph it is given and
//! [`SequentialResumable::finish`] builds the switched graph's adjacency
//! once, in bulk ([`Graph::from_pool`]). Visit tracking rides the pool
//! too: its index marks the initial edges not yet removed
//! ([`EdgePool::track_visits`]), so the first removal of one is counted
//! by the probe that removes it. Every access of the loop is a random
//! one, so a `Scout` replays its draws [`LOOKAHEAD`] attempts early and
//! prefetches the slots and index entries each attempt will touch.

use crate::obs::{Obs, ObsSpec, Phase, ProgressEvent, RunReport, SoloObs, StepProgress};
use crate::parallel::wire::encode_seq;
use crate::run::{RunOutcome, SequentialRun, Stepped};
use crate::switch::{flip_kind, recombine, Recombination, RejectReason, SwitchKind};
use crate::visit::{check_marks, visit_rate, Visits};
use edgeswitch_dist::Rng;
use edgeswitch_dist::{root_rng, BlockRng64};
use edgeswitch_graph::sampling::EdgePool;
use edgeswitch_graph::{Edge, Graph, GraphError, OrientedEdge};
use std::borrow::Cow;

/// Per-reason rejection counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RejectCounts {
    /// Switch would create a self-loop.
    pub self_loop: u64,
    /// Switch would leave the pair unchanged.
    pub useless: u64,
    /// Switch would create a parallel edge.
    pub parallel: u64,
}

impl RejectCounts {
    /// Total rejections (= restarts).
    pub fn total(&self) -> u64 {
        self.self_loop + self.useless + self.parallel
    }

    pub(crate) fn bump(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::SelfLoop => self.self_loop += 1,
            RejectReason::Useless => self.useless += 1,
            RejectReason::ParallelEdge => self.parallel += 1,
            RejectReason::Contended => {
                unreachable!("sequential algorithm has no contention")
            }
        }
    }
}

/// Result of a sequential run.
#[derive(Clone, Debug)]
pub struct SequentialOutcome {
    /// Switch operations successfully performed.
    pub performed: u64,
    /// Operations abandoned after exhausting the retry budget (only
    /// pathological graphs — e.g. stars — can make this nonzero).
    pub abandoned: u64,
    /// Rejection counters (each rejection restarts the operation).
    pub rejects: RejectCounts,
    /// Visit marks over the outcome graph's `edges()` order.
    pub visits: Visits,
    /// Aggregated observability report (`Some` iff the run was
    /// observed).
    pub report: Option<RunReport>,
}

impl SequentialOutcome {
    /// Observed visit rate after the run.
    pub fn visit_rate(&self) -> f64 {
        self.visits.visit_rate()
    }
}

/// Retry budget per operation before declaring the graph switch-starved.
pub(crate) const MAX_RETRIES_PER_OP: u64 = 100_000;

/// How a chunk of operations ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChunkOutcome {
    /// All `ops` operations performed.
    Ran,
    /// An operation exhausted its retry budget; the graph is
    /// switch-starved and the caller should abandon the rest.
    Starved,
}

/// How many attempts ahead of the switch loop its `Scout` draws: an
/// attempt's two pool slots are prefetched `LOOKAHEAD` attempts early,
/// its four index entries `LOOKAHEAD / 2` early.
pub const LOOKAHEAD: usize = 16;

/// One attempt's draws: the two pool slots and the straight/cross coin.
#[derive(Clone, Copy, Debug)]
struct Draw {
    i: usize,
    j: usize,
    kind: SwitchKind,
}

impl Draw {
    /// The draws the switch loop makes for one attempt on a pool of `m`
    /// edges, in its order: `sample`, `sample`, `flip_kind`.
    #[inline]
    fn next(rng: &mut BlockRng64, m: usize) -> Draw {
        Draw {
            i: rng.gen_range(0..m),
            j: rng.gen_range(0..m),
            kind: flip_kind(rng),
        }
    }

    /// Prefetch the index entries the attempt will probe or update: its
    /// two edges' and, if they recombine, the two candidates'. Reads the
    /// two slots, which the attempts before it may still change: a stale
    /// key costs one wasted prefetch.
    #[inline]
    fn prefetch_entries(self, pool: &EdgePool) {
        let a = pool.get(self.i).expect("a draw is below m");
        let b = pool.get(self.j).expect("a draw is below m");
        pool.prefetch_edge(a);
        pool.prefetch_edge(b);
        let (a, b) = (OrientedEdge::from_edge(a), OrientedEdge::from_edge(b));
        if let Recombination::Candidate { f1, f2 } = recombine(a, b, self.kind) {
            pool.prefetch_edge(f1);
            pool.prefetch_edge(f2);
        }
    }
}

/// The lookahead of [`run_ops_chunk`]: a clone of the chunk's RNG that
/// makes the switch loop's draws [`LOOKAHEAD`] attempts before the loop
/// does. Every attempt draws exactly three words (two slots, one coin)
/// and a switch keeps the edge count `m`, so the clone knows which
/// slots each coming attempt reads while the current one waits on
/// memory. The loop's own RNG stays the only one of record: the scout
/// only prefetches, so pool order, digests, snapshots and stream
/// positions are those of a loop without it.
struct Scout {
    rng: BlockRng64,
    m: usize,
    /// The draws of attempts `at .. at + LOOKAHEAD`, attempt `a` at
    /// `a % LOOKAHEAD`.
    ahead: [Draw; LOOKAHEAD],
    at: usize,
}

impl Scout {
    /// A scout for a loop about to draw from `rng` on `pool`, with the
    /// first attempts' slots, and the first half's entries, prefetched.
    fn new(pool: &EdgePool, rng: &BlockRng64) -> Scout {
        let mut rng = rng.clone();
        let m = pool.len();
        let ahead: [Draw; LOOKAHEAD] = std::array::from_fn(|_| Draw::next(&mut rng, m));
        for draw in &ahead {
            pool.prefetch_slot(draw.i);
            pool.prefetch_slot(draw.j);
        }
        for draw in &ahead[..LOOKAHEAD / 2] {
            draw.prefetch_entries(pool);
        }
        Scout {
            rng,
            m,
            ahead,
            at: 0,
        }
    }

    /// Step over the current attempt: draw attempt `at + LOOKAHEAD` and
    /// prefetch its slots, and prefetch the entries of attempt
    /// `at + LOOKAHEAD / 2`.
    #[inline]
    fn advance(&mut self, pool: &EdgePool) {
        debug_assert_eq!(pool.len(), self.m, "a switch keeps the edge count");
        let far = Draw::next(&mut self.rng, self.m);
        pool.prefetch_slot(far.i);
        pool.prefetch_slot(far.j);
        self.ahead[self.at % LOOKAHEAD] = far;
        self.ahead[(self.at + LOOKAHEAD / 2) % LOOKAHEAD].prefetch_entries(pool);
        self.at += 1;
    }
}

/// Run up to `ops` switch operations — the body of Algorithm 1, with all
/// accumulating state passed in by the caller. A visit is counted by the
/// pool itself, when `remove` takes an initial edge's mark. A [`Scout`]
/// prefetches what each attempt will touch; its work is timed as part of
/// the attempt's sampling.
///
/// Chunk boundaries consume no randomness and touch no state beyond the
/// arguments, so splitting a budget across calls is bit-identical to one
/// uninterrupted call.
fn run_ops_chunk(
    pool: &mut EdgePool,
    ops: u64,
    rng: &mut BlockRng64,
    rejects: &mut RejectCounts,
    performed: &mut u64,
    obs: &mut Obs,
) -> ChunkOutcome {
    let mut scout = Scout::new(pool, rng);
    'ops: for _ in 0..ops {
        let mut retries = 0u64;
        loop {
            let sample_start = obs.stamp(Phase::Sample);
            scout.advance(pool);
            let e1 = OrientedEdge::from_edge(pool.sample(rng).expect("m >= 2"));
            let e2 = OrientedEdge::from_edge(pool.sample(rng).expect("m >= 2"));
            let kind = flip_kind(rng);
            obs.span_since(Phase::Sample, sample_start);
            let legality_start = obs.stamp(Phase::Legality);
            let recombined = recombine(e1, e2, kind);
            let reason = match recombined {
                Recombination::Candidate { f1, f2 } => {
                    if pool.contains(f1) || pool.contains(f2) {
                        obs.span_since(Phase::Legality, legality_start);
                        RejectReason::ParallelEdge
                    } else {
                        obs.span_since(Phase::Legality, legality_start);
                        let apply_start = obs.stamp(Phase::SwitchApply);
                        let (o1, o2) = (e1.edge(), e2.edge());
                        assert!(pool.remove(o1) && pool.remove(o2), "sampled edges exist");
                        assert!(pool.insert(f1) && pool.insert(f2), "checked absent");
                        *performed += 1;
                        obs.span_since(Phase::SwitchApply, apply_start);
                        continue 'ops;
                    }
                }
                Recombination::Rejected(r) => {
                    obs.span_since(Phase::Legality, legality_start);
                    r
                }
            };
            rejects.bump(reason);
            retries += 1;
            if retries >= MAX_RETRIES_PER_OP {
                return ChunkOutcome::Starved;
            }
        }
    }
    ChunkOutcome::Ran
}

/// The persistent state of a [`SequentialResumable`] between chunks —
/// everything a resumed run needs to continue bit-identically.
///
/// Serialized by the snapshot codec in
/// [`crate::parallel::wire`]; the RNG is captured as its
/// stream position and re-derived from the seed on restore.
#[derive(Clone, Debug, PartialEq)]
pub struct SeqCheckpoint {
    /// Job seed (the RNG stream is `root_rng(seed)`).
    pub seed: u64,
    /// Vertex count of the graph under randomization.
    pub n: usize,
    /// Total operation budget.
    pub t: u64,
    /// Operations performed so far.
    pub performed: u64,
    /// Operations abandoned (nonzero only once starved, i.e. done).
    pub abandoned: u64,
    /// Rejection counters so far.
    pub rejects: RejectCounts,
    /// Visits at capture: the initial edge count, and marks over
    /// `graph_edges` — bit `i % 64` of word `i / 64` is set iff
    /// `graph_edges[i]` is an unvisited initial edge.
    pub visits: Visits,
    /// Current graph edges in pool (insertion) order — pool order is
    /// sampling order, so it is load-bearing.
    pub graph_edges: Vec<Edge>,
    /// Words served from the RNG stream at capture.
    pub rng_words: u64,
}

/// Algorithm 1 as a pausable engine: the switch loop of Section 3.3 in
/// caller-sized chunks, with a checkpoint between any two of them. This
/// is the one sequential driver — [`Run`](crate::Run) runs a whole
/// budget as a single chunk.
///
/// Chunk boundaries consume no randomness and the RNG is block-buffered
/// with a word counter ([`BlockRng64`]), so for a given `(graph, t,
/// seed)` the final graph and counters are bit-identical whether the
/// budget runs in one call, many chunks, or across a
/// checkpoint/restore — the property the job service's checkpointer
/// relies on. A fresh engine can be observed
/// ([`SequentialResumable::with_obs`]); the checkpoint never carries the
/// probe, so a restored engine is unobserved.
pub struct SequentialResumable {
    /// Vertex count of the graph under randomization.
    n: usize,
    /// Its edges — all of the graph the switch loop reads or writes —
    /// with the unvisited initial ones marked.
    pool: EdgePool,
    /// Initial edge count (`m`), what the visit rate divides by.
    initial: usize,
    seed: u64,
    t: u64,
    performed: u64,
    abandoned: u64,
    rejects: RejectCounts,
    rng: BlockRng64,
    solo: SoloObs,
}

impl SequentialResumable {
    /// Start a run of `t` operations on `graph` seeded with `seed`; the
    /// RNG stream is `root_rng(seed)` behind a block buffer.
    ///
    /// Graphs with fewer than two edges, or degenerate graphs on which
    /// no legal switch exists (e.g. a star), end early with the
    /// shortfall reported in [`SequentialOutcome::abandoned`].
    ///
    /// Only the graph's pool is switched: a `Graph` given away sheds its
    /// adjacency here, a `&Graph` lent has its pool cloned and its
    /// adjacency never copied; [`SequentialResumable::finish`] builds
    /// the switched graph's.
    pub fn new<'g>(graph: impl Into<Cow<'g, Graph>>, t: u64, seed: u64) -> Self {
        let graph = graph.into();
        let n = graph.num_vertices();
        let mut pool = match graph {
            Cow::Borrowed(lent) => lent.pool().clone(),
            Cow::Owned(given) => given.into_pool(),
        };
        pool.track_visits();
        let abandoned = if pool.len() < 2 { t } else { 0 };
        SequentialResumable {
            n,
            initial: pool.len(),
            pool,
            seed,
            t,
            performed: 0,
            abandoned,
            rejects: RejectCounts::default(),
            rng: BlockRng64::new(root_rng(seed)),
            solo: SoloObs::new(ObsSpec::Off),
        }
    }

    /// Attach observation (builder-style): phase spans are recorded
    /// against the monotonic clock and [`SequentialResumable::finish`]
    /// aggregates them into [`SequentialOutcome::report`]. Probes only
    /// read, so the switched graph is bit-identical to an unobserved run
    /// under the same seed.
    pub fn with_obs(mut self, spec: ObsSpec) -> Self {
        self.solo = SoloObs::new(spec);
        self
    }

    /// Run up to `max_ops` further operations; returns how many were
    /// performed this chunk. Starvation abandons the rest of the budget.
    pub fn step(&mut self, max_ops: u64) -> u64 {
        if self.is_done() {
            return 0;
        }
        let before = self.performed;
        let ops = max_ops.min(self.t - self.performed);
        let chunk = run_ops_chunk(
            &mut self.pool,
            ops,
            &mut self.rng,
            &mut self.rejects,
            &mut self.performed,
            &mut self.solo.obs,
        );
        if chunk == ChunkOutcome::Starved {
            // No legal switch found; the remaining budget will fare no
            // better on a graph this degenerate.
            self.abandoned = self.t - self.performed;
        }
        self.performed - before
    }

    /// Whether the budget is exhausted (performed or abandoned).
    pub fn is_done(&self) -> bool {
        self.performed + self.abandoned >= self.t
    }

    /// Capture the complete engine state at a chunk boundary.
    pub fn checkpoint(&self) -> SeqCheckpoint {
        self.capture(self.pool.iter().collect())
    }

    /// The engine state with `graph_edges` as given: the pool's edges,
    /// or none when the snapshot encoder streams them from the pool.
    fn capture(&self, graph_edges: Vec<Edge>) -> SeqCheckpoint {
        SeqCheckpoint {
            seed: self.seed,
            n: self.n,
            t: self.t,
            performed: self.performed,
            abandoned: self.abandoned,
            rejects: self.rejects,
            visits: self.visits(),
            graph_edges,
            rng_words: self.rng.words_served(),
        }
    }

    /// Rebuild the engine of the `t`-operation run on `graph` under
    /// `seed` from a checkpoint: edges reinserted in captured pool
    /// order, then the unvisited ones marked, RNG re-derived from the
    /// seed and fast-forwarded to the recorded stream position.
    ///
    /// The checkpoint is untrusted (it comes from a file): its identity
    /// fields must match `(graph, t, seed)` and its edges must realize
    /// `graph`'s degree sequence, otherwise the reason comes back as
    /// `Err` — a resume against the wrong job, or from damaged bytes,
    /// never panics and never silently diverges.
    pub fn restore(graph: &Graph, t: u64, seed: u64, ckpt: &SeqCheckpoint) -> Result<Self, String> {
        if (ckpt.seed, ckpt.t) != (seed, t) {
            return Err(format!(
                "checkpoint is of seed {} budget {}, the run is seed {seed} budget {t}",
                ckpt.seed, ckpt.t
            ));
        }
        if ckpt
            .performed
            .checked_add(ckpt.abandoned)
            .is_none_or(|done| done > t)
        {
            return Err("checkpoint progress exceeds its budget".to_string());
        }
        let pool = restore_pool(graph, ckpt.n, &ckpt.graph_edges, &ckpt.visits)?;
        let mut rng = BlockRng64::new(root_rng(seed));
        rng.jump_words(ckpt.rng_words);
        Ok(SequentialResumable {
            n: ckpt.n,
            pool,
            initial: ckpt.visits.initial,
            seed,
            t,
            performed: ckpt.performed,
            abandoned: ckpt.abandoned,
            rejects: ckpt.rejects,
            rng,
            solo: SoloObs::new(ObsSpec::Off),
        })
    }

    /// The engine's visits at rest: the marks of its pool's index as a
    /// bitmap over pool order.
    fn visits(&self) -> Visits {
        Visits {
            initial: self.initial,
            unvisited: self.pool.unvisited_bitmap(),
        }
    }

    /// Tear down into the switched graph — its adjacency built here, in
    /// bulk, from the switched pool — and the run outcome, its visit
    /// marks read off the pool in pool order, the graph's edge order;
    /// `report` is `Some` iff the engine was observed.
    pub fn finish(self) -> (Graph, SequentialOutcome) {
        let visits = self.visits();
        let report = self.solo.report();
        let graph = Graph::from_pool(self.n, self.pool)
            .expect("a switch recombines endpoints of the graph's own edges");
        (
            graph,
            SequentialOutcome {
                performed: self.performed,
                abandoned: self.abandoned,
                rejects: self.rejects,
                visits,
                report,
            },
        )
    }
}

impl Stepped for SequentialResumable {
    fn advance(&mut self, max_ops: u64) -> u64 {
        self.step(max_ops);
        0
    }

    fn progress(&self) -> StepProgress {
        StepProgress {
            performed: self.performed,
            budget: self.t,
            visit_rate: visit_rate(self.initial - self.pool.unvisited(), self.initial),
            done: self.is_done(),
            ..StepProgress::default()
        }
    }

    /// One copy of the edges: straight from the pool into the bytes.
    fn snapshot(&self) -> Vec<u8> {
        encode_seq(&self.capture(Vec::new()), self.pool.iter())
    }

    fn attach_probe(&mut self, tx: std::sync::mpsc::Sender<ProgressEvent>, every: u64) {
        self.solo.stream(tx, every);
    }

    fn finish(self: Box<Self>) -> RunOutcome {
        let (graph, outcome) = SequentialResumable::finish(*self);
        RunOutcome::Sequential(Box::new(SequentialRun { graph, outcome }))
    }
}

/// The edge pool of an untrusted sequential snapshot of a run on
/// `graph`, its unvisited edges marked, if [`check_snapshot`] passes and
/// the edges, in pool order, are distinct; otherwise why not.
pub(crate) fn restore_pool(
    graph: &Graph,
    n: usize,
    edges: &[Edge],
    visits: &Visits,
) -> Result<EdgePool, String> {
    check_snapshot(graph, n, edges, visits)?;
    let mut pool = EdgePool::with_capacity(edges.len());
    if let Some(&twice) = edges.iter().find(|&&e| !pool.insert(e)) {
        let err = GraphError::ParallelEdge(twice);
        return Err(format!("checkpoint graph is not simple: {err:?}"));
    }
    for e in visits.unvisited_edges(edges) {
        pool.mark_unvisited(e.key());
    }
    Ok(pool)
}

/// Check an untrusted checkpoint of a run on `graph` in all but the
/// distinctness of its `edges`: it tracks the graph's edges, its marks
/// fit ([`check_marks`]) and its edges realize the graph's degrees.
pub(crate) fn check_snapshot(
    graph: &Graph,
    n: usize,
    edges: &[Edge],
    visits: &Visits,
) -> Result<(), String> {
    if visits.initial != graph.num_edges() {
        return Err("checkpoint visit tracker does not fit the graph".to_string());
    }
    check_marks(graph, edges, visits)?;
    check_degrees(graph, n, &mut edges.iter().copied())
}

/// Check that `edges`, an untrusted snapshot's edge list, holds no edge
/// twice: no two neighbours of its sorted keys are equal.
pub(crate) fn check_distinct(edges: &[Edge]) -> Result<(), String> {
    let mut keys: Vec<u64> = edges.iter().map(|e| e.key()).collect();
    keys.sort_unstable();
    let twice = keys.windows(2).find(|pair| pair[0] == pair[1]);
    twice.map_or(Ok(()), |pair| {
        let err = GraphError::ParallelEdge(Edge::from_key(pair[0]));
        Err(format!("checkpoint graph is not simple: {err:?}"))
    })
}

/// Check that `edges` — the edge list of an untrusted snapshot taken on
/// `n` vertices — realizes exactly `graph`'s degree sequence. Switching
/// preserves every degree, so this holds for any genuine snapshot of a
/// run on `graph`, and a damaged edge list almost surely breaks it.
pub(crate) fn check_degrees(
    graph: &Graph,
    n: usize,
    edges: &mut dyn Iterator<Item = Edge>,
) -> Result<(), String> {
    if n != graph.num_vertices() {
        return Err(format!(
            "snapshot is of a {n}-vertex graph, the run's has {}",
            graph.num_vertices()
        ));
    }
    let mut degree = vec![0u32; n];
    for e in edges {
        if e.dst() >= n as u64 {
            return Err(format!("snapshot edge {e} is out of range"));
        }
        degree[e.src() as usize] += 1;
        degree[e.dst() as usize] += 1;
    }
    let same = (0..n).all(|v| degree[v] as usize == graph.degree(v as u64));
    if same {
        Ok(())
    } else {
        Err("snapshot edges do not realize the run's degree sequence".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{CountingClock, CALIBRATION_READS};
    use crate::parallel::wire::encode_seq_checkpoint;
    use edgeswitch_dist::root_rng;
    use edgeswitch_graph::generators::erdos_renyi_gnm;
    use edgeswitch_graph::store::{assemble_graph, build_stores};
    use edgeswitch_graph::{Edge, Partitioner};
    use std::sync::Arc;

    /// The whole budget as one chunk.
    fn switch(graph: Graph, t: u64, seed: u64) -> (Graph, SequentialOutcome) {
        let mut eng = SequentialResumable::new(graph, t, seed);
        eng.step(u64::MAX);
        assert!(eng.is_done());
        eng.finish()
    }

    #[test]
    fn preserves_degree_sequence_and_simplicity() {
        let g = erdos_renyi_gnm(300, 1200, &mut root_rng(1));
        let before = g.degree_sequence();
        let (g, out) = switch(g, 5000, 1);
        assert_eq!(out.performed, 5000);
        assert_eq!(g.degree_sequence(), before);
        assert_eq!(g.num_edges(), 1200);
        g.check_invariants().unwrap();
    }

    #[test]
    fn an_assembled_graph_switches_like_an_indexed_clone() {
        // A gathered graph's pool has no index until the engine's first
        // mutation builds it; the run must not see the difference.
        let g = erdos_renyi_gnm(300, 1200, &mut root_rng(12));
        let stores = build_stores(&g, &Partitioner::hash_division(3));
        let assembled = assemble_graph(g.num_vertices(), &stores);
        let indexed = Graph::from_edges(g.num_vertices(), assembled.edges()).unwrap();
        assert!(assembled.edges().eq(indexed.edges()));
        let mut lent = SequentialResumable::new(&assembled, 2000, 12);
        lent.step(u64::MAX);
        let (a, a_out) = lent.finish();
        let (b, b_out) = switch(assembled, 2000, 12);
        let (c, c_out) = switch(indexed, 2000, 12);
        assert_eq!(a.edge_digest(), c.edge_digest());
        assert_eq!(b.edge_digest(), c.edge_digest());
        assert!(a.edges().eq(c.edges()) && b.edges().eq(c.edges()));
        assert_eq!(a_out.visits, c_out.visits);
        assert_eq!(b_out.visits, c_out.visits);
    }

    #[test]
    fn visit_rate_grows_with_t() {
        let g = erdos_renyi_gnm(200, 800, &mut root_rng(3));
        let (_, short) = switch(g.clone(), 100, 3);
        let (_, long) = switch(g, 900, 3);
        assert!(long.visit_rate() > short.visit_rate());
    }

    #[test]
    fn visit_rate_matches_target_on_medium_graph() {
        // Section 3.1's headline experiment at reduced scale: x = 0.5.
        let g = erdos_renyi_gnm(2000, 20_000, &mut root_rng(4));
        let t = edgeswitch_dist::switch_ops_for_visit_rate(g.num_edges() as u64, 0.5);
        let (_, out) = switch(g, t, 4);
        let observed = out.visit_rate();
        assert!(
            (observed - 0.5).abs() < 0.02,
            "observed visit rate {observed} far from 0.5"
        );
    }

    #[test]
    fn star_graph_abandons_gracefully() {
        let g = Graph::from_edges(6, (1..6u64).map(|v| Edge::new(0, v))).unwrap();
        let (g, out) = switch(g, 10, 5);
        assert_eq!(out.performed, 0);
        assert_eq!(out.abandoned, 10);
        assert!(out.rejects.total() >= MAX_RETRIES_PER_OP);
        // Graph unchanged.
        assert_eq!(g.degree(0), 5);
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        assert_eq!(switch(Graph::new(0), 5, 6).1.abandoned, 5);
        let g1 = Graph::from_edges(2, vec![Edge::new(0, 1)]).unwrap();
        assert_eq!(switch(g1, 5, 6).1.abandoned, 5);
    }

    #[test]
    fn zero_ops_is_identity() {
        let g = erdos_renyi_gnm(50, 100, &mut root_rng(7));
        let before = g.sorted_edges();
        let (g, out) = switch(g, 0, 7);
        assert_eq!(out.performed, 0);
        assert_eq!(g.sorted_edges(), before);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = erdos_renyi_gnm(100, 300, &mut root_rng(8));
        let (a, _) = switch(g.clone(), 500, 8);
        let (b, _) = switch(g.clone(), 500, 8);
        let (c, _) = switch(g, 500, 9);
        assert!(a.same_edge_set(&b));
        assert!(!a.same_edge_set(&c));
    }

    #[test]
    fn randomizes_structure() {
        // Switching must actually change the edge set at full visit rate.
        let before = erdos_renyi_gnm(200, 1000, &mut root_rng(9));
        let t = edgeswitch_dist::switch_ops_for_visit_rate(1000, 1.0);
        let (g, out) = switch(before.clone(), t, 9);
        assert!(out.visit_rate() > 0.99);
        assert!(!g.same_edge_set(&before));
    }

    #[test]
    fn observed_run_reads_the_clock_for_one_span_in_64() {
        // The cost of observing, counted rather than timed: a timed span
        // reads the clock twice, an untimed one never, and each phase
        // times one stamp in 64, starting with its first.
        let clock = Arc::new(CountingClock::default());
        let g = erdos_renyi_gnm(2_000, 10_000, &mut root_rng(14));
        let mut eng = SequentialResumable::new(g, 20_000, 14);
        eng.solo.obs = ObsSpec::Spans.build(clock.clone());
        eng.step(u64::MAX);
        let (_, out) = eng.finish();
        let report = out.report.expect("observed run");
        let spans: u64 = report.phases.iter().map(|p| p.hist.count).sum();
        let attempts = out.performed + out.rejects.total();
        assert_eq!(spans, 2 * attempts + out.performed);
        // Per-phase rounding, the reads that calibrate the clock's own
        // cost, and the one that closes the wall time.
        let slack = 2 * Phase::COUNT as u64 + CALIBRATION_READS as u64 + 2;
        let bound = 2 * spans.div_ceil(64) + slack;
        assert!(
            clock.reads() <= bound,
            "{} clock reads for {spans} spans (bound {bound})",
            clock.reads()
        );
        // Timing every span reads the clock at least four times an attempt.
        assert!(bound < 4 * attempts);
    }

    #[test]
    fn restore_rejects_a_checkpoint_of_another_run() {
        let g = erdos_renyi_gnm(150, 600, &mut root_rng(12));
        let mut eng = SequentialResumable::new(g.clone(), 1000, 7);
        eng.step(333);
        let ckpt = eng.checkpoint();
        // The snapshot streams the pool into the bytes the checkpoint
        // encodes to.
        assert_eq!(Stepped::snapshot(&eng), encode_seq_checkpoint(&ckpt));
        assert!(SequentialResumable::restore(&g, 1000, 7, &ckpt).is_ok());
        assert!(SequentialResumable::restore(&g, 1000, 8, &ckpt).is_err());
        assert!(SequentialResumable::restore(&g, 999, 7, &ckpt).is_err());
        let other = erdos_renyi_gnm(150, 600, &mut root_rng(13));
        assert!(SequentialResumable::restore(&other, 1000, 7, &ckpt).is_err());
        let mut damaged = ckpt.clone();
        damaged.graph_edges.swap_remove(0);
        assert!(SequentialResumable::restore(&g, 1000, 7, &damaged).is_err());
        let mut overrun = ckpt;
        overrun.performed = u64::MAX;
        assert!(SequentialResumable::restore(&g, 1000, 7, &overrun).is_err());
    }
}
