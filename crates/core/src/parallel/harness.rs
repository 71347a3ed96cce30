//! Shared step machinery of the protocol drivers: one step loop per
//! world shape, one step boundary per randomizer.
//!
//! `run_rank_step` is one rank's step in the threaded and process
//! worlds (real collectives over `mpilite`'s `Comm`, `EndOfStep`
//! signalling); `run_world_step` drives all `p` ranks of a simulated
//! world from one loop (FIFO, or the virtual-time DES of
//! `edgeswitch-scalesim`). Both are generic over `RankMachine` — the
//! switch protocol's [`RankState`] and Curveball's trade machine
//! (`super::trade`) — and both open every step through the machine's
//! one `Schedule::open`, the only protocol-specific code in a step
//! (the schedule also says when the run is over and what a snapshot
//! records of it). The switch boundary (Section 4.5) exchanges the live
//! edge counts `|E_i|`, refreshes the probability vector `q` and draws
//! per-rank quotas with the parallel multinomial algorithm
//! (Algorithm 5); a Curveball boundary gathers the visited counts and
//! opens the next pass. A boundary runs its collectives through a
//! `Boundary`: in place over all `p` ranks of a simulated world
//! (`InPlace`), over its own `Comm` on a real rank
//! ([`MpiliteTransport`]). Either way the loop then runs conversations
//! until the step quiesces. Also here:
//!
//! - [`WorldTransport`] is the single-process form driving all `p` rank
//!   machines from one loop (FIFO simulator, DES), with cost hooks that
//!   only the DES fills in (it charges virtual time);
//! - [`MpiliteTransport`] is the per-rank form where each state machine
//!   runs on its own thread or process over one `Comm`, generic over the
//!   link under it (a thread's mailbox, a process's shm rings);
//! - `run_rank` is the one real-world rank body, for threads and for
//!   the process child alike;
//! - [`StepHarness`] owns step sizing, so no driver carries its own
//!   copy;
//! - [`StepTelemetry`] is recorded per step by every driver and
//!   surfaced on [`ParallelOutcome`].

use super::msg::{Msg, MsgKind, Outbox};
use super::rank::{RankCheckpoint, RankState, RankStats, StartResult};
use super::wire::SnapField;
use crate::config::{ParallelConfig, QuotaPolicy};
use crate::obs::{Clock, CommGauges, Obs, Phase, RankObs, RunReport};
use crate::visit::Visits;
use edgeswitch_dist::BlockRng64;
use edgeswitch_graph::sampling::EdgePool;
use edgeswitch_graph::store::assemble_edges;
use edgeswitch_graph::{Edge, Graph, GraphError, Partitioner};
use mpilite::{CollCarrier, Comm, CommStats, Link, Mailbox};
use std::collections::VecDeque;
use std::sync::Arc;

/// Tag for protocol messages (collectives use the reserved namespace).
pub(crate) const TAG_PROTO: u32 = 1;

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

/// Dense per-[`MsgKind`] message counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsgCounts {
    counts: [u64; MsgKind::COUNT],
}

impl MsgCounts {
    /// Count one message.
    pub fn record(&mut self, msg: &Msg) {
        self.counts[MsgKind::of(msg) as usize] += 1;
    }

    /// Count for one kind.
    pub fn get(&self, kind: MsgKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total messages across kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &MsgCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// `(kind, count)` pairs in slot order, for reports.
    pub fn iter(&self) -> impl Iterator<Item = (MsgKind, u64)> + '_ {
        MsgKind::ALL
            .iter()
            .map(move |&k| (k, self.counts[k as usize]))
    }

    /// Raw counter slots in [`MsgKind`] order, for serializing telemetry
    /// across the process transport.
    pub fn slots(&self) -> &[u64; MsgKind::COUNT] {
        &self.counts
    }

    /// Rebuild from raw slots produced by [`MsgCounts::slots`].
    pub fn from_slots(counts: [u64; MsgKind::COUNT]) -> Self {
        MsgCounts { counts }
    }
}

/// What happened during one step, aggregated over all ranks: counts
/// only, so two runs of one schedule — observed or not, FIFO or DES —
/// record equal rows. A step's time is in the [`RunReport`]'s
/// `StepBarrier`, `QRefresh` and `MsgWait` spans.
///
/// Drivers record one of these per step; the threaded engine records one
/// per rank per step and merges them, so the fields below are always
/// whole-world totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepTelemetry {
    /// Operations assigned this step (the summed quota).
    pub ops: u64,
    /// Switch operations initiated (`try_start` → `Started`).
    pub started: u64,
    /// Operations completed as initiator this step (under Curveball:
    /// trades executed, equal to `trades`).
    pub performed: u64,
    /// Subset of `performed` applied inline by the rank-local fast path
    /// (no conversation entry, no protocol messages); the remaining
    /// `performed - local_fastpath` switches went through the
    /// conversation protocol. Zero when the fast path is disabled.
    pub local_fastpath: u64,
    /// Operations forfeited this step (degenerate graphs only).
    pub forfeited: u64,
    /// Conversations served for other ranks (proposals + validations).
    pub served: u64,
    /// Blocked-on-contention events: a rank wanted to start an operation
    /// but every sampled edge was locked by in-flight conversations.
    pub blocked: u64,
    /// Subset of `blocked` where the rank already had at least one
    /// conversation in flight: the would-be conversation parked on a
    /// local reservation conflict while the pipeline kept moving.
    pub parked: u64,
    /// High-water mark of concurrently in-flight own conversations on
    /// any single rank (bounded by `ParallelConfig::window`).
    pub window_peak: u64,
    /// Network packets sent between distinct ranks. The threaded driver
    /// coalesces per-destination message runs into `Msg::Batch` frames,
    /// so this is ≤ `logical_msgs.total()`; the simulators deliver one
    /// logical message per packet, so there it equals
    /// `logical_msgs.total()`.
    pub packets: u64,
    /// Logical protocol messages sent between distinct ranks, by variant
    /// (self-deliveries are handled in place and not counted; batching
    /// is transparent).
    pub logical_msgs: MsgCounts,
    /// Curveball only: trades executed this pass (matched pairs whose
    /// neighborhoods were split and re-dealt). Zero on switch runs.
    pub trades: u64,
    /// Curveball only: neighbors reassigned this pass (summed sizes of
    /// the shuffled disjoint unions — the scheme's unit of work). Zero
    /// on switch runs.
    pub neighbors_moved: u64,
}

impl StepTelemetry {
    /// Merge another rank's record of the same step into this one.
    /// Counters add; the window peak combines by maximum.
    pub fn merge(&mut self, other: &StepTelemetry) {
        self.ops += other.ops;
        self.started += other.started;
        self.performed += other.performed;
        self.local_fastpath += other.local_fastpath;
        self.forfeited += other.forfeited;
        self.served += other.served;
        self.blocked += other.blocked;
        self.parked += other.parked;
        self.window_peak = self.window_peak.max(other.window_peak);
        self.packets += other.packets;
        self.logical_msgs.merge(&other.logical_msgs);
        self.trades += other.trades;
        self.neighbors_moved += other.neighbors_moved;
    }

    /// Served-versus-performed diff of `after - before` rank statistics,
    /// folded into this record.
    fn absorb_stats_delta(&mut self, before: &RankStats, after: &RankStats) {
        self.performed += after.performed - before.performed;
        self.local_fastpath += after.performed_fastpath - before.performed_fastpath;
        self.forfeited += after.forfeited - before.forfeited;
        self.served += (after.proposals_served + after.validations_served)
            - (before.proposals_served + before.validations_served);
    }
}

// ---------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------

/// Result of a parallel run (any driver).
#[derive(Debug)]
pub struct ParallelOutcome {
    /// The switched graph, reassembled from all partitions.
    pub graph: Graph,
    /// Steps executed.
    pub steps: u64,
    /// Per-rank protocol statistics (workload distribution etc.).
    pub per_rank: Vec<RankStats>,
    /// Final `|E_i|` per rank (Figure 18).
    pub final_edges: Vec<u64>,
    /// Initial `|E_i|` per rank (Figure 17), each rank's
    /// [`Visits::initial`].
    pub initial_edges: Vec<u64>,
    /// Per-rank communication counters.
    pub comm: Vec<CommStats>,
    /// Visit marks over the assembled graph's `edges()` order: the
    /// ranks' marks joined in rank order.
    pub visits: Visits,
    /// Per-step telemetry, aggregated over ranks.
    pub telemetry: Vec<StepTelemetry>,
    /// Aggregated observability report (`Some` iff the run was observed,
    /// i.e. `ParallelConfig::obs` was not `Off`).
    pub report: Option<RunReport>,
}

impl ParallelOutcome {
    /// Observed visit rate.
    pub fn visit_rate(&self) -> f64 {
        self.visits.visit_rate()
    }

    /// Total operations performed across ranks.
    pub fn performed(&self) -> u64 {
        self.per_rank.iter().map(|s| s.performed).sum()
    }

    /// Total operations forfeited (degenerate graphs only).
    pub fn forfeited(&self) -> u64 {
        self.per_rank.iter().map(|s| s.forfeited).sum()
    }

    /// Workload per rank: operations performed as initiator
    /// (Figures 19–21).
    pub fn workload(&self) -> Vec<u64> {
        self.per_rank.iter().map(|s| s.performed).collect()
    }

    /// Total logical protocol messages by variant, summed over steps
    /// (batch-transparent; contrast [`ParallelOutcome::packet_total`]).
    pub fn logical_msg_totals(&self) -> MsgCounts {
        let mut acc = MsgCounts::default();
        for step in &self.telemetry {
            acc.merge(&step.logical_msgs);
        }
        acc
    }

    /// Total blocked-on-contention events across steps.
    pub fn blocked_events(&self) -> u64 {
        self.telemetry.iter().map(|s| s.blocked).sum()
    }

    /// Total conversations parked on a local reservation conflict while
    /// the rank's pipeline had other conversations in flight.
    pub fn parked_events(&self) -> u64 {
        self.telemetry.iter().map(|s| s.parked).sum()
    }

    /// Peak concurrently in-flight own conversations on any rank.
    pub fn window_peak(&self) -> u64 {
        self.telemetry
            .iter()
            .map(|s| s.window_peak)
            .max()
            .unwrap_or(0)
    }

    /// Total network packets between distinct ranks (≤ message total
    /// under the threaded driver's coalescing).
    pub fn packet_total(&self) -> u64 {
        self.telemetry.iter().map(|s| s.packets).sum()
    }
}

/// One rank's contribution to a [`ParallelOutcome`].
#[derive(Debug)]
pub struct RankOutput {
    /// The rank whose share this is.
    pub rank: usize,
    /// The rank's final edges as packed keys ([`Edge::key`]): a switch
    /// rank's in its pool order (the index is freed at teardown),
    /// a Curveball rank's in the order it holds their tokens.
    pub keys: Vec<u64>,
    /// This partition's visits, marks over `keys`' order.
    pub visits: Visits,
    /// Protocol statistics.
    pub stats: RankStats,
    /// Communication counters.
    pub comm: CommStats,
    /// What this rank's probe recorded (`None` when unobserved).
    pub obs: Option<RankObs>,
}

/// Run-level observation context handed to [`assemble_outcome`] by an
/// observed driver: which clock the numbers live on and the end-to-end
/// duration.
#[derive(Clone, Copy, Debug)]
pub struct RunMeta {
    /// [`Clock::label`] of the run's clock.
    pub clock: &'static str,
    /// End-to-end run duration in clock-domain nanoseconds.
    pub wall_ns: u64,
}

/// Assemble the final [`ParallelOutcome`] from per-rank outputs, in
/// rank order — the one gather/merge path shared by every driver. The
/// graph appends the ranks' key lists in that order ([`assemble_edges`],
/// which hashes none of them) and the visit marks join in it, so bit
/// `i` marks the graph's edge `i`. `meta` is `Some` iff
/// the run was observed; the per-rank probe recordings and comm-layer
/// gauges are then merged into a [`RunReport`].
///
/// Errors with the [`GraphError`] of [`assemble_edges`] — an edge
/// repeated or with an endpoint `>= n`, named — if the ranks' key lists
/// are not a partition of one `n`-vertex graph: a world whose ranks ran
/// in this process does not fail so, a launcher gathering other
/// processes' lists may.
pub fn assemble_outcome(
    n: usize,
    steps: u64,
    outputs: Vec<RankOutput>,
    telemetry: Vec<StepTelemetry>,
    meta: Option<RunMeta>,
) -> Result<ParallelOutcome, GraphError> {
    let p = outputs.len();
    let mut per_rank = Vec::with_capacity(p);
    let mut comm = Vec::with_capacity(p);
    let mut final_edges = Vec::with_capacity(p);
    let mut final_keys = Vec::with_capacity(p);
    let mut visits = Vec::with_capacity(p);
    let mut merged_obs = RankObs::default();
    for out in outputs {
        per_rank.push(out.stats);
        comm.push(out.comm);
        final_edges.push(out.keys.len() as u64);
        visits.push((out.visits, out.keys.len()));
        final_keys.push(out.keys);
        if let Some(obs) = &out.obs {
            merged_obs.merge(obs);
        }
    }
    let report = meta.map(|m| {
        let gauges = CommGauges {
            queue_peaks: comm.iter().map(|c| c.recv_queue_peak).collect(),
            parks: comm.iter().map(|c| c.parks).sum(),
            park_ns: comm.iter().map(|c| c.park_ns).sum(),
            park_ns_max: comm.iter().map(|c| c.park_ns).max().unwrap_or(0),
        };
        RunReport::from_obs(m.clock, p as u64, m.wall_ns, &merged_obs, Some(&gauges))
    });
    // Each rank's list is freed as soon as the pool has taken it.
    let edges = final_keys
        .into_iter()
        .flat_map(|keys| keys.into_iter().map(Edge::from_key));
    Ok(ParallelOutcome {
        graph: assemble_edges(n, edges)?,
        steps,
        per_rank,
        final_edges,
        initial_edges: visits.iter().map(|(v, _)| v.initial as u64).collect(),
        comm,
        visits: Visits::joined(visits),
        telemetry,
        report,
    })
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

/// Transport of a single-process world driving all `p` rank machines
/// from one loop: messages between distinct ranks pass through here.
/// Its cost hooks default to no-ops; only the DES transport charges
/// time.
pub trait WorldTransport {
    /// A rank initiated one of its own switch operations.
    fn on_op_started(&mut self, _rank: usize) {}
    /// A rank handled one of its own messages in place.
    fn on_self_delivery(&mut self, _rank: usize) {}
    /// Queue `msg` from `src` for delivery to `dst` (`src != dst`).
    fn deliver(&mut self, src: usize, dst: usize, msg: Msg);
    /// Next `(dst, src, msg)` to hand to a state machine, if any.
    fn pop_any(&mut self) -> Option<(usize, usize, Msg)>;
    /// Whether any message is still in flight.
    fn is_empty(&self) -> bool;
    /// A step boundary begins: `step_ops` operations over `p` ranks.
    fn begin_step(&mut self, _step_ops: u64, _p: usize) {}
    /// A step ended: record its step spans into `obs`, the timing rank's
    /// probe. `spans` are the boundary's own monotonic measurements; a
    /// transport that owns the timeline records its own instead (the
    /// DES, in virtual time).
    fn end_step(&mut self, obs: &mut Obs, spans: Vec<(Phase, u64)>) {
        spans
            .into_iter()
            .for_each(|(phase, ns)| obs.span(phase, ns));
    }
    /// The clock probes should read, if this transport owns the
    /// timeline (the DES returns its virtual clock; others return `None`
    /// and observed runs fall back to the monotonic clock).
    fn obs_clock(&mut self) -> Option<Arc<dyn Clock>> {
        None
    }
}

/// Deterministic global-FIFO transport: the queue *is* the network.
/// Causal order (a message is delivered after everything queued before
/// it) with no notion of time — the simulator's transport.
#[derive(Debug, Default)]
pub struct FifoTransport {
    queue: VecDeque<(usize, usize, Msg)>,
}

impl FifoTransport {
    /// Empty transport.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WorldTransport for FifoTransport {
    fn deliver(&mut self, src: usize, dst: usize, msg: Msg) {
        self.queue.push_back((dst, src, msg));
    }
    fn pop_any(&mut self) -> Option<(usize, usize, Msg)> {
        self.queue.pop_front()
    }
    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// One rank's transport in a real world, threads or processes: a thin
/// shim over the rank's [`Comm`], whatever [`Link`] moves its packets (a
/// thread's [`mpilite::Mailbox`], a process's shm rings). Collectives are
/// real collectives and sends are real sends; there are no cost hooks,
/// because time is real here. Incoming [`Msg::Batch`] frames are
/// unpacked here, so the step loop only ever sees logical protocol
/// messages.
pub struct MpiliteTransport<'a, L = Mailbox<Msg>> {
    comm: &'a mut Comm<Msg, L>,
    /// Logical messages unpacked from a batch frame, awaiting delivery.
    inbox: VecDeque<(usize, Msg)>,
}

impl<'a, L: Link<Msg>> MpiliteTransport<'a, L> {
    /// Wrap a rank's communicator.
    pub fn new(comm: &'a mut Comm<Msg, L>) -> Self {
        MpiliteTransport {
            comm,
            inbox: VecDeque::new(),
        }
    }

    /// The endpoint's traffic counters so far.
    pub fn stats(&self) -> CommStats {
        self.comm.stats()
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of ranks `p`.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// Send a protocol message to another rank.
    pub fn send(&mut self, dst: usize, msg: Msg) {
        self.comm.send(dst, TAG_PROTO, msg);
    }

    /// Non-blocking receive of the next protocol message `(src, msg)`.
    pub fn try_recv(&mut self) -> Option<(usize, Msg)> {
        if let Some(x) = self.inbox.pop_front() {
            return Some(x);
        }
        let p = self.comm.try_recv_tag(TAG_PROTO)?;
        Some(self.unpack(p.src, p.payload))
    }

    /// Blocking receive of the next protocol message `(src, msg)`.
    pub fn recv_block(&mut self) -> (usize, Msg) {
        if let Some(x) = self.inbox.pop_front() {
            return x;
        }
        let p = self.comm.recv_tag(TAG_PROTO);
        self.unpack(p.src, p.payload)
    }

    /// Unpack one packet received from `src`: a batch queues its tail
    /// behind its first message, which comes back; a bare message passes
    /// through.
    fn unpack(&mut self, src: usize, packet: Msg) -> (usize, Msg) {
        match packet {
            Msg::Batch(msgs) => {
                let mut it = msgs.into_iter();
                let first = it.next().expect("batch frames are never empty");
                self.inbox.extend(it.map(|m| (src, m)));
                (src, first)
            }
            m => (src, m),
        }
    }
}

// ---------------------------------------------------------------------
// Send coalescing (threaded and process worlds)
// ---------------------------------------------------------------------

/// Largest batch the switch protocol's coalescer holds for one
/// destination: the push that fills it sends it at once. A peer waiting
/// in `recv_block` for a reply gets it after at most three more messages
/// to it, not at the end of a sweep that may run a window of inline
/// switches first (DESIGN §4b, "Message coalescing": 2 and 8 read slower
/// on `thr-switch-pa250k-p2`).
const BATCH_CAP: usize = 4;

/// Per-destination send coalescing: messages accumulate during one
/// event-loop iteration and leave as one packet per destination —
/// [`Msg::Batch`] framing when a destination gets more than one — at
/// the end-of-sweep [`Coalescer::flush`], or as soon as a destination's
/// batch reaches the cap. Either way each destination's messages leave
/// in the order they were pushed.
struct Coalescer {
    batches: Vec<Vec<Msg>>,
    /// Destinations with a non-empty batch, in first-touch order.
    dirty: Vec<usize>,
    /// Batch length that sends a batch at once: [`BATCH_CAP`], or
    /// unbounded for a machine whose packets leave only at its flush
    /// points ([`RankMachine::SEALS`]).
    cap: usize,
}

impl Coalescer {
    fn new(p: usize, cap: usize) -> Self {
        Coalescer {
            batches: vec![Vec::new(); p],
            dirty: Vec::with_capacity(p),
            cap,
        }
    }

    /// Queue `msg` for `dst`; returns packets sent (1 if that filled the
    /// batch to the cap, else 0).
    fn push<L: Link<Msg>>(
        &mut self,
        dst: usize,
        msg: Msg,
        transport: &mut MpiliteTransport<'_, L>,
    ) -> u64 {
        if self.batches[dst].is_empty() {
            self.dirty.push(dst);
        }
        self.batches[dst].push(msg);
        if self.batches[dst].len() < self.cap {
            return 0;
        }
        self.dirty.retain(|&d| d != dst);
        send_batch(&mut self.batches[dst], dst, transport);
        1
    }

    /// Send every pending batch as one packet; returns packets sent.
    fn flush<L: Link<Msg>>(&mut self, transport: &mut MpiliteTransport<'_, L>) -> u64 {
        let packets = self.dirty.len() as u64;
        for dst in self.dirty.drain(..) {
            send_batch(&mut self.batches[dst], dst, transport);
        }
        packets
    }
}

/// Send the non-empty `batch` to `dst` as one packet, leaving it empty.
fn send_batch<L: Link<Msg>>(
    batch: &mut Vec<Msg>,
    dst: usize,
    transport: &mut MpiliteTransport<'_, L>,
) {
    if batch.len() == 1 {
        // A lone message leaves unframed, and the batch keeps its buffer.
        transport.send(dst, batch.pop().expect("dirty batch is non-empty"));
    } else {
        transport.send(dst, Msg::Batch(std::mem::take(batch)));
    }
}

// ---------------------------------------------------------------------
// Step harness
// ---------------------------------------------------------------------

/// Step sizing and per-step sampling policy of one run — the driver-
/// independent core of Section 4.5.
#[derive(Clone, Copy, Debug)]
pub struct StepHarness {
    t: u64,
    s: u64,
    steps: u64,
    uniform_q: bool,
}

impl StepHarness {
    /// Resolve the step structure of a `t`-operation run under `config`.
    pub fn new(t: u64, config: &ParallelConfig) -> Self {
        let s = config.step_size.resolve(t);
        StepHarness {
            t,
            s,
            steps: t.div_ceil(s.max(1)),
            uniform_q: config.quota_policy == QuotaPolicy::Uniform,
        }
    }

    /// Number of steps in the run.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Operations assigned to step `step` (the last step takes the
    /// remainder).
    pub fn step_ops(&self, step: u64) -> u64 {
        if step == self.steps - 1 {
            self.t - self.s * (self.steps - 1)
        } else {
            self.s
        }
    }

    /// Whether the uniform quota ablation is active.
    pub fn uniform_q(&self) -> bool {
        self.uniform_q
    }
}

/// Driver-independent `q` refresh: `q_i = |E_i| / |E|` from live edge
/// counts, falling back to uniform when they are all zero or `uniform`
/// (the [`QuotaPolicy::Uniform`] ablation) is forced.
pub fn probability_vector(counts: &[u64], uniform: bool) -> Vec<f64> {
    let p = counts.len();
    let total: u64 = counts.iter().sum();
    if total == 0 || uniform {
        vec![1.0 / p as f64; p]
    } else {
        counts.iter().map(|&c| c as f64 / total as f64).collect()
    }
}

/// The switch protocol's schedule: `t` operations in `steps()`
/// Section-4.5 steps, each opened by allgathering the live `|E_i|`,
/// refreshing `q` and drawing the held ranks' quotas (Algorithm 5). A
/// snapshot records `t`; the step index is all it carries.
impl Schedule<RankState> for StepHarness {
    type Snap = u64;

    fn open<B: Boundary>(
        &mut self,
        step: u64,
        b: &mut B,
        states: &mut [RankState],
        _: &mut Outbox,
    ) -> Option<Opened> {
        if step >= self.steps {
            return None;
        }
        let step_ops = self.step_ops(step);
        b.begin_step(step_ops);
        // World-level spans are timed on the first held rank's probe, so
        // a p-rank world does not count one shared boundary p times.
        let barrier_start = states[0].obs_mut().now();
        let counts = b.allgather(states.iter().map(|st| st.edge_count()));
        let barrier_end = states[0].obs_mut().now();
        let q = probability_vector(&counts, self.uniform_q());
        let quotas = b.quotas(step_ops, &q, states.iter_mut().map(|st| st.rng_mut()));
        let qrefresh_end = states[0].obs_mut().now();
        for (st, &qi) in states.iter_mut().zip(&quotas) {
            st.begin_step(qi, &q);
        }
        let barrier = barrier_end.saturating_sub(barrier_start);
        let qrefresh = qrefresh_end.saturating_sub(barrier_end);
        Some(Opened {
            tel: StepTelemetry {
                ops: quotas.iter().sum(),
                ..StepTelemetry::default()
            },
            spans: vec![(Phase::StepBarrier, barrier), (Phase::QRefresh, qrefresh)],
        })
    }

    fn is_done(&self, step: u64, _: &[RankState]) -> bool {
        step >= self.steps
    }

    fn steps(&self, _: u64) -> u64 {
        self.steps
    }

    fn budget(&self) -> u64 {
        self.t
    }

    fn snap(&self) -> u64 {
        self.t
    }

    fn resume(self, step: u64, &t: &u64) -> Result<Self, String> {
        if t != self.t || step > self.steps {
            let (budget, steps) = (self.t, self.steps);
            let run = format!("the run is of budget {budget} in {steps} steps");
            return Err(format!("snapshot is of budget {t} at step {step}; {run}"));
        }
        Ok(self)
    }
}

// ---------------------------------------------------------------------
// Step boundaries
// ---------------------------------------------------------------------

/// The collectives of a step boundary over the ranks a caller holds: all
/// `p` of a simulated world ([`InPlace`]), or a real rank's own one
/// ([`MpiliteTransport`]). [`Schedule::open`] opens every world's steps
/// through it, so each randomizer's boundary is written once.
pub(crate) trait Boundary {
    /// Allgather: the held ranks' values `mine`, in rank order, in; all
    /// `p` ranks' values out.
    fn allgather(&mut self, mine: impl Iterator<Item = u64>) -> Vec<u64>;
    /// Algorithm 5: the held ranks' quotas of `ops` operations under
    /// `q`, one row per held rank, each drawn from that rank's stream.
    fn quotas<'r>(
        &mut self,
        ops: u64,
        q: &[f64],
        rngs: impl Iterator<Item = &'r mut BlockRng64>,
    ) -> Vec<u64>;
    /// A step of `ops` operations opens (the DES charges its boundary).
    fn begin_step(&mut self, _ops: u64) {}
    /// Held rank `i` opened its step: route what that queued in `out`.
    fn opened<S: RankMachine>(
        &mut self,
        _states: &mut [S],
        _i: usize,
        _out: &mut Outbox,
        _tel: &mut StepTelemetry,
    ) {
    }
}

/// A real rank's boundary: real collectives over its `Comm`. What the
/// rank sends while opening stays in the outbox, which the rank loop
/// drains like any reply.
impl<L: Link<Msg>> Boundary for MpiliteTransport<'_, L> {
    fn allgather(&mut self, mut mine: impl Iterator<Item = u64>) -> Vec<u64> {
        debug_assert!(self.inbox.is_empty(), "protocol traffic across step end");
        self.comm
            .allgather_u64(mine.next().expect("a real rank holds itself"))
    }

    fn quotas<'r>(
        &mut self,
        ops: u64,
        q: &[f64],
        rngs: impl Iterator<Item = &'r mut BlockRng64>,
    ) -> Vec<u64> {
        rngs.map(|rng| edgeswitch_dist::parallel_multinomial_owned(self.comm, ops, q, rng))
            .collect()
    }
}

/// A simulated world's boundary: the collectives run in place over all
/// `p` rank machines, and what a rank sends while opening goes through
/// the world's transport at once.
pub(crate) struct InPlace<'a, T> {
    pub transport: &'a mut T,
    pub comm_stats: &'a mut [CommStats],
}

impl<T: WorldTransport> InPlace<'_, T> {
    /// Route rank `src`'s outbox: self-addressed messages re-enter the
    /// state machine in place; the rest are counted (traffic stats +
    /// per-variant telemetry) and delivered.
    fn route<S: RankMachine>(
        &mut self,
        states: &mut [S],
        src: usize,
        out: &mut Outbox,
        tel: &mut StepTelemetry,
    ) {
        while let Some((dst, msg)) = out.pop() {
            if dst == src {
                self.transport.on_self_delivery(src);
                states[src].handle(src, msg, out, tel);
            } else {
                let stats = &mut self.comm_stats[src];
                stats.packets_sent += 1;
                stats.bytes_sent += msg.wire_size() as u64;
                msg.record_kinds(&mut stats.logical_by_kind);
                self.comm_stats[dst].packets_received += 1;
                tel.logical_msgs.record(&msg);
                // The simulators deliver one logical message per packet
                // (no coalescing — it would reorder the deterministic
                // schedule).
                tel.packets += 1;
                self.transport.deliver(src, dst, msg);
            }
        }
    }
}

impl<T: WorldTransport> Boundary for InPlace<'_, T> {
    fn allgather(&mut self, mine: impl Iterator<Item = u64>) -> Vec<u64> {
        mine.collect()
    }

    fn quotas<'r>(
        &mut self,
        ops: u64,
        q: &[f64],
        rngs: impl Iterator<Item = &'r mut BlockRng64>,
    ) -> Vec<u64> {
        edgeswitch_dist::multinomial_owned_world(ops, q, rngs)
    }

    fn begin_step(&mut self, ops: u64) {
        self.transport.begin_step(ops, self.comm_stats.len());
    }

    fn opened<S: RankMachine>(
        &mut self,
        states: &mut [S],
        i: usize,
        out: &mut Outbox,
        tel: &mut StepTelemetry,
    ) {
        self.route(states, i, out, tel);
    }
}

// ---------------------------------------------------------------------
// Rank machines
// ---------------------------------------------------------------------

/// One rank's protocol state machine as the step loops drive it. The
/// switch protocol's [`RankState`] and Curveball's trade machine
/// (`super::trade`) implement it, so [`run_rank_step`] and
/// [`run_world_step`] each run both randomizers, statically dispatched,
/// and one set-up per world type builds either.
pub(crate) trait RankMachine: Sized {
    /// The run's step boundaries and what crosses them.
    type Schedule: Schedule<Self>;
    /// Whether the machine marks flush points in its outbox
    /// ([`Outbox::seal`]). The switch protocol does not, and its drain
    /// loop compiles without the check.
    const SEALS: bool = false;
    /// Rank `rank` of a fresh run of `schedule` under `config`: its
    /// share of the edges, unindexed or not, and its probe.
    fn build(
        rank: usize,
        part: &Partitioner,
        store: EdgePool,
        config: &ParallelConfig,
        schedule: &Self::Schedule,
        obs: Obs,
    ) -> Self;
    /// The rank a checkpoint of a run of `schedule` under `config`
    /// captured, unobserved.
    fn rebuild(
        ckpt: &RankCheckpoint,
        part: &Partitioner,
        config: &ParallelConfig,
        schedule: &Self::Schedule,
    ) -> Self;
    /// Feed one message from `src` in; sends go to `out`, counts to `tel`.
    fn handle(&mut self, src: usize, msg: Msg, out: &mut Outbox, tel: &mut StepTelemetry);
    /// Try to begin the next own operation.
    fn try_start(&mut self, out: &mut Outbox) -> StartResult;
    /// Whether the rank's own work of the step is finished (it may still
    /// be serving others).
    fn step_done(&self) -> bool;
    /// Own conversations currently in flight.
    fn inflight_len(&self) -> usize;
    /// Bound on concurrently in-flight own conversations (≥ 1).
    fn window(&self) -> usize;
    /// The rank's probe, for the step-level spans the loops record.
    fn obs_mut(&mut self) -> &mut Obs;
    /// Statistics so far; the loops diff them into [`StepTelemetry`].
    fn stats(&self) -> &RankStats;
    /// `(initial, visited)` counts of the rank's initial edges.
    fn visits(&self) -> (usize, usize);
    /// The rank's persistent state at a step boundary.
    fn checkpoint(&self) -> RankCheckpoint;
    /// Tear down into the rank's share of the outcome.
    fn into_output(self, comm: CommStats) -> RankOutput;
}

/// A run's step schedule — [`StepHarness`] for switches, the passes of
/// `super::trade` for Curveball: the one protocol-specific part of
/// stepping, snapshotting and resuming a world. Every world opens its
/// steps through it; a real world's ranks each hold a copy.
pub(crate) trait Schedule<S>: Sized + Clone + Sync {
    /// What a snapshot records: the budget (a resume under another is
    /// refused) and whatever crosses a boundary besides the step index.
    type Snap: SnapField;
    /// Open step `step` on the held ranks `states` — all `p` of a
    /// simulated world, a real rank's own one — with `b`'s collectives,
    /// queueing into `out` what opening sends; `None` when the run is
    /// over. The boundary's spans are timed on `states[0]`'s probe.
    fn open<B: Boundary>(
        &mut self,
        step: u64,
        b: &mut B,
        states: &mut [S],
        out: &mut Outbox,
    ) -> Option<Opened>;
    /// Whether a simulated world is over before step `step` — a pure
    /// query.
    fn is_done(&self, step: u64, states: &[S]) -> bool;
    /// Steps of the run, as of step `step`.
    fn steps(&self, step: u64) -> u64;
    /// The run's operation budget.
    fn budget(&self) -> u64;
    /// The snapshot record of this schedule.
    fn snap(&self) -> Self::Snap;
    /// This schedule at step `step` of a snapshot, or why it is not ours.
    fn resume(self, step: u64, snap: &Self::Snap) -> Result<Self, String>;
}

/// A step a boundary opened: the step's telemetry so far, and the
/// boundary phases it timed on the monotonic clock — recorded into the
/// timing rank's probe, in a simulated world by its transport's
/// [`WorldTransport::end_step`].
pub(crate) struct Opened {
    pub tel: StepTelemetry,
    pub spans: Vec<(Phase, u64)>,
}

// ---------------------------------------------------------------------
// Per-rank step loop (threaded and process worlds)
// ---------------------------------------------------------------------

/// One rank's whole run, the rank body of the threaded and the process
/// world alike: [`run_rank_step`] until `schedule` ends the run, then
/// the teardown into the rank's output next to its per-step telemetry.
/// The outbox and the send coalescer live for the whole run.
pub(crate) fn run_rank<L: Link<Msg>, S: RankMachine>(
    transport: &mut MpiliteTransport<'_, L>,
    mut state: S,
    mut schedule: S::Schedule,
) -> (RankOutput, Vec<StepTelemetry>) {
    let cap = if S::SEALS { usize::MAX } else { BATCH_CAP };
    let (mut outbox, mut coalescer) = (Outbox::new(), Coalescer::new(transport.size(), cap));
    let telemetry = (0..)
        .map_while(|step| {
            run_rank_step(
                transport,
                &mut state,
                &mut schedule,
                step,
                &mut outbox,
                &mut coalescer,
            )
        })
        .collect();
    (state.into_output(transport.stats()), telemetry)
}

/// One rank's step: open step `step` of `schedule` (or learn the run is
/// over), then start/serve until every rank has signalled `EndOfStep`.
/// Returns this rank's telemetry for the step.
///
/// Each event-loop iteration drains every delivered message, fills the
/// conversation window (up to `window` own conversations in flight),
/// then flushes the send coalescer — one packet per touched destination
/// — before parking on the next message. The switch protocol's batches
/// also leave mid-sweep, as soon as one reaches [`BATCH_CAP`] messages,
/// so a peer waiting on a reply is not held up by the rest of the sweep.
/// The coalescer is always flushed before a blocking receive, so no reply
/// a peer is waiting on can be stranded in a batch.
fn run_rank_step<L: Link<Msg>, S: RankMachine>(
    transport: &mut MpiliteTransport<'_, L>,
    state: &mut S,
    schedule: &mut S::Schedule,
    step: u64,
    outbox: &mut Outbox,
    coalescer: &mut Coalescer,
) -> Option<StepTelemetry> {
    let p = transport.size();
    debug_assert!(
        outbox.is_empty() && coalescer.dirty.is_empty(),
        "buffers must be drained between steps"
    );
    let before = *state.stats();
    let Opened { mut tel, spans } =
        schedule.open(step, transport, std::slice::from_mut(state), outbox)?;
    for (phase, ns) in spans {
        state.obs_mut().span(phase, ns);
    }
    // What opening the step sent (a pass's loads) leaves like any reply.
    drain_outbox(transport, state, outbox, coalescer, &mut tel);
    let mut eos = 0usize;
    let mut signaled = false;
    loop {
        // (a) Drain everything already delivered.
        while let Some((src, msg)) = transport.try_recv() {
            dispatch(
                transport, state, src, msg, outbox, coalescer, &mut eos, &mut tel,
            );
        }
        // (b) Fill the conversation window: at most `window` starts per
        // iteration, so a run of synchronously-completing self-partner
        // switches cannot starve the peers waiting in (a) for service.
        let mut starts = 0;
        loop {
            match state.try_start(outbox) {
                StartResult::Started => {
                    tel.started += 1;
                    starts += 1;
                    drain_outbox(transport, state, outbox, coalescer, &mut tel);
                    if starts >= state.window() {
                        break;
                    }
                }
                StartResult::Blocked => {
                    tel.blocked += 1;
                    if state.inflight_len() > 0 {
                        tel.parked += 1;
                    }
                    break;
                }
                StartResult::Idle => break,
            }
        }
        tel.window_peak = tel.window_peak.max(state.inflight_len() as u64);
        // (c) Own work finished and every conversation settled: tell the
        // other ranks (once), but keep serving until they all say so.
        if !signaled && state.step_done() {
            for dst in 0..p {
                if dst != transport.rank() {
                    tel.logical_msgs.record(&Msg::EndOfStep);
                    tel.packets += coalescer.push(dst, Msg::EndOfStep, transport);
                }
            }
            eos += 1; // count self
            signaled = true;
        }
        // (d) One packet per touched destination.
        tel.packets += coalescer.flush(transport);
        // (e) Quiesce, or park until the next message.
        if signaled && eos == p {
            break;
        }
        if starts >= state.window() {
            // The start cap ended (b): synchronous self-partner
            // completions may have freed window slots, so sweep again
            // instead of parking (if the window is genuinely full, the
            // next sweep starts nothing and parks here).
            continue;
        }
        let wait_start = state.obs_mut().now();
        let (src, msg) = transport.recv_block();
        let waited = state.obs_mut().now().saturating_sub(wait_start);
        state.obs_mut().span(Phase::MsgWait, waited);
        dispatch(
            transport, state, src, msg, outbox, coalescer, &mut eos, &mut tel,
        );
    }
    debug_assert!(state.step_done());
    tel.absorb_stats_delta(&before, state.stats());
    Some(tel)
}

/// Handle one incoming message; replies accumulate in the coalescer.
#[allow(clippy::too_many_arguments)]
fn dispatch<L: Link<Msg>, S: RankMachine>(
    transport: &mut MpiliteTransport<'_, L>,
    state: &mut S,
    src: usize,
    msg: Msg,
    outbox: &mut Outbox,
    coalescer: &mut Coalescer,
    eos: &mut usize,
    tel: &mut StepTelemetry,
) {
    match msg {
        Msg::EndOfStep => *eos += 1,
        Msg::Coll(_) => unreachable!("tag-filtered receive cannot yield collective traffic"),
        Msg::Batch(_) => unreachable!("the transport unpacks batch frames"),
        m => {
            state.handle(src, m, outbox, tel);
            drain_outbox(transport, state, outbox, coalescer, tel);
        }
    }
}

/// Move queued messages out of the outbox: self-addressed ones re-enter
/// the state machine immediately; the rest accumulate per destination in
/// the coalescer until the event loop flushes it, the machine's next
/// flush point ([`Outbox::seal`]) does, or (switch protocol) the batch
/// reaches [`BATCH_CAP`].
fn drain_outbox<L: Link<Msg>, S: RankMachine>(
    transport: &mut MpiliteTransport<'_, L>,
    state: &mut S,
    outbox: &mut Outbox,
    coalescer: &mut Coalescer,
    tel: &mut StepTelemetry,
) {
    while let Some((dst, msg)) = outbox.pop_entry() {
        if S::SEALS && dst == Outbox::FLUSH {
            tel.packets += coalescer.flush(transport);
        } else if dst == transport.rank() {
            state.handle(dst, msg, outbox, tel);
        } else {
            tel.logical_msgs.record(&msg);
            tel.packets += coalescer.push(dst, msg, transport);
        }
    }
}

// ---------------------------------------------------------------------
// World step loop (FIFO simulator, DES)
// ---------------------------------------------------------------------

/// One step of a single-process world over all `p` rank machines: the
/// same protocol as [`run_rank_step`], quiescence detected structurally
/// (no messages in flight, nothing startable) instead of via `EndOfStep`
/// signalling. The step opens through `schedule`'s boundary, in place
/// over `world` (`None`: the run is over). `out` is the run-lifetime
/// routing scratch (drained within every call).
pub(crate) fn run_world_step<T: WorldTransport, S: RankMachine>(
    world: &mut InPlace<'_, T>,
    states: &mut [S],
    out: &mut Outbox,
    schedule: &mut S::Schedule,
    step: u64,
) -> Option<StepTelemetry> {
    let p = states.len();
    debug_assert!(out.is_empty(), "routing scratch must drain between steps");
    let before: Vec<RankStats> = states.iter().map(|st| *st.stats()).collect();
    let Opened { mut tel, spans } = schedule.open(step, world, states, out)?;

    // Event loop: drain in-flight messages, round-robin window fills.
    loop {
        while let Some((dst, src, msg)) = world.transport.pop_any() {
            states[dst].handle(src, msg, out, &mut tel);
            world.route(states, dst, out, &mut tel);
        }
        let mut any_started = false;
        for i in 0..p {
            // Fill rank i's conversation window: at most `window` starts
            // per sweep. The start cap (rather than just the occupancy
            // gate inside `try_start`) matters for reproducibility: a
            // self-partner switch completes synchronously inside
            // `InPlace::route`, freeing its slot immediately, and at
            // window = 1 the rank must still wait for the next sweep —
            // exactly the pre-window schedule.
            let mut starts = 0;
            loop {
                match states[i].try_start(out) {
                    StartResult::Started => {
                        any_started = true;
                        tel.started += 1;
                        starts += 1;
                        world.transport.on_op_started(i);
                        world.route(states, i, out, &mut tel);
                        if starts >= states[i].window() {
                            break;
                        }
                    }
                    StartResult::Blocked => {
                        tel.blocked += 1;
                        if states[i].inflight_len() > 0 {
                            tel.parked += 1;
                        }
                        break;
                    }
                    StartResult::Idle => break,
                }
            }
            tel.window_peak = tel.window_peak.max(states[i].inflight_len() as u64);
        }
        if !any_started && world.transport.is_empty() {
            assert!(
                states.iter().all(|st| st.step_done()),
                "simulated world wedged: quiescent with own work unfinished"
            );
            break;
        }
    }

    for (b, st) in before.iter().zip(states.iter()) {
        tel.absorb_stats_delta(b, st.stats());
    }
    world.transport.end_step(states[0].obs_mut(), spans);
    Some(tel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StepSize;
    use crate::parallel::ConvId;

    #[test]
    fn step_harness_splits_remainder_onto_last_step() {
        let cfg = ParallelConfig::new(4).with_step_size(StepSize::Ops(30));
        let h = StepHarness::new(100, &cfg);
        assert_eq!(h.steps(), 4);
        assert_eq!(h.step_ops(0), 30);
        assert_eq!(h.step_ops(2), 30);
        assert_eq!(h.step_ops(3), 10);
        let total: u64 = (0..h.steps()).map(|s| h.step_ops(s)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn step_harness_zero_ops_means_zero_steps() {
        let cfg = ParallelConfig::new(4);
        let h = StepHarness::new(0, &cfg);
        assert_eq!(h.steps(), 0);
    }

    #[test]
    fn probability_vector_modes() {
        let q = probability_vector(&[1, 3], false);
        assert_eq!(q, vec![0.25, 0.75]);
        let q = probability_vector(&[1, 3], true);
        assert_eq!(q, vec![0.5, 0.5]);
        let q = probability_vector(&[0, 0, 0], false);
        assert_eq!(q, vec![1.0 / 3.0; 3]);
    }

    #[test]
    fn msg_counts_record_and_merge() {
        let mut a = MsgCounts::default();
        a.record(&Msg::EndOfStep);
        a.record(&Msg::EndOfStep);
        let mut b = MsgCounts::default();
        b.record(&Msg::EndOfStep);
        a.merge(&b);
        assert_eq!(a.get(MsgKind::EndOfStep), 3);
        assert_eq!(a.get(MsgKind::Propose), 0);
        assert_eq!(a.total(), 3);
        assert_eq!(
            a.iter().map(|(_, c)| c).sum::<u64>(),
            a.total(),
            "iter covers every slot"
        );
    }

    /// A proposal whose conversation number is its place in the push
    /// order.
    fn propose(seq: u64) -> Msg {
        Msg::Propose {
            conv: ConvId { initiator: 0, seq },
            e1: Edge::new(1, 2),
        }
    }

    #[test]
    fn coalescer_caps_batches_in_order_and_flushes_the_rest_before_a_wait() {
        let ranks = mpilite::run_world_default(2, |comm: &mut Comm<Msg>| {
            if comm.rank() == 1 {
                // The first three packets as they arrive, frames and all.
                let packets: Vec<Msg> = (0..3).map(|_| comm.recv_tag(TAG_PROTO).payload).collect();
                let mut transport = MpiliteTransport::new(comm);
                assert_eq!(transport.recv_block(), (0, propose(10)));
                transport.send(0, Msg::EndOfStep);
                return (packets, StepTelemetry::default(), CommStats::default());
            }
            let mut transport = MpiliteTransport::new(comm);
            let mut coalescer = Coalescer::new(2, BATCH_CAP);
            let mut tel = StepTelemetry::default();
            for seq in 0..10 {
                tel.logical_msgs.record(&propose(seq));
                tel.packets += coalescer.push(1, propose(seq), &mut transport);
            }
            assert_eq!(tel.packets, 2, "each full batch leaves at once");
            tel.packets += coalescer.flush(&mut transport);
            // Below the cap a message waits for the end-of-sweep flush,
            // which comes before the rank waits for the peer's answer.
            tel.logical_msgs.record(&propose(10));
            assert_eq!(coalescer.push(1, propose(10), &mut transport), 0);
            tel.packets += coalescer.flush(&mut transport);
            assert_eq!(transport.recv_block(), (1, Msg::EndOfStep));
            (Vec::new(), tel, transport.stats())
        });
        let batch = |seqs: std::ops::Range<u64>| Msg::Batch(seqs.map(propose).collect());
        assert_eq!(ranks[1].0, vec![batch(0..4), batch(4..8), batch(8..10)]);
        let (_, tel, stats) = &ranks[0];
        assert_eq!((tel.packets, stats.packets_sent), (4, 4));
        assert_eq!(tel.logical_msgs.get(MsgKind::Propose), 11);
        let (kinds, rest) = stats.logical_by_kind.split_at(MsgKind::COUNT);
        assert_eq!(kinds, tel.logical_msgs.slots());
        assert!(rest.iter().all(|&n| n == 0));
    }

    #[test]
    fn telemetry_merge_adds_counters_and_maxes_the_window_peak() {
        let mut a = StepTelemetry {
            ops: 10,
            started: 4,
            performed: 3,
            forfeited: 1,
            served: 2,
            blocked: 5,
            window_peak: 3,
            ..StepTelemetry::default()
        };
        let b = StepTelemetry {
            ops: 7,
            started: 1,
            performed: 1,
            forfeited: 0,
            served: 4,
            blocked: 2,
            window_peak: 2,
            ..StepTelemetry::default()
        };
        a.merge(&b);
        let want = StepTelemetry {
            ops: 17,
            started: 5,
            performed: 4,
            forfeited: 1,
            served: 6,
            blocked: 7,
            window_peak: 3,
            ..StepTelemetry::default()
        };
        assert_eq!(a, want);
    }
}
