//! The per-processor state machine of the distributed edge-switch
//! protocol (Section 4.4, generalized).
//!
//! # Protocol
//!
//! Each switch operation is a *conversation* between up to four ranks:
//!
//! - the **initiator** `P_i`, which samples its first edge `e1 ∈ E_i`,
//!   picks a partner with probability `q_j = |E_j|/|E|`, and sends
//!   `Propose`;
//! - the **partner** `P_j`, which samples the second edge `e2 ∈ E_j`,
//!   flips the straight/cross coin, computes the replacement edges, and
//!   orchestrates validation and commit;
//! - the **owners** of the two replacement edges, which check for
//!   parallel edges and reserve the replacements as *potential edges*.
//!
//! The paper's exposition tracks one third-party `P_k`; with reduced
//! adjacency lists *both* replacement edges may land on third parties
//! (`min(u1,v2)` and `min(u2,v1)` can each be foreign), so this
//! implementation validates each replacement at its own owner — the same
//! chain, generalized to two validators.
//!
//! Safety properties maintained:
//! - **reserve-validate-commit**: no graph mutation happens until every
//!   replacement edge is reserved at its owner, so an abort never needs
//!   to roll back an applied update;
//! - **potential edges** (Section 4.5, issue 1): a reserved replacement
//!   blocks any concurrent conversation from creating the same edge;
//! - **edge locking**: `e1`/`e2` stay in `reserved` while in flight, so
//!   no two simultaneous conversations can switch the same edge;
//! - **completion acks**: the partner reports `Done` only after every
//!   participant acknowledged its commit, so a rank that has finished its
//!   own quota is guaranteed to have no lingering obligations.
//!
//! # Pipelining window
//!
//! A rank may have up to `window` *own* conversations in flight at once
//! (plus any number it serves as partner or validator). The reservation
//! machinery above is what makes this safe: every conversation locks its
//! first edge in `reserved` before proposing, and every replacement edge
//! is parked in `potential` before any commit, so two concurrent
//! conversations can never touch the same existing edge or create the
//! same new one — regardless of how many are open. A start attempt whose
//! samples all land on reserved edges parks ([`StartResult::Blocked`])
//! and is retried after the next message instead of stalling the rank.
//! With `window == 1` the machine degenerates to the strictly serial
//! initiate-wait-complete protocol of the paper's exposition.
//!
//! The state machine is *pure*: it consumes events and emits messages
//! into an [`Outbox`]; drivers (threaded, deterministic, or
//! discrete-event) own delivery. A self-addressed message is delivered
//! in place by the driver, which is how local switches reuse the same
//! code path with zero transport messages.
//!
//! # Local fast path
//!
//! When the partner draw lands on the initiating rank itself, the whole
//! conversation is rank-local: both old edges come from the local store
//! and — unless a replacement endpoint hashes to a foreign partition —
//! the entire sample→legality→apply chain touches only local state. The
//! fast path (on by default, see
//! [`ParallelConfig::local_fastpath`](crate::config::ParallelConfig))
//! executes that chain inline in [`RankState::try_start`] instead of
//! bouncing `Propose`/`Validate`/`Commit` messages to itself: no
//! `InFlight` or `PartnerConv` entry, no outbox traffic, no message
//! dispatch. RNG draw order and store mutation order are exactly those
//! of the protocol path, so seeded runs are bit-identical with the fast
//! path on or off (enforced by the conformance suite). A self-partner
//! draw with a foreign replacement leaves the fast path through
//! `partner_validate`, the partner half `on_propose` itself runs: there
//! is one start path and one partner path.

use super::harness::{RankMachine, RankOutput, StepHarness, StepTelemetry};
use super::msg::{ConvId, Msg, MsgKind, Outbox};
use crate::config::ParallelConfig;
use crate::obs::{GaugeKind, Obs, Phase, Stamp};
use crate::switch::{flip_kind, recombine, Recombination, RejectReason};
use crate::visit::Visits;
use edgeswitch_dist::Rng;
use edgeswitch_dist::{rank_block_rng, BlockRng64};
use edgeswitch_graph::hashing::{FxHashMap, FxHashSet};
use edgeswitch_graph::sampling::EdgePool;
use edgeswitch_graph::{Edge, OrientedEdge, Partitioner};
use mpilite::CommStats;

/// Attempts to sample an unreserved edge before declaring contention.
const SAMPLE_ATTEMPTS: usize = 64;
/// Consecutive aborts of one operation before it is forfeited (guards
/// against degenerate graphs where no legal switch exists).
const MAX_CONSECUTIVE_ABORTS: u64 = 100_000;

/// Result of asking a rank to begin its next own operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartResult {
    /// One operation was initiated (messages may be queued).
    Started,
    /// Nothing to start: quota exhausted or the conversation window is
    /// full.
    Idle,
    /// Every sampled edge is locked by in-flight conversations; retry
    /// after the next message.
    Blocked,
}

/// Per-rank statistics of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Operations completed as initiator.
    pub performed: u64,
    /// ... of which both edges were local.
    pub performed_local: u64,
    /// ... of which the partner was remote.
    pub performed_global: u64,
    /// ... of which the zero-message local fast path applied the switch
    /// inline (a subset of `performed_local`; `0` when the fast path is
    /// disabled).
    pub performed_fastpath: u64,
    /// Aborts: replacement would be a self-loop.
    pub aborts_loop: u64,
    /// Aborts: switch would be useless.
    pub aborts_useless: u64,
    /// Aborts: replacement edge already exists/reserved.
    pub aborts_parallel: u64,
    /// Aborts: edges locked by concurrent operations.
    pub aborts_contended: u64,
    /// Operations given up after exhausting the consecutive-abort budget.
    pub forfeited: u64,
    /// Proposals served as partner.
    pub proposals_served: u64,
    /// Validation requests served as owner.
    pub validations_served: u64,
}

impl RankStats {
    /// Total aborts across reasons.
    pub fn aborts(&self) -> u64 {
        self.aborts_loop + self.aborts_useless + self.aborts_parallel + self.aborts_contended
    }
}

/// The persistent state of one rank at a step boundary — everything a
/// resumed run needs to continue bit-identically.
///
/// Captured by the rank machine's `checkpoint`, rebuilt by
/// [`RankState::restore`]. The protocol's transient collections are all
/// empty between steps (the completion-ack discipline guarantees it), so
/// this is the *complete* state: store edges in pool order (pool order is
/// sampling order), visit marks over them, statistics, conversation-id
/// counter and RNG stream position. Serialized by the snapshot codec in
/// [`super::wire`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankCheckpoint {
    /// The rank this snapshot belongs to.
    pub rank: usize,
    /// The rank's owned edges in pool (insertion) order.
    pub store_edges: Vec<Edge>,
    /// The rank's visits at capture: its initial edge count, and marks
    /// over `store_edges` — bit `i % 64` of word `i / 64` is set iff
    /// `store_edges[i]` is an unvisited initial edge.
    pub visits: Visits,
    /// Accumulated per-rank statistics.
    pub stats: RankStats,
    /// Next conversation-id sequence number.
    pub conv_seq: u64,
    /// Words served from this rank's PRNG stream (see
    /// [`BlockRng64::words_served`]).
    pub rng_words: u64,
}

impl RankCheckpoint {
    /// Rank `rank`'s edges, its visits (marks over the edges' order)
    /// and statistics, with no conversation counter or stream position —
    /// all a Curveball trade rank has.
    pub(crate) fn capture(rank: usize, edges: Vec<Edge>, visits: Visits, stats: RankStats) -> Self {
        RankCheckpoint {
            rank,
            store_edges: edges,
            visits,
            stats,
            conv_seq: 0,
            rng_words: 0,
        }
    }
}

/// One of the initiator's in-flight operations (keyed by [`ConvId`]).
#[derive(Clone, Copy, Debug)]
struct InFlight {
    e1: Edge,
    partner: usize,
    /// Observation stamp of the proposal; the `Propose` round-trip
    /// histogram records whole-conversation lifetimes from it.
    started: Stamp,
}

/// A conversation this rank orchestrates as partner.
#[derive(Clone, Copy, Debug)]
struct PartnerConv {
    initiator: usize,
    e1: Edge,
    e2: Edge,
    /// Replacement edges.
    fs: [Edge; 2],
    /// Per-replacement validation state.
    fstate: [FState; 2],
    /// Outstanding remote validation replies.
    awaiting: usize,
    /// Set once any validation failed; the conversation aborts when the
    /// last outstanding reply arrives.
    failed: bool,
    /// Outstanding remote commit acknowledgements.
    acks_needed: usize,
    /// Observation stamp of the `Validate` fan-out (untimed when none
    /// was sent).
    validate_sent: Stamp,
    /// Observation stamp of the commit fan-out (untimed when all local).
    commit_sent: Stamp,
}

/// Validation state of one replacement edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FState {
    /// Owned here; reserved in the local potential set.
    LocalReserved,
    /// Validation request sent to the remote owner.
    RemotePending,
    /// Remote owner reserved it.
    RemoteReserved,
    /// Rejected (would create a parallel edge).
    Failed,
}

/// One processor's complete protocol state.
pub struct RankState {
    rank: usize,
    part: Partitioner,
    /// The owned edges `{(u,v) ∈ E : u < v, owner(u) = rank}` (Section
    /// 4.2), indexed and visit-tracked from [`RankState::new`] on.
    store: EdgePool,
    /// Existing edges locked by in-flight conversations.
    reserved: FxHashSet<Edge>,
    /// Replacement edges reserved but not yet materialized.
    potential: FxHashSet<Edge>,
    /// Cumulative partner-selection distribution (refreshed per step).
    cumq: Vec<f64>,
    remaining: u64,
    /// Bound on concurrently in-flight own conversations (≥ 1).
    window: usize,
    /// Commit rank-local switches inline instead of routing
    /// self-addressed protocol messages (see the module's *Local fast
    /// path* section). Outcomes are bit-identical either way.
    fastpath: bool,
    /// Own conversations currently in flight, up to `window` of them.
    inflight: FxHashMap<ConvId, InFlight>,
    consecutive_aborts: u64,
    conv_seq: u64,
    serving: FxHashMap<ConvId, PartnerConv>,
    /// Own operations whose local update is applied but whose final
    /// `Done` confirmation is still outstanding (the initiator pipelines
    /// its next operation; end-of-step waits for these).
    pending_done: FxHashSet<ConvId>,
    /// This rank's PRNG stream, block-buffered: per-step randomness is
    /// bulk-drawn a block of raw words at a time while preserving draw
    /// order exactly, so outcomes stay bit-identical to the unbuffered
    /// stream.
    rng: BlockRng64,
    /// This partition's initial edge count. Which of them are still
    /// unvisited the store marks, and its `remove` counts the visits
    /// ([`EdgePool::track_visits`]).
    tracked: usize,
    /// Run statistics.
    pub stats: RankStats,
    /// Observation context (no-op unless a driver attaches a probe via
    /// [`RankState::with_obs`]). Probes only read — they never touch the
    /// RNG or the protocol — so observed runs stay bit-identical.
    obs: Obs,
}

impl RankState {
    /// Build the state for `rank` from its share of the edges under
    /// `config`: its seed, conversation window, whether rank-local
    /// switches commit inline (`local_fastpath`; outcomes are
    /// bit-identical either way). The one place a driver turns a config
    /// into a rank.
    pub fn new(
        rank: usize,
        part: Partitioner,
        mut store: EdgePool,
        config: &ParallelConfig,
    ) -> Self {
        store.track_visits();
        let p = part.num_parts();
        RankState {
            rank,
            tracked: store.len(),
            part,
            store,
            reserved: FxHashSet::default(),
            potential: FxHashSet::default(),
            cumq: vec![0.0; p],
            remaining: 0,
            window: config.window.max(1),
            fastpath: config.local_fastpath,
            inflight: FxHashMap::default(),
            consecutive_aborts: 0,
            conv_seq: 0,
            serving: FxHashMap::default(),
            pending_done: FxHashSet::default(),
            rng: rank_block_rng(config.seed, rank as u64),
            stats: RankStats::default(),
            obs: Obs::noop(),
        }
    }

    /// Attach an observation context (builder-style).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Current `|E_i|`.
    pub fn edge_count(&self) -> u64 {
        self.store.len() as u64
    }

    /// Mutable access to this rank's PRNG stream (used by drivers for
    /// step-boundary sampling so all randomness stays on one stream).
    pub fn rng_mut(&mut self) -> &mut BlockRng64 {
        &mut self.rng
    }

    /// Begin a step: this rank must perform `quota` operations, selecting
    /// partners according to `q` (one probability per rank).
    pub fn begin_step(&mut self, quota: u64, q: &[f64]) {
        assert_eq!(q.len(), self.part.num_parts());
        self.remaining = quota;
        self.consecutive_aborts = 0;
        let mut acc = 0.0;
        self.cumq.clear();
        for &qi in q {
            acc += qi;
            self.cumq.push(acc);
        }
    }

    /// Whether this rank holds any unfinished server-side conversations.
    pub fn serving_pending(&self) -> bool {
        !self.serving.is_empty()
    }

    /// The rank's visits at rest: the marks of its store's index as a
    /// bitmap over pool order ([`EdgePool::unvisited_bitmap`]).
    fn at_rest(&self) -> Visits {
        Visits {
            initial: self.tracked,
            unvisited: self.store.unvisited_bitmap(),
        }
    }

    /// Rebuild a rank from a [`RankCheckpoint`].
    ///
    /// The store is reinserted in captured pool order (sampling order is
    /// pool order, so this is load-bearing), its unvisited edges are
    /// marked, and the RNG stream is re-derived from `(seed, rank)` and
    /// fast-forwarded to the recorded position. The partitioner is not
    /// part of the checkpoint: it is deterministic from the job's graph
    /// and config, so callers rebuild it the same way the original
    /// driver did. Whether the checkpoint belongs to the run is checked
    /// before, where the world resumes from its snapshot.
    pub fn restore(part: Partitioner, config: &ParallelConfig, ckpt: &RankCheckpoint) -> Self {
        let mut state = RankState::new(ckpt.rank, part, EdgePool::new(), config);
        for &e in &ckpt.store_edges {
            state.store.insert(e);
        }
        for e in ckpt.visits.unvisited_edges(&ckpt.store_edges) {
            state.store.mark_unvisited(e.key());
        }
        state.tracked = ckpt.visits.initial;
        state.stats = ckpt.stats;
        state.conv_seq = ckpt.conv_seq;
        state.rng.jump_words(ckpt.rng_words);
        state
    }

    /// The rank's owned edges (test introspection).
    #[cfg(test)]
    pub(super) fn store(&self) -> &EdgePool {
        &self.store
    }

    /// The first edges of all in-flight own conversations (test
    /// introspection for the reservation-disjointness property).
    #[cfg(test)]
    pub(super) fn inflight_e1s(&self) -> Vec<Edge> {
        self.inflight.values().map(|op| op.e1).collect()
    }

    /// The edges currently locked by conversations touching this rank
    /// (test introspection).
    #[cfg(test)]
    pub(super) fn reserved_edges(&self) -> Vec<Edge> {
        self.reserved.iter().copied().collect()
    }

    /// Replacement edges currently parked in the potential set (test
    /// introspection for the reservation-disjointness property).
    #[cfg(test)]
    pub(super) fn potential_edges(&self) -> Vec<Edge> {
        self.potential.iter().copied().collect()
    }

    // ------------------------------------------------------------------
    // Initiator role
    // ------------------------------------------------------------------

    /// Try to begin the next own operation. May be called repeatedly to
    /// fill the conversation window; returns [`StartResult::Idle`] once
    /// the window is full or no unstarted quota remains.
    pub fn try_start(&mut self, out: &mut Outbox) -> StartResult {
        let open = self.inflight.len();
        if open >= self.window || self.remaining <= open as u64 {
            return StartResult::Idle;
        }
        if self.store.is_empty() {
            // An emptied partition cannot supply first edges; its quota is
            // unfulfillable (the next step's multinomial gets q_i = 0).
            // In-flight conversations hold reserved edges that are still
            // in the store, so an empty store implies an empty window.
            debug_assert!(
                self.inflight.is_empty(),
                "in-flight conversations on empty store"
            );
            self.stats.forfeited += self.remaining;
            self.remaining = 0;
            return StartResult::Idle;
        }
        let Some(e1) = self.sample_unreserved() else {
            return StartResult::Blocked;
        };
        self.reserved.insert(e1);
        let partner = self.sample_partner();
        self.conv_seq += 1;
        let conv = ConvId {
            initiator: self.rank as u32,
            seq: self.conv_seq,
        };
        if self.fastpath && partner == self.rank {
            let started = self.obs.stamp(Phase::LocalFastpath);
            return self.start_local_fast(conv, e1, started, out);
        }
        let started = self.obs.stamp_rtt(MsgKind::Propose);
        self.inflight.insert(
            conv,
            InFlight {
                e1,
                partner,
                started,
            },
        );
        self.obs
            .gauge(GaugeKind::WindowOccupancy, self.inflight.len() as u64);
        out.push(partner, Msg::Propose { conv, e1 });
        StartResult::Started
    }

    /// Draw store edges until one is not locked by an in-flight
    /// conversation: `None` after [`SAMPLE_ATTEMPTS`] locked draws
    /// (contention) or on an empty store. One `Sample` span per call.
    fn sample_unreserved(&mut self) -> Option<Edge> {
        let sample_start = self.obs.stamp(Phase::Sample);
        let chosen = (0..SAMPLE_ATTEMPTS)
            .map_while(|_| self.store.sample(&mut self.rng))
            .find(|e| !self.reserved.contains(e));
        self.obs.span_since(Phase::Sample, sample_start);
        chosen
    }

    /// Run one rank-local operation on the zero-message fast path: the
    /// partner draw landed on this rank, so the whole conversation —
    /// second-edge sample, straight/cross coin, legality check, apply —
    /// executes inline against the local store instead of routing
    /// self-addressed `Propose`/`Validate`/`Commit` messages.
    ///
    /// Bit-identity with the protocol path is the design invariant: the
    /// RNG draws (second-edge sample loop, then the coin) and the store
    /// mutation order (remove `e2`, insert `f1`, insert `f2`, remove
    /// `e1`) are exactly those of a self-partner conversation, and a
    /// self-partner conversation completes synchronously inside the
    /// driver's outbox drain with no interleaved randomness, so skipping
    /// the message hops is unobservable. When a replacement edge hashes
    /// to a foreign owner the attempt falls back to the conversation
    /// protocol *from this exact point*, keeping the draws already made.
    /// `started` opens the `LocalFastpath` span and, should the switch
    /// complete, its `Propose` round trip.
    fn start_local_fast(
        &mut self,
        conv: ConvId,
        e1: Edge,
        started: Stamp,
        out: &mut Outbox,
    ) -> StartResult {
        self.stats.proposals_served += 1;
        self.obs
            .gauge(GaugeKind::WindowOccupancy, self.inflight.len() as u64 + 1);
        self.obs
            .gauge(GaugeKind::ServingDepth, self.serving.len() as u64 + 1);
        // Second-edge sample, the partner role's (`e1` sits in
        // `reserved`, so `e2 != e1` without an extra check).
        let Some(e2) = self.sample_unreserved() else {
            self.abort_own(e1, RejectReason::Contended);
            self.obs.span_since(Phase::LocalFastpath, started);
            return StartResult::Started;
        };
        debug_assert_ne!(e1, e2, "e1 is reserved and cannot be re-sampled");
        let legality_start = self.obs.stamp(Phase::Legality);
        let kind = flip_kind(&mut self.rng);
        let (f1, f2) = match recombine(
            OrientedEdge::from_edge(e1),
            OrientedEdge::from_edge(e2),
            kind,
        ) {
            Recombination::Rejected(reason) => {
                self.obs.span_since(Phase::Legality, legality_start);
                self.abort_own(e1, reason);
                self.obs.span_since(Phase::LocalFastpath, started);
                return StartResult::Started;
            }
            Recombination::Candidate { f1, f2 } => (f1, f2),
        };
        if self.part.owner(f1.src()) == self.rank && self.part.owner(f2.src()) == self.rank {
            // Fully local: legality reduces to the parallel-edge check.
            // Checking both replacements up front equals the protocol's
            // reserve-then-check because `f1 != f2` (recombination
            // guarantees it), so reserving `f1` can never affect `f2`'s
            // check.
            let blocked = self.occupied(f1) || self.occupied(f2);
            self.obs.span_since(Phase::Legality, legality_start);
            if blocked {
                self.abort_own(e1, RejectReason::ParallelEdge);
            } else {
                self.apply_local_inline(e1, e2, f1, f2, started);
            }
        } else {
            // A replacement is foreign: continue as an ordinary
            // self-partner conversation from this exact point. It must
            // exist in `inflight` before any message can complete or
            // abort it.
            self.inflight.insert(
                conv,
                InFlight {
                    e1,
                    partner: self.rank,
                    started,
                },
            );
            self.partner_validate(conv, e1, e2, [f1, f2], legality_start, out);
        }
        self.obs.span_since(Phase::LocalFastpath, started);
        StartResult::Started
    }

    /// Apply a fully rank-local switch inline, in the protocol's
    /// mutation order (remove `e2`, insert `f1`, insert `f2`, remove
    /// `e1`) so the store's internal layout — and with it every future
    /// edge sample — stays identical to the protocol path's.
    fn apply_local_inline(&mut self, e1: Edge, e2: Edge, f1: Edge, f2: Edge, started: Stamp) {
        let released = self.reserved.remove(&e1);
        debug_assert!(released, "own e1 {e1} was not reserved");
        let apply_start = self.obs.stamp(Phase::SwitchApply);
        let removed = self.store.remove(e2);
        debug_assert!(removed, "sampled e2 {e2} missing at apply");
        let inserted = self.store.insert(f1);
        debug_assert!(inserted, "replacement {f1} collided at apply");
        let inserted = self.store.insert(f2);
        debug_assert!(inserted, "replacement {f2} collided at apply");
        let removed = self.store.remove(e1);
        debug_assert!(removed, "sampled e1 {e1} missing at apply");
        self.obs.span_since(Phase::SwitchApply, apply_start);
        self.obs.rtt_since(MsgKind::Propose, started);
        self.remaining -= 1;
        self.consecutive_aborts = 0;
        self.stats.performed += 1;
        self.stats.performed_local += 1;
        self.stats.performed_fastpath += 1;
    }

    /// Draw the partner rank with probability `q_j` (Algorithm 2 line 2).
    fn sample_partner(&mut self) -> usize {
        let total = *self.cumq.last().expect("nonempty q");
        let u: f64 = self.rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        let idx = self.cumq.partition_point(|&c| c <= u);
        idx.min(self.cumq.len() - 1)
    }

    /// Abort bookkeeping for one of this rank's own operations whose
    /// first edge is still reserved: release it, count the reason, and
    /// forfeit the operation once the consecutive-abort budget runs out.
    /// Shared by the protocol path ([`RankState::on_abort`]) and the
    /// inline abort arms of the local fast path.
    fn abort_own(&mut self, e1: Edge, reason: RejectReason) {
        let released = self.reserved.remove(&e1);
        debug_assert!(released, "in-flight e1 was not reserved");
        match reason {
            RejectReason::SelfLoop => self.stats.aborts_loop += 1,
            RejectReason::Useless => self.stats.aborts_useless += 1,
            RejectReason::ParallelEdge => self.stats.aborts_parallel += 1,
            RejectReason::Contended => self.stats.aborts_contended += 1,
        }
        self.consecutive_aborts += 1;
        if self.consecutive_aborts >= MAX_CONSECUTIVE_ABORTS {
            self.stats.forfeited += 1;
            self.remaining = self.remaining.saturating_sub(1);
            self.consecutive_aborts = 0;
        }
    }

    fn on_abort(&mut self, conv: ConvId, reason: RejectReason) {
        let op = self
            .inflight
            .remove(&conv)
            .expect("abort for conversation not in flight");
        self.abort_own(op.e1, reason);
    }

    fn on_done(&mut self, conv: ConvId) {
        let op = self
            .inflight
            .remove(&conv)
            .expect("done for conversation not in flight");
        // `op.e1` left `reserved` when the commit applied, but it may be
        // reserved *again* by now: once removed from the store, the same
        // edge value can be re-created as another conversation's
        // replacement and sampled by a later operation before this Done
        // bookkeeping runs, so its absence cannot be asserted here.
        self.obs.rtt_since(MsgKind::Propose, op.started);
        self.remaining -= 1;
        self.consecutive_aborts = 0;
        self.stats.performed += 1;
        if op.partner == self.rank {
            self.stats.performed_local += 1;
        } else {
            self.stats.performed_global += 1;
        }
    }

    /// Early completion of a global operation: the initiator's own update
    /// has been applied (the partner's `CommitRemove` arrived), so the
    /// next operation may start; the partner's `Done` is still awaited
    /// for end-of-step accounting.
    fn complete_early(&mut self, conv: ConvId) {
        let op = self
            .inflight
            .remove(&conv)
            .expect("commit for conversation not in flight");
        debug_assert_ne!(
            op.partner, self.rank,
            "local switches never commit remotely"
        );
        self.obs.rtt_since(MsgKind::Propose, op.started);
        self.remaining -= 1;
        self.consecutive_aborts = 0;
        self.stats.performed += 1;
        self.stats.performed_global += 1;
        let fresh = self.pending_done.insert(conv);
        debug_assert!(fresh);
    }

    // ------------------------------------------------------------------
    // Partner role
    // ------------------------------------------------------------------

    fn on_propose(&mut self, src: usize, conv: ConvId, e1: Edge, out: &mut Outbox) {
        debug_assert_eq!(src, conv.initiator as usize, "misattributed Propose");
        self.stats.proposals_served += 1;
        self.obs
            .gauge(GaugeKind::ServingDepth, self.serving.len() as u64 + 1);
        // Sample the second edge, skipping locked edges.
        let Some(e2) = self.sample_unreserved() else {
            out.push(
                src,
                Msg::Abort {
                    conv,
                    reason: RejectReason::Contended,
                },
            );
            return;
        };
        debug_assert_ne!(e1, e2, "e1 is foreign or locally reserved");
        let legality_start = self.obs.stamp(Phase::Legality);
        let kind = flip_kind(&mut self.rng);
        match recombine(
            OrientedEdge::from_edge(e1),
            OrientedEdge::from_edge(e2),
            kind,
        ) {
            Recombination::Rejected(reason) => {
                self.obs.span_since(Phase::Legality, legality_start);
                out.push(src, Msg::Abort { conv, reason });
            }
            Recombination::Candidate { f1, f2 } => {
                self.partner_validate(conv, e1, e2, [f1, f2], legality_start, out);
            }
        }
    }

    /// The partner's half of a conversation once `e2` and the candidate
    /// replacements `fs` are drawn: lock `e2`, check-and-reserve the
    /// locally owned replacements (closing the `Legality` span opened at
    /// `legality_start`), ask the foreign owners, and settle at once when
    /// nothing is awaited. Reached from [`RankState::on_propose`] and —
    /// for a self-partner draw with a foreign replacement — straight
    /// from the local fast path, which is what keeps the two
    /// message-for-message identical.
    fn partner_validate(
        &mut self,
        conv: ConvId,
        e1: Edge,
        e2: Edge,
        fs: [Edge; 2],
        legality_start: Stamp,
        out: &mut Outbox,
    ) {
        self.reserved.insert(e2);
        // Validate both replacements concurrently (the critical path is
        // one round trip, not two): local checks first; remote requests
        // only if the local ones passed.
        let mut fstate = [FState::RemotePending; 2];
        let mut failed = false;
        for i in 0..2 {
            if self.part.owner(fs[i].src()) == self.rank {
                if self.occupied(fs[i]) {
                    fstate[i] = FState::Failed;
                    failed = true;
                } else {
                    self.potential.insert(fs[i]);
                    fstate[i] = FState::LocalReserved;
                }
            }
        }
        self.obs.span_since(Phase::Legality, legality_start);
        let mut awaiting = 0usize;
        if !failed {
            for i in 0..2 {
                if fstate[i] == FState::RemotePending {
                    out.push(
                        self.part.owner(fs[i].src()),
                        Msg::Validate { conv, edge: fs[i] },
                    );
                    awaiting += 1;
                }
            }
        }
        let validate_sent = if awaiting > 0 {
            self.obs.stamp_rtt(MsgKind::Validate)
        } else {
            Stamp::UNTIMED
        };
        self.serving.insert(
            conv,
            PartnerConv {
                initiator: conv.initiator as usize,
                e1,
                e2,
                fs,
                fstate,
                awaiting,
                failed,
                acks_needed: 0,
                validate_sent,
                commit_sent: Stamp::UNTIMED,
            },
        );
        if awaiting == 0 {
            if failed {
                self.partner_abort(conv, RejectReason::ParallelEdge, out);
            } else {
                self.partner_commit(conv, out);
            }
        }
    }

    fn on_validate_reply(&mut self, conv: ConvId, edge: Edge, ok: bool, out: &mut Outbox) {
        let (awaiting, failed, sent) = {
            let c = self.serving.get_mut(&conv).expect("conversation exists");
            let i = if c.fs[0] == edge { 0 } else { 1 };
            debug_assert_eq!(c.fs[i], edge, "reply for unknown replacement");
            debug_assert_eq!(c.fstate[i], FState::RemotePending);
            c.fstate[i] = if ok {
                FState::RemoteReserved
            } else {
                FState::Failed
            };
            c.failed |= !ok;
            c.awaiting -= 1;
            (c.awaiting, c.failed, c.validate_sent)
        };
        if awaiting == 0 {
            self.obs.rtt_since(MsgKind::Validate, sent);
            if failed {
                self.partner_abort(conv, RejectReason::ParallelEdge, out);
            } else {
                self.partner_commit(conv, out);
            }
        }
    }

    fn partner_abort(&mut self, conv: ConvId, reason: RejectReason, out: &mut Outbox) {
        let c = self.serving.remove(&conv).expect("conversation exists");
        debug_assert_eq!(c.awaiting, 0, "abort with validations in flight");
        // Release everything that was reserved.
        for i in 0..2 {
            match c.fstate[i] {
                FState::LocalReserved => {
                    let had = self.potential.remove(&c.fs[i]);
                    debug_assert!(had);
                }
                FState::RemoteReserved => {
                    out.push(
                        self.part.owner(c.fs[i].src()),
                        Msg::Release {
                            conv,
                            edge: c.fs[i],
                        },
                    );
                }
                FState::RemotePending | FState::Failed => {}
            }
        }
        let had = self.reserved.remove(&c.e2);
        debug_assert!(had);
        out.push(c.initiator, Msg::Abort { conv, reason });
    }

    fn partner_commit(&mut self, conv: ConvId, out: &mut Outbox) {
        let c = *self.serving.get(&conv).expect("conversation exists");
        debug_assert!(!c.failed && c.awaiting == 0);
        // Remove the partner's own old edge.
        self.apply_remove(c.e2);
        // Materialize / request the replacements.
        let mut acks = 0usize;
        for f in c.fs {
            let owner = self.part.owner(f.src());
            if owner == self.rank {
                self.apply_insert(f);
            } else {
                out.push(owner, Msg::CommitAdd { conv, edge: f });
                acks += 1;
            }
        }
        // Remove the initiator's old edge.
        if c.initiator == self.rank {
            self.apply_remove(c.e1);
        } else {
            out.push(c.initiator, Msg::CommitRemove { conv, edge: c.e1 });
            acks += 1;
        }
        if acks == 0 {
            self.partner_finish(conv, out);
        } else {
            // One stamp, sampled on the `CommitAdd` stride, times both
            // commit round trips.
            let commit_sent = self.obs.stamp_rtt(MsgKind::CommitAdd);
            let c = self.serving.get_mut(&conv).unwrap();
            c.acks_needed = acks;
            c.commit_sent = commit_sent;
        }
    }

    fn on_commit_ack(&mut self, conv: ConvId, out: &mut Outbox) {
        let (remaining, sent, remote_add, remote_remove) = {
            let c = self.serving.get_mut(&conv).expect("conversation exists");
            debug_assert!(c.acks_needed > 0);
            c.acks_needed -= 1;
            let remote_add = c.fs.iter().any(|f| self.part.owner(f.src()) != self.rank);
            let remote_remove = c.initiator != self.rank;
            (c.acks_needed, c.commit_sent, remote_add, remote_remove)
        };
        if remaining == 0 {
            if remote_add {
                self.obs.rtt_since(MsgKind::CommitAdd, sent);
            }
            if remote_remove {
                self.obs.rtt_since(MsgKind::CommitRemove, sent);
            }
            self.partner_finish(conv, out);
        }
    }

    fn partner_finish(&mut self, conv: ConvId, out: &mut Outbox) {
        let c = self.serving.remove(&conv).expect("conversation exists");
        if c.initiator == self.rank {
            self.on_done(conv);
        } else {
            out.push(c.initiator, Msg::Done { conv });
        }
    }

    /// Remove a locally-owned, reserved old edge (the store counts the
    /// visit).
    fn apply_remove(&mut self, e: Edge) {
        let apply_start = self.obs.stamp(Phase::SwitchApply);
        let was_reserved = self.reserved.remove(&e);
        debug_assert!(was_reserved, "commit removal of unreserved edge {e}");
        let removed = self.store.remove(e);
        debug_assert!(removed, "commit removal of missing edge {e}");
        self.obs.span_since(Phase::SwitchApply, apply_start);
    }

    /// Materialize a locally-owned, reserved replacement edge.
    fn apply_insert(&mut self, f: Edge) {
        let apply_start = self.obs.stamp(Phase::SwitchApply);
        let was_potential = self.potential.remove(&f);
        debug_assert!(was_potential, "commit insertion of unreserved edge {f}");
        let inserted = self.store.insert(f);
        debug_assert!(inserted, "potential edge {f} collided at commit");
        self.obs.span_since(Phase::SwitchApply, apply_start);
    }

    /// An edge may not be created if it exists or is about to exist.
    /// The `potential` set is empty whenever no conversation is mid
    /// validation — always on a quiet rank, and in particular on every
    /// fully-local switch at p = 1 — so its probe hides behind a length
    /// check.
    fn occupied(&self, f: Edge) -> bool {
        self.store.contains(f) || (!self.potential.is_empty() && self.potential.contains(&f))
    }

    // ------------------------------------------------------------------
    // Validator role
    // ------------------------------------------------------------------

    fn on_validate(&mut self, src: usize, conv: ConvId, edge: Edge, out: &mut Outbox) {
        debug_assert_eq!(self.part.owner(edge.src()), self.rank, "misrouted Validate");
        self.stats.validations_served += 1;
        let legality_start = self.obs.stamp(Phase::Legality);
        let occupied = self.occupied(edge);
        self.obs.span_since(Phase::Legality, legality_start);
        if occupied {
            out.push(src, Msg::ValidateFail { conv, edge });
        } else {
            self.potential.insert(edge);
            out.push(src, Msg::ValidateOk { conv, edge });
        }
    }

    fn on_commit_add(&mut self, src: usize, conv: ConvId, edge: Edge, out: &mut Outbox) {
        self.apply_insert(edge);
        out.push(src, Msg::CommitAck { conv });
    }

    fn on_commit_remove(&mut self, src: usize, conv: ConvId, edge: Edge, out: &mut Outbox) {
        self.apply_remove(edge);
        out.push(src, Msg::CommitAck { conv });
        if conv.initiator as usize == self.rank {
            self.complete_early(conv);
        }
    }

    fn on_release(&mut self, edge: Edge) {
        let was_potential = self.potential.remove(&edge);
        debug_assert!(was_potential, "Release for unreserved edge {edge}");
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    /// Feed one protocol message into the state machine.
    ///
    /// # Panics
    /// Panics on `EndOfStep`/`Coll`/`Batch` (step-level traffic and
    /// framing are the driver's responsibility) and on protocol
    /// violations in debug builds.
    pub fn handle(&mut self, src: usize, msg: Msg, out: &mut Outbox) {
        match msg {
            Msg::Propose { conv, e1 } => self.on_propose(src, conv, e1, out),
            Msg::Validate { conv, edge } => self.on_validate(src, conv, edge, out),
            Msg::ValidateOk { conv, edge } => self.on_validate_reply(conv, edge, true, out),
            Msg::ValidateFail { conv, edge } => self.on_validate_reply(conv, edge, false, out),
            Msg::Release { edge, .. } => self.on_release(edge),
            Msg::CommitAdd { conv, edge } => self.on_commit_add(src, conv, edge, out),
            Msg::CommitRemove { conv, edge } => self.on_commit_remove(src, conv, edge, out),
            Msg::CommitAck { conv } => self.on_commit_ack(conv, out),
            Msg::Done { conv } => {
                if !self.pending_done.remove(&conv) {
                    self.on_done(conv);
                }
            }
            Msg::Abort { conv, reason } => self.on_abort(conv, reason),
            Msg::EndOfStep | Msg::Coll(_) | Msg::Batch(_) => {
                unreachable!("driver-level message leaked into RankState")
            }
            Msg::TradeLoad { .. } | Msg::TradeHome { .. } => {
                unreachable!("Curveball traffic routed into the switch state machine")
            }
        }
    }
}

impl RankMachine for RankState {
    type Schedule = StepHarness;

    fn build(
        rank: usize,
        part: &Partitioner,
        store: EdgePool,
        config: &ParallelConfig,
        _: &StepHarness,
        obs: Obs,
    ) -> Self {
        RankState::new(rank, part.clone(), store, config).with_obs(obs)
    }

    fn rebuild(
        ckpt: &RankCheckpoint,
        part: &Partitioner,
        config: &ParallelConfig,
        _: &StepHarness,
    ) -> Self {
        RankState::restore(part.clone(), config, ckpt)
    }

    fn handle(&mut self, src: usize, msg: Msg, out: &mut Outbox, _: &mut StepTelemetry) {
        RankState::handle(self, src, msg, out);
    }

    fn try_start(&mut self, out: &mut Outbox) -> StartResult {
        RankState::try_start(self, out)
    }

    /// Own quota finished and every own conversation confirmed.
    fn step_done(&self) -> bool {
        self.remaining == 0 && self.inflight.is_empty() && self.pending_done.is_empty()
    }

    fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    fn window(&self) -> usize {
        self.window
    }

    fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    fn stats(&self) -> &RankStats {
        &self.stats
    }

    fn visits(&self) -> (usize, usize) {
        (self.tracked, self.tracked - self.store.unvisited())
    }

    /// At step boundaries every transient collection (reserved edges,
    /// potential edges, in-flight and server-side conversations) is
    /// empty — the teardown (`into_output`) asserts the same
    /// invariant — so the whole protocol state reduces to the store
    /// contents, the visit marks, the statistics, the conversation-id
    /// counter and the RNG stream position. `remaining`/`cumq` are step
    /// inputs re-established by [`RankState::begin_step`] and need no
    /// capture. Restoring via [`RankState::restore`] under the same
    /// config yields a rank whose subsequent steps are
    /// bit-identical to the uninterrupted run.
    fn checkpoint(&self) -> RankCheckpoint {
        debug_assert!(
            self.inflight.is_empty()
                && self.serving.is_empty()
                && self.pending_done.is_empty()
                && self.reserved.is_empty()
                && self.potential.is_empty(),
            "checkpoint taken mid-step"
        );
        RankCheckpoint {
            conv_seq: self.conv_seq,
            rng_words: self.rng.words_served(),
            ..RankCheckpoint::capture(
                self.rank,
                self.store.iter().collect(),
                self.at_rest(),
                self.stats,
            )
        }
    }

    fn into_output(self, comm: CommStats) -> RankOutput {
        debug_assert!(self.serving.is_empty(), "conversations left open");
        debug_assert!(
            self.pending_done.is_empty(),
            "unconfirmed operations leaked"
        );
        debug_assert!(self.reserved.is_empty(), "edges left reserved");
        debug_assert!(self.potential.is_empty(), "potential edges leaked");
        RankOutput {
            rank: self.rank,
            visits: self.at_rest(),
            keys: self.store.iter().map(|e| e.key()).collect(),
            stats: self.stats,
            comm,
            obs: self.obs.finish(),
        }
    }
}
