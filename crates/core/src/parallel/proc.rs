//! The process-backed driver: ranks as OS child processes over
//! shared-memory rings, so `p` ranks genuinely occupy `p` cores.
//!
//! Structure mirrors the threaded world (`super::engine`) exactly — the
//! same rank body ([`run_switch_rank`]: the shared rank loop under the
//! [`StepHarness`] boundary), the same [`assemble_outcome`] merge — only
//! the substrate differs:
//!
//! * the launcher serializes a **boot blob** into an [`ShmWorld`] and
//!   respawns the current binary once per rank with the mapping inherited
//!   by fd. The blob's payload is either the materialized per-rank edge
//!   pools as raw keys (O(m) boot bytes), or — under **seed boot**
//!   ([`try_parallel_edge_switch_proc_gen`]) — an O(1)
//!   [`StreamSpec`] that each child replays locally to regenerate
//!   exactly the edges it owns, so boot cost is constant in `m` and no
//!   participant ever holds more than its own share;
//! * each rank child attaches, rebuilds its [`RankState`] bit-identically
//!   (pool order is preserved, so edge sampling matches the threaded
//!   engine and the simulators), and runs the step loop over a
//!   [`ProcTransport`] — point-to-point `Msg` frames and the step-boundary
//!   collectives all travel the world's SPSC rings;
//! * at teardown each child streams a **result blob** (its `RankOutput`
//!   and per-step telemetry, encoded straight from the live store by the
//!   [`wire`] field codecs) back to the launcher over its ring, and exits.
//!
//! Orphan safety is layered: children arm `PR_SET_PDEATHSIG(SIGKILL)`
//! before exec (re-checking `getppid` to close the pre-arm race), and the
//! world header carries a liveness word that parked ranks poll between
//! futex slices, so a rank can never outlive a dead launcher.
//!
//! Process runs are never observed (`RunReport` stays `None`): probes are
//! guaranteed non-perturbing, so conformance digests are unaffected.

use std::collections::VecDeque;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use edgeswitch_dist::BlockRng64;
use edgeswitch_graph::generators::StreamSpec;
use edgeswitch_graph::store::{build_rank_store_streamed, build_stores, PartitionStore};
use edgeswitch_graph::{Edge, Graph, Partitioner};
use edgeswitch_shm::{Endpoint, ShmWorld, WaitOutcome};
use mpilite::{
    CollCarrier, CommStats, COLLECTIVE_TAG_BASE, DEFAULT_SPIN_RELAX, DEFAULT_SPIN_TOTAL,
};

use crate::config::ParallelConfig;

use super::harness::{
    assemble_outcome, run_switch_rank, unpack, ParallelOutcome, RankMachine, RankOutput,
    RankTransport, StepHarness, StepTelemetry, Transport, TAG_PROTO,
};
use super::msg::Msg;
use super::rank::RankState;
use super::wire::{self, put_u32, put_u64, Reader};

const ENV_RANK: &str = "EDGESWITCH_SHM_RANK";
const ENV_FD: &str = "EDGESWITCH_SHM_FD";
const ENV_LEN: &str = "EDGESWITCH_SHM_LEN";
const ENV_PPID: &str = "EDGESWITCH_SHM_PPID";

/// Tag for result-blob frames (distinct from `TAG_PROTO`, below the
/// collective namespace).
const TAG_RESULT: u32 = 2;

/// Tags per collective invocation; mirrors `mpilite::collectives` so the
/// tag sequence is identical across backends.
const TAG_STRIDE: u32 = 4;

/// Per-receive deadlock timeout, matching `mpilite::WorldConfig`.
const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// Backpressure timeout for a full ring (peer presumed dead after this).
const SEND_TIMEOUT: Duration = Duration::from_secs(120);

// ---------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------

/// [`RankTransport`] over a shared-memory world: the process-backend
/// sibling of [`super::harness::MpiliteTransport`].
///
/// Point-to-point sends encode one [`Msg`] per ring frame under
/// `TAG_PROTO`; the step-boundary collectives replicate
/// `mpilite::collectives` exactly (same direct-exchange order, same tag
/// sequence), with frames that arrive out of matching order buffered in
/// a pending queue — the ring grid only guarantees per-pair FIFO.
pub struct ProcTransport<'w> {
    ep: Endpoint<'w>,
    /// Ranks `p` (the world has `p + 1` participants; the launcher owns
    /// the extra endpoint).
    p: usize,
    stats: CommStats,
    coll_seq: u32,
    /// Frames received while waiting for something more specific:
    /// `(src, tag, payload)`.
    pending: VecDeque<(usize, u32, Vec<u8>)>,
    /// Logical messages unpacked from a `Msg::Batch` frame.
    inbox: VecDeque<(usize, Msg)>,
    ebuf: Vec<u8>,
}

impl<'w> ProcTransport<'w> {
    /// Wrap a rank's endpoint (`ep.me()` must be the rank id, `< p`).
    pub fn new(ep: Endpoint<'w>, p: usize) -> Self {
        assert!(ep.me() < p, "launcher endpoint is not a rank");
        ProcTransport {
            ep,
            p,
            stats: CommStats::default(),
            coll_seq: 0,
            pending: VecDeque::new(),
            inbox: VecDeque::new(),
            ebuf: Vec::new(),
        }
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    fn next_coll_tag(&mut self) -> u32 {
        let seq = self.coll_seq;
        self.coll_seq = self.coll_seq.wrapping_add(1);
        COLLECTIVE_TAG_BASE + (seq % ((u32::MAX - COLLECTIVE_TAG_BASE) / TAG_STRIDE)) * TAG_STRIDE
    }

    fn send_msg(&mut self, dst: usize, tag: u32, msg: &Msg) {
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += msg.wire_size() as u64;
        msg.record_kinds(&mut self.stats.logical_by_kind);
        self.ebuf.clear();
        wire::encode_msg(msg, &mut self.ebuf);
        self.ep.send(dst, tag, &self.ebuf, SEND_TIMEOUT);
    }

    fn note_queue_depth(&mut self) {
        let depth = (self.pending.len() + self.inbox.len()) as u64;
        self.stats.recv_queue_peak = self.stats.recv_queue_peak.max(depth);
    }

    /// Park until a frame arrives (after the same spin budget as a
    /// threaded rank), metering park time; panics on world death or
    /// deadlock timeout.
    fn wait_for_traffic(&mut self) {
        match self
            .ep
            .wait(DEFAULT_SPIN_RELAX, DEFAULT_SPIN_TOTAL, RECV_TIMEOUT)
        {
            WaitOutcome::Ready => {}
            WaitOutcome::ParkedReady(ns) => {
                self.stats.parks += 1;
                self.stats.park_ns += ns;
            }
            WaitOutcome::Dead => panic!(
                "rank {}: shm world died while waiting for messages",
                self.ep.me()
            ),
            WaitOutcome::TimedOut => panic!(
                "rank {}: no message within {RECV_TIMEOUT:?} (protocol deadlock?)",
                self.ep.me()
            ),
        }
    }

    fn try_recv_proto(&mut self) -> Option<(usize, Msg)> {
        if let Some(x) = self.inbox.pop_front() {
            return Some(x);
        }
        self.note_queue_depth();
        if let Some(at) = self
            .pending
            .iter()
            .position(|(_, tag, _)| *tag == TAG_PROTO)
        {
            let (src, _, bytes) = self.pending.remove(at).expect("position is in range");
            self.stats.packets_received += 1;
            let msg = wire::decode_msg(&bytes);
            return Some(unpack(&mut self.inbox, src, msg));
        }
        loop {
            let (src, tag, payload) = self.ep.try_recv()?;
            if tag == TAG_PROTO {
                let msg = wire::decode_msg(payload);
                self.stats.packets_received += 1;
                return Some(unpack(&mut self.inbox, src, msg));
            }
            let owned = payload.to_vec();
            self.pending.push_back((src, tag, owned));
        }
    }

    /// Earliest-arrived frame from `src` under `tag` (collective
    /// matching), buffering everything else.
    fn recv_match(&mut self, src: usize, tag: u32) -> Vec<u8> {
        self.note_queue_depth();
        if let Some(at) = self
            .pending
            .iter()
            .position(|(s, t, _)| *s == src && *t == tag)
        {
            let (_, _, bytes) = self.pending.remove(at).expect("position is in range");
            self.stats.packets_received += 1;
            return bytes;
        }
        loop {
            match self.ep.try_recv() {
                Some((s, t, payload)) => {
                    let owned = payload.to_vec();
                    if s == src && t == tag {
                        self.stats.packets_received += 1;
                        return owned;
                    }
                    self.pending.push_back((s, t, owned));
                }
                None => self.wait_for_traffic(),
            }
        }
    }

    /// Direct exchange of one `u64` with every peer — `value(dst)` goes
    /// to `dst`, `own` is this rank's slot — mirroring the allgather and
    /// all-to-all of `mpilite::collectives` (same send/recv order, same
    /// tag draw, same stats accounting).
    // Rank indices double as slot indices and message routes, as in
    // `mpilite::collectives`; iterator rewrites would hide that.
    #[allow(clippy::needless_range_loop)]
    fn exchange_u64(&mut self, own: u64, value: impl Fn(usize) -> u64) -> Vec<u64> {
        let tag = self.next_coll_tag();
        let (rank, p) = (self.ep.me(), self.p);
        let mut out = vec![0u64; p];
        out[rank] = own;
        for dst in 0..p {
            if dst != rank {
                self.send_msg(dst, tag, &Msg::Coll(mpilite::CollPayload::U64(value(dst))));
            }
        }
        for src in 0..p {
            if src != rank {
                let bytes = self.recv_match(src, tag);
                match wire::decode_msg(&bytes) {
                    Msg::Coll(mpilite::CollPayload::U64(v)) => out[src] = v,
                    other => panic!("collective exchange got {other:?}"),
                }
            }
        }
        self.stats.collectives += 1;
        out
    }
}

impl Transport for ProcTransport<'_> {}

impl RankTransport for ProcTransport<'_> {
    fn rank(&self) -> usize {
        self.ep.me()
    }
    fn size(&self) -> usize {
        self.p
    }
    fn exchange_edge_counts(&mut self, count: u64) -> Vec<u64> {
        debug_assert!(self.inbox.is_empty(), "protocol traffic across step end");
        self.exchange_u64(count, |_| count)
    }
    fn draw_quota(&mut self, step_ops: u64, q: &[f64], rng: &mut BlockRng64) -> u64 {
        // Identical RNG consumption to `parallel_multinomial_owned`.
        let row = edgeswitch_dist::local_quota_row(step_ops, self.p, self.ep.me(), q, rng);
        let mine = self.exchange_u64(row[self.ep.me()], |dst| row[dst]);
        mine.into_iter().sum()
    }
    fn send(&mut self, dst: usize, msg: Msg) {
        self.send_msg(dst, TAG_PROTO, &msg);
    }
    fn try_recv(&mut self) -> Option<(usize, Msg)> {
        self.try_recv_proto()
    }
    fn recv_block(&mut self) -> (usize, Msg) {
        loop {
            if let Some(x) = self.try_recv_proto() {
                return x;
            }
            self.wait_for_traffic();
        }
    }
}

// ---------------------------------------------------------------------
// Boot blob
// ---------------------------------------------------------------------

/// How a rank child obtains its initial edge pool.
enum BootPayload {
    /// The launcher materialized the graph and shipped every rank's pool:
    /// per-rank edge-pool lengths, with rank `r`'s keys following rank
    /// `r-1`'s in the concatenated key array. O(m) boot bytes.
    Keys { counts: Vec<u64>, keys: Vec<u64> },
    /// Seed boot: an O(1) [`StreamSpec`] — each child replays the
    /// generator stream and keeps the edges it owns
    /// ([`build_rank_store_streamed`]), so no edge list ever crosses the
    /// boot channel and no participant holds more than its own share.
    Gen { spec: StreamSpec },
}

struct BootBlob {
    config: ParallelConfig,
    part: Partitioner,
    t: u64,
    payload: BootPayload,
}

fn encode_config(out: &mut Vec<u8>, config: &ParallelConfig) {
    // Only fields the rank loop reads; per-invocation `proc_opts` and
    // observation are launcher-side (children always run unobserved —
    // probes never perturb, and process runs carry no `RunReport`).
    put_u64(out, config.processors as u64);
    out.push(match config.scheme {
        edgeswitch_graph::SchemeKind::Consecutive => 0,
        edgeswitch_graph::SchemeKind::HashDivision => 1,
        edgeswitch_graph::SchemeKind::HashMultiplication => 2,
        edgeswitch_graph::SchemeKind::HashUniversal => 3,
    });
    let (step_tag, step_arg) = match config.step_size {
        crate::config::StepSize::Ops(s) => (0u8, s),
        crate::config::StepSize::FractionOfT(d) => (1, d),
        crate::config::StepSize::SingleStep => (2, 0),
    };
    out.push(step_tag);
    put_u64(out, step_arg);
    out.push(match config.quota_policy {
        crate::config::QuotaPolicy::EdgeProportional => 0,
        crate::config::QuotaPolicy::Uniform => 1,
    });
    put_u64(out, config.seed);
    put_u64(out, config.window as u64);
    out.push(config.local_fastpath as u8);
}

fn decode_config(r: &mut Reader<'_>) -> ParallelConfig {
    let processors = r.u64() as usize;
    let scheme = match r.u8() {
        0 => edgeswitch_graph::SchemeKind::Consecutive,
        1 => edgeswitch_graph::SchemeKind::HashDivision,
        2 => edgeswitch_graph::SchemeKind::HashMultiplication,
        3 => edgeswitch_graph::SchemeKind::HashUniversal,
        tag => panic!("unknown scheme tag {tag}"),
    };
    let step_size = match (r.u8(), r.u64()) {
        (0, s) => crate::config::StepSize::Ops(s),
        (1, d) => crate::config::StepSize::FractionOfT(d),
        (2, _) => crate::config::StepSize::SingleStep,
        (tag, _) => panic!("unknown step-size tag {tag}"),
    };
    let quota_policy = match r.u8() {
        0 => crate::config::QuotaPolicy::EdgeProportional,
        1 => crate::config::QuotaPolicy::Uniform,
        tag => panic!("unknown quota-policy tag {tag}"),
    };
    let mut config = ParallelConfig::new(processors)
        .with_scheme(scheme)
        .with_step_size(step_size)
        .with_quota_policy(quota_policy)
        .with_seed(r.u64());
    config = config.with_window(r.u64() as usize);
    config.with_local_fastpath(r.u8() != 0)
}

fn encode_partitioner(out: &mut Vec<u8>, part: &Partitioner) {
    match part {
        Partitioner::Consecutive { starts } => {
            out.push(0);
            put_u64(out, starts.len() as u64);
            for s in starts {
                put_u64(out, *s);
            }
        }
        Partitioner::HashDivision { p } => {
            out.push(1);
            put_u32(out, *p);
        }
        Partitioner::HashMultiplication { p, a } => {
            out.push(2);
            put_u32(out, *p);
            put_u64(out, a.to_bits());
        }
        Partitioner::HashUniversal { p, a, b, c } => {
            out.push(3);
            put_u32(out, *p);
            put_u64(out, *a);
            put_u64(out, *b);
            put_u64(out, *c);
        }
    }
}

fn decode_partitioner(r: &mut Reader<'_>) -> Partitioner {
    match r.u8() {
        0 => {
            let len = r.len(8);
            Partitioner::Consecutive {
                starts: (0..len).map(|_| r.u64()).collect(),
            }
        }
        1 => Partitioner::HashDivision { p: r.u32() },
        2 => Partitioner::HashMultiplication {
            p: r.u32(),
            a: f64::from_bits(r.u64()),
        },
        3 => Partitioner::HashUniversal {
            p: r.u32(),
            a: r.u64(),
            b: r.u64(),
            c: r.u64(),
        },
        tag => panic!("unknown partitioner tag {tag}"),
    }
}

fn encode_stream_spec(out: &mut Vec<u8>, spec: &StreamSpec) {
    match *spec {
        StreamSpec::Pa { n, d, seed } => {
            out.push(0);
            put_u64(out, n as u64);
            put_u64(out, d as u64);
            put_u64(out, seed);
        }
        StreamSpec::PowerLawSeq {
            n,
            gamma,
            d_min,
            d_max,
            seed,
        } => {
            out.push(1);
            put_u64(out, n as u64);
            put_u64(out, gamma.to_bits());
            put_u64(out, d_min as u64);
            put_u64(out, d_max as u64);
            put_u64(out, seed);
        }
    }
}

fn decode_stream_spec(r: &mut Reader<'_>) -> StreamSpec {
    match r.u8() {
        0 => StreamSpec::Pa {
            n: r.u64() as usize,
            d: r.u64() as usize,
            seed: r.u64(),
        },
        1 => StreamSpec::PowerLawSeq {
            n: r.u64() as usize,
            gamma: f64::from_bits(r.u64()),
            d_min: r.u64() as usize,
            d_max: r.u64() as usize,
            seed: r.u64(),
        },
        tag => panic!("unknown stream-spec tag {tag}"),
    }
}

/// Payload tags in the boot blob.
const BOOT_KEYS: u8 = 0;
const BOOT_GEN: u8 = 1;

fn encode_boot_header(config: &ParallelConfig, part: &Partitioner, n: usize, t: u64) -> Vec<u8> {
    let mut out = Vec::new();
    encode_config(&mut out, config);
    encode_partitioner(&mut out, part);
    put_u64(&mut out, n as u64);
    put_u64(&mut out, t);
    out
}

fn encode_boot(
    config: &ParallelConfig,
    part: &Partitioner,
    n: usize,
    t: u64,
    stores: &[PartitionStore],
) -> Vec<u8> {
    let mut out = encode_boot_header(config, part, n, t);
    out.push(BOOT_KEYS);
    put_u64(&mut out, stores.len() as u64);
    for store in stores {
        put_u64(&mut out, store.num_edges() as u64);
    }
    for store in stores {
        // Pool order: edge sampling order. Raw keys keep the blob
        // byte-exact across processes.
        for e in store.edges() {
            put_u64(&mut out, e.key());
        }
    }
    out
}

fn encode_boot_gen(
    config: &ParallelConfig,
    part: &Partitioner,
    t: u64,
    spec: &StreamSpec,
) -> Vec<u8> {
    let mut out = encode_boot_header(config, part, spec.num_vertices(), t);
    out.push(BOOT_GEN);
    encode_stream_spec(&mut out, spec);
    out
}

fn decode_boot(bytes: &[u8]) -> BootBlob {
    let mut r = Reader::new(bytes);
    let config = decode_config(&mut r);
    let part = decode_partitioner(&mut r);
    let _n = r.u64(); // vertex count: launcher-side (assemble_outcome)
    let t = r.u64();
    let payload = match r.u8() {
        BOOT_KEYS => {
            let p = r.len(8);
            let counts: Vec<u64> = (0..p).map(|_| r.u64()).collect();
            let total: u64 = counts.iter().sum();
            let keys: Vec<u64> = (0..total).map(|_| r.u64()).collect();
            BootPayload::Keys { counts, keys }
        }
        BOOT_GEN => BootPayload::Gen {
            spec: decode_stream_spec(&mut r),
        },
        tag => panic!("unknown boot-payload tag {tag}"),
    };
    r.expect_end("boot blob");
    BootBlob {
        config,
        part,
        t,
        payload,
    }
}

// ---------------------------------------------------------------------
// Result streaming (chunked over the child → launcher ring)
// ---------------------------------------------------------------------

fn result_chunk_len(world: &ShmWorld) -> usize {
    (world.ring_capacity() / 2).clamp(1024, 16 * 1024)
}

fn send_result(ep: &Endpoint<'_>, launcher: usize, blob: &[u8], chunk: usize) {
    let mut header = Vec::with_capacity(8);
    put_u64(&mut header, blob.len() as u64);
    ep.send(launcher, TAG_RESULT, &header, SEND_TIMEOUT);
    for piece in blob.chunks(chunk.max(1)) {
        ep.send(launcher, TAG_RESULT, piece, SEND_TIMEOUT);
    }
}

/// Launcher side: drain `TAG_RESULT` frames from all `p` rank children
/// until every blob is complete, reporting a [`ProcError::RankDied`] if a
/// child dies first.
fn collect_results(
    ep: &mut Endpoint<'_>,
    p: usize,
    children: &mut [Child],
) -> Result<Vec<Vec<u8>>, ProcError> {
    let mut want: Vec<Option<usize>> = vec![None; p];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); p];
    let mut done = 0usize;
    while done < p {
        if let Some((src, tag, payload)) = ep.try_recv() {
            assert_eq!(
                tag, TAG_RESULT,
                "unexpected tag {tag} from rank {src} at teardown"
            );
            assert!(src < p);
            match want[src] {
                None => {
                    assert_eq!(payload.len(), 8, "result header frame");
                    let total = u64::from_le_bytes(payload.try_into().unwrap()) as usize;
                    want[src] = Some(total);
                    bufs[src].reserve(total);
                    if total == 0 {
                        done += 1;
                    }
                }
                Some(total) => {
                    assert!(
                        bufs[src].len() < total,
                        "rank {src} sent extra result bytes"
                    );
                    bufs[src].extend_from_slice(payload);
                    if bufs[src].len() == total {
                        done += 1;
                    }
                }
            }
            continue;
        }
        match ep.wait(64, 256, Duration::from_millis(100)) {
            WaitOutcome::Ready | WaitOutcome::ParkedReady(_) | WaitOutcome::TimedOut => {}
            WaitOutcome::Dead => unreachable!("launcher owns the liveness word"),
        }
        // A rank that died before completing its blob would hang us
        // forever: check child status whenever the rings run dry.
        for (rank, child) in children.iter_mut().enumerate() {
            let complete = want[rank].is_some_and(|total| bufs[rank].len() == total);
            if complete {
                continue;
            }
            if let Ok(Some(status)) = child.try_wait() {
                if !status.success() {
                    return Err(ProcError::RankDied {
                        rank,
                        detail: format!("exited with {status} before returning results"),
                    });
                }
                // Exited cleanly: its frames are still in the ring; keep
                // draining (the next loop iterations will consume them).
            }
        }
    }
    Ok(bufs)
}

/// Best-effort teardown of rank children on an error path: kill whatever
/// is still running, then reap everything so no zombie outlives the
/// failed launch.
fn kill_children(children: &mut [Child]) {
    for child in children.iter_mut() {
        let _ = child.kill();
    }
    for child in children.iter_mut() {
        let _ = child.wait();
    }
}

// ---------------------------------------------------------------------
// Launcher
// ---------------------------------------------------------------------

/// Why a process-backed launch failed. Each variant maps onto the
/// corresponding [`RunError`](crate::run::RunError) variant at the `Run`
/// API boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcError {
    /// Shared-memory worlds are unavailable on this platform (the
    /// process backend needs Linux).
    Unsupported(String),
    /// A rank child could not be spawned.
    Spawn {
        /// The rank whose spawn failed.
        rank: usize,
        /// The OS error.
        detail: String,
    },
    /// A rank child died, exited abnormally, or returned no result.
    RankDied {
        /// The rank that died.
        rank: usize,
        /// What happened to it.
        detail: String,
    },
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Unsupported(detail) => {
                write!(
                    f,
                    "process backend needs shared-memory support (Linux): {detail}"
                )
            }
            ProcError::Spawn { rank, detail } => write!(f, "spawning shm rank {rank}: {detail}"),
            ProcError::RankDied { rank, detail } => write!(f, "shm rank {rank}: {detail}"),
        }
    }
}

impl std::error::Error for ProcError {}

/// Run `t` switch operations on `graph` under `config` with rank
/// processes over shared memory — the process-backend body of
/// [`Run::try_execute`](crate::run::Run::try_execute). Bit-identical to
/// the threaded world at `p = 1`, schedule-equivalent at `p > 1`. Launch
/// failures come back as [`ProcError`], with every already-spawned child
/// killed and reaped on the error path.
pub(crate) fn process_switch(
    graph: &Graph,
    t: u64,
    config: &ParallelConfig,
    part: &Partitioner,
) -> Result<ParallelOutcome, ProcError> {
    let p = config.processors;
    assert_eq!(part.num_parts(), p, "partitioner size must match config");
    let stores = build_stores(graph, part);
    let n = graph.num_vertices();
    let boot = encode_boot(config, part, n, t, &stores);
    drop(stores);
    launch_world(boot, n, t, config)
}

/// Seed-boot launcher: run `t` switch operations on the graph *described*
/// by `spec` without ever materializing it on the launcher. The boot blob
/// carries the O(1) spec instead of the O(m) edge list; each rank child
/// replays the generator stream and keeps its own share
/// ([`build_rank_store_streamed`]), so peak residency per participant is
/// O(m/p) and boot-channel traffic is constant in `m`.
///
/// Semantically identical to materializing `spec.build()` and running
/// [`Run::process`](crate::run::Run::process) on it — the per-rank pool order is the same
/// (streamed split ≡ `build_stores`; see `edgeswitch_graph::store`) — so
/// outcomes match the materialized launch bit for bit.
///
/// # Panics
/// Panics when `spec.validate()` rejects the parameters or the
/// partitioner size disagrees with `config.processors`.
pub fn try_parallel_edge_switch_proc_gen(
    spec: &StreamSpec,
    t: u64,
    config: &ParallelConfig,
    part: &Partitioner,
) -> Result<ParallelOutcome, ProcError> {
    assert_eq!(
        part.num_parts(),
        config.processors,
        "partitioner size must match config"
    );
    if let Err(detail) = spec.validate() {
        panic!("seed-boot spec rejected: {detail}");
    }
    let boot = encode_boot_gen(config, part, t, spec);
    launch_world(boot, spec.num_vertices(), t, config)
}

/// Shared launch machinery: write `boot` into a fresh shm world, respawn
/// one child per rank, collect result blobs, and assemble the outcome.
/// Initial per-rank edge counts come back in the result blobs (the
/// seed-boot launcher has no other way to learn them).
fn launch_world(
    boot: Vec<u8>,
    n: usize,
    t: u64,
    config: &ParallelConfig,
) -> Result<ParallelOutcome, ProcError> {
    let p = config.processors;
    let harness = StepHarness::new(t, config);
    let steps = harness.steps();

    // k = p ranks + 1 launcher endpoint (index p) for result return.
    let world = ShmWorld::create(p + 1, config.proc_opts.ring_capacity, boot.len())
        .map_err(|err| ProcError::Unsupported(err.to_string()))?;
    world.write_boot(&boot);

    let exe = match &config.proc_opts.exe_override {
        Some(path) => path.clone(),
        None => std::env::current_exe().map_err(|err| ProcError::Spawn {
            rank: 0,
            detail: format!("current_exe for rank respawn: {err}"),
        })?,
    };
    let mut children: Vec<Child> = Vec::with_capacity(p);
    for rank in 0..p {
        let mut cmd = Command::new(&exe);
        cmd.args(&config.proc_opts.child_args)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_FD, world.fd().to_string())
            .env(ENV_LEN, world.len().to_string())
            .env(ENV_PPID, std::process::id().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        #[cfg(unix)]
        {
            use std::os::unix::process::CommandExt;
            // Arm the parent-death signal before exec; the child re-checks
            // its ppid to close the fork-to-arm race.
            unsafe {
                cmd.pre_exec(|| {
                    edgeswitch_shm::die_with_parent();
                    Ok(())
                });
            }
        }
        let child = match cmd.spawn() {
            Ok(child) => child,
            Err(err) => {
                kill_children(&mut children);
                return Err(ProcError::Spawn {
                    rank,
                    detail: err.to_string(),
                });
            }
        };
        if config.proc_opts.announce_children {
            println!("shm-child-pid: {}", child.id());
        }
        children.push(child);
    }

    let mut ep = world.endpoint(p);
    let blobs = match collect_results(&mut ep, p, &mut children) {
        Ok(blobs) => blobs,
        Err(err) => {
            kill_children(&mut children);
            return Err(err);
        }
    };
    for (rank, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("reaping shm rank child");
        if !status.success() {
            kill_children(&mut children);
            return Err(ProcError::RankDied {
                rank,
                detail: format!("exited with {status}"),
            });
        }
    }

    let mut outputs: Vec<Option<RankOutput>> = (0..p).map(|_| None).collect();
    let mut telemetry = vec![StepTelemetry::default(); steps as usize];
    // Each blob is freed once decoded: the launcher never holds a rank's
    // result both as bytes and as a store for longer than one rank.
    for blob in blobs {
        let (output, rank_telemetry) = wire::decode_rank_result(&blob);
        drop(blob);
        for (acc, step) in telemetry.iter_mut().zip(&rank_telemetry) {
            acc.merge(step);
        }
        let rank = output.store.rank();
        assert!(
            outputs[rank].replace(output).is_none(),
            "duplicate result for rank {rank}"
        );
    }
    let mut outputs_final: Vec<RankOutput> = Vec::with_capacity(p);
    for (rank, o) in outputs.into_iter().enumerate() {
        match o {
            Some(output) => outputs_final.push(output),
            None => {
                return Err(ProcError::RankDied {
                    rank,
                    detail: "no result returned".to_string(),
                })
            }
        }
    }

    // Process runs are unobserved: meta stays None, report stays None.
    Ok(assemble_outcome(n, steps, outputs_final, telemetry, None))
}

// ---------------------------------------------------------------------
// Rank child
// ---------------------------------------------------------------------

/// Whether this platform can run the process backend (Linux with
/// shared-memory worlds). [`Run::process`](crate::run::Run::process) is
/// `BackendUnsupported` where this returns `false`; benches and tests use
/// it to skip process cases.
pub fn process_backend_supported() -> bool {
    edgeswitch_shm::SUPPORTED
}

/// Re-entry hook for rank children: a no-op unless the shm environment
/// variables are present, in which case it attaches to the inherited
/// world, runs the full rank loop, streams its results back, and
/// **exits the process** (never returns).
///
/// Every binary that launches process-backed runs must route its rank
/// children here: binaries call it at the top of `main`; libtest
/// binaries expose it through an `#[ignore]`d test named
/// `shm_child_entry` (the default `ProcOpts::child_args` select exactly
/// that test in the respawned child).
pub fn child_entry_from_env() {
    let Ok(rank) = std::env::var(ENV_RANK) else {
        return;
    };
    let rank: usize = rank.parse().expect("EDGESWITCH_SHM_RANK parses");
    let fd: i32 = std::env::var(ENV_FD)
        .expect(ENV_FD)
        .parse()
        .expect("fd parses");
    let len: usize = std::env::var(ENV_LEN)
        .expect(ENV_LEN)
        .parse()
        .expect("len parses");
    let ppid: u32 = std::env::var(ENV_PPID)
        .expect(ENV_PPID)
        .parse()
        .expect("ppid parses");

    // Defense in depth: re-arm the death signal (pre_exec already did on
    // Unix), then verify the parent is still the process that spawned us —
    // if it died before the signal was armed, exit instead of orphaning.
    edgeswitch_shm::die_with_parent();
    if edgeswitch_shm::parent_pid() != ppid {
        std::process::exit(2);
    }

    let world = ShmWorld::open(fd, len).expect("attaching inherited shm world");
    run_rank_child(&world, rank);
    std::process::exit(0);
}

fn run_rank_child(world: &ShmWorld, rank: usize) {
    let BootBlob {
        config,
        part,
        t,
        payload,
    } = decode_boot(world.boot());
    let p = config.processors;
    assert_eq!(world.participants(), p + 1);
    assert!(rank < p);

    let store = match payload {
        BootPayload::Keys { counts, keys } => {
            // Rebuild this rank's store with the exact pool order the
            // launcher serialized (insertion order == pool order ==
            // sampling order).
            let offset: u64 = counts[..rank].iter().sum();
            let mut store = PartitionStore::new(rank);
            for key in &keys[offset as usize..(offset + counts[rank]) as usize] {
                let inserted = store.insert(Edge::from_key(*key));
                debug_assert!(inserted, "boot store has duplicate edges");
            }
            store
        }
        BootPayload::Gen { spec } => {
            // Seed boot: replay the generator stream, keep owned edges.
            // The streamed split preserves emission order, so the pool
            // order equals what a materialized boot would have shipped.
            let mut stream = spec
                .stream()
                .expect("seed-boot spec validated at the launcher");
            build_rank_store_streamed(&mut *stream, &part, rank)
        }
    };
    let mut state = RankState::new(rank, part, store, &config);
    let mut transport = ProcTransport::new(world.endpoint(rank), p);
    let harness = StepHarness::new(t, &config);
    let telemetry = run_switch_rank(&mut transport, &mut state, harness);

    let output = state.into_output(transport.stats());
    let blob = wire::encode_rank_result(&output, &telemetry);
    send_result(&transport.ep, p, &blob, result_chunk_len(world));
}
