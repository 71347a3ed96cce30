//! The process-backed driver: ranks as OS child processes over
//! shared-memory rings, so `p` ranks genuinely occupy `p` cores.
//!
//! A rank process is a threaded rank on another link: it runs the same
//! `mpilite::Comm` (tag matching, pending buffer, collectives, traffic
//! counters) over a `ShmLink` instead of a channel mailbox, and the
//! same rank body (`run_rank`: the shared rank loop, every step opened
//! by the [`StepHarness`] boundary a simulated world opens its steps
//! with); the launcher runs the same [`assemble_outcome`] merge. What
//! differs is boot and teardown:
//!
//! * the launcher serializes a **boot blob** into an [`ShmWorld`] and
//!   respawns the current binary once per rank with the mapping inherited
//!   by fd. The blob's payload is either the materialized per-rank edge
//!   pools as raw keys (O(m) boot bytes), or — under **seed boot**
//!   ([`try_parallel_edge_switch_proc_gen`]) — an O(1)
//!   [`StreamSpec`] that each child replays locally to regenerate
//!   exactly the edges it owns, so boot cost is constant in `m` and no
//!   participant ever holds more than its own share;
//! * each rank child attaches, rebuilds its share of the edges
//!   bit-identically (pool order is preserved, so edge sampling matches
//!   the threaded engine and the simulators), and runs the rank body
//!   over its `ShmLink` — point-to-point `Msg` frames and the
//!   step-boundary collectives all travel the world's SPSC rings;
//! * at teardown each child takes its endpoint back from the `Comm` and
//!   streams a **result blob** (its `RankOutput` — its edges as a key
//!   list in pool order — and per-step telemetry, by the [`wire`] field
//!   codecs) back to the launcher over its ring, and exits. The launcher
//!   decodes the key lists and assembles the output graph while the
//!   children exit, then reaps every child and checks its status before
//!   returning; a child that exits, even cleanly, without sending its
//!   whole blob, or whose frames or blob are malformed, is a
//!   [`ProcError::RankDied`].
//!
//! Orphan safety is layered: children arm `PR_SET_PDEATHSIG(SIGKILL)`
//! before exec (re-checking `getppid` to close the pre-arm race), and the
//! world header carries a liveness word that parked ranks poll between
//! futex slices, so a rank can never outlive a dead launcher.
//!
//! Process runs are never observed (`RunReport` stays `None`): probes are
//! guaranteed non-perturbing, so conformance digests are unaffected.

use std::process::{Child, Command, Stdio};
use std::time::Duration;

use edgeswitch_graph::generators::StreamSpec;
use edgeswitch_graph::sampling::EdgePool;
use edgeswitch_graph::store::{build_rank_store_streamed, build_stores};
use edgeswitch_graph::{Edge, Graph, GraphError, Partitioner};
use edgeswitch_shm::{Endpoint, ShmWorld, WaitOutcome};
use mpilite::{Comm, Link, Packet, RECV_TIMEOUT, SPIN_RELAX, SPIN_TOTAL};

use crate::config::ParallelConfig;
use crate::obs::Obs;

use super::harness::{
    assemble_outcome, run_rank, MpiliteTransport, ParallelOutcome, RankMachine, RankOutput,
    StepHarness, StepTelemetry,
};
use super::msg::Msg;
use super::rank::RankState;
use super::wire::{self, put_u32, put_u64, Reader};

const ENV_RANK: &str = "EDGESWITCH_SHM_RANK";
const ENV_FD: &str = "EDGESWITCH_SHM_FD";
const ENV_LEN: &str = "EDGESWITCH_SHM_LEN";
const ENV_PPID: &str = "EDGESWITCH_SHM_PPID";

/// Tag for result-blob frames (distinct from the protocol tag, below the
/// collective namespace).
const TAG_RESULT: u32 = 2;

/// Backpressure timeout for a full ring (peer presumed dead after this).
const SEND_TIMEOUT: Duration = Duration::from_secs(120);

/// Per-pair ring data capacity in bytes (a power of two).
const RING_CAPACITY: usize = 1 << 18;
const _: () = assert!(RING_CAPACITY.is_power_of_two());

// ---------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------

/// The [`Link`] of a rank process: its shared-memory [`Endpoint`], one
/// [`Msg`] per ring frame by the [`wire`] codec. The rings guarantee
/// per-pair FIFO order only; `Comm` matches tags above it, exactly as
/// over a threaded rank's mailbox.
pub(crate) struct ShmLink<'w> {
    ep: Endpoint<'w>,
    /// Encode buffer, reused across sends.
    buf: Vec<u8>,
}

impl<'w> ShmLink<'w> {
    pub(crate) fn new(ep: Endpoint<'w>) -> Self {
        ShmLink {
            ep,
            buf: Vec::new(),
        }
    }
}

impl Link<Msg> for ShmLink<'_> {
    fn post(&mut self, dst: usize, packet: Packet<Msg>) {
        self.buf.clear();
        wire::encode_msg(&packet.payload, &mut self.buf);
        self.ep.send(dst, packet.tag, &self.buf, SEND_TIMEOUT);
    }

    fn poll(&mut self) -> Option<Packet<Msg>> {
        let (src, tag, frame) = self.ep.try_recv()?;
        Some(Packet {
            src,
            tag,
            payload: wire::decode_msg(frame),
        })
    }

    fn block(&mut self) -> Option<(Packet<Msg>, Option<u64>)> {
        let parked_ns = match self.ep.wait(SPIN_RELAX, SPIN_TOTAL, RECV_TIMEOUT) {
            WaitOutcome::Ready => None,
            WaitOutcome::ParkedReady(ns) => Some(ns),
            WaitOutcome::TimedOut => return None,
            WaitOutcome::Dead => panic!(
                "rank {}: shm world died while waiting for messages",
                self.ep.me()
            ),
        };
        let packet = self.poll().expect("a ready endpoint holds a frame");
        Some((packet, parked_ns))
    }

    fn backlog(&self) -> usize {
        self.ep.sources_ready()
    }
}

// ---------------------------------------------------------------------
// Boot blob
// ---------------------------------------------------------------------

/// How a rank child obtains its initial edge pool.
enum BootPayload {
    /// The launcher materialized the graph and shipped every rank's pool
    /// (O(m) boot bytes): per-rank edge-pool lengths, with rank `r`'s
    /// keys following rank `r-1`'s in the concatenated key array. A
    /// child decodes its own keys only, in pool order.
    Keys(Vec<u64>),
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
}

fn decode_config(r: &mut Reader<'_>) -> ParallelConfig {
    let processors = r.u64() as usize;
    let scheme = match r.u8() {
        0 => edgeswitch_graph::SchemeKind::Consecutive,
        1 => edgeswitch_graph::SchemeKind::HashDivision,
        2 => edgeswitch_graph::SchemeKind::HashMultiplication,
        3 => edgeswitch_graph::SchemeKind::HashUniversal,
        _ => {
            r.refuse();
            edgeswitch_graph::SchemeKind::Consecutive
        }
    };
    let step_size = match (r.u8(), r.u64()) {
        (0, s) => crate::config::StepSize::Ops(s),
        (1, d) => crate::config::StepSize::FractionOfT(d),
        (2, _) => crate::config::StepSize::SingleStep,
        _ => {
            r.refuse();
            crate::config::StepSize::SingleStep
        }
    };
    let quota_policy = match r.u8() {
        0 => crate::config::QuotaPolicy::EdgeProportional,
        1 => crate::config::QuotaPolicy::Uniform,
        _ => {
            r.refuse();
            crate::config::QuotaPolicy::Uniform
        }
    };
    ParallelConfig::new(processors)
        .with_scheme(scheme)
        .with_step_size(step_size)
        .with_quota_policy(quota_policy)
        .with_seed(r.u64())
        .with_window(r.u64() as usize)
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
        _ => {
            r.refuse();
            Partitioner::HashDivision { p: 0 }
        }
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
        _ => {
            r.refuse();
            StreamSpec::Pa {
                n: 0,
                d: 0,
                seed: 0,
            }
        }
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
    stores: &[EdgePool],
) -> Vec<u8> {
    let mut out = encode_boot_header(config, part, n, t);
    out.push(BOOT_KEYS);
    put_u64(&mut out, stores.len() as u64);
    for store in stores {
        put_u64(&mut out, store.len() as u64);
    }
    for store in stores {
        // Pool order: edge sampling order. Raw keys keep the blob
        // byte-exact across processes.
        for e in store.iter() {
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

/// The boot blob as rank `rank`'s child needs it: of the shipped key
/// array, only its own share is read, the other ranks' skipped. The
/// blob is read as untrusted bytes: a short or malformed one, or one
/// with no share for `rank`, is an `Err`, never a panic, and each key
/// count is capped by the bytes left before anything is allocated.
fn decode_boot(bytes: &[u8], rank: usize) -> Result<BootBlob, String> {
    let mut r = Reader::new(bytes);
    let config = decode_config(&mut r);
    let part = decode_partitioner(&mut r);
    let _n = r.u64(); // vertex count: launcher-side (assemble_outcome)
    let t = r.u64();
    let p = config.processors;
    if rank >= p {
        return Err(format!("boot blob of {p} ranks has no rank {rank}"));
    }
    if part.num_parts() != p {
        return Err(format!(
            "boot blob partitions {} ranks for a run of {p}",
            part.num_parts()
        ));
    }
    let payload = match r.u8() {
        BOOT_KEYS => {
            let counts: Vec<usize> = (0..r.len(8)).map(|_| r.len(8)).collect();
            if counts.len() != p {
                return Err(format!("boot blob counts keys of {} ranks", counts.len()));
            }
            for &count in &counts[..rank] {
                r.skip(8 * count);
            }
            let keys = (0..counts[rank]).map(|_| r.u64()).collect();
            for &count in &counts[rank + 1..] {
                r.skip(8 * count);
            }
            BootPayload::Keys(keys)
        }
        BOOT_GEN => BootPayload::Gen {
            spec: decode_stream_spec(&mut r),
        },
        tag => return Err(format!("boot blob has unknown payload tag {tag}")),
    };
    r.finish().map_err(|err| format!("boot blob: {err}"))?;
    Ok(BootBlob {
        config,
        part,
        t,
        payload,
    })
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
/// child exits first — with a failure status, or cleanly without having
/// sent its whole blob.
fn collect_results(
    ep: &mut Endpoint<'_>,
    p: usize,
    children: &mut [Child],
) -> Result<Vec<Vec<u8>>, ProcError> {
    let mut want: Vec<Option<usize>> = vec![None; p];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); p];
    let complete = |want: &[Option<usize>], bufs: &[Vec<u8>], rank: usize| {
        want[rank].is_some_and(|total| bufs[rank].len() == total)
    };
    loop {
        drain_results(ep, &mut want, &mut bufs)?;
        if (0..p).all(|rank| complete(&want, &bufs, rank)) {
            return Ok(bufs);
        }
        match ep.wait(SPIN_RELAX, SPIN_TOTAL, Duration::from_millis(100)) {
            WaitOutcome::Ready | WaitOutcome::ParkedReady(_) | WaitOutcome::TimedOut => {}
            WaitOutcome::Dead => unreachable!("launcher owns the liveness word"),
        }
        // A rank that exits before completing its blob would hang us
        // forever: check child status whenever the rings run dry.
        for (rank, child) in children.iter_mut().enumerate() {
            if complete(&want, &bufs, rank) {
                continue;
            }
            let Ok(Some(status)) = child.try_wait() else {
                continue;
            };
            if !status.success() {
                return Err(ProcError::RankDied {
                    rank,
                    detail: format!("exited with {status} before returning results"),
                });
            }
            // A clean exit comes after the last frame is in the ring:
            // one more drain takes everything it sent, and what is still
            // missing then never comes.
            drain_results(ep, &mut want, &mut bufs)?;
            if !complete(&want, &bufs, rank) {
                return Err(ProcError::RankDied {
                    rank,
                    detail: "exited cleanly without returning its results".to_string(),
                });
            }
        }
    }
}

/// Take every `TAG_RESULT` frame the rings hold now: a rank's first frame
/// is its blob's length, the rest are the blob's bytes in order. A frame
/// that breaks this — another tag, a header that is not one `u64`, a
/// length that cannot be allocated, bytes past the length — is
/// [`ProcError::RankDied`] for the rank that sent it.
fn drain_results(
    ep: &mut Endpoint<'_>,
    want: &mut [Option<usize>],
    bufs: &mut [Vec<u8>],
) -> Result<(), ProcError> {
    while let Some((src, tag, payload)) = ep.try_recv() {
        assert!(src < want.len());
        let died = |detail: String| ProcError::RankDied { rank: src, detail };
        if tag != TAG_RESULT {
            return Err(died(format!("sent tag {tag} at teardown")));
        }
        match want[src] {
            None => {
                let header: [u8; 8] = payload
                    .try_into()
                    .map_err(|_| died(format!("result header of {} bytes", payload.len())))?;
                let total = u64::from_le_bytes(header) as usize;
                bufs[src]
                    .try_reserve(total)
                    .map_err(|err| died(format!("result of {total} bytes: {err}")))?;
                want[src] = Some(total);
            }
            Some(total) => {
                if bufs[src].len() + payload.len() > total {
                    return Err(died(format!("sent more than its {total} result bytes")));
                }
                bufs[src].extend_from_slice(payload);
            }
        }
    }
    Ok(())
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
    launch_world(boot, n, t, config, part)
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
    launch_world(boot, spec.num_vertices(), t, config, part)
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
    part: &Partitioner,
) -> Result<ParallelOutcome, ProcError> {
    let p = config.processors;
    let harness = StepHarness::new(t, config);
    let steps = harness.steps();

    // k = p ranks + 1 launcher endpoint (index p) for result return.
    let world = ShmWorld::create(p + 1, RING_CAPACITY, boot.len())
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

    // Decode and assemble while the children exit: each has sent its
    // last frame, and its teardown overlaps the launcher's.
    let outcome = match gather(blobs, n, steps, part) {
        Ok(outcome) => outcome,
        Err(err) => {
            kill_children(&mut children);
            return Err(err);
        }
    };

    // Every child is reaped, and its exit checked, before the outcome
    // is handed back.
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
    Ok(outcome)
}

/// Decode the ranks' result blobs, in rank order, and assemble the
/// outcome of the `n`-vertex, `steps`-step run split by `part`. A blob
/// that is not its sender's ([`decode_result`]), or whose keys repeat
/// an edge, is [`ProcError::RankDied`] for that rank.
fn gather(
    blobs: Vec<Vec<u8>>,
    n: usize,
    steps: u64,
    part: &Partitioner,
) -> Result<ParallelOutcome, ProcError> {
    let died = |rank, detail| ProcError::RankDied {
        rank,
        detail: format!("malformed result: {detail}"),
    };
    let mut outputs = Vec::with_capacity(blobs.len());
    let mut telemetry = vec![StepTelemetry::default(); steps as usize];
    // Each blob is freed once decoded: the launcher never holds a rank's
    // result both as bytes and as a key list for longer than one rank.
    for (rank, blob) in blobs.into_iter().enumerate() {
        let (output, rank_telemetry) =
            decode_result(&blob, rank, steps, part, n).map_err(|detail| died(rank, detail))?;
        drop(blob);
        for (acc, step) in telemetry.iter_mut().zip(&rank_telemetry) {
            acc.merge(step);
        }
        outputs.push(output);
    }
    // Process runs are unobserved: meta stays None, report stays None.
    assemble_outcome(n, steps, outputs, telemetry, None).map_err(|err| {
        // Every key is its sender's and in range (`decode_result`), so
        // what is left to fail is an edge a rank sent twice.
        let GraphError::ParallelEdge(e) = err else {
            unreachable!("decode_result refuses {err}")
        };
        died(part.owner(e.src()), err.to_string())
    })
}

/// Decode the result blob rank `rank` sent ([`wire::decode_rank_result`])
/// and check it is that rank's: it names the rank, every key is an edge
/// on the run's `n` vertices that `part` gives the rank, and it has one
/// telemetry row per step. Keys that pass can repeat an edge only within
/// the one rank's list, which the gather refuses ([`assemble_outcome`]).
/// One owner lookup a key: no key is sorted or hashed.
fn decode_result(
    blob: &[u8],
    rank: usize,
    steps: u64,
    part: &Partitioner,
    n: usize,
) -> Result<(RankOutput, Vec<StepTelemetry>), String> {
    let (output, telemetry) = wire::decode_rank_result(blob)?;
    let stray = (output.keys.iter().map(|&key| Edge::from_key(key)))
        .find(|e| e.dst() >= n as u64 || part.owner(e.src()) != rank);
    if output.rank != rank {
        Err(format!("the blob names rank {}", output.rank))
    } else if let Some(e) = stray {
        Err(format!(
            "edge {e} is not one of rank {rank} on {n} vertices"
        ))
    } else if telemetry.len() as u64 != steps {
        Err(format!(
            "{} telemetry rows for {steps} steps",
            telemetry.len()
        ))
    } else {
        Ok((output, telemetry))
    }
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
    if let Err(err) = run_rank_child(&world, rank) {
        // A non-zero exit without a result: the launcher reports
        // `RankDied` for this rank.
        eprintln!("shm rank {rank}: {err}");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// One rank child's whole run, from its boot blob to its result; `Err`
/// (before any message is sent) if the boot blob is unusable.
fn run_rank_child(world: &ShmWorld, rank: usize) -> Result<(), String> {
    let BootBlob {
        config,
        part,
        t,
        payload,
    } = decode_boot(world.boot(), rank)?;
    let p = config.processors;
    if world.participants() != p + 1 {
        return Err(format!(
            "boot blob of {p} ranks in a world of {} participants",
            world.participants()
        ));
    }

    let store = match payload {
        BootPayload::Keys(keys) => {
            // Rebuild this rank's pool with the exact order the launcher
            // serialized (insertion order == pool order == sampling
            // order).
            keys.into_iter().map(Edge::from_key).collect()
        }
        BootPayload::Gen { spec } => {
            // Seed boot: replay the generator stream, keep owned edges.
            // The streamed split preserves emission order, so the pool
            // order equals what a materialized boot would have shipped.
            let mut stream = spec.stream().map_err(|err| format!("boot spec: {err}"))?;
            build_rank_store_streamed(&mut *stream, &part, rank)
        }
    };
    // The rank body of a threaded rank, over this process's rings.
    let mut comm = Comm::new(rank, p, ShmLink::new(world.endpoint(rank)));
    let harness = StepHarness::new(t, &config);
    let state = RankState::build(rank, &part, store, &config, &harness, Obs::noop());
    let (output, telemetry) = run_rank(&mut MpiliteTransport::new(&mut comm), state, harness);
    let blob = wire::encode_rank_result(&output, &telemetry);
    send_result(&comm.into_link().ep, p, &blob, result_chunk_len(world));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visit::Visits;
    use edgeswitch_dist::{parallel_multinomial_owned, rank_block_rng, root_rng};
    use mpilite::{run_world, CommStats, WorldConfig};

    /// The launcher takes a result blob only as its sender's, with one
    /// telemetry row per step of the run.
    #[test]
    fn a_result_must_be_its_senders_and_cover_every_step() {
        let output = RankOutput {
            rank: 1,
            keys: vec![Edge::new(1, 2).key()],
            visits: Visits {
                initial: 1,
                unvisited: vec![1],
            },
            stats: Default::default(),
            comm: Default::default(),
            obs: None,
        };
        let blob = wire::encode_rank_result(&output, &vec![StepTelemetry::default(); 2]);
        let part = Partitioner::hash_division(2);
        assert!(decode_result(&blob, 1, 2, &part, 3).is_ok());
        let err = decode_result(&blob, 0, 2, &part, 3).unwrap_err();
        assert!(err.contains("names rank 1"), "{err}");
        let err = decode_result(&blob, 1, 3, &part, 3).unwrap_err();
        assert!(err.contains("2 telemetry rows for 3 steps"), "{err}");
        assert!(decode_result(&blob[..blob.len() - 1], 1, 2, &part, 3).is_err());
    }

    /// A rank child reads its own keys of a materialized boot, in pool
    /// order, and nothing of the other ranks'.
    #[test]
    fn a_rank_boots_from_its_own_keys() {
        let g = edgeswitch_graph::generators::erdos_renyi_gnm(50, 200, &mut root_rng(3));
        let (config, part) = (ParallelConfig::new(3), Partitioner::hash_division(3));
        let stores = build_stores(&g, &part);
        let boot = encode_boot(&config, &part, 50, 7, &stores);
        for (rank, store) in stores.iter().enumerate() {
            let blob = decode_boot(&boot, rank).unwrap();
            assert_eq!(blob.t, 7);
            let BootPayload::Keys(keys) = blob.payload else {
                panic!("a materialized boot ships keys");
            };
            assert!(keys.iter().map(|&k| Edge::from_key(k)).eq(store.iter()));
        }
    }

    /// A boot blob is untrusted bytes: every prefix, a key count no
    /// input could hold, an unknown tag, a rank past the last and a
    /// partitioner of another rank count are an `Err` of `decode_boot`,
    /// never a panic or an allocation sized by the damaged count.
    #[test]
    fn a_damaged_boot_blob_is_an_error() {
        let g = edgeswitch_graph::generators::erdos_renyi_gnm(20, 40, &mut root_rng(5));
        let (config, part) = (ParallelConfig::new(2), Partitioner::hash_division(2));
        let keys = encode_boot(&config, &part, 20, 7, &build_stores(&g, &part));
        let spec = StreamSpec::Pa {
            n: 20,
            d: 2,
            seed: 3,
        };
        let gen = encode_boot_gen(&config, &part, 7, &spec);
        // The payload tag follows the header; a keys payload then counts
        // its ranks, then gives each rank's count.
        let tag_at = encode_boot_header(&config, &part, 20, 7).len();
        let count_at = |rank: usize| tag_at + 1 + 8 + 8 * rank;
        for blob in [&keys, &gen] {
            for rank in 0..2 {
                assert!(decode_boot(blob, rank).is_ok());
                for cut in 0..blob.len() {
                    assert!(decode_boot(&blob[..cut], rank).is_err(), "cut {cut}");
                }
            }
            let err = decode_boot(blob, 2).err().unwrap();
            assert!(err.contains("no rank 2"), "{err}");
            let mut bad_tag = blob.clone();
            bad_tag[tag_at] = 7;
            let err = decode_boot(&bad_tag, 0).err().unwrap();
            assert!(err.contains("unknown payload tag 7"), "{err}");
        }
        let mut bad_spec = gen.clone();
        bad_spec[tag_at + 1] = 9;
        assert!(decode_boot(&bad_spec, 0).is_err());
        let three = Partitioner::hash_division(3);
        let err = decode_boot(&encode_boot_gen(&config, &three, 7, &spec), 0).err();
        assert!(err.unwrap().contains("partitions 3 ranks"));
        for inflated in 0..2 {
            let mut huge = keys.clone();
            huge[count_at(inflated)..count_at(inflated) + 8]
                .copy_from_slice(&(1u64 << 60).to_le_bytes());
            for rank in 0..2 {
                assert!(
                    decode_boot(&huge, rank).is_err(),
                    "count of rank {inflated}"
                );
            }
        }
    }

    /// Result blobs that decode but are no share of the run — an edge
    /// repeated within a rank, an edge another rank owns, an endpoint
    /// past `n` — are `RankDied` for the rank that sent the edge, never
    /// a panic of the gather.
    #[test]
    fn a_gathered_key_list_must_be_a_share_of_the_run() {
        let (n, steps) = (10, 2);
        // Rank `v % 2` owns the edges at `v`, their smaller endpoint.
        let part = Partitioner::hash_division(2);
        let blob = |rank: usize, edges: &[(u64, u64)]| {
            let output = RankOutput {
                rank,
                keys: edges.iter().map(|&(u, v)| Edge::new(u, v).key()).collect(),
                visits: Visits {
                    initial: edges.len(),
                    unvisited: vec![0; edges.len().div_ceil(64)],
                },
                stats: Default::default(),
                comm: Default::default(),
                obs: None,
            };
            let rows = vec![StepTelemetry::default(); steps as usize];
            let blob = wire::encode_rank_result(&output, &rows);
            assert!(wire::decode_rank_result(&blob).is_ok());
            blob
        };
        let (even, odd) = ([(0, 1), (2, 3), (4, 9)], [(1, 2), (3, 4), (5, 6)]);
        let whole = gather(vec![blob(0, &even), blob(1, &odd)], n, steps, &part);
        assert_eq!(whole.map(|out| out.graph.num_edges()).ok(), Some(6));
        let cases = [
            ("repeated", 1, &[(1, 2), (3, 4), (1, 2)][..]),
            ("repeated", 0, &[(0, 1), (2, 3), (0, 1)]),
            ("another rank's", 0, &[(0, 1), (1, 2)]),
            ("another rank's", 1, &[(1, 2), (2, 3)]),
            ("past n", 1, &[(1, 2), (3, 10)]),
            ("past n", 0, &[(0, 1), (10, 12)]),
        ];
        for (why, rank, edges) in cases {
            // The rank sends `edges`, the other rank its own share.
            let mut blobs = vec![blob(0, &even), blob(1, &odd)];
            blobs[rank] = blob(rank, edges);
            match gather(blobs, n, steps, &part) {
                Err(ProcError::RankDied { rank: died, detail }) => {
                    assert_eq!(died, rank, "{why}: {detail}");
                }
                other => panic!("{why} on rank {rank}: {:?}", other.map(|_| "gathered")),
            }
        }
    }

    /// Each collective the step boundaries use, on fixed inputs and a
    /// fixed seed, as any rank runs them over any link.
    fn collectives<L: Link<Msg>>(comm: &mut Comm<Msg, L>) -> (Vec<u64>, Vec<u64>, u64, CommStats) {
        let rank = comm.rank() as u64;
        let gathered = comm.allgather_u64(10 + rank);
        let row: Vec<u64> = (0..comm.size() as u64)
            .map(|dst| 100 * rank + dst)
            .collect();
        let transposed = comm.alltoall_u64(&row);
        let mut rng = rank_block_rng(7, rank);
        let quota = parallel_multinomial_owned(comm, 1_000, &[0.25, 0.75], &mut rng);
        (gathered, transposed, quota, comm.stats())
    }

    /// The shm link in one process: two threads share a world, each runs
    /// a `Comm` over its own endpoint, and the values and the traffic
    /// books come out as they do over the threaded world's mailboxes.
    #[test]
    fn shm_link_runs_the_collectives_like_a_mailbox() {
        if !process_backend_supported() {
            eprintln!("process backend unsupported on this platform; skipping");
            return;
        }
        let threaded = run_world(2, WorldConfig::default(), collectives);
        let world = ShmWorld::create(2, 1 << 12, 0).unwrap();
        let shm: Vec<_> = std::thread::scope(|scope| {
            let ranks: Vec<_> = (0..2)
                .map(|rank| {
                    let world = &world;
                    scope.spawn(move || {
                        let mut comm = Comm::new(rank, 2, ShmLink::new(world.endpoint(rank)));
                        collectives(&mut comm)
                    })
                })
                .collect();
            ranks.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(threaded[0].0, vec![10, 11]);
        assert_eq!(threaded[1].1, vec![1, 101]);
        for (rank, (a, b)) in shm.iter().zip(&threaded).enumerate() {
            assert_eq!((&a.0, &a.1, a.2), (&b.0, &b.1, b.2), "rank {rank} values");
            let (sa, sb) = (a.3, b.3);
            assert_eq!(sa.packets_sent, sb.packets_sent, "rank {rank}");
            assert_eq!(sa.bytes_sent, sb.bytes_sent, "rank {rank}");
            assert_eq!(sa.collectives, 3, "rank {rank}");
            assert_eq!(sa.collectives, sb.collectives, "rank {rank}");
            assert_eq!(sa.logical_by_kind, sb.logical_by_kind, "rank {rank}");
        }
    }
}
