//! The process-backed driver: ranks as OS child processes over
//! shared-memory rings, so `p` ranks genuinely occupy `p` cores.
//!
//! A rank process is a threaded rank on another link: it runs the same
//! `mpilite::Comm` (tag matching, pending buffer, collectives, traffic
//! counters) over a [`ShmLink`] instead of a channel mailbox, and the
//! same rank body ([`run_rank`]: the shared rank loop, every step opened
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
//! * each rank child attaches, rebuilds its partition store bit-identically
//!   (pool order is preserved, so edge sampling matches the threaded
//!   engine and the simulators), and runs the rank body over its
//!   [`ShmLink`] — point-to-point `Msg` frames and the step-boundary
//!   collectives all travel the world's SPSC rings;
//! * at teardown each child takes its endpoint back from the `Comm` and
//!   streams a **result blob** (its `RankOutput` — its edges as a key
//!   list in pool order — and per-step telemetry, by the [`wire`] field
//!   codecs) back to the launcher over its ring, and exits. The launcher
//!   decodes the key lists and assembles the output graph while the
//!   children exit, then reaps every child and checks its status before
//!   returning; a child that exits, even cleanly, without sending its
//!   whole blob is a [`ProcError::RankDied`].
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
use edgeswitch_graph::store::{build_rank_store_streamed, build_stores, PartitionStore};
use edgeswitch_graph::{Edge, Graph, Partitioner};
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
        drain_results(ep, &mut want, &mut bufs);
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
            drain_results(ep, &mut want, &mut bufs);
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
/// is its blob's length, the rest are the blob's bytes in order.
fn drain_results(ep: &mut Endpoint<'_>, want: &mut [Option<usize>], bufs: &mut [Vec<u8>]) {
    while let Some((src, tag, payload)) = ep.try_recv() {
        assert_eq!(
            tag, TAG_RESULT,
            "unexpected tag {tag} from rank {src} at teardown"
        );
        assert!(src < want.len());
        match want[src] {
            None => {
                assert_eq!(payload.len(), 8, "result header frame");
                let total = u64::from_le_bytes(payload.try_into().unwrap()) as usize;
                want[src] = Some(total);
                bufs[src].reserve(total);
            }
            Some(total) => {
                assert!(
                    bufs[src].len() < total,
                    "rank {src} sent extra result bytes"
                );
                bufs[src].extend_from_slice(payload);
            }
        }
    }
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
    let mut outputs: Vec<Option<RankOutput>> = (0..p).map(|_| None).collect();
    let mut telemetry = vec![StepTelemetry::default(); steps as usize];
    // Each blob is freed once decoded: the launcher never holds a rank's
    // result both as bytes and as a key list for longer than one rank.
    for blob in blobs {
        let (output, rank_telemetry) = wire::decode_rank_result(&blob);
        drop(blob);
        for (acc, step) in telemetry.iter_mut().zip(&rank_telemetry) {
            acc.merge(step);
        }
        let rank = output.rank;
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
                kill_children(&mut children);
                return Err(ProcError::RankDied {
                    rank,
                    detail: "no result returned".to_string(),
                });
            }
        }
    }
    // Process runs are unobserved: meta stays None, report stays None.
    let outcome = assemble_outcome(n, steps, outputs_final, telemetry, None);

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
    // The rank body of a threaded rank, over this process's rings.
    let mut comm = Comm::new(rank, p, ShmLink::new(world.endpoint(rank)));
    let harness = StepHarness::new(t, &config);
    let state = RankState::build(rank, &part, store, &config, &harness, Obs::noop());
    let (output, telemetry) = run_rank(&mut MpiliteTransport::new(&mut comm), state, harness);
    let blob = wire::encode_rank_result(&output, &telemetry);
    send_result(&comm.into_link().ep, p, &blob, result_chunk_len(world));
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_dist::{parallel_multinomial_owned, rank_block_rng};
    use mpilite::{run_world, CommStats, WorldConfig};

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
