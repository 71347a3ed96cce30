//! Byte codec for [`Msg`] frames crossing the process-backed transport.
//!
//! The threaded driver moves `Msg` values through in-process channels, so it
//! never needs a serialized form; the shared-memory rings move raw bytes, so
//! this module defines one. The format is deliberately dumb: a one-byte
//! discriminant followed by little-endian fields, edges as their canonical
//! `u64` keys, floats via `to_bits`. Message frames are trusted (both ends
//! are the same binary), so a malformed one panics — a torn or corrupt
//! frame is a transport bug, not an input error. Engine snapshots come
//! from files and rank results from another process, and are not: their
//! decoders return `Result`. All run on one
//! bounds-checked `Reader` that latches the first bad read. Snapshots
//! are at format 4: format 3 carries visit marks as a bitmap over the
//! snapshot's own edge list (see the snapshot section below), and format
//! 4 writes one message counter fewer per telemetry row (the trade visit
//! kind is gone).

use edgeswitch_graph::Edge;
use mpilite::{CollPayload, CommStats, KIND_SLOTS};

use crate::config::Budget;
use crate::sequential::{RejectCounts, SeqCheckpoint};
use crate::switch::RejectReason;
use crate::trade::{CurveballCheckpoint, PassController};
use crate::visit::{check_bitmap, Visits};

use super::harness::{MsgCounts, RankOutput, StepTelemetry};
use super::msg::{ConvId, Msg, MsgKind};
use super::rank::{RankCheckpoint, RankStats};
use super::resume::WorldSnapshot;

const T_PROPOSE: u8 = 0;
const T_VALIDATE: u8 = 1;
const T_VALIDATE_OK: u8 = 2;
const T_VALIDATE_FAIL: u8 = 3;
const T_RELEASE: u8 = 4;
const T_COMMIT_ADD: u8 = 5;
const T_COMMIT_REMOVE: u8 = 6;
const T_COMMIT_ACK: u8 = 7;
const T_DONE: u8 = 8;
const T_ABORT: u8 = 9;
const T_END_OF_STEP: u8 = 10;
const T_COLL: u8 = 11;
const T_BATCH: u8 = 12;
// 13 and 14 are retired (the speculative-batch pair), as is 17 (the
// trade visit report); they decode as unknown discriminants.
const T_TRADE_LOAD: u8 = 15;
const T_TRADE_HOME: u8 = 16;

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_conv(out: &mut Vec<u8>, conv: ConvId) {
    put_u32(out, conv.initiator);
    put_u64(out, conv.seq);
}

fn put_edge(out: &mut Vec<u8>, edge: Edge) {
    put_u64(out, edge.key());
}

/// A `u32`-counted list of keys (the message codec's lists).
fn put_keys32(out: &mut Vec<u8>, keys: &[u64]) {
    put_u32(out, keys.len() as u32);
    keys.iter().for_each(|&key| put_u64(out, key));
}

/// A `u64`-counted list of keys (the snapshot codec's lists).
fn put_keys(out: &mut Vec<u8>, keys: impl ExactSizeIterator<Item = u64>) {
    put_u64(out, keys.len() as u64);
    keys.for_each(|key| put_u64(out, key));
}

fn reason_code(reason: RejectReason) -> u8 {
    match reason {
        RejectReason::SelfLoop => 0,
        RejectReason::Useless => 1,
        RejectReason::ParallelEdge => 2,
        RejectReason::Contended => 3,
    }
}

fn reason_from(code: u8) -> RejectReason {
    match code {
        0 => RejectReason::SelfLoop,
        1 => RejectReason::Useless,
        2 => RejectReason::ParallelEdge,
        3 => RejectReason::Contended,
        other => panic!("wire: bad reject reason {other}"),
    }
}

// 0, 2 and 4 are retired (the unit, float and float-vector payloads of
// deleted collectives); they decode as unknown subtags.
const C_U64: u8 = 1;
const C_VEC_U64: u8 = 3;

/// Append the encoding of `payload` to `out`.
pub fn encode_coll(payload: &CollPayload, out: &mut Vec<u8>) {
    match payload {
        CollPayload::U64(v) => {
            out.push(C_U64);
            put_u64(out, *v);
        }
        CollPayload::VecU64(vs) => {
            out.push(C_VEC_U64);
            put_keys32(out, vs);
        }
    }
}

/// Append the encoding of `msg` to `out` (`out` is not cleared).
pub fn encode_msg(msg: &Msg, out: &mut Vec<u8>) {
    match msg {
        Msg::Propose { conv, e1 } => {
            out.push(T_PROPOSE);
            put_conv(out, *conv);
            put_edge(out, *e1);
        }
        Msg::Validate { conv, edge } => {
            out.push(T_VALIDATE);
            put_conv(out, *conv);
            put_edge(out, *edge);
        }
        Msg::ValidateOk { conv, edge } => {
            out.push(T_VALIDATE_OK);
            put_conv(out, *conv);
            put_edge(out, *edge);
        }
        Msg::ValidateFail { conv, edge } => {
            out.push(T_VALIDATE_FAIL);
            put_conv(out, *conv);
            put_edge(out, *edge);
        }
        Msg::Release { conv, edge } => {
            out.push(T_RELEASE);
            put_conv(out, *conv);
            put_edge(out, *edge);
        }
        Msg::CommitAdd { conv, edge } => {
            out.push(T_COMMIT_ADD);
            put_conv(out, *conv);
            put_edge(out, *edge);
        }
        Msg::CommitRemove { conv, edge } => {
            out.push(T_COMMIT_REMOVE);
            put_conv(out, *conv);
            put_edge(out, *edge);
        }
        Msg::CommitAck { conv } => {
            out.push(T_COMMIT_ACK);
            put_conv(out, *conv);
        }
        Msg::Done { conv } => {
            out.push(T_DONE);
            put_conv(out, *conv);
        }
        Msg::Abort { conv, reason } => {
            out.push(T_ABORT);
            put_conv(out, *conv);
            out.push(reason_code(*reason));
        }
        Msg::EndOfStep => out.push(T_END_OF_STEP),
        Msg::Coll(payload) => {
            out.push(T_COLL);
            encode_coll(payload, out);
        }
        Msg::Batch(msgs) => {
            out.push(T_BATCH);
            put_u32(out, msgs.len() as u32);
            for m in msgs {
                encode_msg(m, out);
            }
        }
        Msg::TradeLoad { trade, tokens } => {
            out.push(T_TRADE_LOAD);
            put_u32(out, *trade);
            put_keys32(out, tokens);
        }
        Msg::TradeHome { tokens } => {
            out.push(T_TRADE_HOME);
            put_keys32(out, tokens);
        }
    }
}

/// Bounds-checked little-endian cursor. A read past the end yields zeros
/// and latches [`Reader::bad`] (as does a malformed value), so decoders
/// read straight through and check once at the end ([`Reader::finish`]);
/// a length prefix is capped by the bytes that remain ([`Reader::len`]),
/// so a corrupt one can neither allocate nor loop beyond the input.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    bad: bool,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            at: 0,
            bad: false,
        }
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        match self.bytes.get(self.at..self.at + N) {
            Some(chunk) => {
                self.at += N;
                chunk.try_into().expect("slice of length N")
            }
            None => {
                self.at = self.bytes.len();
                self.bad = true;
                [0; N]
            }
        }
    }

    pub(crate) fn u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    pub(crate) fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    pub(crate) fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    /// A `u64` count of items of at least `item_bytes` encoded bytes
    /// each: zero (and bad) when the input cannot hold that many.
    pub(crate) fn len(&mut self, item_bytes: usize) -> usize {
        let n = self.u64();
        self.capped(n, item_bytes)
    }

    /// [`Reader::len`] for the message codec's `u32` counts.
    fn len32(&mut self, item_bytes: usize) -> usize {
        let n = self.u32();
        self.capped(n as u64, item_bytes)
    }

    /// A list written by [`put_keys32`].
    fn keys32(&mut self) -> Vec<u64> {
        let n = self.len32(8);
        (0..n).map(|_| self.u64()).collect()
    }

    /// Step over `n` bytes (bad, at the end, if fewer remain).
    pub(crate) fn skip(&mut self, n: usize) {
        match self.at.checked_add(n).filter(|&to| to <= self.bytes.len()) {
            Some(to) => self.at = to,
            None => {
                self.at = self.bytes.len();
                self.bad = true;
            }
        }
    }

    /// A `u64`-counted list of items at least `item_bytes` long.
    fn list<T>(&mut self, item_bytes: usize, item: impl Fn(&mut Self) -> T) -> Vec<T> {
        let n = self.len(item_bytes);
        (0..n).map(|_| item(self)).collect()
    }

    fn capped(&mut self, n: u64, item_bytes: usize) -> usize {
        let fits = (self.bytes.len() - self.at) / item_bytes;
        if n > fits as u64 {
            self.bad = true;
            return 0;
        }
        n as usize
    }

    /// `Ok` iff every read was in bounds and well-formed and no byte is
    /// left over.
    pub(crate) fn finish(self) -> Result<(), String> {
        if self.bad {
            Err("truncated or malformed".to_string())
        } else if self.at != self.bytes.len() {
            Err(format!("{} trailing bytes", self.bytes.len() - self.at))
        } else {
            Ok(())
        }
    }

    /// [`Reader::finish`] for trusted input (`what` both ends of which
    /// are this binary): anything but a clean end is a bug, so panic.
    pub(crate) fn expect_end(self, what: &str) {
        if let Err(err) = self.finish() {
            panic!("wire: {what}: {err}");
        }
    }

    fn conv(&mut self) -> ConvId {
        let initiator = self.u32();
        let seq = self.u64();
        ConvId { initiator, seq }
    }

    fn edge(&mut self) -> Edge {
        let key = self.u64();
        if key >> 32 >= key & 0xFFFF_FFFF {
            // Not a canonical `src < dst` key (or a bad read's zero).
            self.bad = true;
            return Edge::new(0, 1);
        }
        Edge::from_key(key)
    }

    fn coll(&mut self) -> CollPayload {
        match self.u8() {
            C_U64 => CollPayload::U64(self.u64()),
            C_VEC_U64 => CollPayload::VecU64(self.keys32()),
            other => panic!("wire: bad collective subtag {other}"),
        }
    }

    fn msg(&mut self) -> Msg {
        match self.u8() {
            T_PROPOSE => Msg::Propose {
                conv: self.conv(),
                e1: self.edge(),
            },
            T_VALIDATE => Msg::Validate {
                conv: self.conv(),
                edge: self.edge(),
            },
            T_VALIDATE_OK => Msg::ValidateOk {
                conv: self.conv(),
                edge: self.edge(),
            },
            T_VALIDATE_FAIL => Msg::ValidateFail {
                conv: self.conv(),
                edge: self.edge(),
            },
            T_RELEASE => Msg::Release {
                conv: self.conv(),
                edge: self.edge(),
            },
            T_COMMIT_ADD => Msg::CommitAdd {
                conv: self.conv(),
                edge: self.edge(),
            },
            T_COMMIT_REMOVE => Msg::CommitRemove {
                conv: self.conv(),
                edge: self.edge(),
            },
            T_COMMIT_ACK => Msg::CommitAck { conv: self.conv() },
            T_DONE => Msg::Done { conv: self.conv() },
            T_ABORT => Msg::Abort {
                conv: self.conv(),
                reason: reason_from(self.u8()),
            },
            T_END_OF_STEP => Msg::EndOfStep,
            T_COLL => Msg::Coll(self.coll()),
            T_BATCH => {
                let n = self.len32(1);
                Msg::Batch((0..n).map(|_| self.msg()).collect())
            }
            T_TRADE_LOAD => Msg::TradeLoad {
                trade: self.u32(),
                tokens: self.keys32(),
            },
            T_TRADE_HOME => Msg::TradeHome {
                tokens: self.keys32(),
            },
            other => panic!("wire: bad message discriminant {other}"),
        }
    }
}

/// Decode one message; panics on malformed or trailing bytes.
pub fn decode_msg(bytes: &[u8]) -> Msg {
    let mut r = Reader::new(bytes);
    let msg = r.msg();
    r.expect_end("message frame");
    msg
}

/// Decode one collective payload; panics on malformed or trailing bytes.
pub fn decode_coll(bytes: &[u8]) -> CollPayload {
    let mut r = Reader::new(bytes);
    let payload = r.coll();
    r.expect_end("collective payload");
    payload
}

// ---------------------------------------------------------------------
// Engine snapshots (checkpoint/resume)
// ---------------------------------------------------------------------
//
// The same dumb little-endian style as the message codec, reused for the
// job service's on-disk checkpoints: a magic/version header, a kind
// byte, then the snapshot fields in declaration order. Floats go through
// `to_bits`, edges as canonical keys. Visit marks (format 3) are a
// bitmap over the snapshot's own edge list — ⌈m/64⌉ words, bit `i` set
// iff edge `i` is an unvisited initial edge — which a switch engine fills
// in one sweep of its pool's index, and which cannot name an edge the
// snapshot lacks or name one twice. Each encoder sizes its buffer up
// front and writes it once. A snapshot written by a different format version
// fails the header check instead of misreading state — a stale
// checkpoint must never silently resume. The decoders only vouch
// for the *encoding*; whether the decoded state belongs to the run being
// resumed is checked where it is restored (`SequentialResumable::restore`,
// `CurveballResumable::restore`, `SimWorld::resume`). The kind byte names
// the engine *and* the randomizer, so a switch snapshot handed to a
// Curveball run (or the reverse) fails the header check.

/// Snapshot header: `b"ESNP"` followed by the format version.
const SNAP_MAGIC: u32 = u32::from_le_bytes(*b"ESNP");
/// Current snapshot format version.
const SNAP_VERSION: u32 = 4;
/// Kind byte of a switch-protocol [`WorldSnapshot`].
const SNAP_WORLD: u8 = 1;
/// Kind byte of a [`SeqCheckpoint`].
const SNAP_SEQ: u8 = 2;
/// Kind byte of a Curveball [`WorldSnapshot`].
const SNAP_TRADE_WORLD: u8 = 3;
/// Kind byte of a sequential Curveball checkpoint.
const SNAP_TRADE_SEQ: u8 = 4;

/// A [`WorldSnapshot`]'s schedule record: codec and snapshot kind byte.
pub(crate) trait SnapField: Sized {
    /// Kind byte of a world snapshot carrying this record.
    const WORLD_KIND: u8;
    /// Encoded size of the record.
    const BYTES: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn read(r: &mut Reader<'_>) -> Self;
}

/// The switch protocol's record: its operation budget `t`.
impl SnapField for u64 {
    const WORLD_KIND: u8 = SNAP_WORLD;
    const BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn read(r: &mut Reader<'_>) -> Self {
        r.u64()
    }
}

/// Curveball's record: the pass controller, budget first.
impl SnapField for PassController {
    const WORLD_KIND: u8 = SNAP_TRADE_WORLD;
    const BYTES: usize = 1 + 8 + 8 + 4 + 8;
    fn put(&self, out: &mut Vec<u8>) {
        let (tag, value) = match self.budget {
            Budget::Ops(t) => (0, t),
            Budget::VisitRate(x) => (1, x.to_bits()),
        };
        out.push(tag);
        put_u64(out, value);
        put_u64(out, self.pass);
        put_u32(out, self.stall);
        put_u64(out, self.last_visited);
    }
    fn read(r: &mut Reader<'_>) -> Self {
        let budget = match (r.u8(), r.u64()) {
            (0, t) => Budget::Ops(t),
            (1, bits) => Budget::VisitRate(f64::from_bits(bits)),
            _ => {
                r.bad = true;
                Budget::Ops(0)
            }
        };
        PassController {
            budget,
            pass: r.u64(),
            stall: r.u32(),
            last_visited: r.u64(),
        }
    }
}

/// Encoded size of the header.
const HEADER_BYTES: usize = 9;

fn put_header(out: &mut Vec<u8>, kind: u8) {
    put_u32(out, SNAP_MAGIC);
    put_u32(out, SNAP_VERSION);
    out.push(kind);
}

/// Visit state at rest ([`Visits`]): the initial edge count, then the
/// marks as a list of words.
fn put_visits(out: &mut Vec<u8>, visits: &Visits) {
    put_u64(out, visits.initial as u64);
    put_keys(out, visits.unvisited.iter().copied());
}

fn put_stats(out: &mut Vec<u8>, stats: &RankStats) {
    for v in [
        stats.performed,
        stats.performed_local,
        stats.performed_global,
        stats.performed_fastpath,
        stats.aborts_loop,
        stats.aborts_useless,
        stats.aborts_parallel,
        stats.aborts_contended,
        stats.forfeited,
        stats.proposals_served,
        stats.validations_served,
    ] {
        put_u64(out, v);
    }
}

fn put_comm(out: &mut Vec<u8>, comm: &CommStats) {
    for v in [
        comm.packets_sent,
        comm.bytes_sent,
        comm.packets_received,
        comm.collectives,
        comm.parks,
        comm.park_ns,
        comm.recv_queue_peak,
        comm.recv_buf_reuses,
    ] {
        put_u64(out, v);
    }
    for v in comm.logical_by_kind {
        put_u64(out, v);
    }
}

fn put_telemetry(out: &mut Vec<u8>, tel: &StepTelemetry) {
    for v in [
        tel.ops,
        tel.started,
        tel.performed,
        tel.local_fastpath,
        tel.forfeited,
        tel.served,
        tel.blocked,
        tel.parked,
        tel.window_peak,
        tel.packets,
        tel.trades,
        tel.neighbors_moved,
    ] {
        put_u64(out, v);
    }
    for v in tel.logical_msgs.slots() {
        put_u64(out, *v);
    }
    for v in [
        tel.boundary_ns,
        tel.drain_ns,
        tel.barrier_ns,
        tel.qrefresh_ns,
        tel.wait_ns,
    ] {
        put_u64(out, v.to_bits());
    }
}

fn put_rank_checkpoint(out: &mut Vec<u8>, ckpt: &RankCheckpoint) {
    put_u64(out, ckpt.rank as u64);
    put_keys(out, ckpt.store_edges.iter().map(|e| e.key()));
    put_visits(out, &ckpt.visits);
    put_stats(out, &ckpt.stats);
    put_u64(out, ckpt.conv_seq);
    put_u64(out, ckpt.rng_words);
}

impl<'a> Reader<'a> {
    fn header(&mut self, kind: u8) -> Result<(), String> {
        let (magic, version, k) = (self.u32(), self.u32(), self.u8());
        if magic != SNAP_MAGIC {
            Err(format!("bad magic {magic:#x}"))
        } else if version != SNAP_VERSION {
            Err(format!("unsupported version {version}"))
        } else if k != kind {
            Err(format!("wrong kind byte {k}"))
        } else {
            Ok(())
        }
    }

    fn stats(&mut self) -> RankStats {
        RankStats {
            performed: self.u64(),
            performed_local: self.u64(),
            performed_global: self.u64(),
            performed_fastpath: self.u64(),
            aborts_loop: self.u64(),
            aborts_useless: self.u64(),
            aborts_parallel: self.u64(),
            aborts_contended: self.u64(),
            forfeited: self.u64(),
            proposals_served: self.u64(),
            validations_served: self.u64(),
        }
    }

    fn comm(&mut self) -> CommStats {
        let mut comm = CommStats {
            packets_sent: self.u64(),
            bytes_sent: self.u64(),
            packets_received: self.u64(),
            collectives: self.u64(),
            parks: self.u64(),
            park_ns: self.u64(),
            recv_queue_peak: self.u64(),
            recv_buf_reuses: self.u64(),
            ..CommStats::default()
        };
        for slot in 0..KIND_SLOTS {
            comm.logical_by_kind[slot] = self.u64();
        }
        comm
    }

    fn telemetry(&mut self) -> StepTelemetry {
        let mut tel = StepTelemetry {
            ops: self.u64(),
            started: self.u64(),
            performed: self.u64(),
            local_fastpath: self.u64(),
            forfeited: self.u64(),
            served: self.u64(),
            blocked: self.u64(),
            parked: self.u64(),
            window_peak: self.u64(),
            packets: self.u64(),
            trades: self.u64(),
            neighbors_moved: self.u64(),
            ..StepTelemetry::default()
        };
        let mut slots = [0u64; MsgKind::COUNT];
        for slot in &mut slots {
            *slot = self.u64();
        }
        tel.logical_msgs = MsgCounts::from_slots(slots);
        tel.boundary_ns = self.f64();
        tel.drain_ns = self.f64();
        tel.barrier_ns = self.f64();
        tel.qrefresh_ns = self.f64();
        tel.wait_ns = self.f64();
        tel
    }

    /// Inverse of [`put_visits`].
    fn visits(&mut self) -> Visits {
        Visits {
            initial: self.u64() as usize,
            unvisited: self.list(8, Reader::u64),
        }
    }

    fn rank_checkpoint(&mut self) -> RankCheckpoint {
        RankCheckpoint {
            rank: self.u64() as usize,
            store_edges: self.list(8, Reader::edge),
            visits: self.visits(),
            stats: self.stats(),
            conv_seq: self.u64(),
            rng_words: self.u64(),
        }
    }
}

/// Encoded size of one [`RankCheckpoint`] with empty lists, one
/// [`CommStats`] and one [`StepTelemetry`] — the per-item floors that cap
/// their length prefixes.
const RANK_CHECKPOINT_MIN: usize = 8 * (4 + 11 + 2);
const COMM_BYTES: usize = 8 * (8 + KIND_SLOTS);
const TELEMETRY_BYTES: usize = 8 * (12 + MsgKind::COUNT + 5);

/// Serialize a [`WorldSnapshot`] (deterministic bytes for a given
/// snapshot).
pub(crate) fn encode_world_snapshot<C: SnapField>(snap: &WorldSnapshot<C>) -> Vec<u8> {
    let lists: usize = (snap.ranks.iter())
        .map(|c| RANK_CHECKPOINT_MIN + 8 * (c.store_edges.len() + c.visits.unvisited.len()))
        .sum();
    // Header, four counters, the schedule record and four list lengths.
    let len = HEADER_BYTES
        + 8 * 4
        + C::BYTES
        + 8 * 4
        + lists
        + COMM_BYTES * snap.comm.len()
        + TELEMETRY_BYTES * snap.telemetry.len()
        + 8 * snap.initial_edges.len();
    let mut out = Vec::with_capacity(len);
    put_header(&mut out, C::WORLD_KIND);
    put_u64(&mut out, snap.seed);
    put_u64(&mut out, snap.p as u64);
    put_u64(&mut out, snap.n as u64);
    snap.schedule.put(&mut out);
    put_u64(&mut out, snap.next_step);
    put_u64(&mut out, snap.ranks.len() as u64);
    for ckpt in &snap.ranks {
        put_rank_checkpoint(&mut out, ckpt);
    }
    put_u64(&mut out, snap.comm.len() as u64);
    for comm in &snap.comm {
        put_comm(&mut out, comm);
    }
    put_u64(&mut out, snap.telemetry.len() as u64);
    for tel in &snap.telemetry {
        put_telemetry(&mut out, tel);
    }
    put_keys(&mut out, snap.initial_edges.iter().copied());
    debug_assert_eq!(out.len(), len);
    out
}

/// Decode a [`WorldSnapshot`] from untrusted bytes: a wrong header,
/// truncation, a length that overruns the input, a non-canonical edge
/// key or trailing bytes all come back as `Err` with the reason.
pub(crate) fn decode_world_snapshot<C: SnapField>(
    bytes: &[u8],
) -> Result<WorldSnapshot<C>, String> {
    let mut r = Reader::new(bytes);
    r.header(C::WORLD_KIND)?;
    let snap = WorldSnapshot {
        seed: r.u64(),
        p: r.u64() as usize,
        n: r.u64() as usize,
        schedule: C::read(&mut r),
        next_step: r.u64(),
        ranks: r.list(RANK_CHECKPOINT_MIN, Reader::rank_checkpoint),
        comm: r.list(COMM_BYTES, Reader::comm),
        telemetry: r.list(TELEMETRY_BYTES, Reader::telemetry),
        initial_edges: r.list(8, Reader::u64),
    };
    r.finish()?;
    Ok(snap)
}

/// Decode a switch-protocol [`WorldSnapshot`] (a simulated switch run's
/// [`Engine::snapshot`](crate::Engine::snapshot)) from untrusted bytes;
/// fails like [`decode_seq_checkpoint`].
pub fn decode_switch_world(bytes: &[u8]) -> Result<WorldSnapshot, String> {
    decode_world_snapshot(bytes)
}

/// Serialize a [`SeqCheckpoint`].
pub fn encode_seq_checkpoint(ckpt: &SeqCheckpoint) -> Vec<u8> {
    encode_seq(ckpt, ckpt.graph_edges.iter().copied())
}

/// The sequential switch encoder: `ckpt` with its edge list taken from
/// `edges` — its own, or a live engine's pool streamed in place of an
/// empty one, so that a snapshot copies the edges once.
pub(crate) fn encode_seq(
    ckpt: &SeqCheckpoint,
    edges: impl ExactSizeIterator<Item = Edge>,
) -> Vec<u8> {
    // Header, nine counters, two list lengths and the stream position.
    let len = HEADER_BYTES + 8 * 12 + 8 * (ckpt.visits.unvisited.len() + edges.len());
    let mut out = Vec::with_capacity(len);
    put_header(&mut out, SNAP_SEQ);
    put_u64(&mut out, ckpt.seed);
    put_u64(&mut out, ckpt.n as u64);
    put_u64(&mut out, ckpt.t);
    put_u64(&mut out, ckpt.performed);
    put_u64(&mut out, ckpt.abandoned);
    put_u64(&mut out, ckpt.rejects.self_loop);
    put_u64(&mut out, ckpt.rejects.useless);
    put_u64(&mut out, ckpt.rejects.parallel);
    put_visits(&mut out, &ckpt.visits);
    put_keys(&mut out, edges.map(|e| e.key()));
    put_u64(&mut out, ckpt.rng_words);
    debug_assert_eq!(out.len(), len);
    out
}

/// Decode a [`SeqCheckpoint`] from untrusted bytes; fails like
/// `decode_world_snapshot`.
pub fn decode_seq_checkpoint(bytes: &[u8]) -> Result<SeqCheckpoint, String> {
    let mut r = Reader::new(bytes);
    r.header(SNAP_SEQ)?;
    let ckpt = SeqCheckpoint {
        seed: r.u64(),
        n: r.u64() as usize,
        t: r.u64(),
        performed: r.u64(),
        abandoned: r.u64(),
        rejects: RejectCounts {
            self_loop: r.u64(),
            useless: r.u64(),
            parallel: r.u64(),
        },
        visits: r.visits(),
        graph_edges: r.list(8, Reader::edge),
        rng_words: r.u64(),
    };
    r.finish()?;
    Ok(ckpt)
}

/// Serialize a sequential Curveball checkpoint.
pub(crate) fn encode_curveball_checkpoint(ckpt: &CurveballCheckpoint) -> Vec<u8> {
    // Header, two counters, the pass controller, two more counters and
    // two list lengths.
    let lists = 8 * (ckpt.visits.unvisited.len() + ckpt.graph_edges.len());
    let len = HEADER_BYTES + 8 * 2 + PassController::BYTES + 8 * 4 + lists;
    let mut out = Vec::with_capacity(len);
    put_header(&mut out, SNAP_TRADE_SEQ);
    put_u64(&mut out, ckpt.seed);
    put_u64(&mut out, ckpt.n as u64);
    ckpt.ctl.put(&mut out);
    put_u64(&mut out, ckpt.neighbors_moved);
    put_visits(&mut out, &ckpt.visits);
    put_keys(&mut out, ckpt.graph_edges.iter().map(|e| e.key()));
    debug_assert_eq!(out.len(), len);
    out
}

/// Decode a sequential Curveball checkpoint from untrusted bytes; fails
/// like [`decode_world_snapshot`].
pub(crate) fn decode_curveball_checkpoint(bytes: &[u8]) -> Result<CurveballCheckpoint, String> {
    let mut r = Reader::new(bytes);
    r.header(SNAP_TRADE_SEQ)?;
    let ckpt = CurveballCheckpoint {
        seed: r.u64(),
        n: r.u64() as usize,
        ctl: PassController::read(&mut r),
        neighbors_moved: r.u64(),
        visits: r.visits(),
        graph_edges: r.list(8, Reader::edge),
    };
    r.finish()?;
    Ok(ckpt)
}

// ---------------------------------------------------------------------
// Rank results (process backend teardown)
// ---------------------------------------------------------------------

/// Serialize what one rank process returns to its launcher: its
/// [`RankOutput`] — rank, edge keys in pool order and its [`Visits`],
/// marks over that order — and its per-step telemetry. Visits, stats,
/// comm counters and telemetry go through the same field codecs as the
/// snapshots, so a new counter is added once.
pub(crate) fn encode_rank_result(output: &RankOutput, telemetry: &[StepTelemetry]) -> Vec<u8> {
    let (keys, visits) = (&output.keys, &output.visits);
    let mut out = Vec::with_capacity(8 * (keys.len() + visits.unvisited.len()) + 512);
    put_u64(&mut out, output.rank as u64);
    put_keys(&mut out, keys.iter().copied());
    put_visits(&mut out, visits);
    put_stats(&mut out, &output.stats);
    put_comm(&mut out, &output.comm);
    put_u64(&mut out, telemetry.len() as u64);
    for tel in telemetry {
        put_telemetry(&mut out, tel);
    }
    out
}

/// Inverse of [`encode_rank_result`]. The edge keys are read straight
/// into the output's list, in pool order (the rank's sampling order, and
/// the order the visit marks index): no pool and no index is built —
/// assembly appends the lists to the output graph's pool unhashed. The
/// blob is another process's bytes, so a malformed one — a short read, a
/// non-canonical key, trailing bytes, marks that are no bitmap over the
/// keys ([`check_bitmap`]) — is an `Err`, never a panic. Process ranks
/// are unobserved: `obs` comes back `None`.
pub(crate) fn decode_rank_result(bytes: &[u8]) -> Result<(RankOutput, Vec<StepTelemetry>), String> {
    let mut r = Reader::new(bytes);
    let output = RankOutput {
        rank: r.u64() as usize,
        keys: r.list(8, |r| r.edge().key()),
        visits: r.visits(),
        stats: r.stats(),
        comm: r.comm(),
        obs: None,
    };
    let steps = r.len(TELEMETRY_BYTES);
    let telemetry = (0..steps).map(|_| r.telemetry()).collect();
    r.finish()?;
    check_bitmap(output.keys.len(), &output.visits)?;
    Ok((output, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(i: u32, s: u64) -> ConvId {
        ConvId {
            initiator: i,
            seq: s,
        }
    }

    fn roundtrip(msg: Msg) {
        let mut bytes = Vec::new();
        encode_msg(&msg, &mut bytes);
        assert_eq!(decode_msg(&bytes), msg);
    }

    #[test]
    fn every_message_variant_roundtrips() {
        let e = |a, b| Edge::new(a, b);
        roundtrip(Msg::Propose {
            conv: conv(1, 2),
            e1: e(3, 4),
        });
        roundtrip(Msg::Validate {
            conv: conv(0, u64::MAX),
            edge: e(7, 8),
        });
        roundtrip(Msg::ValidateOk {
            conv: conv(9, 1),
            edge: e(1, 2),
        });
        roundtrip(Msg::ValidateFail {
            conv: conv(9, 1),
            edge: e(2, 1),
        });
        roundtrip(Msg::Release {
            conv: conv(4, 4),
            edge: e(5, 6),
        });
        roundtrip(Msg::CommitAdd {
            conv: conv(4, 4),
            edge: e(5, 6),
        });
        roundtrip(Msg::CommitRemove {
            conv: conv(4, 4),
            edge: e(6, 5),
        });
        roundtrip(Msg::CommitAck {
            conv: conv(u32::MAX, 0),
        });
        roundtrip(Msg::Done { conv: conv(2, 3) });
        for reason in [
            RejectReason::SelfLoop,
            RejectReason::Useless,
            RejectReason::ParallelEdge,
            RejectReason::Contended,
        ] {
            roundtrip(Msg::Abort {
                conv: conv(8, 8),
                reason,
            });
        }
        roundtrip(Msg::EndOfStep);
        roundtrip(Msg::TradeLoad {
            trade: u32::MAX,
            tokens: vec![e(1, 2).key(), e(3, 4).key().rotate_left(32)],
        });
        roundtrip(Msg::TradeLoad {
            trade: 0,
            tokens: vec![],
        });
        roundtrip(Msg::TradeHome {
            tokens: vec![e(9, 10).key(), e(5, 6).key().rotate_left(32)],
        });
    }

    #[test]
    fn collective_payloads_roundtrip_bit_exactly() {
        for payload in [
            CollPayload::U64(u64::MAX),
            CollPayload::VecU64(vec![]),
            CollPayload::VecU64(vec![1, 2, 3]),
        ] {
            roundtrip(Msg::Coll(payload.clone()));
            let mut bytes = Vec::new();
            encode_coll(&payload, &mut bytes);
            assert_eq!(decode_coll(&bytes), payload);
        }
    }

    #[test]
    fn batches_nest_protocol_messages() {
        roundtrip(Msg::Batch(vec![
            Msg::Propose {
                conv: conv(1, 2),
                e1: Edge::new(3, 4),
            },
            Msg::EndOfStep,
            Msg::Done { conv: conv(5, 6) },
        ]));
    }

    fn sample_rank_checkpoint(rank: usize) -> RankCheckpoint {
        RankCheckpoint {
            rank,
            store_edges: vec![Edge::new(1, 2), Edge::new(3, 4), Edge::new(2, 5)],
            // Edge (3, 4) unvisited.
            visits: Visits {
                initial: 3,
                unvisited: vec![0b010],
            },
            stats: RankStats {
                performed: 7,
                performed_local: 5,
                performed_global: 2,
                performed_fastpath: 4,
                aborts_loop: 1,
                aborts_useless: 2,
                aborts_parallel: 3,
                aborts_contended: 4,
                forfeited: 0,
                proposals_served: 6,
                validations_served: 9,
            },
            conv_seq: 42,
            rng_words: 12345,
        }
    }

    #[test]
    fn world_snapshot_roundtrips() {
        let mut tel = StepTelemetry {
            ops: 10,
            started: 11,
            performed: 9,
            packets: 3,
            boundary_ns: 1.5,
            wait_ns: 2.25,
            ..StepTelemetry::default()
        };
        tel.logical_msgs.record(&Msg::EndOfStep);
        let comm = CommStats {
            packets_sent: 5,
            bytes_sent: 400,
            packets_received: 5,
            ..CommStats::default()
        };
        let snap = WorldSnapshot {
            seed: 99,
            p: 2,
            n: 50,
            schedule: 1000u64,
            next_step: 3,
            ranks: vec![sample_rank_checkpoint(0), sample_rank_checkpoint(1)],
            comm: vec![comm, comm],
            telemetry: vec![tel.clone(), tel],
            initial_edges: vec![100, 101],
        };
        let bytes = encode_world_snapshot(&snap);
        assert_eq!(decode_world_snapshot(&bytes).unwrap(), snap);
        // Deterministic bytes: re-encoding the decode is identical.
        assert_eq!(
            encode_world_snapshot(&decode_world_snapshot::<u64>(&bytes).unwrap()),
            bytes
        );
        // A Curveball world carries its pass controller instead of `t`.
        for budget in [Budget::Ops(4500), Budget::VisitRate(0.9)] {
            let trades = with_schedule(&snap, sample_pass_controller(budget));
            let bytes = encode_world_snapshot(&trades);
            assert_eq!(decode_world_snapshot(&bytes).unwrap(), trades);
        }
    }

    /// `snap` with its schedule record replaced by `schedule`.
    fn with_schedule<C, D>(snap: &WorldSnapshot<C>, schedule: D) -> WorldSnapshot<D> {
        WorldSnapshot {
            seed: snap.seed,
            p: snap.p,
            n: snap.n,
            schedule,
            next_step: snap.next_step,
            ranks: snap.ranks.clone(),
            comm: snap.comm.clone(),
            telemetry: snap.telemetry.clone(),
            initial_edges: snap.initial_edges.clone(),
        }
    }

    fn sample_pass_controller(budget: Budget) -> PassController {
        PassController {
            budget,
            pass: 3,
            stall: 1,
            last_visited: 321,
        }
    }

    fn sample_curveball_checkpoint() -> CurveballCheckpoint {
        CurveballCheckpoint {
            seed: 17,
            n: 30,
            ctl: sample_pass_controller(Budget::VisitRate(0.75)),
            neighbors_moved: 4321,
            visits: Visits {
                initial: 90,
                unvisited: vec![0b01],
            },
            graph_edges: vec![Edge::new(0, 1), Edge::new(2, 3)],
        }
    }

    #[test]
    fn curveball_checkpoint_roundtrips() {
        let ckpt = sample_curveball_checkpoint();
        let bytes = encode_curveball_checkpoint(&ckpt);
        assert_eq!(decode_curveball_checkpoint(&bytes).unwrap(), ckpt);
    }

    #[test]
    fn seq_checkpoint_roundtrips() {
        let ckpt = sample_seq_checkpoint();
        let bytes = encode_seq_checkpoint(&ckpt);
        assert_eq!(decode_seq_checkpoint(&bytes).unwrap(), ckpt);
    }

    fn sample_seq_checkpoint() -> SeqCheckpoint {
        SeqCheckpoint {
            seed: 17,
            n: 30,
            t: 500,
            performed: 123,
            abandoned: 0,
            rejects: RejectCounts {
                self_loop: 3,
                useless: 2,
                parallel: 8,
            },
            visits: Visits {
                initial: 90,
                unvisited: vec![0b11],
            },
            graph_edges: vec![Edge::new(0, 1), Edge::new(2, 3)],
            rng_words: 777,
        }
    }

    #[test]
    fn snapshot_decode_rejects_garbage_and_kind_mismatch() {
        let err = decode_world_snapshot::<u64>(&[0u8; 32]).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
        let seq = encode_seq_checkpoint(&sample_seq_checkpoint());
        let err = decode_world_snapshot::<u64>(&seq).unwrap_err();
        assert!(err.contains("wrong kind"), "{err}");
        // The kind byte tells the randomizers apart.
        let trades = encode_curveball_checkpoint(&sample_curveball_checkpoint());
        assert!(decode_seq_checkpoint(&trades)
            .unwrap_err()
            .contains("wrong kind"));
        assert!(decode_curveball_checkpoint(&seq)
            .unwrap_err()
            .contains("wrong kind"));
        let mut stale = seq.clone();
        stale[4] ^= 0xFF;
        let err = decode_seq_checkpoint(&stale).unwrap_err();
        assert!(err.contains("unsupported version"), "{err}");
    }

    #[test]
    fn damaged_snapshots_are_errors_never_panics() {
        let switches = WorldSnapshot {
            seed: 9,
            p: 2,
            n: 6,
            schedule: 40u64,
            next_step: 1,
            ranks: vec![sample_rank_checkpoint(0), sample_rank_checkpoint(1)],
            comm: vec![CommStats::default(); 2],
            telemetry: vec![StepTelemetry::default()],
            initial_edges: vec![3, 3],
        };
        let trades = with_schedule(&switches, sample_pass_controller(Budget::Ops(40)));
        let world = encode_world_snapshot(&switches);
        let trade_world = encode_world_snapshot(&trades);
        let seq = encode_seq_checkpoint(&sample_seq_checkpoint());
        let trade_seq = encode_curveball_checkpoint(&sample_curveball_checkpoint());
        type Fails = fn(&[u8]) -> bool;
        let decoders: [(&[u8], Fails); 4] = [
            (&world, |b| decode_world_snapshot::<u64>(b).is_err()),
            (&trade_world, |b| {
                decode_world_snapshot::<PassController>(b).is_err()
            }),
            (&seq, |b| decode_seq_checkpoint(b).is_err()),
            (&trade_seq, |b| decode_curveball_checkpoint(b).is_err()),
        ];
        for (bytes, fails) in decoders {
            // Every proper prefix is short, whichever field it cuts.
            for cut in 0..bytes.len() {
                assert!(fails(&bytes[..cut]), "cut {cut}");
            }
            // Trailing bytes are refused too.
            let mut long = bytes.to_vec();
            long.push(0);
            assert!(fails(&long));
            // A flipped bit may still decode (it can land in a counter),
            // but it must never panic, and a length blown up to 2^63
            // items must neither allocate nor loop.
            for at in 0..bytes.len() {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= 0x80;
                for (_, decode) in decoders {
                    let _ = decode(&flipped);
                }
            }
        }
    }

    /// The `sample_rank_checkpoint(1)` fixture as a rank's teardown
    /// result, with three steps of telemetry.
    fn sample_rank_result() -> (RankOutput, Vec<StepTelemetry>) {
        let ckpt = sample_rank_checkpoint(1);
        let output = RankOutput {
            rank: ckpt.rank,
            keys: ckpt.store_edges.iter().map(|e| e.key()).collect(),
            visits: ckpt.visits.clone(),
            stats: ckpt.stats,
            comm: CommStats {
                packets_sent: 4,
                parks: 2,
                ..CommStats::default()
            },
            obs: None,
        };
        let telemetry = vec![
            StepTelemetry {
                ops: 5,
                wait_ns: 1.5,
                ..StepTelemetry::default()
            };
            3
        ];
        (output, telemetry)
    }

    /// The rank-result blob is the launcher's only view of a rank
    /// process: its length and an FNV-1a digest of its bytes are pinned,
    /// so a change to the carrier cannot move the format unnoticed.
    #[test]
    fn rank_result_bytes_are_pinned() {
        let (output, telemetry) = sample_rank_result();
        let bytes = encode_rank_result(&output, &telemetry);
        let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv1a), (1184, 0x3cd4_5803_80d1_9062));
    }

    #[test]
    fn rank_result_roundtrips() {
        let ckpt = sample_rank_checkpoint(1);
        let (output, telemetry) = sample_rank_result();
        let bytes = encode_rank_result(&output, &telemetry);
        let (back, steps) = decode_rank_result(&bytes).expect("a well-formed blob");
        assert_eq!(steps, telemetry);
        assert_eq!(back.rank, 1);
        // Pool order survives the trip: it is the rank's sampling order,
        // and the order the bitmap's bits index.
        let edges: Vec<Edge> = back.keys.iter().map(|&k| Edge::from_key(k)).collect();
        assert_eq!(edges, ckpt.store_edges);
        assert_eq!(back.visits, output.visits);
        let unvisited: Vec<Edge> = back.visits.unvisited_edges(&edges).collect();
        assert_eq!(unvisited, [Edge::new(3, 4)]);
        assert_eq!((back.stats, back.comm), (output.stats, output.comm));
        assert!(back.obs.is_none());
    }

    /// A rank result is another process's bytes: damage is an `Err`, and
    /// what still decodes is a well-formed bitmap over its own keys.
    #[test]
    fn damaged_rank_results_are_errors_never_panics() {
        let (output, telemetry) = sample_rank_result();
        let bytes = encode_rank_result(&output, &telemetry);
        let fails = |b: &[u8]| decode_rank_result(b).is_err();
        // Every proper prefix is short, whichever field it cuts.
        for cut in 0..bytes.len() {
            assert!(fails(&bytes[..cut]), "cut {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(fails(&long), "trailing byte");
        // The three length prefixes: keys, bitmap words, telemetry rows.
        let (k, w) = (output.keys.len(), output.visits.unvisited.len());
        let bitmap_at = 8 + 8 + 8 * k + 8;
        let rows_at = bitmap_at + 8 + 8 * w + 8 * 11 + COMM_BYTES;
        assert_eq!(rows_at + 8 + 3 * TELEMETRY_BYTES, bytes.len());
        for at in [8, bitmap_at, rows_at] {
            // Blown up to 2^63 items, a length neither allocates nor loops.
            let mut inflated = bytes.clone();
            inflated[at + 7] |= 0x80;
            assert!(fails(&inflated), "length at {at} inflated");
            for bit in 0..64 {
                let mut flipped = bytes.clone();
                flipped[at + bit / 8] ^= 1 << (bit % 8);
                assert!(fails(&flipped), "length at {at}, bit {bit}");
            }
        }
        // A mark past the last key, or more marks than initial edges.
        let mut past = bytes.clone();
        past[bitmap_at + 8] |= 0b1000;
        assert!(fails(&past), "mark past the last key");
        let mut over = bytes.clone();
        over[bitmap_at - 8] = 0;
        assert!(fails(&over), "a mark on no initial edge");
        // Any other flipped bit may still decode (it can land in a
        // counter), but never panics.
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                if let Ok((back, _)) = decode_rank_result(&flipped) {
                    assert!(back.visits.visited() <= back.visits.initial);
                }
            }
        }
    }
}
