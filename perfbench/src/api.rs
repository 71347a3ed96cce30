//! The program surface the benchmark depends on — and nothing else.
//!
//! Every name the benchmark uses from the program under test is imported
//! here and only here (`tests::only_api_names_the_program` enforces it),
//! so this list is what "front door" means for `perfbench` and what a
//! later change must keep callable for the benchmark to keep building.
//! No `#[doc(hidden)]` legacy function is on it.
//!
//! Front doors (the timed calls of the six workloads):
//! - `edgeswitch_core::Run::{sequential, parallel, process, simulated}`
//!   with `.visit_rate`, `.switches`, `.seed`, `.scheme`, `.randomizer`,
//!   `.probe`, `.try_execute`; `RunOutcome::{Sequential, Parallel}` and
//!   its `graph`, `performed`, `visit_rate`, `into_parallel`;
//! - `edgeswitch_core::parallel::try_parallel_edge_switch_proc_gen`
//!   with `ParallelConfig::new(p).with_seed(s)`;
//! - `edgeswitch_graph::generators::StreamSpec::{Pa, stream, build}`;
//! - `edgeswitch_svc::{Server, ServerOpts, SchedOpts, Client}`:
//!   `Server::{bind, local_addr, run}`, `Client::{connect, request,
//!   read_line, submit, shutdown}`, the wire ops `ping`, `submit`,
//!   `watch`, `result`, `shutdown`, the job fields `graph` (`pa-stream`),
//!   `budget`, `driver`, `seed`, `return_edges`, and the result fields
//!   `performed`, `abandoned`, `visit_rate`, `digest`, `edges`;
//! - `edgeswitch_core::child_entry_from_env` (rank re-entry).
//!
//! Read from outcomes: `SequentialRun::outcome`, `SequentialOutcome::
//! {performed, abandoned, rejects, report}`, `ParallelOutcome::{graph,
//! report, telemetry, per_rank, steps, performed, forfeited,
//! logical_msg_totals, packet_total, parked_events, blocked_events}`,
//! `StepTelemetry::{local_fastpath, trades, neighbors_moved}`,
//! `RankStats::aborts`, `RunReport::{wall_ns, ranks, phase}` with
//! `Phase` and `HistSummary::sum_ns`, `ObsSpec::{Spans, Off}`.
//!
//! Public layer types driven directly by the stage and kernel rows:
//! - graph: `Graph::{from_edges, clone, edges, neighbors, num_edges,
//!   num_vertices, degree_sequence, check_invariants, edge_digest}`,
//!   `Edge::{new, key, src, dst}`, `EdgeStream::next_chunk`,
//!   `Partitioner::{consecutive, hash_division}`,
//!   `SchemeKind::HashDivision`, `store::{build_stores,
//!   build_rank_store_streamed, assemble_graph}`,
//!   `sampling::EdgePool::{with_capacity, insert, remove, sample, get}`,
//!   `adjacency::NeighborSet::{contains, insert, remove}`,
//!   `hashing::map_with_capacity`;
//! - dist: `rank_block_rng`, `BlockRng64::{skip_words, words_served}`,
//!   `binomial`, `local_quota_row`, `switch_ops_for_visit_rate`;
//! - core: `parallel::wire::{encode_msg, decode_msg,
//!   encode_seq_checkpoint}`, `parallel::{Msg, ConvId}`,
//!   `SequentialResumable::{new, step, is_done, checkpoint}`;
//! - shm: `ShmWorld::{create, endpoint}`, `Endpoint::{send, try_recv,
//!   wait}`, `SUPPORTED`;
//! - mpilite: `run_world`, `WorldConfig::default`, `Comm::{rank, send,
//!   recv, allgather_u64}`, `CollPayload`;
//! - svc: `json::parse`, `Json`, `CkptStore::{open, save_snapshot}`.

pub use edgeswitch_core::child_entry_from_env;
pub use edgeswitch_core::config::ParallelConfig;
pub use edgeswitch_core::obs::Phase;
pub use edgeswitch_core::parallel::wire::{decode_msg, encode_msg, encode_seq_checkpoint};
pub use edgeswitch_core::parallel::{try_parallel_edge_switch_proc_gen, ConvId, Msg};
pub use edgeswitch_core::{
    ObsSpec, ParallelOutcome, Randomizer, Run, RunOutcome, RunReport, SequentialResumable,
};
pub use edgeswitch_dist::{binomial, local_quota_row, rank_block_rng, switch_ops_for_visit_rate};
pub use edgeswitch_graph::adjacency::NeighborSet;
pub use edgeswitch_graph::generators::StreamSpec;
pub use edgeswitch_graph::hashing::map_with_capacity;
pub use edgeswitch_graph::sampling::EdgePool;
pub use edgeswitch_graph::store::{assemble_graph, build_rank_store_streamed, build_stores};
pub use edgeswitch_graph::{Edge, EdgeStream, Graph, Partitioner, SchemeKind};
pub use edgeswitch_shm::{ShmWorld, SUPPORTED as SHM_SUPPORTED};
pub use edgeswitch_svc::json::parse as json_parse;
pub use edgeswitch_svc::{CkptStore, Client, Json, SchedOpts, Server, ServerOpts};
pub use mpilite::{run_world, CollPayload, Comm, WorldConfig};
