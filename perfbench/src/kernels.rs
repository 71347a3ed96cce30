//! Per-layer kernel rows: each public layer type driven directly, on the
//! workload's own graph, a fixed number of operations per repetition.
//!
//! Every row is the median of [`REPS`] repetitions. Probe targets are
//! drawn up front with the benchmark's own generator, so the timed loops
//! contain only the layer's operation and the memory traffic of reaching
//! it; results pass through `black_box`.

use crate::api::*;
use crate::stats::{median, median_secs, splitmix64, timed};
use std::hint::black_box;
use std::time::Duration;

/// Repetitions per kernel row.
pub const REPS: usize = 5;

/// Named values a section contributes to the per-layer ledger.
pub type Rows = Vec<(&'static str, f64)>;

/// Upper bound on pre-drawn probe targets (2^18 edges = 2 MiB of keys:
/// past the per-core L2, so probes reach memory like the engines' do).
const MAX_QUERIES: usize = 1 << 18;

/// The graph-structure and RNG kernels the switch loop is made of.
pub fn hot_loop(graph: &Graph, seed: u64, step_ops: u64) -> Rows {
    let m = graph.num_edges();
    let n = graph.num_vertices() as u64;
    let mut pool = EdgePool::with_capacity(m);
    for e in graph.edges() {
        pool.insert(e);
    }
    let mut z = seed;
    let mut next = move || {
        z = splitmix64(z);
        z
    };
    let queries: Vec<Edge> = (0..m.min(MAX_QUERIES))
        .map(|_| pool.get((next() % m as u64) as usize).expect("index < m"))
        .collect();
    let strangers: Vec<u64> = queries.iter().map(|_| next() % n).collect();
    let q = queries.len() as f64;
    let mut rows = Rows::new();
    let mut per_op = |name, ops: f64, f: &mut dyn FnMut()| {
        rows.push((name, median_secs(REPS, f) * 1e9 / ops));
    };

    let mut rng = rank_block_rng(seed, 0);
    per_op("graph.sampling.sample_ns", q, &mut || {
        for _ in 0..queries.len() {
            black_box(pool.sample(&mut rng));
        }
    });
    per_op("graph.sampling.remove_insert_ns", q, &mut || {
        for &e in &queries {
            black_box(pool.remove(e));
            black_box(pool.insert(e));
        }
    });
    // One hit (the edge's far endpoint) and one almost-sure miss per query.
    per_op("graph.adjacency.contains_ns", 2.0 * q, &mut || {
        for (e, &w) in queries.iter().zip(&strangers) {
            let set = graph.neighbors(e.src());
            black_box(set.contains(e.dst()));
            black_box(set.contains(w));
        }
    });
    let mut sets: Vec<NeighborSet> = (0..n).map(|v| graph.neighbors(v).clone()).collect();
    per_op("graph.adjacency.insert_remove_ns", q, &mut || {
        for e in &queries {
            let set = &mut sets[e.src() as usize];
            black_box(set.remove(e.dst()));
            black_box(set.insert(e.dst()));
        }
    });
    drop(sets);
    let mut index = map_with_capacity::<u64, u32>(m);
    for (i, e) in graph.edges().enumerate() {
        index.insert(e.key(), i as u32);
    }
    per_op("graph.hashing.probe_ns", q, &mut || {
        for e in &queries {
            black_box(index.get(&e.key()));
        }
    });
    drop(index);
    const WORDS: u64 = 1 << 22;
    per_op("dist.rng.block_next_ns", WORDS as f64, &mut || {
        rng.skip_words(WORDS);
        black_box(rng.words_served());
    });
    // One step's worth of Algorithm 5 at p = 2: the per-step quota draw.
    const DRAWS: usize = 256;
    per_op("dist.binomial.draw_ns", DRAWS as f64, &mut || {
        for _ in 0..DRAWS {
            black_box(binomial(step_ops, 0.5, &mut rng));
        }
    });
    per_op("dist.multinomial.quota_us", DRAWS as f64 * 1e3, &mut || {
        for _ in 0..DRAWS {
            black_box(local_quota_row(step_ops, 2, 0, &[0.5, 0.5], &mut rng));
        }
    });
    rows
}

/// The messages of one accepted three-rank switch conversation, a step
/// boundary, and one coalesced frame: the fixed mix the codec rows use.
fn msg_mix() -> Vec<Msg> {
    let conv = ConvId {
        initiator: 1,
        seq: 0x1234_5678,
    };
    let edge = Edge::new(123_456, 654_321);
    let conversation = vec![
        Msg::Propose { conv, e1: edge },
        Msg::Validate { conv, edge },
        Msg::ValidateOk { conv, edge },
        Msg::CommitAdd { conv, edge },
        Msg::CommitRemove { conv, edge },
        Msg::CommitAck { conv },
        Msg::CommitAck { conv },
        Msg::Done { conv },
    ];
    let mut mix = conversation.clone();
    mix.push(Msg::EndOfStep);
    mix.push(Msg::Coll(CollPayload::VecU64(vec![500_000, 500_000])));
    mix.push(Msg::Batch(conversation));
    mix
}

/// Wire codec, shm rings and the thread transport.
pub fn transports() -> Rows {
    let mut rows = Rows::new();
    let mix = msg_mix();
    const ROUNDS: usize = 20_000;
    let msgs = (ROUNDS * mix.len()) as f64;
    let mut buf = Vec::new();
    let encode = median_secs(REPS, || {
        for _ in 0..ROUNDS {
            for msg in &mix {
                buf.clear();
                encode_msg(msg, &mut buf);
                black_box(&buf);
            }
        }
    });
    let frames: Vec<Vec<u8>> = mix
        .iter()
        .map(|msg| {
            let mut frame = Vec::new();
            encode_msg(msg, &mut frame);
            frame
        })
        .collect();
    let decode = median_secs(REPS, || {
        for _ in 0..ROUNDS {
            for frame in &frames {
                black_box(decode_msg(frame));
            }
        }
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    rows.push(("core.wire.encode_ns_per_msg", encode * 1e9 / msgs));
    rows.push(("core.wire.decode_ns_per_msg", decode * 1e9 / msgs));
    rows.push(("core.wire.bytes_per_msg", bytes as f64 / mix.len() as f64));

    let frame = &frames[0];
    if SHM_SUPPORTED {
        const HOPS: usize = 200_000;
        let patience = Duration::from_secs(30);
        let world = ShmWorld::create(2, 1 << 18, 0).expect("shm world for the ring rows");
        let a = world.endpoint(0);
        let mut b = world.endpoint(1);
        let push_pop = median_secs(REPS, || {
            for _ in 0..HOPS {
                a.send(1, 1, frame, patience);
                black_box(b.try_recv());
            }
        });
        rows.push(("shm.ring.push_pop_ns", push_pop * 1e9 / HOPS as f64));
        drop((a, b));

        const ROUND_TRIPS: usize = 20_000;
        let pingpong = median_secs(REPS, || {
            std::thread::scope(|scope| {
                let world = &world;
                scope.spawn(move || {
                    let mut ep = world.endpoint(1);
                    for _ in 0..ROUND_TRIPS {
                        ep.wait(64, 256, patience);
                        black_box(ep.try_recv());
                        ep.send(0, 1, frame, patience);
                    }
                });
                let mut ep = world.endpoint(0);
                for _ in 0..ROUND_TRIPS {
                    ep.send(1, 1, frame, patience);
                    ep.wait(64, 256, patience);
                    black_box(ep.try_recv());
                }
            });
        });
        rows.push(("shm.ring.pingpong_us", pingpong * 1e6 / ROUND_TRIPS as f64));
    }

    const EXCHANGES: usize = 20_000;
    let mut mpi = |name, body: fn(&mut Comm<CollPayload>)| {
        let secs = median_secs(REPS, || {
            run_world(2, WorldConfig::default(), |comm| {
                for _ in 0..EXCHANGES {
                    body(comm);
                }
            });
        });
        rows.push((name, secs * 1e6 / EXCHANGES as f64));
    };
    mpi("mpi.pingpong_us", |comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, CollPayload::U64(7));
            black_box(comm.recv());
        } else {
            black_box(comm.recv());
            comm.send(0, 1, CollPayload::U64(7));
        }
    });
    mpi("mpi.allgather_us", |comm| {
        black_box(comm.allgather_u64(comm.rank() as u64));
    });
    rows
}

/// Chunked-engine overhead and checkpoint cost on `graph`, at a budget of
/// `t` operations; returns the rows and the encoded snapshot.
pub fn resume(graph: &Graph, t: u64, seed: u64) -> (Rows, Vec<u8>) {
    let mut chunked = Vec::new();
    let mut oneshot = Vec::new();
    let mut engine = None;
    for _ in 0..REPS {
        let (secs, eng) = timed(|| {
            let mut eng = SequentialResumable::new(graph.clone(), t, seed);
            while !eng.is_done() {
                eng.step(4096);
            }
            eng
        });
        chunked.push(secs);
        engine = Some(eng);
        let run = Run::sequential().switches(t).seed(seed);
        oneshot.push(timed(|| black_box(run.try_execute(graph).expect("sequential run"))).0);
    }
    let engine = engine.expect("REPS >= 1");
    let mut snapshot = Vec::new();
    let encode = median_secs(REPS, || {
        snapshot = encode_seq_checkpoint(&engine.checkpoint());
    });
    let rows = vec![
        (
            "core.resume.chunked_overhead_ratio",
            median(&chunked) / median(&oneshot),
        ),
        ("core.resume.snapshot_encode_ms", encode * 1e3),
        (
            "core.resume.snapshot_bytes_per_edge",
            snapshot.len() as f64 / graph.num_edges() as f64,
        ),
    ];
    (rows, snapshot)
}

/// A submit request carrying an inline graph: the largest document shape
/// the service parses.
fn inline_job_json(edges: usize) -> String {
    let list: Vec<String> = (0..edges)
        .map(|i| format!("[{},{}]", i, (i * 7 + 1) % edges.max(2)))
        .collect();
    format!(
        "{{\"op\":\"submit\",\"job\":{{\"graph\":{{\"type\":\"inline\",\"n\":{edges},\
         \"edges\":[{}]}},\"budget\":{{\"visit_rate\":0.9}},\"driver\":\"sequential\",\
         \"seed\":7}}}}",
        list.join(",")
    )
}

/// Service-side layers driven without a job: JSON parse, snapshot
/// persistence into `scratch_dir`, and the request round trip.
pub fn service(snapshot: &[u8], scratch_dir: &std::path::Path) -> Rows {
    let mut rows = Rows::new();
    let doc = inline_job_json(4096);
    const PARSES: usize = 50;
    let parse = median_secs(REPS, || {
        for _ in 0..PARSES {
            black_box(json_parse(&doc).expect("well-formed document"));
        }
    });
    let kb = (PARSES * doc.len()) as f64 / 1024.0;
    rows.push(("svc.json.parse_us_per_kb", parse * 1e6 / kb));

    let ckpt_dir = scratch_dir.join(format!("kernel-ckpt-{}", std::process::id()));
    let store = CkptStore::open(&ckpt_dir).expect("open checkpoint dir");
    let save = median_secs(REPS, || {
        store.save_snapshot(1, snapshot).expect("save snapshot");
    });
    rows.push(("svc.ckpt.save_snapshot_ms", save * 1e3));
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let server = crate::workloads::SvcServer::start(scratch_dir, "kernel-svc");
    let mut client = Client::connect(&server.addr).expect("connect to own server");
    // One request per sample: a round trip here costs tens of milliseconds
    // (two small writes each way meet delayed ACKs), so a few samples do.
    let ping = Json::obj([("op", Json::str("ping"))]);
    let rtt = median_secs(3 * REPS, || {
        black_box(client.request(&ping).expect("ping"));
    });
    rows.push(("svc.ping_rtt_us", rtt * 1e6));
    drop(client);
    server.stop();
    rows
}
