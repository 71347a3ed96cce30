//! End-to-end service tests over real TCP connections: submission and
//! results, concurrent jobs on the bounded rank pool, queue-full
//! rejection, wire-level validation errors, checkpoint/resume
//! bit-identity across a server restart, a damaged checkpoint, and
//! request latency.

use edgeswitch_svc::{json, Client, Json, SchedOpts, Server, ServerOpts, WorkerOpts};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "edgeswitch-svc-{}-{tag}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(dir: &Path, sched: SchedOpts) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOpts {
            ckpt_dir: dir.to_path_buf(),
            sched,
        },
    )
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn er_job(budget: &str, driver: &str, p: u64) -> Json {
    er_job_with(budget, driver, p, "switch")
}

fn er_job_with(budget: &str, driver: &str, p: u64, randomizer: &str) -> Json {
    json::parse(&format!(
        r#"{{"graph":{{"type":"er","n":120,"m":480,"seed":5}},
            "budget":{budget},"driver":"{driver}","p":{p},"seed":11,"window":4,
            "randomizer":"{randomizer}"}}"#
    ))
    .unwrap()
}

#[test]
fn submit_poll_result_roundtrip() {
    let dir = temp_dir("roundtrip");
    let (addr, handle) = start_server(&dir, SchedOpts::default());
    let mut client = Client::connect(&addr).unwrap();

    let pong = client
        .request(&Json::obj([("op", Json::str("ping"))]))
        .unwrap();
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    let id = client
        .submit(er_job(r#"{"switches":400}"#, "simulated", 2))
        .unwrap()
        .expect("admitted");
    let result = client.wait_done(id, Duration::from_secs(60)).unwrap();
    assert_eq!(result.get("performed").and_then(Json::as_u64), Some(400));
    let digest = result.get("digest").and_then(Json::as_str).unwrap();
    assert!(digest.starts_with("0x") && digest.len() == 18, "{digest}");

    // The event stream saw the full lifecycle.
    let (events, _) = client.events(id, 0).unwrap();
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("event").and_then(Json::as_str))
        .collect();
    assert_eq!(kinds.first(), Some(&"queued"));
    assert!(kinds.contains(&"running"));
    assert!(kinds.iter().filter(|k| **k == "step").count() >= 1);
    assert_eq!(kinds.last(), Some(&"done"));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn pool_runs_concurrent_jobs_and_queue_cap_rejects() {
    let dir = temp_dir("pool");
    // Pool of 2 single-rank slots; jobs long enough to overlap
    // (sequential, small chunks → many scheduling points).
    let sched = SchedOpts {
        pool: 2,
        queue_cap: 1,
        worker: WorkerOpts {
            chunk: 64,
            ckpt_every: 0,
        },
    };
    let (addr, handle) = start_server(&dir, sched);
    let mut client = Client::connect(&addr).unwrap();

    let a = client
        .submit(er_job(r#"{"switches":1500000}"#, "sequential", 1))
        .unwrap()
        .expect("job a admitted");
    // With a queue of one, `b` is admitted only once a worker has taken
    // `a` off it; the submission itself does not wait for that.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while client
        .status(a)
        .unwrap()
        .get("state")
        .and_then(Json::as_str)
        == Some("queued")
    {
        assert!(
            std::time::Instant::now() < deadline,
            "job a never left the queue"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let b = client
        .submit(er_job(r#"{"switches":1500000}"#, "sequential", 1))
        .unwrap()
        .expect("job b admitted");

    // Both must be observed running at once (pool has 2 slots).
    loop {
        let sa = client.status(a).unwrap();
        let sb = client.status(b).unwrap();
        let running = |s: &Json| s.get("state").and_then(Json::as_str) == Some("running");
        if running(&sa) && running(&sb) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "jobs never overlapped: {} / {}",
            sa.to_json(),
            sb.to_json()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Pool exhausted: the next job queues (cap 1), the one after bounces.
    let c = client
        .submit(er_job(r#"{"switches":100}"#, "sequential", 1))
        .unwrap()
        .expect("job c queues");
    let rejected = client
        .submit(er_job(r#"{"switches":100}"#, "sequential", 1))
        .unwrap()
        .expect_err("queue is full");
    assert_eq!(
        rejected.get("error").and_then(Json::as_str),
        Some("queue-full")
    );
    assert_eq!(rejected.get("code").and_then(Json::as_u64), Some(429));

    for id in [a, b, c] {
        client.wait_done(id, Duration::from_secs(120)).unwrap();
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn wire_validation_maps_run_errors() {
    let dir = temp_dir("validate");
    let (addr, handle) = start_server(&dir, SchedOpts::default());
    let mut client = Client::connect(&addr).unwrap();

    let bad_budget = client
        .submit(er_job(r#"{"visit_rate":1.5}"#, "sequential", 1))
        .unwrap()
        .expect_err("visit rate out of range");
    assert_eq!(
        bad_budget.get("error").and_then(Json::as_str),
        Some("invalid-budget")
    );
    assert_eq!(bad_budget.get("code").and_then(Json::as_u64), Some(422));

    let bad_window = client
        .submit(
            json::parse(
                r#"{"graph":{"type":"er","n":50,"m":100,"seed":1},
                    "budget":{"switches":10},"driver":"simulated","p":2,"window":0}"#,
            )
            .unwrap(),
        )
        .unwrap()
        .expect_err("window 0");
    assert_eq!(
        bad_window.get("error").and_then(Json::as_str),
        Some("invalid-config")
    );

    // A knob that is present but unusable is refused at parse time,
    // naming the field — it never runs as the default.
    let big_seed = client
        .submit(
            json::parse(
                r#"{"graph":{"type":"er","n":50,"m":100,"seed":1},
                    "budget":{"switches":10},"seed":9007199254740993}"#,
            )
            .unwrap(),
        )
        .unwrap()
        .expect_err("seed beyond 2^53");
    assert_eq!(
        big_seed.get("error").and_then(Json::as_str),
        Some("bad-job")
    );
    let detail = big_seed.get("detail").and_then(Json::as_str).unwrap();
    assert!(detail.contains("'seed'"), "{detail}");

    // A generator spec its generator would panic on is refused at
    // submit; it never queues or takes a rank slot.
    let bad_pa = client
        .submit(
            json::parse(r#"{"graph":{"type":"pa","n":4,"d":4},"budget":{"switches":10}}"#).unwrap(),
        )
        .unwrap()
        .expect_err("pa with d = n");
    assert_eq!(bad_pa.get("error").and_then(Json::as_str), Some("bad-job"));
    let pong = client
        .request(&Json::obj([("op", Json::str("ping"))]))
        .unwrap();
    assert_eq!(
        pong.get("free_slots").and_then(Json::as_u64),
        Some(SchedOpts::default().pool as u64)
    );

    let too_wide = client
        .submit(er_job(r#"{"switches":10}"#, "simulated", 64))
        .unwrap()
        .expect_err("wider than the pool");
    assert_eq!(
        too_wide.get("error").and_then(Json::as_str),
        Some("too-wide")
    );

    let not_found = client
        .request(&Json::obj([
            ("op", Json::str("status")),
            ("id", Json::num(999)),
        ]))
        .unwrap();
    assert_eq!(not_found.get("code").and_then(Json::as_u64), Some(404));

    // One line of 100 000 opening brackets is a bad request, not a
    // stack overflow that takes the server down with every job it holds.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut line = "[".repeat(100_000);
    line.push('\n');
    raw.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(&raw).read_line(&mut reply).unwrap();
    let reply = json::parse(&reply).unwrap();
    assert_eq!(reply.get("code").and_then(Json::as_u64), Some(400));
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad-json"));
    let pong = client
        .request(&Json::obj([("op", Json::str("ping"))]))
        .unwrap();
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The headline guarantee: a server stopped mid-run resumes every
/// in-flight job from its snapshot to a bit-identical result — for
/// Curveball jobs (one pass per unit of work) as for switch jobs. The
/// Curveball budgets are long enough that the stop lands mid-run, and
/// those rows check that the stopped job left its snapshot on disk.
#[test]
fn restart_resumes_jobs_bit_identically() {
    for (randomizer, driver, p, budget) in [
        ("switch", "sequential", 1u64, r#"{"switches":40000}"#),
        ("switch", "simulated", 4u64, r#"{"switches":4000}"#),
        ("curveball", "sequential", 1u64, r#"{"switches":60000}"#),
        ("curveball", "simulated", 4u64, r#"{"switches":12000}"#),
    ] {
        let job = || er_job_with(budget, driver, p, randomizer);
        // Reference: the same spec executed uninterrupted in-process —
        // before the server starts, so it does not run alongside the job
        // and let the job finish before the stop below.
        let spec = edgeswitch_svc::JobSpec::from_json(&job()).unwrap();
        let graph = spec.graph.build().unwrap();
        let reference = spec.as_run().execute(&graph);
        let expect_digest = format!("{:#018x}", reference.graph().edge_digest());

        let dir = temp_dir("resume");
        let sched = SchedOpts {
            pool: 4,
            queue_cap: 8,
            worker: WorkerOpts {
                chunk: 128,
                ckpt_every: 1,
            },
        };
        let (addr, handle) = start_server(&dir, sched);
        let mut client = Client::connect(&addr).unwrap();
        let id = client.submit(job()).unwrap().expect("admitted");

        // Let it make some progress, then stop the server mid-run. (If a
        // short switch job finishes first, the restart still has to
        // serve the stored result identically.)
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let status = client.status(id).unwrap();
            let performed = status.get("performed").and_then(Json::as_u64).unwrap_or(0);
            let state = status.get("state").and_then(Json::as_str).unwrap_or("");
            if performed > 0 || state == "done" {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "job never progressed: {}",
                status.to_json()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        client.shutdown().unwrap();
        handle.join().unwrap();
        let ctx = format!("{randomizer} {driver} p={p}");
        if randomizer == "curveball" {
            assert!(
                dir.join(format!("{id}.ckpt")).exists(),
                "{ctx}: the stopped job left no snapshot"
            );
        }

        // Second server over the same checkpoint dir picks the job up.
        let (addr, handle) = start_server(
            &dir,
            SchedOpts {
                pool: 4,
                queue_cap: 8,
                worker: WorkerOpts {
                    chunk: 128,
                    ckpt_every: 1,
                },
            },
        );
        let mut client = Client::connect(&addr).unwrap();
        let result = client.wait_done(id, Duration::from_secs(120)).unwrap();
        assert_eq!(
            result.get("digest").and_then(Json::as_str),
            Some(&expect_digest[..]),
            "{ctx}: resumed digest must match the uninterrupted run"
        );
        assert_eq!(
            result.get("performed").and_then(Json::as_u64),
            Some(reference.performed()),
            "{ctx}: performed must match"
        );
        client.shutdown().unwrap();
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A finished job's result survives a restart (served from `.done`).
#[test]
fn done_results_survive_restart() {
    let dir = temp_dir("done");
    let (addr, handle) = start_server(&dir, SchedOpts::default());
    let mut client = Client::connect(&addr).unwrap();
    let id = client
        .submit(er_job(r#"{"switches":200}"#, "simulated", 2))
        .unwrap()
        .expect("admitted");
    let first = client.wait_done(id, Duration::from_secs(60)).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();

    let (addr, handle) = start_server(&dir, SchedOpts::default());
    let mut client = Client::connect(&addr).unwrap();
    let again = client.wait_done(id, Duration::from_secs(10)).unwrap();
    assert_eq!(
        again.get("digest").and_then(Json::as_str),
        first.get("digest").and_then(Json::as_str)
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint that is not a snapshot of its job (here: truncated, or
/// written by snapshot format version 1) fails that job with
/// `bad-checkpoint` — promptly, and without holding
/// on to its rank slots or wedging `watch`.
#[test]
fn truncated_checkpoint_fails_its_job_and_frees_the_pool() {
    let dir = temp_dir("badckpt");
    let store = edgeswitch_svc::CkptStore::open(&dir).unwrap();
    for (id, driver, p, stale) in [
        (1u64, "sequential", 1u64, false),
        (2, "simulated", 2, false),
        (3, "simulated", 1, true),
    ] {
        let spec =
            edgeswitch_svc::JobSpec::from_json(&er_job(r#"{"switches":4000}"#, driver, p)).unwrap();
        store.save_job(id, &spec).unwrap();
        // A real snapshot of this very job, cut short — or whole, but
        // stamped with the retired format version.
        let graph = spec.graph.build().unwrap();
        let mut engine = spec.as_run().start(&graph).unwrap();
        engine.advance(500);
        let mut bytes = engine.snapshot();
        if stale {
            bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        } else {
            bytes.truncate(bytes.len() / 2);
        }
        store.save_snapshot(id, &bytes).unwrap();
    }

    let (addr, handle) = start_server(&dir, SchedOpts::default());
    let mut client = Client::connect(&addr).unwrap();
    let started = std::time::Instant::now();
    for id in [1u64, 2, 3] {
        // `watch` streams every event, then the closing status line.
        let mut cursor = client
            .request(&Json::obj([
                ("op", Json::str("watch")),
                ("id", Json::num(id)),
            ]))
            .unwrap();
        let mut failure = None;
        while cursor.get("ok").is_none() {
            if cursor.get("event").and_then(Json::as_str) == Some("failed") {
                failure = Some(cursor.clone());
            }
            cursor = client.read_line().unwrap();
        }
        assert_eq!(cursor.get("state").and_then(Json::as_str), Some("failed"));
        let failure = failure.expect("a failed event");
        assert_eq!(
            failure.get("code").and_then(Json::as_str),
            Some("bad-checkpoint"),
            "{}",
            failure.to_json()
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "bad checkpoints took {:?} to fail",
        started.elapsed()
    );
    // Neither failed job kept its rank slots. A worker publishes the
    // terminal event first and hands its slots back right after, so
    // give the second one a moment to get there.
    let pool = SchedOpts::default().pool as u64;
    let deadline = started + Duration::from_secs(1);
    loop {
        let pong = client
            .request(&Json::obj([("op", Json::str("ping"))]))
            .unwrap();
        let free = pong.get("free_slots").and_then(Json::as_u64);
        if free == Some(pool) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slots still held: free_slots = {free:?} of {pool}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every request and reply leaves as one segment on a `TCP_NODELAY`
/// socket. Split in two (body, then newline) each round trip waited out
/// a delayed ACK: ~88 ms a ping, 1.6 s and more for these twenty.
#[test]
fn twenty_pings_take_well_under_half_a_second() {
    let dir = temp_dir("ping");
    let (addr, handle) = start_server(&dir, SchedOpts::default());
    let mut client = Client::connect(&addr).unwrap();
    let ping = Json::obj([("op", Json::str("ping"))]);
    client.request(&ping).unwrap(); // connection warm-up
    let started = std::time::Instant::now();
    for _ in 0..20 {
        let pong = client.request(&ping).unwrap();
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    }
    let took = started.elapsed();
    assert!(took < Duration::from_millis(400), "20 pings took {took:?}");
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
