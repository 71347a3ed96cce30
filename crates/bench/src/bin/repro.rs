//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! ```text
//! repro list                      # show experiment ids
//! repro fig4 [--scale 0.5] ...    # one experiment
//! repro all [--out results]       # everything, archived to --out
//! repro serve --ckpt DIR          # run the randomization job server
//! repro serve --smoke             # CI gate: kill + resume bit-identity
//! ```

use edgeswitch_bench::experiments::{
    ablation_ids, all_ids, diagnostic_ids,
    genscale::{genscale_child_from_env, mem_gate},
    mixing::mixing_gate,
    perf_ids, run, ExpConfig,
};
use edgeswitch_bench::report::Report;
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment|all|ablations|diagnostics|list> [--scale S] [--reps N] [--seed X] [--out DIR] [--quick] [--timeline] [--gate-mixing] [--gate-mem]\n\
         \x20      repro serve [--listen ADDR] [--ckpt DIR] [--pool N] [--queue N] [--chunk N] [--ckpt-every N] [--smoke]\n\
         experiments: {}",
        all_ids().join(", ")
    );
    std::process::exit(2);
}

/// `trace --timeline` additionally spills the per-step rows as
/// newline-delimited JSON (`trace.jsonl` in the invocation directory),
/// one row per `(driver, step)`, ready for `jq`/pandas.
fn spill_timeline(report: &Report) {
    let Some(rows) = report.data["timeline"].as_arr() else {
        return;
    };
    if rows.is_empty() {
        return;
    }
    let body: String = rows.iter().map(|row| row.to_json() + "\n").collect();
    std::fs::write("trace.jsonl", body).expect("write timeline");
    println!("# wrote trace.jsonl ({} rows)", rows.len());
}

/// Perf-tracking experiments additionally archive their structured data
/// as `BENCH_<id>.json` in the invocation directory (the repo root when
/// run from a checkout), giving later changes a trajectory to regress
/// against.
fn archive_perf(report: &Report) {
    if !perf_ids().contains(&report.id.as_str()) {
        return;
    }
    let path = format!("BENCH_{}.json", report.id);
    let body = report.data.to_json_pretty();
    std::fs::write(&path, body + "\n").expect("write benchmark archive");
    println!("# archived {path}");
}

fn main() {
    // Process-backend rank children re-enter through here: with the shm
    // environment set this runs the rank loop and exits, so a `repro`
    // invocation benching `Run::process` can re-spawn its own binary.
    edgeswitch_core::parallel::child_entry_from_env();
    // Likewise for per-case genscale children: with the genscale case
    // environment set this runs one measurement and exits, so each case
    // gets its own VmHWM.
    genscale_child_from_env();

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let target = args[0].clone();
    if target == "serve" {
        serve_main(&args[1..]);
    }
    let mut cfg = ExpConfig::default();
    let mut out_dir = PathBuf::from("results");
    let mut gate_mixing = false;
    let mut gate_mem = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                cfg.scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--reps" => {
                cfg.reps = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--seed" => {
                cfg.seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--out" => {
                out_dir = args
                    .get(i + 1)
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--quick" => {
                // CI smoke mode: tiny instances, single rep.
                cfg.scale = 0.02;
                cfg.reps = 1;
                i += 1;
            }
            "--timeline" => {
                // Include per-step rows in the trace report and spill
                // them as trace.jsonl next to the BENCH archives.
                cfg.timeline = true;
                i += 1;
            }
            "--gate-mixing" => {
                // CI mixing-efficiency guard (mixing only): exit non-zero
                // if sequential Curveball needs more than half the
                // operations sequential switching needs to reach the
                // target visit rate on the quick PA case. Auto-skips
                // (with a notice) when the instance is too small to mix.
                gate_mixing = true;
                i += 1;
            }
            "--gate-mem" => {
                // CI streamed-construction memory guard (genscale only):
                // exit non-zero if building one rank's store from the
                // generator stream peaks above 0.6x the peak RSS of the
                // materialize-then-split path at the same m. Auto-skips
                // (with a notice) where VmHWM is unavailable.
                gate_mem = true;
                i += 1;
            }
            _ => usage(),
        }
    }

    match target.as_str() {
        "list" => {
            for id in all_ids() {
                println!("{id}");
            }
            for id in ablation_ids() {
                println!("{id}");
            }
            for id in diagnostic_ids() {
                println!("{id}");
            }
            for id in perf_ids() {
                println!("{id}");
            }
        }
        "ablations" => {
            for id in ablation_ids() {
                let report = run(id, &cfg).expect("known id");
                report.print();
                report.save(&out_dir).expect("write results");
            }
        }
        "diagnostics" => {
            for id in diagnostic_ids() {
                let report = run(id, &cfg).expect("known id");
                report.print();
                report.save(&out_dir).expect("write results");
            }
        }
        "all" => {
            println!(
                "# reproducing all {} experiments (scale {}, {} reps, seed {})",
                all_ids().len(),
                cfg.scale,
                cfg.reps,
                cfg.seed
            );
            let total = Instant::now();
            for id in all_ids() {
                let start = Instant::now();
                let report = run(id, &cfg).expect("known id");
                report.print();
                report.save(&out_dir).expect("write results");
                println!("# {id} took {:.1}s\n", start.elapsed().as_secs_f64());
            }
            println!(
                "# total: {:.1}s; archived to {}",
                total.elapsed().as_secs_f64(),
                out_dir.display()
            );
        }
        id => match run(id, &cfg) {
            Some(report) => {
                report.print();
                report.save(&out_dir).expect("write results");
                archive_perf(&report);
                if report.id == "trace" && cfg.timeline {
                    spill_timeline(&report);
                }
                if gate_mem && report.id == "genscale" {
                    match mem_gate(&report.data) {
                        Ok(note) => println!("# mem gate: {note}"),
                        Err(why) => {
                            eprintln!("# mem gate FAILED: {why}");
                            std::process::exit(1);
                        }
                    }
                }
                if gate_mixing && report.id == "mixing" {
                    match mixing_gate(&report.data) {
                        Ok(note) => println!("# mixing gate: {note}"),
                        Err(why) => {
                            eprintln!("# mixing gate FAILED: {why}");
                            std::process::exit(1);
                        }
                    }
                }
            }
            None => usage(),
        },
    }
}

// ---------------------------------------------------------------------------
// `repro serve`: the randomization job server, plus the CI smoke gate.
// ---------------------------------------------------------------------------

/// `repro serve [--listen ADDR] [--ckpt DIR] [--pool N] [--queue N]
/// [--chunk N] [--ckpt-every N] [--smoke]`
///
/// Without `--smoke`: bind the job server, print `SERVE <addr>` on
/// stdout (machine-readable; resolves `--listen 127.0.0.1:0` to the
/// actual port) and serve until a `shutdown` op arrives.
///
/// With `--smoke`: the CI gate. Spawns this same binary as a child
/// server, submits a quick ER job and streams its progress, submits a
/// second job and SIGKILLs the server mid-run, respawns the server on
/// the same checkpoint directory, and fails (exit 1) unless both jobs
/// finish with digests bit-identical to uninterrupted in-process
/// reference runs.
fn serve_main(args: &[String]) -> ! {
    let mut listen = String::from("127.0.0.1:4517");
    let mut ckpt: Option<PathBuf> = None;
    let mut sched = edgeswitch_svc::SchedOpts::default();
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        let flag_val = |idx: usize| args.get(idx + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--listen" => {
                listen = flag_val(i);
                i += 2;
            }
            "--ckpt" => {
                ckpt = Some(PathBuf::from(flag_val(i)));
                i += 2;
            }
            "--pool" => {
                sched.pool = flag_val(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--queue" => {
                sched.queue_cap = flag_val(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--chunk" => {
                sched.worker.chunk = flag_val(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--ckpt-every" => {
                sched.worker.ckpt_every = flag_val(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            _ => usage(),
        }
    }
    if smoke {
        let dir = ckpt.unwrap_or_else(|| {
            std::env::temp_dir().join(format!("repro-serve-smoke-{}", std::process::id()))
        });
        let _ = std::fs::remove_dir_all(&dir);
        match serve_smoke(&dir) {
            Ok(()) => {
                let _ = std::fs::remove_dir_all(&dir);
                println!("# serve smoke: ok");
                std::process::exit(0);
            }
            Err(why) => {
                eprintln!("# serve smoke FAILED: {why}");
                std::process::exit(1);
            }
        }
    }
    let dir = ckpt.unwrap_or_else(|| PathBuf::from("svc-ckpt"));
    let server = edgeswitch_svc::Server::bind(
        &listen,
        edgeswitch_svc::ServerOpts {
            ckpt_dir: dir.clone(),
            sched,
        },
    )
    .unwrap_or_else(|err| {
        eprintln!("# serve: cannot bind {listen}: {err}");
        std::process::exit(1);
    });
    println!("SERVE {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.run().expect("server run");
    std::process::exit(0);
}

/// Spawn this binary as a child `repro serve` process over `dir` and
/// read the bound address off its stdout.
fn spawn_server(dir: &std::path::Path) -> Result<(std::process::Child, String), String> {
    use std::io::BufRead as _;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe)
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--ckpt",
            &dir.display().to_string(),
            "--pool",
            "4",
            "--queue",
            "8",
            "--chunk",
            "512",
            "--ckpt-every",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn server: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.map_err(|e| format!("read server stdout: {e}"))?;
        if let Some(addr) = line.strip_prefix("SERVE ") {
            return Ok((child, addr.to_string()));
        }
    }
    let _ = child.kill();
    Err("server exited without printing its address".into())
}

/// Uninterrupted in-process reference for a job spec: digest of the
/// switched graph plus operations performed.
fn smoke_reference(job: &str) -> Result<(String, u64), String> {
    let spec = edgeswitch_svc::JobSpec::from_json(
        &edgeswitch_svc::json::parse(job).map_err(|e| format!("bad smoke job: {e}"))?,
    )?;
    let graph = spec.graph.build()?;
    let out = spec.as_run().execute(&graph);
    Ok((
        format!("{:#018x}", out.graph().edge_digest()),
        out.performed(),
    ))
}

fn serve_smoke(dir: &std::path::Path) -> Result<(), String> {
    use edgeswitch_svc::{Client, Json};
    use std::time::Duration;

    // Job 1: quick Curveball passes, stepped to completion. Job 2: long
    // enough that the SIGKILL below lands mid-run (checkpoints every 512
    // switches).
    let quick = r#"{"graph":{"type":"er","n":120,"m":480,"seed":5},
                    "budget":{"switches":400},"driver":"simulated","p":2,"seed":11,"window":4,
                    "randomizer":"curveball"}"#;
    let long = r#"{"graph":{"type":"er","n":120,"m":480,"seed":5},
                   "budget":{"switches":3000000},"driver":"sequential","seed":23}"#;
    let quick_ref = smoke_reference(quick)?;
    let long_ref = smoke_reference(long)?;

    let (mut child, addr) = spawn_server(dir)?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;

    // Quick job: submit, wait, stream the event log, check the digest.
    let quick_id = client
        .submit_json(quick)
        .map_err(|e| format!("submit quick: {e}"))?
        .map_err(|r| format!("quick job rejected: {}", r.to_json()))?;
    let result = client
        .wait_done(quick_id, Duration::from_secs(120))
        .map_err(|e| format!("quick job: {e}"))?;
    let digest = result.get("digest").and_then(Json::as_str).unwrap_or("");
    if digest != quick_ref.0 {
        let _ = child.kill();
        return Err(format!(
            "quick job digest {digest} != reference {}",
            quick_ref.0
        ));
    }
    let (events, _) = client
        .events(quick_id, 0)
        .map_err(|e| format!("events: {e}"))?;
    let steps = events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("step"))
        .count();
    if steps == 0 {
        let _ = child.kill();
        return Err("quick job streamed no step events".into());
    }
    println!(
        "# smoke: quick job ok ({} events, {steps} steps, digest {digest})",
        events.len()
    );

    // Long job: wait until both of its snapshot slots hold a valid
    // snapshot (a slot file exists from the moment its first write
    // starts), then SIGKILL the server out from under it.
    let long_id = client
        .submit_json(long)
        .map_err(|e| format!("submit long: {e}"))?
        .map_err(|r| format!("long job rejected: {}", r.to_json()))?;
    let store = edgeswitch_svc::CkptStore::open(dir).map_err(|e| format!("open {dir:?}: {e}"))?;
    let done = dir.join(format!("{long_id}.done"));
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !done.exists() && store.load_slot(long_id).is_none_or(|slot| slot.seq < 1) {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            return Err("long job never wrote a second checkpoint".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().map_err(|e| format!("kill server: {e}"))?;
    child.wait().map_err(|e| format!("reap server: {e}"))?;
    // Tear the newest slot as a kill mid-write would: the restart must
    // fall back to the older one.
    let torn = match store.load_slot(long_id) {
        Some(slot) => {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&slot.path)
                .map_err(|e| format!("open {:?}: {e}", slot.path))?;
            file.set_len(slot.bytes.len() as u64 / 2)
                .map_err(|e| format!("truncate {:?}: {e}", slot.path))?;
            format!("; tore its newest slot (seq {})", slot.seq)
        }
        None => String::new(),
    };
    println!(
        "# smoke: server SIGKILLed {}{torn}",
        if done.exists() {
            "after the long job finished (fast host); restart still must serve it"
        } else {
            "mid-run; restart must resume from the older snapshot"
        }
    );

    // Respawn over the same checkpoint directory: the long job must
    // finish bit-identically, and the quick job's result must survive.
    let (mut child, addr) = spawn_server(dir)?;
    let mut client = Client::connect(&addr).map_err(|e| format!("reconnect {addr}: {e}"))?;
    let result = client
        .wait_done(long_id, Duration::from_secs(300))
        .map_err(|e| format!("resumed long job: {e}"))?;
    let digest = result.get("digest").and_then(Json::as_str).unwrap_or("");
    let performed = result.get("performed").and_then(Json::as_u64).unwrap_or(0);
    if digest != long_ref.0 || performed != long_ref.1 {
        let _ = child.kill();
        return Err(format!(
            "resumed long job diverged: digest {digest} (want {}), performed {performed} (want {})",
            long_ref.0, long_ref.1
        ));
    }
    let again = client
        .wait_done(quick_id, Duration::from_secs(30))
        .map_err(|e| format!("quick job after restart: {e}"))?;
    if again.get("digest").and_then(Json::as_str) != Some(&quick_ref.0[..]) {
        let _ = child.kill();
        return Err("quick job result changed across restart".into());
    }
    println!("# smoke: resumed long job bit-identical (digest {digest}, {performed} switches)");
    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    child.wait().map_err(|e| format!("reap server: {e}"))?;
    Ok(())
}
