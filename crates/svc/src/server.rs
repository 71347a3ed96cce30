//! The TCP front door: newline-delimited JSON, thread per connection.
//!
//! Requests are single-line JSON objects with an `"op"` field;
//! responses are single-line objects with `"ok"` plus op-specific
//! fields. Errors carry `"error"` (stable code), `"detail"` and an
//! HTTP-flavoured `"code"` number — `429` for queue-full, `400` for
//! malformed requests, `404` for unknown jobs, `422` for specs that
//! fail validation.
//!
//! | op         | fields            | reply                              |
//! |------------|-------------------|------------------------------------|
//! | `ping`     |                   | `{"ok":true,"pong":true,"free_slots":N}` (rank slots no job holds) |
//! | `submit`   | `job`             | `{"ok":true,"id":N}`               |
//! | `status`   | `id`              | `{"ok":true,"state":...}`          |
//! | `events`   | `id`, `from`      | `{"ok":true,"events":[...],"next":N}` |
//! | `watch`    | `id`, `from`      | streams one event per line, then a final `{"ok":true,...}` |
//! | `result`   | `id`              | `{"ok":true,"result":{...}}`       |
//! | `shutdown` |                   | `{"ok":true}`, then the server checkpoints and exits |
//!
//! A job that fails says why in its `failed` event and `status` reply:
//! the `RunError` codes of submit-time validation, `bad-graph`, `io`
//! (a checkpoint write failed), `bad-checkpoint` (the job's `.ckpt` is
//! not a snapshot of it — truncated, damaged or another job's) and
//! `internal` (its worker panicked). A failed job frees its rank slots.
//!
//! `watch` is the streaming form of `events`: the connection stays open
//! and each appended event is written as its own line until the job
//! reaches a terminal state.

use crate::ckpt::CkptStore;
use crate::job::{JobPhase, JobSpec};
use crate::json::{self, Json};
use crate::sched::{SchedOpts, Scheduler, SubmitError};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerOpts {
    /// Checkpoint directory (specs, snapshots, results).
    pub ckpt_dir: PathBuf,
    /// Scheduler sizing.
    pub sched: SchedOpts,
}

/// The job server: owns the listener and the scheduler.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    scheduler: Arc<Scheduler>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port), open the
    /// checkpoint store, and recover any jobs it holds.
    pub fn bind(addr: &str, opts: ServerOpts) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let ckpt = CkptStore::open(&opts.ckpt_dir)?;
        let scheduler = Arc::new(Scheduler::start(opts.sched, ckpt));
        Ok(Server {
            listener,
            addr,
            scheduler,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct scheduler access (in-process tests submit through this).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Accept connections until a `shutdown` op arrives, then stop the
    /// scheduler (running jobs snapshot and park) and return.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let scheduler = self.scheduler.clone();
            let shutdown = self.shutdown.clone();
            let addr = self.addr;
            std::thread::Builder::new()
                .name("svc-conn".to_string())
                .spawn(move || {
                    let _ = handle_connection(stream, &scheduler, &shutdown, addr);
                })
                .expect("spawn connection handler");
        }
        // Park every job behind a final snapshot before returning, so
        // the checkpoint directory is quiescent and a successor server
        // can take it over immediately.
        self.scheduler.stop();
        Ok(())
    }
}

fn reply_err(code: u64, error: &str, detail: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::str(error)),
        ("detail", Json::str(detail)),
        ("code", Json::num(code)),
    ])
}

/// One line, one write: a reply split across two small segments waits
/// out the peer's delayed ACK (Nagle) before the newline leaves.
fn write_line(stream: &mut TcpStream, line: &Json) -> io::Result<()> {
    let mut text = line.to_json();
    text.push('\n');
    stream.write_all(text.as_bytes())
}

fn handle_connection(
    stream: TcpStream,
    scheduler: &Scheduler,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let request = match json::parse(&line) {
            Ok(v) => v,
            Err(err) => {
                write_line(&mut writer, &reply_err(400, "bad-json", &err))?;
                continue;
            }
        };
        let op = request.get("op").and_then(Json::as_str).unwrap_or("");
        match op {
            "ping" => write_line(
                &mut writer,
                &Json::obj([
                    ("ok", Json::Bool(true)),
                    ("pong", Json::Bool(true)),
                    ("free_slots", Json::num(scheduler.free_slots() as u64)),
                ]),
            )?,
            "submit" => {
                let reply = match request.get("job").map(JobSpec::from_json) {
                    None => reply_err(400, "bad-request", "missing 'job'"),
                    Some(Err(err)) => reply_err(400, "bad-job", &err),
                    Some(Ok(spec)) => match scheduler.submit(spec) {
                        Ok(id) => Json::obj([("ok", Json::Bool(true)), ("id", Json::num(id))]),
                        Err(SubmitError::QueueFull { cap }) => reply_err(
                            429,
                            "queue-full",
                            &format!("admission queue is at its cap of {cap}"),
                        ),
                        Err(SubmitError::TooWide { want, pool }) => reply_err(
                            422,
                            "too-wide",
                            &format!("job wants {want} ranks, pool has {pool}"),
                        ),
                        Err(SubmitError::Invalid { code, detail }) => reply_err(422, code, &detail),
                    },
                };
                write_line(&mut writer, &reply)?;
            }
            "status" | "result" | "events" | "watch" => {
                let Some(id) = request.get("id").and_then(Json::as_u64) else {
                    write_line(&mut writer, &reply_err(400, "bad-request", "missing 'id'"))?;
                    continue;
                };
                let Some(entry) = scheduler.job(id) else {
                    write_line(
                        &mut writer,
                        &reply_err(404, "not-found", &format!("no job {id}")),
                    )?;
                    continue;
                };
                match op {
                    "status" => {
                        let mut status = entry.status_json();
                        if let Json::Obj(map) = &mut status {
                            map.insert("ok".to_string(), Json::Bool(true));
                        }
                        write_line(&mut writer, &status)?;
                    }
                    "result" => {
                        let reply = match entry.result_json() {
                            Some(result) => {
                                Json::obj([("ok", Json::Bool(true)), ("result", result)])
                            }
                            None => reply_err(
                                409,
                                "not-done",
                                &format!("job {id} is {}", entry.phase().label()),
                            ),
                        };
                        write_line(&mut writer, &reply)?;
                    }
                    "events" => {
                        let from = request.get("from").and_then(Json::as_u64).unwrap_or(0) as usize;
                        let (events, next) = entry.events_from(from);
                        write_line(
                            &mut writer,
                            &Json::obj([
                                ("ok", Json::Bool(true)),
                                ("events", Json::Arr(events)),
                                ("next", Json::num(next as u64)),
                            ]),
                        )?;
                    }
                    "watch" => {
                        let mut cursor =
                            request.get("from").and_then(Json::as_u64).unwrap_or(0) as usize;
                        loop {
                            let (events, next, phase) =
                                entry.wait_events(cursor, Duration::from_millis(250));
                            for event in &events {
                                write_line(&mut writer, event)?;
                            }
                            cursor = next;
                            if matches!(phase, JobPhase::Done | JobPhase::Failed)
                                && events.is_empty()
                            {
                                write_line(
                                    &mut writer,
                                    &Json::obj([
                                        ("ok", Json::Bool(true)),
                                        ("state", Json::str(phase.label())),
                                        ("next", Json::num(cursor as u64)),
                                    ]),
                                )?;
                                break;
                            }
                        }
                    }
                    _ => unreachable!(),
                }
            }
            "shutdown" => {
                shutdown.store(true, Ordering::SeqCst);
                write_line(&mut writer, &Json::obj([("ok", Json::Bool(true))]))?;
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(addr);
                return Ok(());
            }
            other => write_line(
                &mut writer,
                &reply_err(400, "bad-op", &format!("unknown op '{other}'")),
            )?,
        }
    }
    Ok(())
}
