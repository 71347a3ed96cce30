//! # edgeswitch-svc
//!
//! Randomization-as-a-service: a zero-dependency job server over the
//! switching engines. Submit a graph (inline edges or a generator
//! spec), a budget, a randomizer and driver knobs; get a job id; poll
//! or stream progress events; fetch the final report and switched
//! graph. See DESIGN.md §4i for the architecture.
//!
//! - [`json`]: the repository's JSON (the `edgeswitch-json` crate), re-exported;
//! - [`job`]: job specs, per-job state, and the one worker loop over the
//!   stepped `Engine`;
//! - [`sched`]: FIFO admission over a bounded rank pool, with a queue
//!   cap that turns overload into typed rejections;
//! - [`ckpt`]: durable specs/snapshots/results with atomic writes, so a
//!   `SIGKILL`ed server resumes every in-flight job bit-identically;
//! - [`server`]: the TCP front door (thread per connection,
//!   newline-delimited JSON);
//! - [`Client`]: a minimal blocking client for tests and the
//!   `repro serve` smoke driver.
//!
//! ```no_run
//! use edgeswitch_svc::{Client, Server, ServerOpts, SchedOpts};
//!
//! let opts = ServerOpts { ckpt_dir: "/tmp/svc".into(), sched: SchedOpts::default() };
//! let server = Server::bind("127.0.0.1:0", opts).unwrap();
//! let addr = server.local_addr();
//! std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = Client::connect(&addr.to_string()).unwrap();
//! let id = client
//!     .submit_json(r#"{"graph":{"type":"er","n":200,"m":800,"seed":1},
//!                      "budget":{"visit_rate":0.5},"driver":"simulated","p":2,"seed":9}"#)
//!     .unwrap()            // I/O level
//!     .expect("admitted"); // protocol level (429 etc. land here)
//! let result = client.wait_done(id, std::time::Duration::from_secs(60)).unwrap();
//! println!("digest: {}", result.get("digest").unwrap().as_str().unwrap());
//! ```

#![warn(missing_docs)]

pub mod ckpt;
pub mod job;
pub mod sched;
pub mod server;

pub use edgeswitch_json as json;

pub use ckpt::{CkptStore, RecoveredJob};
pub use job::{Driver, GraphSpec, JobEntry, JobPhase, JobSpec, WorkerOpts};
pub use json::Json;
pub use sched::{SchedOpts, Scheduler, SubmitError};
pub use server::{Server, ServerOpts};

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A minimal blocking client: one request line out, one response line
/// back (plus a streaming mode for `watch`).
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a running server at `addr` (e.g. `127.0.0.1:4517`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Send one request object and read one response line.
    pub fn request(&mut self, request: &Json) -> io::Result<Json> {
        // One line, one write (see `server::write_line`).
        let mut line = request.to_json();
        line.push('\n');
        self.reader.get_mut().write_all(line.as_bytes())?;
        self.read_line()
    }

    /// Read a single response line.
    pub fn read_line(&mut self) -> io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        json::parse(line.trim_end()).map_err(|err| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {err}"))
        })
    }

    /// Submit a job given as a JSON text; returns the job id on
    /// admission and the server's error reply otherwise.
    pub fn submit_json(&mut self, job: &str) -> io::Result<Result<u64, Json>> {
        let spec =
            json::parse(job).map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
        self.submit(spec)
    }

    /// Submit a job given as a parsed spec object.
    pub fn submit(&mut self, job: Json) -> io::Result<Result<u64, Json>> {
        let reply = self.request(&Json::obj([("op", Json::str("submit")), ("job", job)]))?;
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            let id = reply.get("id").and_then(Json::as_u64).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "submit reply without id")
            })?;
            Ok(Ok(id))
        } else {
            Ok(Err(reply))
        }
    }

    /// Fetch a job's status object.
    pub fn status(&mut self, id: u64) -> io::Result<Json> {
        self.request(&Json::obj([
            ("op", Json::str("status")),
            ("id", Json::num(id)),
        ]))
    }

    /// Fetch events from cursor `from`; returns `(events, next_cursor)`.
    pub fn events(&mut self, id: u64, from: u64) -> io::Result<(Vec<Json>, u64)> {
        let reply = self.request(&Json::obj([
            ("op", Json::str("events")),
            ("id", Json::num(id)),
            ("from", Json::num(from)),
        ]))?;
        let events = reply
            .get("events")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default();
        let next = reply.get("next").and_then(Json::as_u64).unwrap_or(from);
        Ok((events, next))
    }

    /// Poll `status` until the job is done (returning its result) or
    /// failed / timed out (returning an error).
    pub fn wait_done(&mut self, id: u64, timeout: Duration) -> io::Result<Json> {
        let start = Instant::now();
        loop {
            let status = self.status(id)?;
            match status.get("state").and_then(Json::as_str) {
                Some("done") => {
                    let reply = self.request(&Json::obj([
                        ("op", Json::str("result")),
                        ("id", Json::num(id)),
                    ]))?;
                    return reply.get("result").cloned().ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "done job without result")
                    });
                }
                Some("failed") => {
                    return Err(io::Error::other(format!(
                        "job {id} failed: {}",
                        status
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                    )));
                }
                _ => {
                    if start.elapsed() > timeout {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("job {id} not done after {timeout:?}"),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Ask the server to shut down (it checkpoints running jobs first).
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request(&Json::obj([("op", Json::str("shutdown"))]))
    }
}
