//! The scheduler: FIFO admission over a bounded rank pool.
//!
//! Every job costs [`JobSpec::ranks`] slots out of a pool of `pool`
//! ranks. Jobs are admitted strictly in submission order — the head of
//! the queue waits until enough slots are free, then runs on its own
//! worker thread; jobs behind it wait even if they would fit (FIFO, no
//! bypass — starvation-freedom over utilization). At most `queue_cap`
//! jobs may be waiting; submissions beyond that are rejected with
//! [`SubmitError::QueueFull`] — the wire layer turns that into its
//! 429-style response.
//!
//! On shutdown ([`Scheduler::stop`]) workers raise a stop flag that the
//! job loops check between chunks/steps: each running job writes a final
//! snapshot and parks, so a restart resumes it bit-identically.

use crate::ckpt::CkptStore;
use crate::job::{error_code, run_job, JobEntry, JobPhase, JobSpec, WorkerOpts};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Scheduler sizing.
#[derive(Clone, Copy, Debug)]
pub struct SchedOpts {
    /// Total rank slots; one job holds [`JobSpec::ranks`] while running.
    pub pool: usize,
    /// Maximum jobs waiting for admission before submissions bounce.
    pub queue_cap: usize,
    /// Worker-side execution knobs.
    pub worker: WorkerOpts,
}

impl Default for SchedOpts {
    fn default() -> Self {
        SchedOpts {
            pool: 4,
            queue_cap: 16,
            worker: WorkerOpts::default(),
        }
    }
}

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at `queue_cap` (the 429 case).
    QueueFull {
        /// The configured cap that was hit.
        cap: usize,
    },
    /// The spec failed validation: wire code plus detail.
    Invalid {
        /// Stable error code (e.g. `invalid-config`).
        code: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// The spec asks for more ranks than the pool will ever have.
    TooWide {
        /// Ranks the job wants.
        want: usize,
        /// Ranks the pool has.
        pool: usize,
    },
}

struct SchedState {
    /// Ids waiting for admission, FIFO.
    queue: VecDeque<u64>,
    /// Rank slots currently free.
    free: usize,
    /// Jobs currently holding slots (id → slots held).
    running: BTreeMap<u64, usize>,
}

struct Shared {
    opts: SchedOpts,
    ckpt: CkptStore,
    state: Mutex<SchedState>,
    wake: Condvar,
    stop: AtomicBool,
    next_id: AtomicU64,
    jobs: Mutex<BTreeMap<u64, Arc<JobEntry>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// The job scheduler; see the module docs.
pub struct Scheduler {
    shared: Arc<Shared>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl Scheduler {
    /// Start a scheduler over `ckpt`, recovering every job found on
    /// disk: finished jobs are served from their stored results,
    /// unfinished ones re-enter the queue (snapshots are picked up at
    /// execution time).
    pub fn start(opts: SchedOpts, ckpt: CkptStore) -> Scheduler {
        assert!(opts.pool >= 1, "rank pool must hold at least one rank");
        let recovered = ckpt.scan().unwrap_or_default();
        let max_id = recovered.iter().map(|j| j.id).max().unwrap_or(0);
        let shared = Arc::new(Shared {
            opts,
            ckpt,
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                free: opts.pool,
                running: BTreeMap::new(),
            }),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            next_id: AtomicU64::new(max_id + 1),
            jobs: Mutex::new(BTreeMap::new()),
            workers: Mutex::new(Vec::new()),
        });
        for job in recovered {
            match job.done {
                Some(result) => {
                    let entry = Arc::new(JobEntry::recovered_done(job.id, job.spec, result));
                    shared.jobs.lock().unwrap().insert(job.id, entry);
                }
                None => {
                    let entry = Arc::new(JobEntry::new(job.id, job.spec));
                    shared.jobs.lock().unwrap().insert(job.id, entry);
                    shared.state.lock().unwrap().queue.push_back(job.id);
                }
            }
        }
        let dispatcher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("svc-dispatch".to_string())
                .spawn(move || dispatch_loop(shared))
                .expect("spawn dispatcher")
        };
        shared.wake.notify_all();
        Scheduler {
            shared,
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }

    /// Submit a job: validate, persist the spec, enqueue. Returns the id.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        if let Err(err) = spec.validate() {
            return Err(SubmitError::Invalid {
                code: error_code(&err),
                detail: err.to_string(),
            });
        }
        if spec.ranks() > self.shared.opts.pool {
            return Err(SubmitError::TooWide {
                want: spec.ranks(),
                pool: self.shared.opts.pool,
            });
        }
        let mut state = self.shared.state.lock().unwrap();
        if state.queue.len() >= self.shared.opts.queue_cap {
            return Err(SubmitError::QueueFull {
                cap: self.shared.opts.queue_cap,
            });
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(JobEntry::new(id, spec));
        // Persist before acknowledging: a crash right after submit must
        // still re-run the job.
        if let Err(err) = self.shared.ckpt.save_job(id, &entry.spec) {
            return Err(SubmitError::Invalid {
                code: "io",
                detail: format!("persisting job spec: {err}"),
            });
        }
        self.shared.jobs.lock().unwrap().insert(id, entry);
        state.queue.push_back(id);
        drop(state);
        self.shared.wake.notify_all();
        Ok(id)
    }

    /// Look up a job by id.
    pub fn job(&self, id: u64) -> Option<Arc<JobEntry>> {
        self.shared.jobs.lock().unwrap().get(&id).cloned()
    }

    /// Rank slots not held by any job (`pool` when idle).
    pub fn free_slots(&self) -> usize {
        self.shared.state.lock().unwrap().free
    }

    /// Graceful shutdown: running jobs snapshot and park; queued jobs
    /// stay queued on disk. Blocks until the dispatcher and every
    /// worker have returned, so the checkpoint directory is quiescent
    /// when this returns. Safe to call more than once.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        if let Some(handle) = self.dispatcher.lock().unwrap().take() {
            let _ = handle.join();
        }
        let workers = std::mem::take(&mut *self.shared.workers.lock().unwrap());
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.stop();
    }
}

fn dispatch_loop(shared: Arc<Shared>) {
    loop {
        let id = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                // FIFO: only the head may be admitted.
                if let Some(&id) = state.queue.front() {
                    let want = shared
                        .jobs
                        .lock()
                        .unwrap()
                        .get(&id)
                        .map(|j| j.spec.ranks())
                        .unwrap_or(1);
                    if want <= state.free {
                        state.queue.pop_front();
                        state.free -= want;
                        state.running.insert(id, want);
                        break id;
                    }
                }
                state = shared.wake.wait(state).unwrap();
            }
        };
        let Some(entry) = shared.jobs.lock().unwrap().get(&id).cloned() else {
            let mut state = shared.state.lock().unwrap();
            if let Some(slots) = state.running.remove(&id) {
                state.free += slots;
            }
            continue;
        };
        let worker_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name(format!("svc-job-{id}"))
            .spawn(move || {
                let snapshot = worker_shared.ckpt.load_snapshot(id);
                let ckpt = worker_shared.ckpt.clone();
                let save = move |bytes: &[u8]| ckpt.save_snapshot(id, bytes);
                // A panicking engine must fail its job, not strand it:
                // the slots below are released whatever happened.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_job(
                        &entry,
                        worker_shared.opts.worker,
                        snapshot,
                        &worker_shared.stop,
                        &save,
                    )
                }))
                .unwrap_or_else(|_| {
                    entry.set_failed("internal", "the job's worker panicked".to_string());
                    None
                });
                if let Some(result) = result {
                    if entry.phase() == JobPhase::Done {
                        let _ = worker_shared.ckpt.save_done(id, &result);
                    }
                }
                let mut state = worker_shared.state.lock().unwrap();
                if let Some(slots) = state.running.remove(&id) {
                    state.free += slots;
                }
                drop(state);
                worker_shared.wake.notify_all();
            })
            .expect("spawn worker");
        // Join the workers that have finished: an exited thread keeps
        // its stack until it is joined.
        let mut workers = shared.workers.lock().unwrap();
        let (done, running) = std::mem::take(&mut *workers)
            .into_iter()
            .partition::<Vec<_>, _>(JoinHandle::is_finished);
        done.into_iter().for_each(|worker| drop(worker.join()));
        *workers = running;
        workers.push(handle);
    }
}
