//! The simulated world: all `p` rank machines driven from one loop, one
//! step at a time — a Section-4.5 step of the switch protocol, or a pass
//! of Curveball trades.
//!
//! [`SimWorld`] owns the whole life of a simulated run — set-up (store
//! split, rank construction, observation clock), stepping
//! ([`run_world_step`] over its [`WorldTransport`]), snapshot, resume
//! and teardown ([`assemble_outcome`]) — in one impl generic over
//! [`RankMachine`]: only the step boundary differs between the
//! randomizers, and that is the machine's [`Schedule`]. Over the default
//! [`FifoTransport`] it is the deterministic simulator behind
//! [`Run::simulated`](crate::Run::simulated); the virtual-time DES in
//! `edgeswitch-scalesim` drives the same type over a cost-charging
//! transport, so the two produce identical logical results.
//!
//! At every step boundary nothing is in flight (the switch protocol's
//! completion-ack discipline; a pass ends with every trade fired and
//! every edge home), so the FIFO world reduces to per-rank checkpoints,
//! the schedule's record and run-level accumulators — a
//! [`WorldSnapshot`] a killed process can resume from bit-identically.
//! Two deliberate restrictions keep the snapshot closed:
//!
//! - **A resumed world is unobserved.** Probes hold run-length host
//!   state (clocks, open spans) that cannot be serialized, so a snapshot
//!   never carries them; only a freshly started world honours
//!   [`ParallelConfig::obs`].
//! - **Partitioner by reconstruction.** The partitioner is a pure
//!   function of `(graph, config)` — both resume inputs — so snapshots
//!   record neither it nor the graph's initial form.

use super::harness::{
    assemble_outcome, run_world_step, FifoTransport, InPlace, ParallelOutcome, RankMachine,
    RankOutput, RunMeta, Schedule, StepTelemetry, WorldTransport,
};
use super::msg::Outbox;
use super::rank::{RankCheckpoint, RankState};
use super::wire::encode_world_snapshot;
use crate::config::ParallelConfig;
use crate::obs::{Clock, MonoClock, Obs, StepProgress};
use crate::run::{RunOutcome, Stepped};
use crate::sequential::{check_degrees, check_distinct};
use crate::visit::{check_marks, visit_rate};
use edgeswitch_graph::store::build_stores;
use edgeswitch_graph::{Graph, Partitioner};
use mpilite::CommStats;
use std::sync::Arc;

/// The complete persistent state of a FIFO [`SimWorld`] at a step
/// boundary; `C` is what its schedule records (the switch protocol's
/// budget `t` by default, Curveball's pass controller).
///
/// Serialized by the snapshot codec in [`super::wire`]. Resuming needs
/// the original graph and config alongside it; the identity fields
/// (`seed`, `p`, `n`, the budget) make a resume against the wrong spec
/// fail instead of silently diverging.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldSnapshot<C = u64> {
    /// Seed of the run (must match the config on resume).
    pub seed: u64,
    /// World size (must match the config on resume).
    pub p: usize,
    /// Vertex count of the graph under randomization.
    pub n: usize,
    /// The schedule's record.
    pub schedule: C,
    /// Next step to execute (steps `0..next_step` are complete).
    pub next_step: u64,
    /// Per-rank checkpoints, rank order.
    pub ranks: Vec<RankCheckpoint>,
    /// Per-rank communication counters, rank order.
    pub comm: Vec<CommStats>,
    /// Telemetry of the completed steps.
    pub telemetry: Vec<StepTelemetry>,
    /// Initial `|E_i|` per rank: each rank's `tracker_initial`, carried
    /// for the final outcome (a resume refuses any other).
    pub initial_edges: Vec<u64>,
}

/// What the schedule of rank machine `S` records in a snapshot.
pub(crate) type SnapOf<S> = <<S as RankMachine>::Schedule as Schedule<S>>::Snap;

/// The simulated world as a pausable engine over `T`, running rank
/// machine `S` (the switch protocol by default; Curveball's trade
/// machine under its passes): [`SimWorld::step`] until
/// [`SimWorld::is_done`], then [`SimWorld::finish`]; on the FIFO
/// instance, [`SimWorld::snapshot`] between two steps captures what
/// [`SimWorld::resume`] needs to continue in a fresh process.
pub(crate) struct SimWorld<T: WorldTransport = FifoTransport, S: RankMachine = RankState> {
    states: Vec<S>,
    comm_stats: Vec<CommStats>,
    transport: T,
    /// What the protocol's step boundaries carry from one step to the
    /// next.
    schedule: S::Schedule,
    telemetry: Vec<StepTelemetry>,
    n: usize,
    seed: u64,
    next_step: u64,
    out: Outbox,
    /// The observation clock and its reading at set-up (`None` when
    /// unobserved).
    clock: Option<(Arc<dyn Clock>, u64)>,
}

impl<T: WorldTransport, S: RankMachine> SimWorld<T, S> {
    /// Set up a world of `config.processors` ranks over `graph` split by
    /// `part`, running `schedule` and delivering through `transport`
    /// ([`RankMachine::build`] builds each rank from its store and
    /// probe). An observed run ([`ParallelConfig::obs`])
    /// reads the transport's clock if it owns the timeline (the DES
    /// records in virtual time), otherwise the monotonic clock.
    ///
    /// # Panics
    /// If `part` does not split into `config.processors` parts
    /// ([`Run`](crate::Run) rejects that as a typed error first).
    pub(crate) fn set_up(
        graph: &Graph,
        config: &ParallelConfig,
        part: &Partitioner,
        mut transport: T,
        schedule: S::Schedule,
    ) -> Self {
        let p = config.processors;
        assert_eq!(part.num_parts(), p, "partitioner size must match config");
        let stores = build_stores(graph, part);
        let clock: Option<Arc<dyn Clock>> = config.obs.enabled().then(|| {
            transport
                .obs_clock()
                .unwrap_or_else(|| Arc::new(MonoClock::new()))
        });
        let states: Vec<S> = stores
            .into_iter()
            .enumerate()
            .map(|(i, store)| {
                let obs = match &clock {
                    Some(clock) => config.obs.build(clock.clone()),
                    None => Obs::noop(),
                };
                S::build(i, part, store, config, &schedule, obs)
            })
            .collect();
        SimWorld {
            states,
            comm_stats: vec![CommStats::default(); p],
            transport,
            schedule,
            telemetry: Vec::new(),
            n: graph.num_vertices(),
            seed: config.seed,
            next_step: 0,
            out: Outbox::new(),
            clock: clock.map(|c| {
                let start = c.now_ns();
                (c, start)
            }),
        }
    }

    /// Execute the next step; returns its telemetry (`None` when the run
    /// is already complete).
    pub(crate) fn step(&mut self) -> Option<&StepTelemetry> {
        let mut world = InPlace {
            transport: &mut self.transport,
            comm_stats: &mut self.comm_stats,
        };
        let tel = run_world_step(
            &mut world,
            &mut self.states,
            &mut self.out,
            &mut self.schedule,
            self.next_step,
        )?;
        self.telemetry.push(tel);
        self.next_step += 1;
        self.telemetry.last()
    }

    /// Whether the run is over (exact before every step).
    pub(crate) fn is_done(&self) -> bool {
        self.schedule.is_done(self.next_step, &self.states)
    }

    /// Execute every remaining step and tear down.
    pub(crate) fn run(mut self) -> (ParallelOutcome, T) {
        while self.step().is_some() {}
        self.finish()
    }

    /// Tear down into the [`ParallelOutcome`] of the steps executed so
    /// far (`report` is `Some` iff the world was observed), handing the
    /// transport back (the DES reads its clocks off it).
    pub(crate) fn finish(self) -> (ParallelOutcome, T) {
        let meta = self.clock.map(|(clock, start)| RunMeta {
            clock: clock.label(),
            wall_ns: clock.now_ns().saturating_sub(start),
        });
        let outputs: Vec<RankOutput> = self
            .states
            .into_iter()
            .zip(self.comm_stats)
            .map(|(state, comm)| state.into_output(comm))
            .collect();
        let outcome = assemble_outcome(self.n, self.next_step, outputs, self.telemetry, meta);
        (outcome, self.transport)
    }
}

impl<S: RankMachine> SimWorld<FifoTransport, S> {
    /// Capture the complete world state at the current step boundary.
    pub(crate) fn snapshot(&self) -> WorldSnapshot<SnapOf<S>> {
        WorldSnapshot {
            seed: self.seed,
            p: self.states.len(),
            n: self.n,
            schedule: self.schedule.snap(),
            next_step: self.next_step,
            ranks: self.states.iter().map(|st| st.checkpoint()).collect(),
            comm: self.comm_stats.clone(),
            telemetry: self.telemetry.clone(),
            initial_edges: (self.states.iter())
                .map(|st| st.visits().0 as u64)
                .collect(),
        }
    }

    /// Rebuild the world of a run on `graph` under `(config, part)` and
    /// `schedule` from a snapshot ([`RankMachine::rebuild`] rebuilds each
    /// rank). The
    /// snapshot is untrusted: its identity fields must match the run,
    /// every stored edge sit on its owner, no rank hold an edge twice
    /// (an edge sits on one rank only), every rank's visit marks fit
    /// its store and the graph ([`check_marks`]), its initial edge count
    /// equal the one its checkpoint tracks, and the stores realize
    /// `graph`'s degree sequence — otherwise the reason comes back as
    /// `Err`, never a panic, never a silently divergent run.
    pub(crate) fn resume(
        graph: &Graph,
        config: &ParallelConfig,
        part: &Partitioner,
        schedule: S::Schedule,
        snap: &WorldSnapshot<SnapOf<S>>,
    ) -> Result<Self, String> {
        let p = config.processors;
        assert_eq!(part.num_parts(), p, "partitioner size must match config");
        if (snap.seed, snap.p) != (config.seed, p) {
            return Err(format!(
                "snapshot is of seed {} p {}, the run is seed {} p {p}",
                snap.seed, snap.p, config.seed
            ));
        }
        let schedule = schedule.resume(snap.next_step, &snap.schedule)?;
        if snap.ranks.len() != p || snap.comm.len() != p || snap.initial_edges.len() != p {
            return Err("snapshot does not carry one entry per rank".to_string());
        }
        if snap.telemetry.len() as u64 != snap.next_step {
            return Err("snapshot step position does not fit the run".to_string());
        }
        let mut tracked = 0usize;
        for (rank, ckpt) in snap.ranks.iter().enumerate() {
            let owned =
                ckpt.rank == rank && ckpt.store_edges.iter().all(|e| part.owner(e.src()) == rank);
            if !owned {
                return Err(format!("snapshot of rank {rank} is not that rank's state"));
            }
            check_marks(
                graph,
                &ckpt.store_edges,
                &ckpt.unvisited,
                ckpt.tracker_initial,
            )
            .map_err(|why| format!("rank {rank}: {why}"))?;
            if snap.initial_edges[rank] != ckpt.tracker_initial as u64 {
                return Err(format!(
                    "snapshot of rank {rank} starts from {} edges but tracks {}",
                    snap.initial_edges[rank], ckpt.tracker_initial
                ));
            }
            tracked = tracked.saturating_add(ckpt.tracker_initial);
        }
        if tracked != graph.num_edges() {
            return Err("snapshot visit trackers do not fit the graph".to_string());
        }
        let mut all_edges = snap
            .ranks
            .iter()
            .flat_map(|c| c.store_edges.iter().copied());
        check_degrees(graph, snap.n, &mut all_edges)?;
        (snap.ranks.iter()).try_for_each(|ckpt| check_distinct(&ckpt.store_edges))?;
        let states: Vec<S> = (snap.ranks.iter())
            .map(|ckpt| S::rebuild(ckpt, part, config, &schedule))
            .collect();
        Ok(SimWorld {
            states,
            comm_stats: snap.comm.clone(),
            transport: FifoTransport::new(),
            schedule,
            telemetry: snap.telemetry.clone(),
            n: snap.n,
            seed: snap.seed,
            next_step: snap.next_step,
            out: Outbox::new(),
            clock: None,
        })
    }
}

/// A Section-4.5 step or a Curveball pass is the unit of `advance`.
impl<S: RankMachine + 'static> Stepped for SimWorld<FifoTransport, S> {
    fn advance(&mut self, max_ops: u64) -> u64 {
        if max_ops == 0 {
            return 0;
        }
        self.step().map_or(0, |tel| tel.logical_msgs.total())
    }

    fn progress(&self) -> StepProgress {
        let (initial, visited) = self.states.iter().fold((0, 0), |(i, v), st| {
            let (initial, visited) = st.visits();
            (i + initial, v + visited)
        });
        StepProgress {
            step: self.next_step,
            steps: self.schedule.steps(self.next_step),
            performed: self.states.iter().map(|st| st.stats().performed).sum(),
            budget: self.schedule.budget(),
            visit_rate: visit_rate(visited, initial),
            logical_msgs: 0,
            done: self.is_done(),
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        encode_world_snapshot(&SimWorld::snapshot(self))
    }

    fn finish(self: Box<Self>) -> RunOutcome {
        RunOutcome::Parallel(Box::new(SimWorld::finish(*self).0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::StepHarness;
    use edgeswitch_dist::root_rng;
    use edgeswitch_graph::generators::erdos_renyi_gnm;

    fn world(g: &Graph, t: u64, config: &ParallelConfig) -> (SimWorld, Partitioner) {
        let part = Partitioner::build(config.scheme, g, config.processors, &mut config.root_rng());
        let harness = StepHarness::new(t, config);
        let world = SimWorld::set_up(g, config, &part, FifoTransport::new(), harness);
        (world, part)
    }

    /// The `t`-operation switch world `snap` captured.
    fn resume(
        g: &Graph,
        t: u64,
        config: &ParallelConfig,
        part: &Partitioner,
        snap: &WorldSnapshot,
    ) -> Result<SimWorld, String> {
        SimWorld::resume(g, config, part, StepHarness::new(t, config), snap)
    }

    #[test]
    fn snapshotting_is_read_only_and_deterministic() {
        let g = erdos_renyi_gnm(80, 300, &mut root_rng(303));
        let (mut world, _) = world(&g, 200, &ParallelConfig::new(2).with_seed(5));
        world.step();
        assert_eq!(world.snapshot(), world.snapshot());
    }

    #[test]
    fn finish_between_steps_reports_the_steps_run() {
        let g = erdos_renyi_gnm(80, 300, &mut root_rng(304));
        let (mut world, _) = world(&g, 200, &ParallelConfig::new(2).with_seed(5));
        world.step();
        world.step();
        let performed = world.progress().performed;
        let (out, _) = world.finish();
        assert_eq!(out.steps, 2);
        assert_eq!(out.telemetry.len(), 2);
        assert_eq!(out.performed(), performed);
        assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
    }

    #[test]
    fn resume_rejects_a_snapshot_of_another_run() {
        let g = erdos_renyi_gnm(60, 200, &mut root_rng(404));
        let config = ParallelConfig::new(2).with_seed(1);
        let (mut first, part) = world(&g, 100, &config);
        first.step();
        let snap = first.snapshot();
        assert!(resume(&g, 100, &config, &part, &snap).is_ok());
        let wrong_seed = config.clone().with_seed(2);
        assert!(resume(&g, 100, &wrong_seed, &part, &snap).is_err());
        assert!(resume(&g, 101, &config, &part, &snap).is_err());
        let other = erdos_renyi_gnm(60, 200, &mut root_rng(405));
        assert!(resume(&other, 100, &config, &part, &snap).is_err());
        // A rank's edges swapped onto the other rank.
        let mut swapped = snap.clone();
        swapped.ranks.swap(0, 1);
        assert!(resume(&g, 100, &config, &part, &swapped).is_err());
        let mut short = snap.clone();
        short.telemetry.clear();
        assert!(resume(&g, 100, &config, &part, &short).is_err());
    }
}
