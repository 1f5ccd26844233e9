//! # fortrand-machine
//!
//! A deterministic simulator of a MIMD distributed-memory message-passing
//! machine — the execution substrate for programs produced by the Fortran D
//! compiler. It stands in for the Intel iPSC/860 the paper evaluated on
//! (see DESIGN.md §2 for the substitution argument).
//!
//! Each simulated processor is a [`Node`] with its own *virtual clock*.
//! Costs follow a LogGP-style model ([`CostModel`]): a message of `m` bytes
//! costs the sender `α + β·m` and arrives at the receiver no earlier than
//! the sender's post-send clock. The receiver's clock advances to
//! `max(own clock, arrival time)`. Computation is charged explicitly by the
//! interpreter via [`Node::charge_flops`] / [`Node::charge_ops`].
//!
//! What runs on a node is a [`RankTask`]: a struct whose `step` advances
//! the rank to its next communication point and returns. The default
//! machine ([`MachineKind::Event`]) is a discrete-event loop on the calling
//! thread that steps `p` such structs in virtual-time order over per-rank
//! mailboxes — no thread per rank (see `sched.rs`). The reference machine
//! ([`MachineKind::Threaded`]) gives every rank an OS thread and a FIFO
//! channel per pair. Rank bodies written as closures ([`Machine::run`])
//! ride either machine through the adapters in `closure.rs`.
//!
//! Because every receive names its source and delivery is FIFO per pair,
//! execution is deterministic: simulated times, message counts and message
//! volumes are exactly reproducible run to run, which is what lets the
//! benchmark harness regenerate the paper's performance comparisons stably.

#![forbid(unsafe_code)]

mod closure;
mod collective;
mod cost;
mod node;
mod sched;
mod stats;

pub use collective::{SharedCollectives, SharedPosted};
pub use cost::{CostModel, DirectNet, HypercubeNet, NetworkModel, TorusNet};
pub use node::{BufferPool, Msg, Node, Payload, PayloadBuf};
pub use sched::{RankTask, Wait, Yield};
pub use stats::{size_bucket, NodeStats, RunStats, HIST_BUCKETS, HIST_LABELS};

use closure::ClosureTask;
use fortrand_rt::panic_message;
use fortrand_trace::{Trace, PID_MACHINE};
use std::sync::mpsc::channel as unbounded;
use std::sync::Arc;

/// Which execution substrate simulates the ranks.
///
/// Both machines charge identical costs through the same [`Node`] code, so
/// final arrays, message counts and `time_us` are bit-identical between
/// them (`tests/machines.rs` enforces this); they differ only in how rank
/// bodies are interleaved on the host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// One free-running OS thread per rank over pairwise channels — the
    /// original substrate, kept as a differential reference. O(p²) channel
    /// state and real thread contention make it impractical past tens of
    /// ranks.
    Threaded,
    /// Deterministic discrete-event scheduler: ranks are [`RankTask`]
    /// structs stepped by one virtual-clock event loop on the calling
    /// thread (see `sched`); scales to thousands of ranks.
    #[default]
    Event,
}

/// One simulated processor's body panicked during a [`Machine::try_run`],
/// or the run deadlocked. Carries the lowest failing rank and that rank's
/// panic message (for a deadlock: the lowest waiting rank and the
/// diagnostic naming every waiting rank).
#[derive(Clone, Debug)]
pub struct RankFailure {
    /// The lowest-numbered rank whose body panicked.
    pub rank: usize,
    /// The panic payload, rendered as text.
    pub message: String,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

impl std::error::Error for RankFailure {}

/// A simulated distributed-memory machine with `nprocs` nodes.
#[derive(Clone)]
pub struct Machine {
    /// Number of processors.
    pub nprocs: usize,
    /// Communication/computation cost model.
    pub cost: CostModel,
    /// Execution substrate (default [`MachineKind::Event`]).
    pub kind: MachineKind,
    /// Interconnect topology model (default [`DirectNet`]).
    net: Arc<dyn NetworkModel>,
    /// Real-time budget a node may block on a receive before the run is
    /// declared deadlocked (default 30 s; see [`Node::recv`]). Only the
    /// threaded machine needs it — the event loop *detects* deadlock
    /// instead of timing out.
    deadlock_timeout: std::time::Duration,
    /// Trace handle shared with every node (off by default).
    trace: Trace,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("nprocs", &self.nprocs)
            .field("cost", &self.cost)
            .field("kind", &self.kind)
            .field("net", &self.net.name())
            .field("deadlock_timeout", &self.deadlock_timeout)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Creates a machine with the default (iPSC/860-flavoured) cost model
    /// on the event-driven substrate.
    pub fn new(nprocs: usize) -> Self {
        Self::with_cost(nprocs, CostModel::ipsc860())
    }

    /// Creates a machine with an explicit cost model.
    pub fn with_cost(nprocs: usize, cost: CostModel) -> Self {
        Machine {
            nprocs,
            cost,
            kind: MachineKind::default(),
            net: Arc::new(DirectNet),
            deadlock_timeout: node::DEADLOCK_TIMEOUT,
            trace: Trace::off(),
        }
    }

    /// [`Machine::new`] on the thread-per-rank substrate — the
    /// differential reference implementation.
    pub fn threaded(nprocs: usize) -> Self {
        Self::new(nprocs).with_kind(MachineKind::Threaded)
    }

    /// Selects the execution substrate.
    pub fn with_kind(mut self, kind: MachineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Overrides the interconnect topology model. Messages then become
    /// available to receivers at the sender's post-send clock *plus* the
    /// model's route latency; both substrates honor it identically.
    pub fn with_network(mut self, net: impl NetworkModel + 'static) -> Self {
        self.net = Arc::new(net);
        self
    }

    /// The interconnect topology model in effect.
    pub fn network(&self) -> &Arc<dyn NetworkModel> {
        &self.net
    }

    /// Overrides the receive deadlock timeout of the threaded machine,
    /// whose free-running threads can only suspect a deadlock from a
    /// receive that stays empty. Intended for tests that exercise that
    /// diagnostic without the 30-second stall; the default is generous
    /// because simulation work is microseconds. The event machine never
    /// reads it: when its ready queue runs empty with ranks still waiting
    /// it has proved the deadlock, and reports it at once.
    pub fn with_deadlock_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.deadlock_timeout = timeout;
        self
    }

    /// Attaches a trace handle: every node records its message traffic and
    /// execution slices (simulated time, pid [`PID_MACHINE`], tid = rank),
    /// and runs end with buffer-pool counter samples.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// The machine's trace handle (off unless [`Machine::with_trace`] was
    /// used).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Runs one SPMD program: `body` is executed once per node, each
    /// invocation receiving that node's [`Node`] handle. Returns the
    /// aggregated [`RunStats`] (program time = max over nodes of the final
    /// virtual clock).
    ///
    /// # Panics
    /// Propagates panics from node bodies, and panics with the deadlock
    /// diagnostic when the ranks deadlock. Use [`Machine::try_run`] to get
    /// the failure as a value instead.
    pub fn run<F>(&self, body: F) -> RunStats
    where
        F: Fn(&mut Node) + Send + Sync,
    {
        match self.run_closures(&body) {
            Ok(stats) => stats,
            Err(failure) => std::panic::resume_unwind(failure.payload),
        }
    }

    /// [`Machine::run`] that surfaces a rank panic as a [`RankFailure`]
    /// (lowest failing rank wins, deterministically) instead of unwinding.
    /// All ranks are joined either way, so no simulated state leaks.
    pub fn try_run<F>(&self, body: F) -> Result<RunStats, RankFailure>
    where
        F: Fn(&mut Node) + Send + Sync,
    {
        self.run_closures(&body).map_err(RankFailure::from)
    }

    /// Runs one SPMD program given as one [`RankTask`] per rank
    /// (`tasks[r]` is rank `r`) and hands the tasks back with the
    /// statistics, so whatever they computed can be read out of them. On
    /// the event machine the tasks are stepped on the calling thread; on
    /// the threaded machine each is driven on a thread of its own, which
    /// blocks wherever `step` reports a [`Wait`].
    pub fn try_run_tasks<T>(&self, tasks: Vec<T>) -> Result<(RunStats, Vec<T>), RankFailure>
    where
        T: RankTask + Send,
    {
        self.drive(tasks).map_err(RankFailure::from)
    }

    /// Closure bodies as tasks (see [`closure`]).
    fn run_closures<F>(&self, body: &F) -> Result<RunStats, Failure>
    where
        F: Fn(&mut Node) + Send + Sync,
    {
        let ranks = 0..self.nprocs;
        match self.kind {
            MachineKind::Threaded => self
                .drive(ranks.map(|_| closure::Direct(body)).collect())
                .map(|(stats, _)| stats),
            MachineKind::Event => std::thread::scope(|scope| {
                self.drive(ranks.map(|_| ClosureTask::new(scope, body)).collect())
                    .map(|(stats, _)| stats)
            }),
        }
    }

    fn drive<T>(&self, tasks: Vec<T>) -> Result<(RunStats, Vec<T>), Failure>
    where
        T: RankTask + Send,
    {
        assert!(self.nprocs >= 1, "machine needs at least one processor");
        assert_eq!(tasks.len(), self.nprocs, "one task per rank");
        let wall_t0 = std::time::Instant::now();
        let pool = BufferPool::new();
        let (mut stats, tasks) = match self.kind {
            MachineKind::Threaded => self.run_threaded(tasks, &pool)?,
            MachineKind::Event => self.run_event(tasks, &pool)?,
        };
        let (reuses, allocs, bytes_reused) = pool.counters();
        stats.pool_reuses = reuses;
        stats.pool_allocs = allocs;
        stats.pool_bytes_reused = bytes_reused;
        stats.wall_us = wall_t0.elapsed().as_secs_f64() * 1e6;
        if self.trace.on() {
            let t = stats.time_us;
            let counter =
                |name, value: u64| self.trace.counter(PID_MACHINE, 0, name, t, value as f64);
            counter("pool_reuses", reuses);
            counter("pool_allocs", allocs);
            counter("pool_bytes_reused", bytes_reused);
            if stats.sched_switches > 0 {
                counter("sched_switches", stats.sched_switches);
                counter("sched_msgs", stats.sched_msgs);
                counter("sched_ready_peak", stats.sched_ready_peak);
                counter("sched_queue_peak", stats.sched_queue_peak);
            }
        }
        Ok((stats, tasks))
    }

    /// Thread-per-rank substrate: pairwise channels, free-running threads,
    /// each driving its task with `loop { step; block_on(wait) }`.
    fn run_threaded<T>(
        &self,
        tasks: Vec<T>,
        pool: &Arc<BufferPool>,
    ) -> Result<(RunStats, Vec<T>), Failure>
    where
        T: RankTask + Send,
    {
        let p = self.nprocs;
        // Pairwise FIFO channels: index [src * p + dst].
        let mut senders = Vec::with_capacity(p * p);
        let mut receivers: Vec<Vec<_>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
        for _src in 0..p {
            for dst_receivers in receivers.iter_mut() {
                let (tx, rx) = unbounded::<Msg>();
                senders.push(tx);
                dst_receivers.push(rx);
            }
        }
        let senders = Arc::new(senders);
        let collectives = Arc::new(SharedCollectives::new(p, self.cost.clone()));
        let posted = Arc::new(SharedPosted::new(p));

        let joined: Vec<_> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, (my_receivers, mut task)) in receivers.into_iter().zip(tasks).enumerate() {
                let comm = node::CommBackend::Threaded {
                    senders: Arc::clone(&senders),
                    receivers: my_receivers,
                    early: None,
                    coll_done: None,
                    collectives: Arc::clone(&collectives),
                    posted: Arc::clone(&posted),
                    deadlock_timeout: self.deadlock_timeout,
                };
                let mut node = self.node(rank, comm, pool);
                handles.push(scope.spawn(move || {
                    // Catch here (not at join) so the panic payload is
                    // carried out as a value; `run` re-raises it verbatim.
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                        while let Yield::Blocked(wait) = task.step(&mut node) {
                            node.block_on(wait);
                        }
                        (node.into_stats(), task)
                    }))
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("machine worker thread died outside body"))
                .collect()
        });

        let (mut node_stats, mut tasks) = (Vec::with_capacity(p), Vec::with_capacity(p));
        for (rank, result) in joined.into_iter().enumerate() {
            // Ranks are visited in order, so the first failure met is the
            // lowest failing rank.
            let (stats, task) = result.map_err(|payload| Failure { rank, payload })?;
            node_stats.push(stats);
            tasks.push(task);
        }
        Ok((RunStats::aggregate(node_stats), tasks))
    }

    /// Event-driven substrate: the tasks are stepped on this thread by the
    /// deterministic event loop (see [`sched`]).
    fn run_event<T: RankTask>(
        &self,
        mut tasks: Vec<T>,
        pool: &Arc<BufferPool>,
    ) -> Result<(RunStats, Vec<T>), Failure> {
        let shared = Arc::new(sched::EventShared::new(self.nprocs, self.cost.clone()));
        let mut nodes: Vec<Node> = (0..self.nprocs)
            .map(|rank| self.node(rank, node::CommBackend::Event(Arc::clone(&shared)), pool))
            .collect();
        if let Some(failure) = shared.run(&mut tasks, &mut nodes) {
            return Err(failure);
        }
        let mut stats = RunStats::aggregate(nodes.into_iter().map(Node::into_stats).collect());
        shared.export_counters(&mut stats);
        Ok((stats, tasks))
    }

    /// Rank `rank`'s node for a run, its trace track named.
    fn node(&self, rank: usize, comm: node::CommBackend, pool: &Arc<BufferPool>) -> Node {
        if self.trace.on() {
            let name = format!("rank {rank}");
            self.trace.name_track(PID_MACHINE, rank as u32, &name);
        }
        Node::new(
            rank,
            self.nprocs,
            self.cost.clone(),
            Arc::clone(&self.net),
            comm,
            Arc::clone(pool),
            self.trace.clone(),
        )
    }
}

/// Why a run failed: the panic of the rank that is its root cause (or the
/// deadlock diagnostic, attributed to the lowest waiting rank).
pub(crate) struct Failure {
    rank: usize,
    payload: Box<dyn std::any::Any + Send>,
}

impl From<Failure> for RankFailure {
    fn from(f: Failure) -> RankFailure {
        RankFailure {
            rank: f.rank,
            message: panic_message(f.payload.as_ref()),
        }
    }
}

// Compile-time thread-safety audit: the threaded substrate shares the
// machine, its network model, and the pooled message buffers across one
// OS thread per rank — none of these may silently lose Send/Sync.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<Machine>();
const _: () = assert_send_sync::<node::BufferPool>();
const _: () = assert_send_sync::<CostModel>();
const _: () = assert_send_sync::<RunStats>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_pure_compute() {
        let m = Machine::new(1);
        let stats = m.run(|node| {
            node.charge_flops(1000);
        });
        assert_eq!(stats.total_msgs, 0);
        let expect = 1000.0 * m.cost.flop_us;
        assert!((stats.time_us - expect).abs() < 1e-9);
    }

    #[test]
    fn ping_message_timing() {
        let m = Machine::with_cost(
            2,
            CostModel {
                alpha_us: 100.0,
                beta_us_per_byte: 1.0,
                ..CostModel::ipsc860()
            },
        );
        let stats = m.run(|node| {
            if node.rank() == 0 {
                node.send(1, 7, &[1.0, 2.0]); // 16 bytes
            } else {
                let data = node.recv(0, 7);
                assert_eq!(data, vec![1.0, 2.0]);
            }
        });
        assert_eq!(stats.total_msgs, 1);
        assert_eq!(stats.total_bytes, 16);
        // Sender clock: 0 + α + 16β = 116; receiver waits until then.
        assert!(
            (stats.time_us - 116.0).abs() < 1e-9,
            "time {}",
            stats.time_us
        );
    }

    #[test]
    fn receiver_compute_overlaps_latency() {
        // If the receiver is already busy past the arrival time, the message
        // costs it nothing extra.
        let cost = CostModel {
            alpha_us: 10.0,
            beta_us_per_byte: 0.0,
            flop_us: 1.0,
            ..CostModel::ipsc860()
        };
        let m = Machine::with_cost(2, cost);
        let stats = m.run(|node| {
            if node.rank() == 0 {
                node.send(1, 0, &[0.0]);
            } else {
                node.charge_flops(1000); // clock = 1000 >> arrival (10)
                node.recv(0, 0);
                assert!((node.clock() - 1000.0).abs() < 1e-9);
            }
        });
        assert!((stats.time_us - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn fifo_order_preserved() {
        let m = Machine::new(2);
        m.run(|node| {
            if node.rank() == 0 {
                for i in 0..10 {
                    node.send(1, i, &[i as f64]);
                }
            } else {
                for i in 0..10 {
                    let d = node.recv(0, i);
                    assert_eq!(d[0], i as f64);
                }
            }
        });
    }

    #[test]
    fn ring_pipeline_time_accumulates() {
        // 0 -> 1 -> 2 -> 3: each hop adds α.
        let cost = CostModel {
            alpha_us: 50.0,
            beta_us_per_byte: 0.0,
            flop_us: 0.0,
            ..CostModel::ipsc860()
        };
        let m = Machine::with_cost(4, cost);
        let stats = m.run(|node| {
            let r = node.rank();
            if r == 0 {
                node.send(1, 0, &[42.0]);
            } else {
                let d = node.recv(r - 1, 0);
                if r < 3 {
                    node.send(r + 1, 0, &d);
                }
            }
        });
        assert!(
            (stats.time_us - 150.0).abs() < 1e-9,
            "time {}",
            stats.time_us
        );
        assert_eq!(stats.total_msgs, 3);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let cost = CostModel {
            alpha_us: 10.0,
            flop_us: 1.0,
            ..CostModel::ipsc860()
        };
        let m = Machine::with_cost(4, cost.clone());
        m.run(|node| {
            node.charge_flops((node.rank() as u64 + 1) * 100);
            node.barrier();
            // Everyone is now at least at the slowest node's clock (400)
            // plus the barrier cost.
            let min = 400.0 + cost.alpha_us * (4f64).log2().ceil();
            assert!(node.clock() >= min, "clock {} < {min}", node.clock());
        });
    }

    #[test]
    fn broadcast_delivers_and_charges() {
        let m = Machine::new(4);
        let stats = m.run(|node| {
            let data = if node.rank() == 2 {
                vec![3.25; 8]
            } else {
                vec![]
            };
            let got = node.bcast(2, &data);
            assert_eq!(got, vec![3.25; 8]);
        });
        // Tree broadcast: P-1 logical messages.
        assert_eq!(stats.total_msgs, 3);
    }

    #[test]
    fn reduction_sums_across_nodes() {
        let m = Machine::new(5);
        m.run(|node| {
            let s = node.allreduce_sum(node.rank() as f64 + 1.0);
            assert!((s - 15.0).abs() < 1e-12);
        });
    }

    #[test]
    fn stats_per_node_recorded() {
        let m = Machine::new(3);
        let stats = m.run(|node| {
            if node.rank() == 0 {
                node.send(1, 0, &[1.0; 4]);
                node.send(2, 0, &[1.0; 4]);
            } else {
                node.recv(0, 0);
            }
        });
        assert_eq!(stats.per_node[0].msgs_sent, 2);
        assert_eq!(stats.per_node[1].msgs_sent, 0);
        assert_eq!(stats.per_node[0].bytes_sent, 64);
        assert_eq!(stats.total_msgs, 2);
    }

    #[test]
    fn determinism_across_runs() {
        let m = Machine::new(4);
        let run = || {
            m.run(|node| {
                let r = node.rank();
                node.charge_flops((r as u64 * 37 + 11) % 101);
                if r > 0 {
                    node.send(0, r as u64, &vec![r as f64; r]);
                } else {
                    for s in 1..4 {
                        node.recv(s, s as u64);
                    }
                }
                node.barrier();
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.time_us, b.time_us);
        assert_eq!(a.total_msgs, b.total_msgs);
        assert_eq!(a.total_bytes, b.total_bytes);
    }

    #[test]
    #[should_panic(expected = "tag mismatch")]
    fn tag_mismatch_panics() {
        let m = Machine::new(2);
        m.run(|node| {
            if node.rank() == 0 {
                node.send(1, 1, &[0.0]);
            } else {
                node.recv(0, 2);
            }
        });
    }
}
