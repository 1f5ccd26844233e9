//! Deterministic discrete-event scheduler for the event-driven machine.
//!
//! Instead of one free-running OS thread per rank racing over channels,
//! the event machine runs ranks as *tasks*: a [`RankTask`] is a plain
//! struct whose [`RankTask::step`] runs the rank up to its next
//! communication point and returns — [`Yield::Blocked`] with the [`Wait`]
//! it could not get past (a receive with no matching message queued, a
//! collective it is not the last to enter, a posted broadcast the root has
//! not deposited), or [`Yield::Done`]. The event loop ([`EventShared::run`])
//! is an ordinary loop on the calling thread: pop the least
//! `(virtual ready time, rank)`, call `step`, file the task under the wait
//! it returned. There is no thread, stack or baton per rank; a run of `p`
//! ranks is `p` structs and one heap.
//!
//! A blocked task is woken by whoever completes what it waits for, at the
//! moment they do: [`EventShared::send_msg`] when the message's source
//! matches, the last arriver of a collective, the root depositing a posted
//! broadcast. It becomes ready at `max(its clock when it blocked, the
//! virtual time the thing became available)`. Dispatch order is a function
//! of the ready queue alone, which is what makes runs bit-for-bit
//! reproducible (see `tests/machines.rs`). Message delivery goes through
//! per-rank mailboxes rather than O(p²) channel pairs.
//!
//! Deadlock needs no wall-clock timeout: if nothing is runnable and some
//! task is still blocked, the loop has *proved* the deadlock and returns
//! the diagnostic — every waiting rank and what it waits for — as a value.
//!
//! Rank bodies given as closures ([`crate::Machine::run`]) cannot return
//! in the middle of a call, so they ride the adapter in [`crate::closure`];
//! that is the only place a thread per rank still exists.

use crate::collective::{CollCore, CollOut, Contribution, PostedCore};
use crate::node::{Msg, Node, Payload};
use crate::stats::RunStats;
use crate::Failure;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Mutex, MutexGuard};

/// What a rank that cannot proceed is waiting for. Reported by the
/// non-blocking [`Node`] operations (`try_*`) and handed back to the
/// machine in [`Yield::Blocked`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wait {
    /// A message from `src` with `tag`.
    Recv {
        /// Sending rank.
        src: usize,
        /// Expected tag (diagnostic only: matching is per source, FIFO).
        tag: u64,
    },
    /// The last participant of the collective this rank has entered.
    Coll,
    /// Posted broadcast `seq`, which the root has not deposited yet.
    Posted {
        /// The posted-sequence number [`Node::post_bcast`] returned.
        seq: u64,
    },
}

/// How one [`RankTask::step`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Yield {
    /// The rank cannot proceed until `Wait` is satisfied. The wait must be
    /// the one a `Node::try_*` call of this step just reported: the machine
    /// wakes the task when that very thing arrives, and `step` is then
    /// expected to retry the same operation.
    Blocked(Wait),
    /// The rank's program has finished.
    Done,
}

/// One rank of an SPMD run, as a resumable task: the unit the machines
/// schedule (see [`crate::Machine::try_run_tasks`]).
pub trait RankTask {
    /// Runs the rank until it finishes or reaches a communication point it
    /// cannot get past. On the event machine `step` must not call the
    /// blocking [`Node`] operations — use the `try_*` forms and return the
    /// [`Wait`] they report. A panic inside `step` fails this rank only.
    fn step(&mut self, node: &mut Node) -> Yield;
}

#[derive(Clone, Copy, Debug)]
enum Status {
    /// In the ready queue (or about to be dispatched for the first time).
    Ready,
    /// Inside `step`.
    Running,
    /// Returned `Yield::Blocked`.
    Blocked(Wait),
    /// Returned `Yield::Done`, or `step` panicked.
    Finished,
}

struct Task {
    status: Status,
    /// Virtual clock at the task's last yield.
    clock: f64,
    /// Lazy-deletion stamp: heap entries with a stale epoch are skipped.
    epoch: u64,
}

/// Ready-queue key: earliest virtual time first, rank breaking ties, so
/// the dispatch order is a deterministic function of the simulation state.
struct ReadyKey {
    at: f64,
    rank: usize,
    epoch: u64,
}

impl PartialEq for ReadyKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for ReadyKey {}
impl PartialOrd for ReadyKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .total_cmp(&other.at)
            .then(self.rank.cmp(&other.rank))
            .then(self.epoch.cmp(&other.epoch))
    }
}

struct EvState {
    tasks: Vec<Task>,
    /// Per-destination message queues; FIFO per (src, dst) pair.
    mailbox: Vec<VecDeque<Msg>>,
    ready: BinaryHeap<Reverse<ReadyKey>>,
    /// Tasks currently in `Ready` state (the heap may hold stale extras).
    ready_count: usize,
    coll: CollCore,
    /// In-flight posted broadcasts (overlap comm level).
    posted: PostedCore,
    // Scheduler counters, surfaced as `RunStats::sched_*`.
    switches: u64,
    msgs: u64,
    ready_peak: u64,
    queued: usize,
    queue_peak: u64,
}

/// Shared state of one event-machine run; every [`crate::Node`] of the
/// run holds an `Arc` to it. The lock is uncontended — exactly one rank
/// (or the loop) runs at any instant — and exists because a closure rank
/// calls in from its own thread.
pub(crate) struct EventShared {
    nprocs: usize,
    state: Mutex<EvState>,
}

impl EventShared {
    pub(crate) fn new(nprocs: usize, cost: crate::cost::CostModel) -> Self {
        let tasks = (0..nprocs)
            .map(|_| Task {
                status: Status::Ready,
                clock: 0.0,
                epoch: 0,
            })
            .collect();
        let mut ready = BinaryHeap::with_capacity(nprocs);
        for rank in 0..nprocs {
            ready.push(Reverse(ReadyKey {
                at: 0.0,
                rank,
                epoch: 0,
            }));
        }
        EventShared {
            nprocs,
            state: Mutex::new(EvState {
                tasks,
                mailbox: (0..nprocs).map(|_| VecDeque::new()).collect(),
                ready,
                ready_count: nprocs,
                coll: CollCore::new(nprocs, cost),
                posted: PostedCore::new(nprocs),
                switches: 0,
                msgs: 0,
                ready_peak: nprocs as u64,
                queued: 0,
                queue_peak: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, EvState> {
        self.state
            .lock()
            .expect("a rank panicked while holding the scheduler lock")
    }

    /// Marks `rank` runnable at virtual time `at`.
    fn make_ready(st: &mut EvState, rank: usize, at: f64) {
        let t = &mut st.tasks[rank];
        t.status = Status::Ready;
        t.epoch += 1;
        let epoch = t.epoch;
        st.ready.push(Reverse(ReadyKey { at, rank, epoch }));
        st.ready_count += 1;
        st.ready_peak = st.ready_peak.max(st.ready_count as u64);
    }

    /// Queues `msg` for `dst`, waking `dst` if it is blocked on exactly
    /// this source.
    pub(crate) fn send_msg(&self, dst: usize, msg: Msg) {
        let mut st = self.lock();
        if let Status::Blocked(Wait::Recv { src, .. }) = st.tasks[dst].status {
            if src == msg.src {
                let at = st.tasks[dst].clock.max(msg.avail_at_us);
                Self::make_ready(&mut st, dst, at);
            }
        }
        st.mailbox[dst].push_back(msg);
        st.msgs += 1;
        st.queued += 1;
        st.queue_peak = st.queue_peak.max(st.queued as u64);
    }

    /// Takes the next queued message from `src`, if any. Per-(src, dst)
    /// FIFO order is preserved because the mailbox scan takes the *first*
    /// match.
    pub(crate) fn take_msg(&self, me: usize, src: usize) -> Option<Msg> {
        let mut st = self.lock();
        let pos = st.mailbox[me].iter().position(|m| m.src == src)?;
        st.queued -= 1;
        st.mailbox[me].remove(pos)
    }

    /// Enters a collective. The last arriver computes the result, makes
    /// every waiter runnable at `max(result time, its own clock)` and gets
    /// the result; an earlier arriver gets the generation to ask
    /// [`EventShared::coll_result`] for once it has been woken.
    pub(crate) fn contribute(&self, c: Contribution) -> Result<CollOut, u64> {
        let mut st = self.lock();
        let gen = st.coll.generation();
        let last = st.coll.contribute(c);
        // Each contribution is an undelivered message held by the
        // rendezvous until the last arriver completes it, so it counts
        // toward the queue high-water mark like a mailbox message.
        st.queued += 1;
        st.queue_peak = st.queue_peak.max(st.queued as u64);
        if !last {
            return Err(gen);
        }
        let out = st.coll.finish();
        st.queued -= self.nprocs;
        for rank in 0..self.nprocs {
            if matches!(st.tasks[rank].status, Status::Blocked(Wait::Coll)) {
                let at = st.tasks[rank].clock.max(out.time);
                Self::make_ready(&mut st, rank, at);
            }
        }
        Ok(out)
    }

    /// The result of collective generation `gen`, once it has completed.
    pub(crate) fn coll_result(&self, gen: u64) -> Option<CollOut> {
        let st = self.lock();
        (st.coll.generation() > gen).then(|| st.coll.result(gen))
    }

    /// Root-side deposit of posted broadcast `seq`, complete at virtual
    /// time `time`. Wakes any rank already blocked on it (runnable at
    /// `max(completion, its own clock)`).
    pub(crate) fn post_insert(&self, seq: u64, time: f64, data: Payload) {
        let mut st = self.lock();
        st.posted.insert(seq, time, data);
        // An in-flight posted broadcast is one undelivered message until
        // the last rank takes its copy (see `posted_take`).
        st.queued += 1;
        st.queue_peak = st.queue_peak.max(st.queued as u64);
        for rank in 0..self.nprocs {
            if matches!(st.tasks[rank].status, Status::Blocked(Wait::Posted { seq: s }) if s == seq)
            {
                let at = st.tasks[rank].clock.max(time);
                Self::make_ready(&mut st, rank, at);
            }
        }
    }

    /// Takes this rank's copy of posted broadcast `seq`, if the root has
    /// deposited it.
    pub(crate) fn posted_take(&self, seq: u64) -> Option<(f64, Payload)> {
        let mut st = self.lock();
        let (time, data, retired) = st.posted.try_take(seq)?;
        if retired {
            st.queued -= 1;
        }
        Some((time, data))
    }

    /// Next runnable rank: least `(ready_at, rank)`, skipping stale heap
    /// entries. Counts as one scheduler switch.
    fn dispatch(&self) -> Option<usize> {
        let mut st = self.lock();
        while let Some(Reverse(key)) = st.ready.pop() {
            let t = &st.tasks[key.rank];
            if t.epoch == key.epoch && matches!(t.status, Status::Ready) {
                st.ready_count -= 1;
                st.switches += 1;
                st.tasks[key.rank].status = Status::Running;
                return Some(key.rank);
            }
        }
        None
    }

    /// The event loop: runs `tasks[r]` against `nodes[r]` in ready-queue
    /// order until every task is done or none can run. A panic inside a
    /// `step` fails that rank and the rest run on. Returns the failure that
    /// is the run's root cause, if it failed: the panic of the lowest rank
    /// that genuinely failed, ahead of ranks that merely deadlocked on it;
    /// or, when nothing is runnable but tasks remain blocked, the deadlock
    /// diagnostic attributed to the lowest waiting rank.
    pub(crate) fn run<T: RankTask>(&self, tasks: &mut [T], nodes: &mut [Node]) -> Option<Failure> {
        let mut failed: Option<Failure> = None;
        while let Some(rank) = self.dispatch() {
            let (task, node) = (&mut tasks[rank], &mut nodes[rank]);
            let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.step(node)));
            let mut st = self.lock();
            let t = &mut st.tasks[rank];
            t.status = match step {
                Ok(Yield::Blocked(wait)) => {
                    t.clock = nodes[rank].clock();
                    Status::Blocked(wait)
                }
                Ok(Yield::Done) => Status::Finished,
                Err(payload) => {
                    if failed.as_ref().is_none_or(|f| rank < f.rank) {
                        failed = Some(Failure { rank, payload });
                    }
                    Status::Finished
                }
            };
        }
        failed.or_else(|| {
            let (rank, diag) = deadlock_diag(&self.lock())?;
            Some(Failure {
                rank,
                payload: Box::new(diag),
            })
        })
    }

    /// Copies the scheduler counters into `stats`.
    pub(crate) fn export_counters(&self, stats: &mut RunStats) {
        let st = self.lock();
        stats.sched_switches = st.switches;
        stats.sched_msgs = st.msgs;
        stats.sched_ready_peak = st.ready_peak;
        stats.sched_queue_peak = st.queue_peak;
    }
}

/// Renders the deadlock diagnostic — one clause per waiting rank, then the
/// waiting rank set — with the lowest waiting rank; `None` when no rank
/// waits. The per-rank clause matches the threaded machine's timeout
/// message closely enough that diagnostics stay grep-compatible.
fn deadlock_diag(st: &EvState) -> Option<(usize, String)> {
    let mut clauses = Vec::new();
    let mut waiting = Vec::new();
    for (rank, task) in st.tasks.iter().enumerate() {
        let Status::Blocked(wait) = task.status else {
            continue;
        };
        waiting.push(rank);
        clauses.push(match wait {
            Wait::Recv { src, tag } => {
                format!("rank {rank} waited for a message from {src} (tag {tag})")
            }
            Wait::Coll => format!("rank {rank} waited in a collective"),
            Wait::Posted { seq } => {
                format!("rank {rank} waited for posted broadcast #{seq} (never posted)")
            }
        });
    }
    let first = *waiting.first()?;
    Some((
        first,
        format!(
            "deadlock: {}; event queue empty with blocked ranks {waiting:?}",
            clauses.join("; ")
        ),
    ))
}
