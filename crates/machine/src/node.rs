//! Per-processor execution handle.

use crate::collective::{CollOut, Contribution, SharedCollectives, SharedPosted};
use crate::cost::{CostModel, NetworkModel};
use crate::sched::{EventShared, Wait};
use crate::stats::NodeStats;
use fortrand_trace::{Trace, PID_MACHINE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a real thread may block on a simulated receive before the run
/// is declared deadlocked. Generous: simulation work is microseconds.
/// Tests shrink it via [`crate::Machine::with_deadlock_timeout`] so the
/// deadlock path can be exercised without a 30-second stall.
pub(crate) const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(30);

/// Machine-wide free list of `Vec<f64>` message buffers. Senders acquire a
/// buffer instead of allocating, and a [`Payload`] returns its buffer here
/// when the last reference drops (usually on the receiving rank), so steady
/// states — a loop sending the same-shaped message every iteration — stop
/// allocating entirely. Counters are aggregated into
/// [`crate::RunStats::pool_reuses`] after a run.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Mutex<Vec<Vec<f64>>>,
    reuses: AtomicU64,
    allocs: AtomicU64,
    bytes_reused: AtomicU64,
}

impl BufferPool {
    /// A fresh, shareable pool.
    pub fn new() -> Arc<BufferPool> {
        Arc::new(BufferPool::default())
    }

    /// Takes a cleared buffer from the free list, or allocates one.
    pub fn acquire(&self) -> Vec<f64> {
        if let Some(mut v) = self.free.lock().expect("buffer pool poisoned").pop() {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            self.bytes_reused
                .fetch_add((v.capacity() * 8) as u64, Ordering::Relaxed);
            v.clear();
            v
        } else {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        }
    }

    fn recycle(&self, v: Vec<f64>) {
        if v.capacity() > 0 {
            self.free.lock().expect("buffer pool poisoned").push(v);
        }
    }

    /// Wraps a buffer into a refcounted payload that recycles itself here
    /// on last drop.
    pub fn wrap(self: &Arc<Self>, data: Vec<f64>) -> Payload {
        Arc::new(PayloadBuf {
            data: Some(data),
            pool: Some(Arc::clone(self)),
        })
    }

    /// `(reuses, allocs, bytes_reused)` counters so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.reuses.load(Ordering::Relaxed),
            self.allocs.load(Ordering::Relaxed),
            self.bytes_reused.load(Ordering::Relaxed),
        )
    }
}

/// Refcounted message payload. Cloning a `Payload` shares the underlying
/// buffer (broadcast hands every waiter the same `Arc`); when the last
/// reference drops, a pooled buffer goes back to its [`BufferPool`].
pub type Payload = Arc<PayloadBuf>;

/// The buffer behind a [`Payload`]; derefs to `[f64]`.
#[derive(Debug)]
pub struct PayloadBuf {
    data: Option<Vec<f64>>,
    pool: Option<Arc<BufferPool>>,
}

impl PayloadBuf {
    /// A payload that frees (rather than recycles) its buffer.
    pub fn unpooled(data: Vec<f64>) -> Payload {
        Arc::new(PayloadBuf {
            data: Some(data),
            pool: None,
        })
    }

    fn take_data(&mut self) -> Vec<f64> {
        self.pool = None; // the caller owns the buffer now
        self.data.take().unwrap_or_default()
    }
}

impl std::ops::Deref for PayloadBuf {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        self.data.as_deref().unwrap_or(&[])
    }
}

impl Drop for PayloadBuf {
    fn drop(&mut self) {
        if let (Some(v), Some(pool)) = (self.data.take(), self.pool.take()) {
            pool.recycle(v);
        }
    }
}

/// One simulated message: a source, a tag, a payload of f64 words, and
/// the virtual time at which it becomes available to the receiver.
#[derive(Clone, Debug)]
pub struct Msg {
    /// Sending rank. The event machine's per-destination mailboxes
    /// dispatch on it; the threaded machine's pairwise channels imply it.
    pub src: usize,
    /// User tag; receives assert on it to catch compiler bugs early.
    pub tag: u64,
    /// Payload (Fortran REALs are simulated as f64 throughout). Shared,
    /// not copied: the channel moves one `Arc`.
    pub data: Payload,
    /// Virtual time at which the receiver may consume the message.
    pub avail_at_us: f64,
}

/// How a [`Node`] talks to its peers: free-running threads over pairwise
/// channels, or scheduled tasks over the event scheduler's mailboxes. Each
/// offers the same non-blocking primitives (take a message, enter a
/// collective, read its result, take a posted broadcast) plus a way to
/// block on a [`Wait`]; all cost accounting lives in [`Node`] itself,
/// outside this enum — which is what makes the two machines' observables
/// identical by construction.
pub(crate) enum CommBackend {
    Threaded {
        /// Pairwise FIFO channels, indexed `[src * nprocs + dst]`.
        senders: Arc<Vec<Sender<Msg>>>,
        /// This rank's receive ends, indexed by source.
        receivers: Vec<Receiver<Msg>>,
        /// The message [`Node::block_on`] waited for: a channel cannot be
        /// waited on without taking from it, so the next receive from that
        /// source finds it here.
        early: Option<Msg>,
        /// Likewise the result of the collective `block_on` waited for, read
        /// under the lock the wait already held.
        coll_done: Option<CollOut>,
        collectives: Arc<SharedCollectives>,
        posted: Arc<SharedPosted>,
        deadlock_timeout: Duration,
    },
    Event(Arc<EventShared>),
}

/// Handle given to each node of an SPMD program run under
/// [`crate::Machine::run`]. Provides message passing, collectives, and
/// explicit cost charging, all against this node's virtual clock.
pub struct Node {
    rank: usize,
    nprocs: usize,
    cost: CostModel,
    net: Arc<dyn NetworkModel>,
    clock_us: f64,
    comm: CommBackend,
    pool: Arc<BufferPool>,
    stats: NodeStats,
    trace: Trace,
    /// Posted-broadcast sequence counter. Every rank executes the same
    /// posts in the same order (the overlap optimizer only emits them
    /// under replicated guards), so these agree across ranks and key the
    /// shared in-flight table without a rendezvous.
    posted_seq: u64,
    /// Generation of the collective this rank has entered and not yet read
    /// the result of: a retried `try_*` collective contributes only once.
    in_coll: Option<u64>,
}

impl Node {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        nprocs: usize,
        cost: CostModel,
        net: Arc<dyn NetworkModel>,
        comm: CommBackend,
        pool: Arc<BufferPool>,
        trace: Trace,
    ) -> Self {
        Node {
            rank,
            nprocs,
            cost,
            net,
            clock_us: 0.0,
            comm,
            pool,
            stats: NodeStats::default(),
            trace,
            posted_seq: 0,
            in_coll: None,
        }
    }

    /// A fresh event-machine node with this node's identity (rank, models,
    /// scheduler, pool, trace) and none of its history: what the closure
    /// adapter leaves in place of a node that is away (see
    /// [`crate::closure`]).
    pub(crate) fn twin(&self) -> Node {
        let CommBackend::Event(shared) = &self.comm else {
            panic!("only event-machine nodes have twins");
        };
        Node::new(
            self.rank,
            self.nprocs,
            self.cost.clone(),
            Arc::clone(&self.net),
            CommBackend::Event(Arc::clone(shared)),
            Arc::clone(&self.pool),
            self.trace.clone(),
        )
    }

    /// The blocking form of a `try_*` operation: retry, blocking on the
    /// [`Wait`] each failed attempt reports.
    fn blocking<T>(&mut self, mut attempt: impl FnMut(&mut Node) -> Result<T, Wait>) -> T {
        loop {
            match attempt(self) {
                Ok(done) => return done,
                Err(wait) => self.block_on(wait),
            }
        }
    }

    /// Blocks this rank, in real time, until `wait` — which a `try_*` call
    /// just reported — may have been satisfied. A thread of the threaded
    /// machine sleeps on its channel or condition variable (and panics with
    /// the deadlock diagnostic when the timeout expires); a closure rank of
    /// the event machine hands control back to the event loop.
    pub(crate) fn block_on(&mut self, wait: Wait) {
        let CommBackend::Threaded {
            receivers,
            early,
            coll_done,
            collectives,
            posted,
            deadlock_timeout,
            ..
        } = &mut self.comm
        else {
            return crate::closure::suspend(self, wait);
        };
        match wait {
            Wait::Recv { src, tag } => {
                let msg = receivers[src].recv_timeout(*deadlock_timeout);
                *early = Some(msg.unwrap_or_else(|_| {
                    panic!(
                        "deadlock: rank {} waited >{:?} for a message from {} (tag {})",
                        self.rank, deadlock_timeout, src, tag
                    )
                }));
            }
            Wait::Coll => {
                let gen = self.in_coll.expect("waiting outside a collective");
                *coll_done = Some(collectives.wait(gen));
            }
            Wait::Posted { seq } => posted.wait(seq),
        }
    }

    /// One attempt at a collective; both backends share
    /// [`crate::collective::CollCore`], so completion times agree
    /// bit-for-bit. The first attempt enters with `contribution(self)` and,
    /// unless this rank is the last to arrive, reports [`Wait::Coll`]; so
    /// does every later attempt until one finds the collective complete
    /// and returns the result.
    fn try_coll(
        &mut self,
        contribution: impl FnOnce(&Node) -> Contribution,
    ) -> Result<CollOut, Wait> {
        let gen = match self.in_coll {
            Some(gen) => gen,
            None => {
                let c = contribution(self);
                let entered = match &self.comm {
                    CommBackend::Threaded { collectives, .. } => collectives.contribute(c),
                    CommBackend::Event(shared) => shared.contribute(c),
                };
                self.in_coll = entered.as_ref().err().copied();
                return entered.map_err(|_| Wait::Coll);
            }
        };
        let out = match &mut self.comm {
            CommBackend::Threaded {
                collectives,
                coll_done,
                ..
            } => coll_done.take().or_else(|| collectives.result(gen)),
            CommBackend::Event(shared) => shared.coll_result(gen),
        };
        let out = out.ok_or(Wait::Coll)?;
        self.in_coll = None;
        Ok(out)
    }

    /// Hands `msg` to the backend for delivery to `dst`.
    fn deliver(&self, dst: usize, msg: Msg) {
        match &self.comm {
            CommBackend::Threaded { senders, .. } => senders[self.rank * self.nprocs + dst]
                .send(msg)
                .expect("machine channel closed while sending"),
            CommBackend::Event(shared) => shared.send_msg(dst, msg),
        }
    }

    /// The trace handle shared with the machine; engines use it to record
    /// execution slices on this rank's track (pid [`PID_MACHINE`],
    /// tid = rank) in *simulated* time.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// This node's rank, `0 ≤ rank < nprocs` (the paper's `my$p`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processors (the paper's `n$proc`).
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current virtual clock in µs.
    pub fn clock(&self) -> f64 {
        self.clock_us
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Charges `n` floating-point operations to this node's clock.
    pub fn charge_flops(&mut self, n: u64) {
        self.stats.flops += n;
        self.clock_us += n as f64 * self.cost.flop_us;
    }

    /// Charges `n` scalar/control operations (guards, ownership tests,
    /// address arithmetic).
    pub fn charge_ops(&mut self, n: u64) {
        self.stats.ops += n;
        self.clock_us += n as f64 * self.cost.op_us;
    }

    /// Charges one remap library invocation (fixed overhead; data motion is
    /// charged separately as messages by the caller).
    pub fn charge_remap(&mut self) {
        self.stats.remaps += 1;
        self.clock_us += self.cost.remap_call_us;
    }

    /// The machine-wide message [`BufferPool`].
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Takes a cleared message buffer from the pool (see [`Node::send_buf`]).
    pub fn acquire_buf(&self) -> Vec<f64> {
        self.pool.acquire()
    }

    /// Sends `data` to `dst` with `tag`. Non-blocking in real time; charges
    /// the sender `α + β·bytes` of virtual time. The message becomes
    /// available to the receiver at the sender's post-send clock.
    ///
    /// Copies `data` into a pooled buffer; hot paths that build the payload
    /// themselves should fill an [`Node::acquire_buf`] buffer and hand it to
    /// [`Node::send_buf`] instead.
    pub fn send(&mut self, dst: usize, tag: u64, data: &[f64]) {
        let mut buf = self.acquire_buf();
        buf.extend_from_slice(data);
        self.send_buf(dst, tag, buf);
    }

    /// [`Node::send`] taking ownership of the payload buffer — zero-copy:
    /// the buffer travels as a refcounted [`Payload`] and returns to the
    /// pool when the receiver drops it.
    pub fn send_buf(&mut self, dst: usize, tag: u64, data: Vec<f64>) {
        assert!(dst < self.nprocs, "send to rank {dst} of {}", self.nprocs);
        assert_ne!(dst, self.rank, "self-send: rank {dst}");
        let bytes = (data.len() * 8) as u64;
        let t0 = self.clock_us;
        self.clock_us += self.cost.send_cost(bytes);
        self.stats.record_msgs(1, bytes, Some(tag));
        if self.trace.on() {
            self.trace.complete(
                PID_MACHINE,
                self.rank as u32,
                "msg",
                "send",
                t0,
                self.clock_us - t0,
                vec![
                    ("dst", (dst as i64).into()),
                    ("tag", (tag as i64).into()),
                    ("bytes", (bytes as i64).into()),
                ],
            );
        }
        let msg = Msg {
            src: self.rank,
            tag,
            data: self.pool.wrap(data),
            avail_at_us: self.clock_us
                + self.net.extra_latency_us(self.rank, dst, bytes, &self.cost),
        };
        self.deliver(dst, msg);
    }

    /// Receives the next message from `src`, asserting its tag. Blocks (in
    /// real time) until available; advances the virtual clock to at least
    /// the message's availability time and records the wait as idle time.
    ///
    /// # Panics
    /// Panics on tag mismatch or if no message arrives within the deadlock
    /// timeout.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<f64> {
        self.blocking(|n| n.try_recv(src, tag))
    }

    /// [`Node::recv`] that reports [`Wait::Recv`] instead of blocking when
    /// no message from `src` is queued.
    pub fn try_recv(&mut self, src: usize, tag: u64) -> Result<Vec<f64>, Wait> {
        let p = self.try_recv_payload(src, tag)?;
        Ok(match Arc::try_unwrap(p) {
            // Sole owner (the common point-to-point case): hand the buffer
            // to the caller without copying (it leaves pool custody).
            Ok(mut buf) => buf.take_data(),
            Err(shared) => shared.to_vec(),
        })
    }

    /// [`Node::recv`] returning the shared [`Payload`] — zero-copy: the
    /// buffer is recycled into the pool when the caller drops it.
    pub fn recv_payload(&mut self, src: usize, tag: u64) -> Payload {
        self.blocking(|n| n.try_recv_payload(src, tag))
    }

    /// [`Node::recv_payload`] that reports [`Wait::Recv`] instead of
    /// blocking when no message from `src` is queued.
    pub fn try_recv_payload(&mut self, src: usize, tag: u64) -> Result<Payload, Wait> {
        assert!(src < self.nprocs, "recv from rank {src} of {}", self.nprocs);
        let msg = match &mut self.comm {
            CommBackend::Threaded {
                receivers, early, ..
            } => {
                if early.as_ref().is_some_and(|m| m.src == src) {
                    early.take()
                } else {
                    receivers[src].try_recv().ok()
                }
            }
            CommBackend::Event(shared) => shared.take_msg(self.rank, src),
        };
        let msg = msg.ok_or(Wait::Recv { src, tag })?;
        assert_eq!(
            msg.tag, tag,
            "tag mismatch on rank {} receiving from {}: expected {}, got {}",
            self.rank, src, tag, msg.tag
        );
        let t0 = self.clock_us;
        if msg.avail_at_us > self.clock_us {
            self.stats.wait_us += msg.avail_at_us - self.clock_us;
            self.clock_us = msg.avail_at_us;
        }
        if self.trace.on() {
            self.trace.complete(
                PID_MACHINE,
                self.rank as u32,
                "msg",
                "recv",
                t0,
                self.clock_us - t0,
                vec![
                    ("src", (src as i64).into()),
                    ("tag", (tag as i64).into()),
                    ("bytes", ((msg.data.len() * 8) as i64).into()),
                ],
            );
        }
        Ok(msg.data)
    }

    /// Global barrier. Advances every node's clock to
    /// `max(entry clocks) + α·⌈log₂ P⌉`.
    pub fn barrier(&mut self) {
        self.blocking(Node::try_barrier)
    }

    /// [`Node::barrier`] that reports [`Wait::Coll`] instead of blocking
    /// while other ranks have yet to arrive.
    pub fn try_barrier(&mut self) -> Result<(), Wait> {
        let levels = log2_ceil(self.nprocs);
        let t0 = self.clock_us;
        let t = self
            .try_coll(|n| Contribution::Barrier {
                clock: n.clock_us,
                sync_cost: n.cost.alpha_us * levels as f64,
            })?
            .time;
        if t > self.clock_us {
            self.stats.wait_us += t - self.clock_us;
        }
        self.clock_us = t;
        if self.trace.on() {
            self.trace.complete(
                PID_MACHINE,
                self.rank as u32,
                "coll",
                "barrier",
                t0,
                self.clock_us - t0,
                Vec::new(),
            );
        }
        Ok(())
    }

    /// Broadcast from `root`: every node returns the root's `data`.
    ///
    /// Modeled as a binomial tree: all nodes finish at
    /// `max(own clock, root clock + ⌈log₂ P⌉·(α + β·bytes))`. The `P−1`
    /// tree messages are attributed to the root for accounting.
    pub fn bcast(&mut self, root: usize, data: &[f64]) -> Vec<f64> {
        self.bcast_tagged(root, data, None)
    }

    /// [`Node::bcast`] with an optional accounting tag: the attributed tree
    /// messages are additionally recorded under `tag` in the per-tag stats,
    /// so callers can distinguish message classes (e.g. plain vs. coalesced
    /// broadcasts) after the run.
    pub fn bcast_tagged(&mut self, root: usize, data: &[f64], tag: Option<u64>) -> Vec<f64> {
        let buf = if self.rank == root {
            let mut b = self.acquire_buf();
            b.extend_from_slice(data);
            Some(b)
        } else {
            None
        };
        self.bcast_payload(root, buf, tag).to_vec()
    }

    /// [`Node::bcast_tagged`] taking (on the root) an owned payload buffer
    /// and returning the shared [`Payload`] — zero-copy: every rank clones
    /// one `Arc` instead of the buffer, and the pool reclaims it after the
    /// last rank drops its reference.
    pub fn bcast_payload(
        &mut self,
        root: usize,
        data: Option<Vec<f64>>,
        tag: Option<u64>,
    ) -> Payload {
        let mut data = data;
        self.blocking(|n| n.try_bcast_payload(root, data.take(), tag))
    }

    /// [`Node::bcast_payload`] that reports [`Wait::Coll`] instead of
    /// blocking while other ranks have yet to arrive. The root's `data`
    /// goes in with the first attempt; retries pass `None`.
    pub fn try_bcast_payload(
        &mut self,
        root: usize,
        data: Option<Vec<f64>>,
        tag: Option<u64>,
    ) -> Result<Payload, Wait> {
        assert!(root < self.nprocs);
        if self.nprocs == 1 {
            return Ok(self.pool.wrap(data.expect("bcast: no root payload")));
        }
        let is_root = self.rank == root;
        let levels = log2_ceil(self.nprocs);
        let t0 = self.clock_us;
        let res = self.try_coll(|n| Contribution::Bcast {
            clock: n.clock_us,
            payload: data.map(|d| n.pool.wrap(d)),
            levels,
        })?;
        let (t, out) = (res.time, res.data.expect("bcast result payload"));
        if is_root {
            self.stats
                .record_msgs((self.nprocs - 1) as u64, (out.len() * 8) as u64, tag);
        }
        let t = t.max(self.clock_us);
        if t > self.clock_us {
            self.stats.wait_us += t - self.clock_us;
        }
        self.clock_us = t;
        if self.trace.on() {
            let mut args: fortrand_trace::Args = vec![
                ("root", (root as i64).into()),
                ("bytes", ((out.len() * 8) as i64).into()),
            ];
            if let Some(tag) = tag {
                args.push(("tag", (tag as i64).into()));
            }
            self.trace.complete(
                PID_MACHINE,
                self.rank as u32,
                "coll",
                "bcast",
                t0,
                self.clock_us - t0,
                args,
            );
        }
        Ok(out)
    }

    /// All-reduce (sum) of one value; every node returns the global sum.
    /// Costs `2·⌈log₂ P⌉·α` beyond the slowest entrant (reduce + broadcast
    /// trees of 8-byte messages); the `2(P−1)` messages are attributed to
    /// rank 0.
    pub fn allreduce_sum(&mut self, v: f64) -> f64 {
        self.blocking(|n| n.try_allreduce_sum(v))
    }

    /// [`Node::allreduce_sum`] that reports [`Wait::Coll`] instead of
    /// blocking while other ranks have yet to arrive.
    pub fn try_allreduce_sum(&mut self, v: f64) -> Result<f64, Wait> {
        if self.nprocs == 1 {
            return Ok(v);
        }
        let levels = log2_ceil(self.nprocs);
        let extra = 2.0 * levels as f64 * self.cost.send_cost(8);
        let t0 = self.clock_us;
        let res = self.try_coll(|n| Contribution::Sum {
            clock: n.clock_us,
            rank: n.rank,
            value: v,
            extra_cost: extra,
        })?;
        let (t, sum) = (res.time, res.sum);
        if self.rank == 0 {
            self.stats
                .record_msgs(2 * (self.nprocs - 1) as u64, 8, None);
        }
        if t > self.clock_us {
            self.stats.wait_us += t - self.clock_us;
        }
        self.clock_us = t;
        if self.trace.on() {
            self.trace.complete(
                PID_MACHINE,
                self.rank as u32,
                "coll",
                "allreduce_sum",
                t0,
                self.clock_us - t0,
                Vec::new(),
            );
        }
        Ok(sum)
    }

    /// All-reduce computing `(max value, payload of the max contributor)` —
    /// the pattern dgefa's pivot search needs (`idamax` across the owners).
    /// Ties break toward the lower rank, keeping results deterministic.
    pub fn allreduce_maxloc(&mut self, v: f64, payload: &[f64]) -> (f64, Vec<f64>) {
        self.blocking(|n| n.try_allreduce_maxloc(v, payload))
    }

    /// [`Node::allreduce_maxloc`] that reports [`Wait::Coll`] instead of
    /// blocking while other ranks have yet to arrive.
    pub fn try_allreduce_maxloc(
        &mut self,
        v: f64,
        payload: &[f64],
    ) -> Result<(f64, Vec<f64>), Wait> {
        if self.nprocs == 1 {
            return Ok((v, payload.to_vec()));
        }
        let levels = log2_ceil(self.nprocs);
        let bytes = (payload.len() * 8 + 8) as u64;
        let extra = 2.0 * levels as f64 * self.cost.send_cost(bytes);
        let t0 = self.clock_us;
        let res = self.try_coll(|n| Contribution::MaxLoc {
            clock: n.clock_us,
            rank: n.rank,
            value: v,
            payload: payload.to_vec(),
            extra_cost: extra,
        })?;
        let (t, value, data) = (
            res.time,
            res.sum,
            res.data.expect("maxloc result payload").to_vec(),
        );
        if self.rank == 0 {
            self.stats
                .record_msgs(2 * (self.nprocs - 1) as u64, bytes, None);
        }
        if t > self.clock_us {
            self.stats.wait_us += t - self.clock_us;
        }
        self.clock_us = t;
        if self.trace.on() {
            self.trace.complete(
                PID_MACHINE,
                self.rank as u32,
                "coll",
                "allreduce_maxloc",
                t0,
                self.clock_us - t0,
                vec![("bytes", (bytes as i64).into())],
            );
        }
        Ok((value, data))
    }

    /// Nonblocking send (overlap comm level): the payload leaves now, but
    /// the sender is charged only the message startup α — the per-byte
    /// transfer overlaps with subsequent compute. The message's
    /// availability time at the receiver is identical to a blocking
    /// [`Node::send_buf`] issued at the same point, so the receiver cannot
    /// observe the difference; only the sender's stall shrinks.
    pub fn post_send(&mut self, dst: usize, tag: u64, data: Vec<f64>) {
        assert!(dst < self.nprocs, "send to rank {dst} of {}", self.nprocs);
        assert_ne!(dst, self.rank, "self-send: rank {dst}");
        let bytes = (data.len() * 8) as u64;
        let full = self.cost.send_cost(bytes);
        let t0 = self.clock_us;
        self.clock_us += self.cost.alpha_us;
        self.stats.record_msgs(1, bytes, Some(tag));
        self.stats.overlap_posts += 1;
        self.stats.overlap_hidden_us += full - self.cost.alpha_us;
        if self.trace.on() {
            self.trace.complete(
                PID_MACHINE,
                self.rank as u32,
                "msg",
                "post_send",
                t0,
                self.clock_us - t0,
                vec![
                    ("dst", (dst as i64).into()),
                    ("tag", (tag as i64).into()),
                    ("bytes", (bytes as i64).into()),
                ],
            );
        }
        let msg = Msg {
            src: self.rank,
            tag,
            data: self.pool.wrap(data),
            avail_at_us: t0 + full + self.net.extra_latency_us(self.rank, dst, bytes, &self.cost),
        };
        self.deliver(dst, msg);
    }

    /// Completion point of a [`Node::post_send`]. The payload was captured
    /// and shipped at the post, so this is pure bookkeeping.
    pub fn wait_send(&mut self) {
        self.stats.overlap_waits += 1;
        if self.trace.on() {
            self.trace.instant(
                PID_MACHINE,
                self.rank as u32,
                "msg",
                "wait_send",
                self.clock_us,
                Vec::new(),
            );
        }
    }

    /// Bookkeeping for a nonblocking receive post. The receive itself
    /// costs nothing until its wait; posting just records the intent (the
    /// engine captures the matched source/tag at the post point).
    pub fn post_recv(&mut self, src: usize, tag: u64) {
        self.stats.overlap_posts += 1;
        if self.trace.on() {
            self.trace.instant(
                PID_MACHINE,
                self.rank as u32,
                "msg",
                "post_recv",
                self.clock_us,
                vec![("src", (src as i64).into()), ("tag", (tag as i64).into())],
            );
        }
    }

    /// Completion point of a posted receive: identical to
    /// [`Node::recv_payload`] except for the overlap accounting.
    pub fn wait_recv(&mut self, src: usize, tag: u64) -> Payload {
        self.blocking(|n| n.try_wait_recv(src, tag))
    }

    /// [`Node::wait_recv`] that reports [`Wait::Recv`] instead of blocking
    /// when the posted message has not been sent yet.
    pub fn try_wait_recv(&mut self, src: usize, tag: u64) -> Result<Payload, Wait> {
        let data = self.try_recv_payload(src, tag)?;
        self.stats.overlap_waits += 1;
        Ok(data)
    }

    /// Nonblocking broadcast post (overlap comm level). The root gathers
    /// the payload now, is charged the startup α, and deposits the payload
    /// in the in-flight table with the same completion time a blocking
    /// [`Node::bcast_payload`] issued here would have pinned
    /// (`root clock + ⌈log₂ P⌉·(α + β·bytes)` — blocking broadcasts pin
    /// completion to the root's entry clock alone, which is exactly what
    /// lets posted ones skip the rendezvous). Non-roots only advance their
    /// posted-sequence counter. Returns the sequence number the matching
    /// [`Node::wait_bcast`] must pass back.
    pub fn post_bcast(&mut self, root: usize, data: Option<Vec<f64>>, tag: Option<u64>) -> u64 {
        assert!(root < self.nprocs);
        let seq = self.posted_seq;
        self.posted_seq += 1;
        self.stats.overlap_posts += 1;
        let is_root = self.rank == root;
        let t0 = self.clock_us;
        if is_root {
            let data = data.expect("post_bcast: no root payload");
            let bytes = (data.len() * 8) as u64;
            let levels = log2_ceil(self.nprocs);
            // Blocking broadcasts at P == 1 short-circuit without charges
            // or attributed messages; posted ones mirror that exactly.
            let completion = if self.nprocs > 1 {
                self.clock_us += self.cost.alpha_us;
                self.stats.record_msgs((self.nprocs - 1) as u64, bytes, tag);
                t0 + levels as f64 * self.cost.send_cost(bytes)
            } else {
                t0
            };
            let payload = self.pool.wrap(data);
            match &self.comm {
                CommBackend::Threaded { posted, .. } => posted.insert(seq, completion, payload),
                CommBackend::Event(shared) => shared.post_insert(seq, completion, payload),
            }
            if self.trace.on() {
                let mut args: fortrand_trace::Args = vec![
                    ("root", (root as i64).into()),
                    ("seq", (seq as i64).into()),
                    ("bytes", (bytes as i64).into()),
                ];
                if let Some(tag) = tag {
                    args.push(("tag", (tag as i64).into()));
                }
                self.trace.complete(
                    PID_MACHINE,
                    self.rank as u32,
                    "coll",
                    "post_bcast",
                    t0,
                    self.clock_us - t0,
                    args,
                );
            }
        } else if self.trace.on() {
            self.trace.instant(
                PID_MACHINE,
                self.rank as u32,
                "coll",
                "post_bcast",
                t0,
                vec![("root", (root as i64).into()), ("seq", (seq as i64).into())],
            );
        }
        seq
    }

    /// Completion point of a [`Node::post_bcast`]: blocks until the posted
    /// payload is available, advances the clock to
    /// `max(own clock, completion)`, and credits the latency that compute
    /// since `posted_at` hid. Every rank — root included — takes its copy
    /// here.
    pub fn wait_bcast(&mut self, seq: u64, posted_at: f64) -> Payload {
        self.blocking(|n| n.try_wait_bcast(seq, posted_at))
    }

    /// [`Node::wait_bcast`] that reports [`Wait::Posted`] instead of
    /// blocking while the root has not posted broadcast `seq`.
    pub fn try_wait_bcast(&mut self, seq: u64, posted_at: f64) -> Result<Payload, Wait> {
        let taken = match &self.comm {
            CommBackend::Threaded { posted, .. } => posted.try_take(seq),
            CommBackend::Event(shared) => shared.posted_take(seq),
        };
        let (time, data) = taken.ok_or(Wait::Posted { seq })?;
        self.stats.overlap_waits += 1;
        let t0 = self.clock_us;
        // Latency hidden: the part of the in-flight window covered by this
        // rank's compute since the post (a blocking broadcast would have
        // stalled it at the post point instead).
        self.stats.overlap_hidden_us += (self.clock_us.min(time) - posted_at).max(0.0);
        if time > self.clock_us {
            self.stats.wait_us += time - self.clock_us;
            self.clock_us = time;
        }
        if self.trace.on() {
            self.trace.complete(
                PID_MACHINE,
                self.rank as u32,
                "coll",
                "wait_bcast",
                t0,
                self.clock_us - t0,
                vec![
                    ("seq", (seq as i64).into()),
                    ("bytes", ((data.len() * 8) as i64).into()),
                ],
            );
        }
        Ok(data)
    }

    /// Final per-node statistics (consumes the node at the end of a run).
    pub(crate) fn into_stats(mut self) -> NodeStats {
        self.stats.time_us = self.clock_us;
        if self.trace.on() {
            self.trace.instant(
                PID_MACHINE,
                self.rank as u32,
                "vm",
                "rank done",
                self.clock_us,
                vec![
                    ("flops", (self.stats.flops as i64).into()),
                    ("ops", (self.stats.ops as i64).into()),
                    ("wait_us", self.stats.wait_us.into()),
                ],
            );
        }
        self.stats
    }
}

/// ⌈log₂ n⌉ for n ≥ 1.
pub(crate) fn log2_ceil(n: usize) -> u32 {
    debug_assert!(n >= 1);
    usize::BITS - (n - 1).leading_zeros().min(usize::BITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(32), 5);
    }
}
