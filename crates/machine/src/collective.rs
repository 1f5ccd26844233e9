//! Rendezvous machinery for collective operations.
//!
//! Collectives (barrier, broadcast, reductions) need every participant's
//! virtual clock before the common completion time can be computed, so they
//! are implemented as a generation-counted rendezvous rather than with the
//! pairwise channels. The last arriver computes the result, bumps the
//! generation and wakes the rest; results are double-buffered by generation
//! parity so a fast node entering the *next* collective cannot clobber a
//! result a slow node has not yet read.
//!
//! The accounting core ([`CollCore`]) is machine-agnostic: the threaded
//! machine wraps it in a `Mutex`/`Condvar` rendezvous
//! ([`SharedCollectives`]), and the event-driven scheduler
//! ([`crate::sched`]) drives the same core under its own lock, which is
//! what keeps collective completion times bit-identical between the two
//! machines. Either way entering is separate from waiting: `contribute`
//! never blocks, so a rank that is not the last arriver can return to its
//! machine and come back for the result.

use crate::cost::CostModel;
use crate::node::{Payload, PayloadBuf};
use std::sync::{Condvar, Mutex};

/// One rank's input to the current collective. Every variant carries the
/// contributor's entry clock; completion is computed from the *maximum*
/// over contributions (and the maximum of the per-rank cost terms), so the
/// result is independent of arrival order.
pub(crate) enum Contribution {
    /// Barrier entry; `sync_cost` is the tree-synchronization charge.
    Barrier { clock: f64, sync_cost: f64 },
    /// Broadcast entry; the root passes `Some(payload)` and the binomial
    /// tree depth in `levels`.
    Bcast {
        clock: f64,
        payload: Option<Payload>,
        levels: u32,
    },
    /// Sum all-reduce entry. `rank` fixes the summation order so the
    /// floating-point result is independent of arrival order.
    Sum {
        clock: f64,
        rank: usize,
        value: f64,
        extra_cost: f64,
    },
    /// Maxloc all-reduce entry (dgefa's pivot search).
    MaxLoc {
        clock: f64,
        rank: usize,
        value: f64,
        payload: Vec<f64>,
        extra_cost: f64,
    },
}

/// Rendezvous result. `data` is a shared [`Payload`]: every waiter clones
/// the `Arc`, not the buffer.
#[derive(Clone, Default)]
pub(crate) struct CollOut {
    pub(crate) time: f64,
    pub(crate) data: Option<Payload>,
    pub(crate) sum: f64,
}

/// Machine-agnostic collective accounting: accumulates [`Contribution`]s,
/// computes the shared [`CollOut`] when the last participant arrives, and
/// double-buffers results by generation parity.
pub(crate) struct CollCore {
    nprocs: usize,
    cost: CostModel,
    generation: u64,
    arrived: usize,
    max_clock: f64,
    extra: f64,
    levels: u32,
    payload: Option<Payload>,
    payload_clock: f64,
    addends: Vec<(usize, f64)>,
    best_val: f64,
    best_rank: usize,
    best_payload: Vec<f64>,
    results: [Option<CollOut>; 2],
}

impl CollCore {
    pub(crate) fn new(nprocs: usize, cost: CostModel) -> Self {
        CollCore {
            nprocs,
            cost,
            generation: 0,
            arrived: 0,
            max_clock: f64::NEG_INFINITY,
            extra: f64::NEG_INFINITY,
            levels: 0,
            payload: None,
            payload_clock: 0.0,
            addends: Vec::new(),
            best_val: f64::NEG_INFINITY,
            best_rank: usize::MAX,
            best_payload: Vec::new(),
            results: [None, None],
        }
    }

    /// Current collective generation (increments when one completes).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Folds one rank's contribution in. Returns `true` when this was the
    /// last participant — the caller must then invoke [`CollCore::finish`].
    pub(crate) fn contribute(&mut self, c: Contribution) -> bool {
        match c {
            Contribution::Barrier { clock, sync_cost } => {
                self.max_clock = self.max_clock.max(clock);
                self.extra = self.extra.max(sync_cost);
            }
            Contribution::Bcast {
                clock,
                payload,
                levels,
            } => {
                self.max_clock = self.max_clock.max(clock);
                self.levels = levels;
                if let Some(p) = payload {
                    self.payload = Some(p);
                    self.payload_clock = clock;
                }
            }
            Contribution::Sum {
                clock,
                rank,
                value,
                extra_cost,
            } => {
                self.max_clock = self.max_clock.max(clock);
                self.extra = self.extra.max(extra_cost);
                self.addends.push((rank, value));
            }
            Contribution::MaxLoc {
                clock,
                rank,
                value,
                payload,
                extra_cost,
            } => {
                self.max_clock = self.max_clock.max(clock);
                self.extra = self.extra.max(extra_cost);
                if self.best_rank == usize::MAX
                    || value > self.best_val
                    || (value == self.best_val && rank < self.best_rank)
                {
                    self.best_val = value;
                    self.best_rank = rank;
                    self.best_payload = payload;
                }
            }
        }
        self.arrived += 1;
        self.arrived == self.nprocs
    }

    /// Computes the collective's result, stores it in the parity slot,
    /// resets the accumulator, and bumps the generation. Call exactly once
    /// per collective, when [`CollCore::contribute`] returns `true`.
    pub(crate) fn finish(&mut self) -> CollOut {
        let out = if self.payload.is_some() {
            // Broadcast: completion is pinned to the *root's* clock plus
            // the tree depth, independent of the other entry clocks.
            let data = self.payload.take().expect("bcast: no root payload");
            let bytes = (data.len() * 8) as u64;
            CollOut {
                time: self.payload_clock + self.levels as f64 * self.cost.send_cost(bytes),
                data: Some(data),
                sum: 0.0,
            }
        } else if !self.addends.is_empty() {
            // Sum in rank order: bit-exact regardless of arrival order.
            self.addends.sort_unstable_by_key(|&(r, _)| r);
            let sum = self.addends.drain(..).map(|(_, v)| v).sum();
            CollOut {
                time: self.max_clock + self.extra,
                data: None,
                sum,
            }
        } else if self.best_rank != usize::MAX {
            CollOut {
                time: self.max_clock + self.extra,
                data: Some(PayloadBuf::unpooled(std::mem::take(&mut self.best_payload))),
                sum: self.best_val,
            }
        } else {
            CollOut {
                time: self.max_clock + self.extra,
                data: None,
                sum: 0.0,
            }
        };
        self.results[(self.generation % 2) as usize] = Some(out.clone());
        // Retire the previous generation: finishing this collective means
        // every rank contributed to it, which it could only do after
        // reading the previous result — so no reader remains, and
        // dropping the slot releases its payload buffer to the pool
        // instead of pinning it for another whole generation.
        self.results[((self.generation + 1) % 2) as usize] = None;
        self.arrived = 0;
        self.max_clock = f64::NEG_INFINITY;
        self.extra = f64::NEG_INFINITY;
        self.levels = 0;
        self.payload = None;
        self.addends.clear();
        self.best_val = f64::NEG_INFINITY;
        self.best_rank = usize::MAX;
        self.best_payload.clear();
        self.generation += 1;
        out
    }

    /// The stored result of generation `gen` (must be one of the two most
    /// recent completed generations).
    pub(crate) fn result(&self, gen: u64) -> CollOut {
        self.results[(gen % 2) as usize]
            .clone()
            .expect("collective result missing")
    }
}

/// One posted (nonblocking) broadcast in flight: its virtual completion
/// time and the shared payload. Retired once every rank has taken its copy.
pub(crate) struct PostedEntry {
    pub(crate) time: f64,
    pub(crate) data: Payload,
    reads: usize,
}

/// Machine-agnostic in-flight table for posted broadcasts.
///
/// Unlike the synchronous rendezvous above, a posted broadcast never blocks
/// the root: completion time depends only on the root's clock at the post
/// (the same pinning [`CollCore::finish`] applies to synchronous
/// broadcasts), so the root computes it up front and deposits the payload
/// here. Entries are keyed by the SPMD-uniform per-rank posted-sequence
/// number — every rank executes the same posts in the same order, so the
/// sequence numbers agree across ranks without any rendezvous.
pub(crate) struct PostedCore {
    nprocs: usize,
    map: std::collections::BTreeMap<u64, PostedEntry>,
}

impl PostedCore {
    pub(crate) fn new(nprocs: usize) -> Self {
        PostedCore {
            nprocs,
            map: std::collections::BTreeMap::new(),
        }
    }

    /// Root deposits the payload of posted broadcast `seq`, complete at
    /// virtual time `time`.
    pub(crate) fn insert(&mut self, seq: u64, time: f64, data: Payload) {
        let prev = self.map.insert(
            seq,
            PostedEntry {
                time,
                data,
                reads: 0,
            },
        );
        debug_assert!(prev.is_none(), "posted bcast #{seq} inserted twice");
    }

    /// Whether the root has deposited posted broadcast `seq`.
    pub(crate) fn contains(&self, seq: u64) -> bool {
        self.map.contains_key(&seq)
    }

    /// One rank takes its copy of posted broadcast `seq`; `None` while the
    /// root has not deposited it yet. The entry is retired after the
    /// `nprocs`-th take — the returned flag is `true` on that final take,
    /// so the event scheduler can retire the broadcast from its queue
    /// accounting.
    pub(crate) fn try_take(&mut self, seq: u64) -> Option<(f64, Payload, bool)> {
        let e = self.map.get_mut(&seq)?;
        e.reads += 1;
        let out = (e.time, e.data.clone());
        let retired = e.reads >= self.nprocs;
        if retired {
            self.map.remove(&seq);
        }
        Some((out.0, out.1, retired))
    }
}

/// Threaded-machine wrapper for `PostedCore`: a `Mutex`/`Condvar` pair so
/// a rank reaching the wait before the root has posted can sleep. The
/// event-driven scheduler drives the same core under its own lock
/// (`sched`), keeping posted completion times bit-identical
/// between the two machines.
pub struct SharedPosted {
    state: Mutex<PostedCore>,
    cv: Condvar,
}

impl SharedPosted {
    /// Creates the in-flight table for `nprocs` participants.
    pub fn new(nprocs: usize) -> Self {
        SharedPosted {
            state: Mutex::new(PostedCore::new(nprocs)),
            cv: Condvar::new(),
        }
    }

    /// Root-side deposit (never blocks).
    pub(crate) fn insert(&self, seq: u64, time: f64, data: Payload) {
        let mut g = self.state.lock().expect("posted lock poisoned");
        g.insert(seq, time, data);
        self.cv.notify_all();
    }

    /// Takes this rank's copy of posted broadcast `seq`, if the root has
    /// deposited it.
    pub(crate) fn try_take(&self, seq: u64) -> Option<(f64, Payload)> {
        let mut g = self.state.lock().expect("posted lock poisoned");
        g.try_take(seq).map(|(time, data, _retired)| (time, data))
    }

    /// Blocks until the root has deposited posted broadcast `seq`.
    pub(crate) fn wait(&self, seq: u64) {
        let g = self.state.lock().expect("posted lock poisoned");
        let timeout = || format!("posted-bcast timeout: root never posted #{seq} (crashed rank?)");
        drop(wait_while(
            &self.cv,
            g,
            |posted| !posted.contains(seq),
            timeout,
        ));
    }
}

/// Sleeps on `cv` while `pending(state)`, for at most 30 s: the bounded
/// wait turns a peer's crash (which would otherwise strand this thread
/// forever) into a diagnosable panic with `timeout()`'s message.
fn wait_while<'a, T>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, T>,
    pending: impl Fn(&mut T) -> bool,
    timeout: impl FnOnce() -> String,
) -> std::sync::MutexGuard<'a, T> {
    let limit = std::time::Duration::from_secs(30);
    let (guard, res) = cv
        .wait_timeout_while(guard, limit, pending)
        .expect("collective lock poisoned");
    if res.timed_out() {
        panic!("{}", timeout());
    }
    guard
}

/// Shared state for all collectives of one threaded machine run.
pub struct SharedCollectives {
    state: Mutex<CollCore>,
    cv: Condvar,
}

impl SharedCollectives {
    /// Creates rendezvous state for `nprocs` participants under `cost`.
    pub fn new(nprocs: usize, cost: CostModel) -> Self {
        SharedCollectives {
            state: Mutex::new(CollCore::new(nprocs, cost)),
            cv: Condvar::new(),
        }
    }

    /// Folds this rank's contribution in. The last arriver completes the
    /// collective and gets its result; an earlier one gets the generation
    /// to [`SharedCollectives::wait`] for.
    pub(crate) fn contribute(&self, c: Contribution) -> Result<CollOut, u64> {
        let mut g = self.state.lock().expect("collective lock poisoned");
        let gen = g.generation();
        if !g.contribute(c) {
            return Err(gen);
        }
        let out = g.finish();
        self.cv.notify_all();
        Ok(out)
    }

    /// The result of generation `gen`, once it has completed.
    pub(crate) fn result(&self, gen: u64) -> Option<CollOut> {
        let g = self.state.lock().expect("collective lock poisoned");
        (g.generation() > gen).then(|| g.result(gen))
    }

    /// Blocks until generation `gen` has completed; returns its result.
    pub(crate) fn wait(&self, gen: u64) -> CollOut {
        let g = self.state.lock().expect("collective lock poisoned");
        let timeout = || "collective timeout: a peer never arrived (crashed rank?)".to_string();
        wait_while(&self.cv, g, |coll| coll.generation() == gen, timeout).result(gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Contributes and, unless last, sleeps until the collective is done.
    fn rendezvous(c: &SharedCollectives, x: Contribution) -> CollOut {
        c.contribute(x).unwrap_or_else(|gen| c.wait(gen))
    }

    #[test]
    fn barrier_twice_in_a_row() {
        // Reusability across generations: two consecutive barriers from
        // multiple threads must not hang or cross-talk.
        let c = Arc::new(SharedCollectives::new(4, CostModel::ipsc860()));
        let barrier = |c: &SharedCollectives, clock| {
            let sync_cost = 1.0;
            rendezvous(c, Contribution::Barrier { clock, sync_cost }).time
        };
        std::thread::scope(|s| {
            for r in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    let t1 = barrier(&c, r as f64);
                    assert_eq!(t1, 4.0); // max(0..=3) + 1
                    let t2 = barrier(&c, t1 + r as f64);
                    assert_eq!(t2, 8.0); // max(4..=7) + 1
                });
            }
        });
    }

    #[test]
    fn maxloc_tie_breaks_low_rank() {
        let c = Arc::new(SharedCollectives::new(3, CostModel::ipsc860()));
        std::thread::scope(|s| {
            for rank in 0..3 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    let out = rendezvous(
                        &c,
                        Contribution::MaxLoc {
                            clock: 0.0,
                            rank,
                            value: 5.0,
                            payload: vec![rank as f64],
                            extra_cost: 0.0,
                        },
                    );
                    assert_eq!(out.sum, 5.0);
                    assert_eq!(out.data.unwrap().to_vec(), vec![0.0]); // rank 0 wins ties
                });
            }
        });
    }

    #[test]
    fn sum_is_rank_ordered_not_arrival_ordered() {
        // Values chosen so that summation order changes the rounded
        // result; every thread must see the rank-order sum.
        let vals = [1.0e16, 1.0, -1.0e16];
        let expect: f64 = vals.iter().sum(); // ((1e16 + 1) - 1e16) = 0.0
        let c = Arc::new(SharedCollectives::new(3, CostModel::ipsc860()));
        std::thread::scope(|s| {
            for (rank, &value) in vals.iter().enumerate() {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    let out = rendezvous(
                        &c,
                        Contribution::Sum {
                            clock: 0.0,
                            rank,
                            value,
                            extra_cost: 0.0,
                        },
                    );
                    assert_eq!(out.sum.to_bits(), expect.to_bits());
                });
            }
        });
    }
}
