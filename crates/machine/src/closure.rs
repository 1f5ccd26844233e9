//! Closure → task adapters: how [`crate::Machine::run`] bodies, which are
//! ordinary closures that block inside [`Node`] calls, ride the
//! [`RankTask`] machines.
//!
//! On the threaded machine a rank has a thread of its own anyway, so the
//! whole body is one step ([`Direct`]). On the event machine a closure
//! cannot return from the middle of `node.recv(..)`, so [`ClosureTask`]
//! gives each closure rank a thread to keep its call stack on and passes
//! the rank's [`Node`] — by value, so no reference outlives a hand-off —
//! between that thread and whoever calls `step`: `step` hands the node
//! over and parks; the body runs until a blocking `Node` operation cannot
//! complete, at which point [`suspend`] hands the node back together with
//! the [`Wait`], and `step` returns it. Whoever holds the node runs and
//! the other side is parked, so the event loop's order is untouched. This
//! file is the only place the event machine still has a thread per rank;
//! the bytecode VM, being a `RankTask` itself, never comes here.

use crate::node::Node;
use crate::sched::{RankTask, Wait, Yield};
use std::any::Any;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::thread::{Scope, Thread};

/// A closure rank on the threaded machine: the body blocks in place.
pub(crate) struct Direct<'a, F>(pub(crate) &'a F);

impl<F: Fn(&mut Node)> RankTask for Direct<'_, F> {
    fn step(&mut self, node: &mut Node) -> Yield {
        (self.0)(node);
        Yield::Done
    }
}

/// A one-value mailbox between two threads that take turns.
struct Mailbox<T>(Mutex<Option<T>>);

impl<T> Mailbox<T> {
    fn put(&self, value: T, reader: &Thread) {
        *self.0.lock().expect("closure rank mailbox poisoned") = Some(value);
        reader.unpark();
    }

    /// Parks until a value has been put.
    fn take(&self) -> T {
        loop {
            if let Some(value) = self.0.lock().expect("closure rank mailbox poisoned").take() {
                return value;
            }
            std::thread::park();
        }
    }
}

/// What the rank thread hands back with the node.
enum Report {
    Blocked(Wait),
    Done,
    Panicked(Box<dyn Any + Send>),
}

struct Link {
    /// The node, when `step` resumes the rank; `None` when the run is over
    /// with the body still suspended (its rank deadlocked).
    to_rank: Mailbox<Option<Node>>,
    to_step: Mailbox<(Node, Report)>,
    /// The thread that calls `step`: the one running the event loop.
    stepper: Thread,
}

/// Payload a rank thread unwinds with when its run is over; never reported.
struct Cancelled;

thread_local! {
    /// The link of the closure rank this thread carries, if it carries one.
    static LINK: RefCell<Option<Arc<Link>>> = const { RefCell::new(None) };
}

/// Moves the rank's state out of `*node`, leaving a blank twin behind so
/// the place stays a valid `Node` while the state is away.
fn take(node: &mut Node) -> Node {
    let blank = node.twin();
    std::mem::replace(node, blank)
}

/// Blocks a closure rank of the event machine: hands its node back to
/// `step` with `wait` and parks until the event loop resumes the rank.
/// Called by the blocking [`Node`] operations on the rank's own thread.
pub(crate) fn suspend(node: &mut Node, wait: Wait) {
    let link = LINK.with(|l| l.borrow().clone()).expect(
        "a blocking Node operation inside RankTask::step on the event machine: \
         use the try_* forms and return the Wait they report",
    );
    let state = take(node);
    link.to_step
        .put((state, Report::Blocked(wait)), &link.stepper);
    match link.to_rank.take() {
        Some(resumed) => *node = resumed,
        // The run is over: unwind the body so the thread can be joined.
        None => std::panic::resume_unwind(Box::new(Cancelled)),
    }
}

/// One closure rank of the event machine. The thread is spawned at the
/// first `step`.
pub(crate) struct ClosureTask<'scope, 'env, F> {
    scope: &'scope Scope<'scope, 'env>,
    body: &'env F,
    carrier: Option<(Arc<Link>, Thread)>,
}

impl<'scope, 'env, F> ClosureTask<'scope, 'env, F>
where
    F: Fn(&mut Node) + Sync,
{
    pub(crate) fn new(scope: &'scope Scope<'scope, 'env>, body: &'env F) -> Self {
        ClosureTask {
            scope,
            body,
            carrier: None,
        }
    }

    fn spawn(&self, rank: usize) -> (Arc<Link>, Thread) {
        let link = Arc::new(Link {
            to_rank: Mailbox(Mutex::new(None)),
            to_step: Mailbox(Mutex::new(None)),
            stepper: std::thread::current(),
        });
        let (body, theirs) = (self.body, Arc::clone(&link));
        let handle = std::thread::Builder::new()
            .name(format!("ev-rank{rank}"))
            .spawn_scoped(self.scope, move || {
                let Some(mut node) = theirs.to_rank.take() else {
                    return;
                };
                LINK.with(|l| *l.borrow_mut() = Some(Arc::clone(&theirs)));
                let run = std::panic::AssertUnwindSafe(|| body(&mut node));
                let report = match std::panic::catch_unwind(run) {
                    Ok(()) => Report::Done,
                    Err(payload) if payload.is::<Cancelled>() => return,
                    Err(payload) => Report::Panicked(payload),
                };
                theirs.to_step.put((node, report), &theirs.stepper);
            })
            .expect("spawn closure rank thread");
        (link, handle.thread().clone())
    }
}

impl<F: Fn(&mut Node) + Sync> RankTask for ClosureTask<'_, '_, F> {
    fn step(&mut self, node: &mut Node) -> Yield {
        if self.carrier.is_none() {
            self.carrier = Some(self.spawn(node.rank()));
        }
        let (link, thread) = self.carrier.as_ref().expect("just spawned");
        link.to_rank.put(Some(take(node)), thread);
        let (back, report) = link.to_step.take();
        *node = back;
        match report {
            Report::Blocked(wait) => Yield::Blocked(wait),
            Report::Done => Yield::Done,
            Report::Panicked(payload) => std::panic::resume_unwind(payload),
        }
    }
}

impl<F> Drop for ClosureTask<'_, '_, F> {
    /// A body still suspended when the run ends (its rank deadlocked) is
    /// unwound so the scope can join its thread.
    fn drop(&mut self) {
        if let Some((link, thread)) = &self.carrier {
            link.to_rank.put(None, thread);
        }
    }
}
