//! Event-scheduler-specific behavior: structural deadlock detection (no
//! wall-clock timeout — the scheduler *proves* the deadlock from an empty
//! event queue and reports the whole waiting rank set), rank panics
//! surfacing as `RankFailure`, topology-model latency, and scheduler
//! counters.

use fortrand_machine::{
    CostModel, HypercubeNet, Machine, MachineKind, NetworkModel, Node, RankFailure, RankTask,
    TorusNet, Yield,
};
use std::time::{Duration, Instant};

/// Runs `f` with the default panic-to-stderr printer silenced (the tests
/// here provoke panics on purpose).
fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev_hook);
    out
}

#[test]
fn deadlock_detected_instantly_without_timeout() {
    // Default (Event) machine, default 30 s timeout: the event scheduler
    // never arms it — an unmatched receive is detected structurally.
    let machine = Machine::new(2);
    assert_eq!(machine.kind, MachineKind::Event);
    let t0 = Instant::now();
    let err = quiet(|| {
        machine.try_run(|node| {
            if node.rank() == 0 {
                node.recv(1, 42);
            }
        })
    })
    .expect_err("unmatched recv must fail");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "structural detection must not wait for a timeout"
    );
    assert_eq!(err.rank, 0);
    assert!(
        err.message.contains("deadlock: rank 0 waited"),
        "diagnostic: {}",
        err.message
    );
    assert!(
        err.message.contains("for a message from 1 (tag 42)"),
        "diagnostic: {}",
        err.message
    );
    assert!(
        err.message.contains("blocked ranks [0]"),
        "diagnostic must list the waiting rank set: {}",
        err.message
    );
}

#[test]
fn deadlock_reports_every_waiting_rank() {
    // Rank 0 waits on a message that never comes; ranks 1 and 2 wait in a
    // barrier rank 0 never reaches. All three must appear in the report.
    let machine = Machine::new(3);
    let err = quiet(|| {
        machine.try_run(|node| {
            if node.rank() == 0 {
                node.recv(2, 9);
            } else {
                node.barrier();
            }
        })
    })
    .expect_err("cyclic wait must fail");
    assert!(
        err.message
            .contains("rank 0 waited for a message from 2 (tag 9)"),
        "diagnostic: {}",
        err.message
    );
    assert!(
        err.message.contains("rank 1 waited in a collective"),
        "diagnostic: {}",
        err.message
    );
    assert!(
        err.message.contains("blocked ranks [0, 1, 2]"),
        "diagnostic: {}",
        err.message
    );
}

#[test]
fn rank_panic_surfaces_as_rank_failure() {
    // A genuine body panic under the event machine: the failing rank and
    // message win over the induced unwinds of peers blocked on it.
    let machine = Machine::new(4);
    let err = quiet(|| {
        machine.try_run(|node| {
            if node.rank() == 2 {
                panic!("boom on rank 2");
            }
            node.barrier();
        })
    })
    .expect_err("rank 2 panic must surface");
    assert_eq!(err.rank, 2);
    assert!(
        err.message.contains("boom on rank 2"),
        "message: {}",
        err.message
    );
}

#[test]
fn peer_blocked_on_dead_rank_reports_the_dead_rank() {
    // Rank 0 dies before sending; rank 1's receive can then never be
    // satisfied. The reported failure must be the root cause (rank 0).
    let machine = Machine::new(2);
    let err = quiet(|| {
        machine.try_run(|node| {
            if node.rank() == 0 {
                panic!("sender died");
            } else {
                node.recv(0, 7);
            }
        })
    })
    .expect_err("must fail");
    assert_eq!(err.rank, 0);
    assert!(
        err.message.contains("sender died"),
        "message: {}",
        err.message
    );
}

#[test]
fn scheduler_counters_populated_under_event_only() {
    let body = |node: &mut fortrand_machine::Node| {
        if node.rank() == 0 {
            node.send(1, 1, &[1.0, 2.0]);
        } else {
            node.recv(0, 1);
        }
        node.barrier();
    };
    let ev = Machine::new(2).run(body);
    assert!(ev.sched_switches > 0, "event machine dispatches tasks");
    assert_eq!(ev.sched_msgs, 1);
    assert!(ev.sched_ready_peak >= 1);
    // One point-to-point message may sit queued, and the barrier's two
    // contributions count as queued work until the collective finishes.
    assert!((1..=2).contains(&ev.sched_queue_peak));
    let th = Machine::threaded(2).run(body);
    assert_eq!(th.sched_switches, 0, "threaded machine has no scheduler");
    assert_eq!(th.sched_msgs, 0);
}

#[test]
fn network_models_delay_delivery_identically_on_both_machines() {
    // 4 ranks on a hypercube: 0 -> 3 is two hops, so delivery lags the
    // sender's post-send clock by one per_hop_us.
    let cost = CostModel {
        alpha_us: 10.0,
        beta_us_per_byte: 0.0,
        flop_us: 0.0,
        op_us: 0.0,
        ..CostModel::ipsc860()
    };
    let per_hop = 7.0;
    let run = |kind: MachineKind| {
        Machine::with_cost(4, cost.clone())
            .with_kind(kind)
            .with_network(HypercubeNet::new(per_hop))
            .run(|node| {
                if node.rank() == 0 {
                    node.send(3, 0, &[1.0]);
                } else if node.rank() == 3 {
                    node.recv(0, 0);
                    // α + (2-1 hops)·per_hop.
                    assert_eq!(node.clock(), 10.0 + 7.0);
                }
            })
    };
    let ev = run(MachineKind::Event);
    let th = run(MachineKind::Threaded);
    assert_eq!(ev.time_us.to_bits(), th.time_us.to_bits());
    assert_eq!(ev.time_us, 17.0);
}

#[test]
fn torus_wraparound_is_cheap() {
    let net = TorusNet::new(2, 2, 100.0);
    // On a 2x2 torus row/column neighbors are one hop (wraparound makes
    // every axis distance at most 1); only the diagonal pairs pay a hop.
    let c = CostModel::ipsc860();
    for src in 0..4usize {
        for dst in 0..4usize {
            let diagonal = src != dst && src + dst == 3;
            let want = if diagonal { 100.0 } else { 0.0 };
            assert_eq!(net.extra_latency_us(src, dst, 8, &c), want);
        }
    }
    assert_eq!(net.name(), "torus");
}

#[test]
fn event_machine_scales_past_the_threaded_channel_limit() {
    // A 512-rank ring pass: O(p) mailboxes instead of the threaded
    // machine's O(p²) channel array. Completes in well under a second.
    let p = 512;
    let stats = Machine::new(p).run(|node| {
        let r = node.rank();
        if r == 0 {
            node.send(1, 0, &[0.0]);
        } else {
            let d = node.recv(r - 1, 0);
            if r + 1 < node.nprocs() {
                node.send(r + 1, 0, &[d[0] + 1.0]);
            }
        }
    });
    assert_eq!(stats.total_msgs, (p - 1) as u64);
    assert_eq!(stats.per_node.len(), p);
    assert!(stats.sched_switches >= p as u64);
}

// ---- The same semantics without a thread per rank: ranks as `RankTask`s ----

/// One step of a hand-written rank program.
#[derive(Clone)]
enum Op {
    Send(usize, u64, f64),
    Recv(usize, u64),
    Barrier,
    Panic(&'static str),
}

/// A hand-written resumable rank: runs its operations in order and
/// returns to the machine at the first one that cannot complete; the next
/// `step` retries that same operation.
struct Script {
    ops: Vec<Op>,
    at: usize,
}

impl RankTask for Script {
    fn step(&mut self, node: &mut Node) -> Yield {
        while let Some(op) = self.ops.get(self.at) {
            let tried = match *op {
                Op::Send(dst, tag, v) => {
                    node.send(dst, tag, &[v]);
                    Ok(())
                }
                Op::Recv(src, tag) => node.try_recv(src, tag).map(drop),
                Op::Barrier => node.try_barrier(),
                Op::Panic(msg) => panic!("{msg}"),
            };
            if let Err(wait) = tried {
                return Yield::Blocked(wait);
            }
            self.at += 1;
        }
        Yield::Done
    }
}

/// Runs one script per rank on `machine`, and the same scripts as blocking
/// closures; both must fail, and fail identically.
fn both_fail(machine: &Machine, scripts: &[Vec<Op>]) -> RankFailure {
    let tasks = scripts
        .iter()
        .map(|ops| Script {
            ops: ops.clone(),
            at: 0,
        })
        .collect();
    let as_tasks = quiet(|| machine.try_run_tasks(tasks))
        .err()
        .expect("task run must fail");
    let as_closures = quiet(|| {
        machine.try_run(|node| {
            for op in &scripts[node.rank()] {
                match *op {
                    Op::Send(dst, tag, v) => node.send(dst, tag, &[v]),
                    Op::Recv(src, tag) => drop(node.recv(src, tag)),
                    Op::Barrier => node.barrier(),
                    Op::Panic(msg) => panic!("{msg}"),
                }
            }
        })
    })
    .expect_err("closure run must fail");
    assert_eq!(as_tasks.rank, as_closures.rank);
    assert_eq!(as_tasks.message, as_closures.message);
    as_tasks
}

#[test]
fn task_deadlock_reports_every_waiting_rank() {
    let err = both_fail(
        &Machine::new(3),
        &[vec![Op::Recv(2, 9)], vec![Op::Barrier], vec![Op::Barrier]],
    );
    assert_eq!(err.rank, 0);
    for clause in [
        "deadlock: rank 0 waited for a message from 2 (tag 9)",
        "rank 1 waited in a collective",
        "rank 2 waited in a collective",
        "event queue empty with blocked ranks [0, 1, 2]",
    ] {
        assert!(err.message.contains(clause), "diagnostic: {}", err.message);
    }
}

#[test]
fn task_panic_surfaces_as_rank_failure() {
    // The panic is caught at the step; ranks 0, 1 and 3 then deadlock in
    // the barrier, and the genuine failure outranks them.
    let mut scripts = vec![vec![Op::Barrier]; 4];
    scripts[2] = vec![Op::Panic("boom on rank 2")];
    let err = both_fail(&Machine::new(4), &scripts);
    assert_eq!(err.rank, 2);
    assert_eq!(err.message, "boom on rank 2");
}

#[test]
fn task_blocked_on_dead_rank_reports_the_dead_rank() {
    let err = both_fail(
        &Machine::new(2),
        &[vec![Op::Panic("sender died")], vec![Op::Recv(0, 7)]],
    );
    assert_eq!(err.rank, 0);
    assert_eq!(err.message, "sender died");
}

#[test]
fn lowest_genuinely_failing_rank_wins_over_dispatch_order() {
    // Rank 3 fails at its first dispatch, rank 1 only after a receive that
    // completes later: the report still names rank 1.
    let scripts = [
        vec![Op::Barrier],
        vec![Op::Recv(2, 1), Op::Panic("rank 1 down")],
        vec![Op::Send(1, 1, 0.0), Op::Barrier],
        vec![Op::Panic("rank 3 down")],
    ];
    let err = both_fail(&Machine::new(4), &scripts);
    assert_eq!((err.rank, err.message.as_str()), (1, "rank 1 down"));
}

#[test]
fn tasks_run_identically_on_both_machines() {
    // A token ring plus barriers: on the event machine the scripts are
    // stepped on this thread, on the threaded machine each is driven by
    // `loop { step; block_on(wait) }` on a thread of its own.
    let p = 5;
    let scripts = || -> Vec<Script> {
        (0..p)
            .map(|r| {
                let (prev, next) = ((r + p - 1) % p, (r + 1) % p);
                let ring = if r == 0 {
                    vec![Op::Send(next, 3, 1.0), Op::Recv(prev, 3)]
                } else {
                    vec![Op::Recv(prev, 3), Op::Send(next, 3, 1.0)]
                };
                let ops = [vec![Op::Barrier], ring.clone(), vec![Op::Barrier], ring].concat();
                Script { ops, at: 0 }
            })
            .collect()
    };
    let (ev, done) = Machine::new(p).try_run_tasks(scripts()).unwrap();
    assert!(done.iter().all(|s| s.at == s.ops.len()));
    let (th, _) = Machine::threaded(p).try_run_tasks(scripts()).unwrap();
    assert_eq!(ev.time_us.to_bits(), th.time_us.to_bits());
    assert_eq!(ev.total_msgs, th.total_msgs);
    assert_eq!(ev.total_msgs, 2 * p as u64);
    for (a, b) in ev.per_node.iter().zip(&th.per_node) {
        assert_eq!(a.time_us.to_bits(), b.time_us.to_bits());
        assert_eq!(a.wait_us.to_bits(), b.wait_us.to_bits());
    }
    assert!(ev.sched_switches > p as u64, "ranks must have blocked");
}

#[test]
fn blocking_call_inside_a_step_is_diagnosed() {
    // A `RankTask` on the event machine has no stack of its own to block
    // on: the blocking forms belong to closure ranks.
    struct Blocks;
    impl RankTask for Blocks {
        fn step(&mut self, node: &mut Node) -> Yield {
            if node.rank() == 0 {
                node.recv(1, 0);
            }
            Yield::Done
        }
    }
    let err = quiet(|| Machine::new(2).try_run_tasks(vec![Blocks, Blocks]))
        .err()
        .expect("must fail");
    assert_eq!(err.rank, 0);
    assert!(
        err.message.contains("use the try_* forms"),
        "{}",
        err.message
    );
}
