//! Reference tree-walking SPMD engine.
//!
//! Executes a node program by walking the [`SStmt`]/[`SExpr`] trees on
//! every rank of a [`Machine`], charging computation to the virtual clocks
//! (1 flop per REAL arithmetic node, 1 op per integer/logical node,
//! subscript, guard and loop-step) and communication through the machine's
//! send/recv/collective primitives.
//!
//! This engine is the semantic reference: the bytecode VM (`vm`)
//! must match it bit-for-bit on every simulated observable. Production runs
//! default to the VM ([`crate::Bytecode`]); the tree-walker stays for
//! differential testing and as executable documentation of the charging
//! model.
//!
//! Distributed arrays are scattered from the caller-supplied global initial
//! values before execution and gathered back after, using each array's
//! *current* distribution (dynamic remapping updates it), so callers can
//! check numerical results against a sequential reference regardless of
//! compilation strategy.

use crate::ir::*;
use crate::runtime::{
    apply_bin, apply_intr, bcast_tag, begin_remap, begin_remap_global, mark_dist_store,
    run_harness, scatter_init_store, ArrayStore, LocalStore, Remap, Value,
};
pub use crate::runtime::{
    try_run_spmd, ExecOptions, RankFailure, RunOutcome, TAG_BCAST, TAG_BCAST_PACK,
};
use fortrand_ir::dist::ArrayDist;
use fortrand_ir::Sym;
use fortrand_machine::{Machine, Node};
use fortrand_rt::{pack, rect_len, slot, unpack};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;

/// Runs `prog` under the tree-walking reference engine.
pub(crate) fn run_tree(
    prog: &SpmdProgram,
    machine: &Machine,
    init: &BTreeMap<Sym, Vec<f64>>,
) -> Result<RunOutcome, RankFailure> {
    run_harness(prog, machine, |node| {
        let mut exec = Exec::new(prog, node);
        exec.enter_main(init);
        let fin = exec.finish();
        (fin, std::mem::take(&mut exec.printed))
    })
}

struct Frame {
    arrays: FxHashMap<Sym, usize>,
    scalars: FxHashMap<Sym, Value>,
}

enum Flow {
    Normal,
    Return,
    Stop,
}

struct Exec<'a> {
    prog: &'a SpmdProgram,
    node: &'a mut Node,
    heap: Vec<ArrayStore>,
    frames: Vec<Frame>,
    printed: Vec<String>,
    pending_flops: u64,
    pending_ops: u64,
    /// Arrays the main program declares: the first ones on the heap.
    n_main: usize,
    /// The buffer of the store the last remap replaced, for the next one.
    spare: Vec<f64>,
    /// Posted-receive handle slots (overlap comm level): `(src, tag)`
    /// captured at the post, consumed by the matching wait.
    posted_recv: Vec<Option<(usize, u64)>>,
    /// Posted-broadcast handle slots: `(sequence number, clock at post)`.
    posted_bcast: Vec<Option<(u64, f64)>>,
}

impl<'a> Exec<'a> {
    fn new(prog: &'a SpmdProgram, node: &'a mut Node) -> Self {
        Exec {
            prog,
            node,
            heap: Vec::new(),
            frames: Vec::new(),
            printed: Vec::new(),
            pending_flops: 0,
            pending_ops: 0,
            n_main: 0,
            spare: Vec::new(),
            posted_recv: Vec::new(),
            posted_bcast: Vec::new(),
        }
    }

    fn flush_charges(&mut self) {
        if self.pending_flops > 0 {
            self.node.charge_flops(self.pending_flops);
            self.pending_flops = 0;
        }
        if self.pending_ops > 0 {
            self.node.charge_ops(self.pending_ops);
            self.pending_ops = 0;
        }
    }

    fn enter_main(&mut self, init: &BTreeMap<Sym, Vec<f64>>) {
        let main = &self.prog.procs[self.prog.main];
        let mut frame = Frame {
            arrays: FxHashMap::default(),
            scalars: FxHashMap::default(),
        };
        for d in &main.decls {
            let id = self.heap.len();
            let mut store = ArrayStore::alloc(d.name, d.bounds.clone(), d.dist);
            store.owner_dist = d.owner_dist;
            self.heap.push(store);
            frame.arrays.insert(d.name, id);
            self.n_main += 1;
            if let Some(global) = init.get(&d.name) {
                let my = self.node.rank();
                scatter_init_store(&mut self.heap[id], &self.prog.dists, global, my);
            }
        }
        self.frames.push(frame);
        let body = &main.body;
        let _ = self.exec_body(body);
        self.flush_charges();
    }

    /// The main program's stores, moved out: they are the first
    /// `n_main` of the heap.
    fn finish(&mut self) -> Vec<ArrayStore> {
        self.heap.truncate(self.n_main);
        std::mem::take(&mut self.heap)
    }

    fn frame(&self) -> &Frame {
        self.frames.last().expect("no frame")
    }

    fn array_id(&self, s: Sym) -> usize {
        *self
            .frame()
            .arrays
            .get(&s)
            .unwrap_or_else(|| panic!("unbound array `{}`", self.prog.interner.name(s)))
    }

    fn exec_body(&mut self, body: &[SStmt]) -> Flow {
        for s in body {
            match self.exec_stmt(s) {
                Flow::Normal => {}
                f => return f,
            }
        }
        Flow::Normal
    }

    fn exec_stmt(&mut self, s: &SStmt) -> Flow {
        match s {
            SStmt::Comment(_) => Flow::Normal,
            SStmt::Assign { lhs, rhs } => {
                let v = self.eval(rhs);
                self.assign(lhs, v);
                Flow::Normal
            }
            SStmt::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = self.eval(lo).as_i();
                let hi = self.eval(hi).as_i();
                let step = *step;
                assert!(step != 0, "zero DO step");
                let mut i = lo;
                while (step > 0 && i <= hi) || (step < 0 && i >= hi) {
                    self.frames
                        .last_mut()
                        .unwrap()
                        .scalars
                        .insert(*var, Value::I(i));
                    self.pending_ops += 1; // loop bookkeeping
                    match self.exec_body(body) {
                        Flow::Normal => {}
                        f => return f,
                    }
                    i += step;
                }
                Flow::Normal
            }
            SStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.pending_ops += 1;
                if self.eval(cond).truthy() {
                    self.exec_body(then_body)
                } else {
                    self.exec_body(else_body)
                }
            }
            SStmt::Call {
                proc,
                args,
                copy_out,
            } => {
                let callee = &self.prog.procs[*proc];
                assert_eq!(callee.formals.len(), args.len(), "call arity");
                let mut frame = Frame {
                    arrays: FxHashMap::default(),
                    scalars: FxHashMap::default(),
                };
                for (f, a) in callee.formals.iter().zip(args) {
                    match (f.is_array, a) {
                        (true, SActual::Array(name)) => {
                            let id = self.array_id(*name);
                            frame.arrays.insert(f.name, id);
                        }
                        (false, SActual::Scalar(e)) => {
                            let v = self.eval(e);
                            frame.scalars.insert(f.name, v);
                        }
                        _ => panic!("actual/formal kind mismatch"),
                    }
                }
                for d in &callee.decls {
                    let id = self.heap.len();
                    let mut store = ArrayStore::alloc(d.name, d.bounds.clone(), d.dist);
                    store.owner_dist = d.owner_dist;
                    self.heap.push(store);
                    frame.arrays.insert(d.name, id);
                }
                self.frames.push(frame);
                self.pending_ops += 2; // call overhead
                let flow = self.exec_body(&callee.body);
                let callee_frame = self.frames.pop().unwrap();
                for (f, caller_var) in copy_out {
                    if let Some(&v) = callee_frame.scalars.get(f) {
                        self.frames
                            .last_mut()
                            .unwrap()
                            .scalars
                            .insert(*caller_var, v);
                    }
                }
                match flow {
                    Flow::Stop => Flow::Stop,
                    _ => Flow::Normal,
                }
            }
            SStmt::Return => Flow::Return,
            SStmt::Stop => Flow::Stop,
            SStmt::Send { to, tag, parts } => {
                let dst = self.eval(to).as_i();
                assert!(dst >= 0, "negative send destination");
                let data = self.gather_all(parts.iter().map(|(a, s)| (*a, s)));
                self.flush_charges();
                self.node.send_buf(dst as usize, *tag, data);
                Flow::Normal
            }
            SStmt::Recv { from, tag, parts } => {
                let src = self.eval(from).as_i();
                assert!(src >= 0, "negative recv source");
                self.flush_charges();
                let data = self.node.recv(src as usize, *tag);
                self.scatter_parts(parts.iter().map(|(a, s)| (*a, s)), &data);
                Flow::Normal
            }
            SStmt::SendElem { to, tag, value } => {
                let dst = self.eval(to).as_i();
                let v = self.eval(value).as_r();
                self.flush_charges();
                self.node.send(dst as usize, *tag, &[v]);
                Flow::Normal
            }
            SStmt::RecvElem { from, tag, lhs } => {
                let src = self.eval(from).as_i();
                self.flush_charges();
                let data = self.node.recv(src as usize, *tag);
                self.assign(lhs, Value::R(data[0]));
                Flow::Normal
            }
            SStmt::PostSend {
                handle: _,
                to,
                tag,
                parts,
            } => {
                let dst = self.eval(to).as_i();
                assert!(dst >= 0, "negative send destination");
                let data = self.gather_all(parts.iter().map(|(a, s)| (*a, s)));
                self.flush_charges();
                self.node.post_send(dst as usize, *tag, data);
                Flow::Normal
            }
            SStmt::WaitSend { handle: _ } => {
                // The payload left at the post; completion is bookkeeping.
                self.flush_charges();
                self.node.wait_send();
                Flow::Normal
            }
            SStmt::PostRecv { handle, from, tag } => {
                let src = self.eval(from).as_i();
                assert!(src >= 0, "negative recv source");
                self.flush_charges();
                self.node.post_recv(src as usize, *tag);
                *slot(&mut self.posted_recv, *handle) = Some((src as usize, *tag));
                Flow::Normal
            }
            SStmt::WaitRecv { handle, parts } => {
                let (src, tag) = slot(&mut self.posted_recv, *handle)
                    .take()
                    .expect("wait_recv without matching post");
                self.flush_charges();
                let data = self.node.wait_recv(src, tag);
                self.scatter_parts(parts.iter().map(|(a, s)| (*a, s)), &data);
                Flow::Normal
            }
            SStmt::PostBcast { handle, root, src } => {
                let root = self.eval(root).as_i() as usize;
                let data = self.gather_parts(root, src.iter().map(|(a, s)| (*a, s)));
                self.flush_charges();
                let seq = self.node.post_bcast(root, data, Some(bcast_tag(src.len())));
                *slot(&mut self.posted_bcast, *handle) = Some((seq, self.node.clock()));
                Flow::Normal
            }
            SStmt::WaitBcast { handle, dst } => {
                let (seq, posted_at) = slot(&mut self.posted_bcast, *handle)
                    .take()
                    .expect("wait_bcast without matching post");
                self.flush_charges();
                let out = self.node.wait_bcast(seq, posted_at);
                self.scatter_parts(dst.iter().map(|(a, s)| (*a, s)), &out);
                Flow::Normal
            }
            SStmt::Bcast { root, parts } => {
                let root = self.eval(root).as_i() as usize;
                let data = self.gather_parts(root, parts.iter().map(BcastPart::src));
                self.flush_charges();
                let tag = bcast_tag(parts.len());
                let out = self.node.bcast_payload(root, data, Some(tag));
                self.scatter_parts(parts.iter().map(BcastPart::dst), &out);
                Flow::Normal
            }
            SStmt::RemapGlobal { array, to_dist } => {
                self.remap_global(*array, *to_dist);
                Flow::Normal
            }
            SStmt::Remap { array, to_dist } => {
                self.remap(*array, *to_dist);
                Flow::Normal
            }
            SStmt::MarkDist { array, to_dist } => {
                let id = self.array_id(*array);
                mark_dist_store(&mut self.heap[id], &self.prog.dists, *to_dist);
                self.pending_ops += 1;
                Flow::Normal
            }
            SStmt::Print { args } => {
                if self.node.rank() == 0 {
                    let vals: Vec<String> = args.iter().map(|a| self.eval(a).to_string()).collect();
                    self.printed.push(vals.join(" "));
                }
                Flow::Normal
            }
        }
    }

    fn assign(&mut self, lhs: &SLval, v: Value) {
        match lhs {
            SLval::Scalar(s) => {
                self.frames.last_mut().unwrap().scalars.insert(*s, v);
            }
            SLval::Elem { array, subs } => {
                let subs: Vec<i64> = subs.iter().map(|e| self.eval(e).as_i()).collect();
                self.pending_ops += subs.len() as u64;
                let id = self.array_id(*array);
                self.heap[id].set(&subs, v.as_r());
            }
        }
    }

    fn eval(&mut self, e: &SExpr) -> Value {
        match e {
            SExpr::Int(v) => Value::I(*v),
            SExpr::Real(v) => Value::R(*v),
            SExpr::MyP => Value::I(self.node.rank() as i64),
            SExpr::NProcs => Value::I(self.node.nprocs() as i64),
            // Uninitialized scalars read as zero (Fortran out-parameters
            // are passed before the callee defines them).
            SExpr::Var(s) => self.frame().scalars.get(s).copied().unwrap_or(Value::I(0)),
            SExpr::Elem { array, subs } => {
                let subs: Vec<i64> = subs.iter().map(|x| self.eval(x).as_i()).collect();
                self.pending_ops += subs.len() as u64;
                let id = self.array_id(*array);
                Value::R(self.heap[id].get(&subs))
            }
            SExpr::Bin { op, l, r } => {
                let a = self.eval(l);
                let b = self.eval(r);
                self.charge_bin(a, b);
                apply_bin(*op, a, b)
            }
            SExpr::Neg(x) => {
                let v = self.eval(x);
                match v {
                    Value::I(i) => {
                        self.pending_ops += 1;
                        Value::I(-i)
                    }
                    Value::R(r) => {
                        self.pending_flops += 1;
                        Value::R(-r)
                    }
                }
            }
            SExpr::Not(x) => {
                let v = self.eval(x);
                self.pending_ops += 1;
                Value::I(if v.truthy() { 0 } else { 1 })
            }
            SExpr::Intr { name, args } => {
                let vals: Vec<Value> = args.iter().map(|a| self.eval(a)).collect();
                self.pending_flops += 1;
                apply_intr(*name, &vals)
            }
            SExpr::Owner { dist, subs } => {
                let pt: Vec<i64> = subs.iter().map(|x| self.eval(x).as_i()).collect();
                // Ownership arithmetic: a few integer ops per query — this
                // is exactly the per-reference overhead run-time resolution
                // pays (§3.1).
                self.pending_ops += 3;
                let d = &self.prog.dists[dist.0 as usize];
                Value::I(d.owner_of(&pt) as i64)
            }
            SExpr::CurOwner { array, subs } => {
                let pt: Vec<i64> = subs.iter().map(|x| self.eval(x).as_i()).collect();
                self.pending_ops += 3;
                let id = self.array_id(*array);
                let did = self.heap[id].owner_dist.unwrap_or(self.heap[id].dist);
                let d = &self.prog.dists[did.0 as usize];
                Value::I(d.owner_of(&pt) as i64)
            }
            SExpr::LocalIdx { dist, dim, sub } => {
                let g = self.eval(sub).as_i();
                self.pending_ops += 2;
                Value::I(self.prog.dists[dist.0 as usize].local_idx(*dim, g))
            }
        }
    }

    fn charge_bin(&mut self, a: Value, b: Value) {
        if matches!(a, Value::R(_)) || matches!(b, Value::R(_)) {
            self.pending_flops += 1;
        } else {
            self.pending_ops += 1;
        }
    }

    /// Evaluates a rect's per-dimension `(lo, hi, step)` (local index space).
    fn rect_dims(&mut self, section: &SRect) -> Vec<(i64, i64, i64)> {
        section
            .dims
            .iter()
            .map(|(lo, hi, step)| (self.eval(lo).as_i(), self.eval(hi).as_i(), *step))
            .collect()
    }

    /// Appends a section to a message buffer.
    fn gather_section(&mut self, array: Sym, section: &SRect, buf: &mut Vec<f64>) {
        let dims = self.rect_dims(section);
        let id = self.array_id(array);
        self.pending_ops += rect_len(&dims) as u64; // pack cost
        pack(&self.heap[id], &dims, buf);
    }

    fn scatter_section(&mut self, array: Sym, section: &SRect, data: &[f64]) {
        let dims = self.rect_dims(section);
        let id = self.array_id(array);
        unpack(&mut self.heap[id], &dims, data);
        self.pending_ops += data.len() as u64; // unpack cost
    }

    /// The root's payload of a broadcast (`None` on every other rank).
    fn gather_parts<'s>(
        &mut self,
        root: usize,
        src: impl Iterator<Item = (Sym, &'s SRect)>,
    ) -> Option<Vec<f64>> {
        (self.node.rank() == root).then(|| self.gather_all(src))
    }

    /// The payload of a message: every section appended to one pooled
    /// buffer, in order.
    fn gather_all<'s>(&mut self, src: impl Iterator<Item = (Sym, &'s SRect)>) -> Vec<f64> {
        let mut buf = self.node.acquire_buf();
        for (array, section) in src {
            self.gather_section(array, section, &mut buf);
        }
        buf
    }

    /// Scatters a message payload into its destinations in order. A
    /// single section takes the whole payload; each of several evaluates
    /// its bounds once more to size its slice.
    fn scatter_parts<'s>(
        &mut self,
        mut dst: impl ExactSizeIterator<Item = (Sym, &'s SRect)>,
        data: &[f64],
    ) {
        if dst.len() == 1 {
            let (array, section) = dst.next().unwrap();
            return self.scatter_section(array, section, data);
        }
        let mut off = 0usize;
        for (array, section) in dst {
            let n = rect_len(&self.rect_dims(section));
            self.scatter_section(array, section, &data[off..off + n]);
            off += n;
        }
    }

    /// Second half of a remap of array `id`: a blocking receive per source.
    fn complete(&mut self, mut remap: Remap, id: usize, d1: &ArrayDist) {
        while let Some((src, tag)) = remap.expects() {
            let data = self.node.recv(src, tag);
            remap.accept(d1, &data, &mut self.heap[id]);
        }
        if let Some(old) = remap.finish(&mut self.heap[id]) {
            self.spare = old.data;
        }
    }

    /// Full dynamic remap with data motion (library routine of §6).
    fn remap(&mut self, array: Sym, to_dist: DistId) {
        let id = self.array_id(array);
        let from_dist_id = self.heap[id].dist;
        self.flush_charges();
        self.node.charge_remap();
        if from_dist_id == to_dist {
            return;
        }
        let prog = self.prog;
        let d0 = &prog.dists[from_dist_id.0 as usize];
        let d1 = &prog.dists[to_dist.0 as usize];
        let spare = std::mem::take(&mut self.spare);
        let remap = begin_remap(self.node, &self.heap[id], d0, d1, to_dist, spare);
        self.complete(remap, id, d1);
    }

    /// Run-time resolution remap: storage stays global-shaped; the
    /// authoritative values move from old owners to new owners.
    fn remap_global(&mut self, array: Sym, to_dist: DistId) {
        let id = self.array_id(array);
        let from = self.heap[id]
            .owner_dist
            .expect("remap_global on non-rtr array");
        self.flush_charges();
        self.node.charge_remap();
        if from == to_dist {
            return;
        }
        let prog = self.prog;
        let d0 = &prog.dists[from.0 as usize];
        let d1 = &prog.dists[to_dist.0 as usize];
        let remap = begin_remap_global(self.node, &self.heap[id], d0, d1);
        self.complete(remap, id, d1);
        self.heap[id].owner_dist = Some(to_dist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrand_ir::dist::{array_dist, Alignment, ArrayDist, DistKind, Distribution};
    use fortrand_ir::Interner;
    use fortrand_machine::CostModel;

    fn block_dist(n: i64, p: usize) -> ArrayDist {
        array_dist(
            &[n],
            &Alignment::identity(1),
            &[n],
            &Distribution {
                kinds: vec![DistKind::Block],
                nprocs: p,
            },
        )
    }

    fn cyclic_dist(n: i64, p: usize) -> ArrayDist {
        array_dist(
            &[n],
            &Alignment::identity(1),
            &[n],
            &Distribution {
                kinds: vec![DistKind::Cyclic],
                nprocs: p,
            },
        )
    }

    /// Runs under both engines, asserting the simulated observables are
    /// bit-identical, and returns the (default) bytecode output.
    fn run_both(
        prog: &SpmdProgram,
        machine: &Machine,
        init: &BTreeMap<Sym, Vec<f64>>,
    ) -> RunOutcome {
        let run = |opts: ExecOptions| {
            try_run_spmd(prog, machine, init, &opts).unwrap_or_else(|f| panic!("{f}"))
        };
        let tree = run(ExecOptions::new().backend(crate::Tree));
        let vm = run(ExecOptions::new().backend(crate::Bytecode));
        assert_eq!(tree.stats.time_us, vm.stats.time_us, "time diverged");
        assert_eq!(tree.stats.total_msgs, vm.stats.total_msgs);
        assert_eq!(tree.stats.total_bytes, vm.stats.total_bytes);
        assert_eq!(tree.stats.total_flops, vm.stats.total_flops);
        assert_eq!(tree.stats.total_ops, vm.stats.total_ops);
        assert_eq!(tree.stats.total_remaps, vm.stats.total_remaps);
        assert_eq!(tree.arrays, vm.arrays);
        assert_eq!(tree.printed, vm.printed);
        vm
    }

    /// Replicated scalar-ish program: every rank doubles each element of a
    /// replicated array; result equals sequential.
    #[test]
    fn replicated_loop_computes() {
        let mut int = Interner::new();
        let main = int.intern("main");
        let a = int.intern("a");
        let i = int.intern("i");
        let mut prog = SpmdProgram {
            interner: int,
            nprocs: 2,
            procs: vec![],
            main: 0,
            dists: vec![],
        };
        let did = prog.add_dist(ArrayDist::replicated(&[4]));
        prog.procs.push(SProc {
            name: main,
            formals: vec![],
            decls: vec![SDecl {
                name: a,
                bounds: vec![(1, 4)],
                dist: did,
                owner_dist: None,
            }],
            body: vec![SStmt::Do {
                var: i,
                lo: SExpr::int(1),
                hi: SExpr::int(4),
                step: 1,
                body: vec![SStmt::Assign {
                    lhs: SLval::Elem {
                        array: a,
                        subs: vec![SExpr::Var(i)],
                    },
                    rhs: SExpr::mul(
                        SExpr::Real(2.0),
                        SExpr::Elem {
                            array: a,
                            subs: vec![SExpr::Var(i)],
                        },
                    ),
                }],
            }],
        });
        let m = Machine::new(2);
        let mut init = BTreeMap::new();
        init.insert(a, vec![1.0, 2.0, 3.0, 4.0]);
        let out = run_both(&prog, &m, &init);
        assert_eq!(out.arrays[&a], vec![2.0, 4.0, 6.0, 8.0]);
        assert!(out.stats.total_flops > 0);
    }

    /// Block-distributed array: each rank writes rank+1 into its local
    /// elements; gather sees the right owners.
    #[test]
    fn block_distribution_scatter_gather() {
        let mut int = Interner::new();
        let main = int.intern("main");
        let a = int.intern("a");
        let i = int.intern("i");
        let mut prog = SpmdProgram {
            interner: int,
            nprocs: 4,
            procs: vec![],
            main: 0,
            dists: vec![],
        };
        let did = prog.add_dist(block_dist(8, 4)); // blocks of 2
        prog.procs.push(SProc {
            name: main,
            formals: vec![],
            decls: vec![SDecl {
                name: a,
                bounds: vec![(1, 2)],
                dist: did,
                owner_dist: None,
            }],
            body: vec![SStmt::Do {
                var: i,
                lo: SExpr::int(1),
                hi: SExpr::int(2),
                step: 1,
                body: vec![SStmt::Assign {
                    lhs: SLval::Elem {
                        array: a,
                        subs: vec![SExpr::Var(i)],
                    },
                    rhs: SExpr::add(SExpr::MyP, SExpr::int(1)),
                }],
            }],
        });
        let m = Machine::new(4);
        let out = run_both(&prog, &m, &BTreeMap::new());
        assert_eq!(out.arrays[&a], vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
    }

    /// Shift communication: rank 0 sends its edge element to rank 1.
    #[test]
    fn section_send_recv() {
        let mut int = Interner::new();
        let main = int.intern("main");
        let a = int.intern("a");
        let mut prog = SpmdProgram {
            interner: int,
            nprocs: 2,
            procs: vec![],
            main: 0,
            dists: vec![],
        };
        let did = prog.add_dist(block_dist(4, 2)); // local 1:2, overlap to 0
        prog.procs.push(SProc {
            name: main,
            formals: vec![],
            decls: vec![SDecl {
                name: a,
                bounds: vec![(0, 2)],
                dist: did,
                owner_dist: None,
            }],
            body: vec![
                // if my$p == 0 send A(2:2) to 1; if my$p == 1 recv into A(0:0)
                SStmt::If {
                    cond: SExpr::bin(SBinOp::Eq, SExpr::MyP, SExpr::int(0)),
                    then_body: vec![SStmt::Send {
                        to: SExpr::int(1),
                        tag: 9,
                        parts: vec![(a, SRect::one(SExpr::int(2), SExpr::int(2)))],
                    }],
                    else_body: vec![SStmt::Recv {
                        from: SExpr::int(0),
                        tag: 9,
                        parts: vec![(a, SRect::one(SExpr::int(0), SExpr::int(0)))],
                    }],
                },
                // rank 1: A(1) = A(0) + 10
                SStmt::If {
                    cond: SExpr::bin(SBinOp::Eq, SExpr::MyP, SExpr::int(1)),
                    then_body: vec![SStmt::Assign {
                        lhs: SLval::Elem {
                            array: a,
                            subs: vec![SExpr::int(1)],
                        },
                        rhs: SExpr::add(
                            SExpr::Elem {
                                array: a,
                                subs: vec![SExpr::int(0)],
                            },
                            SExpr::Real(10.0),
                        ),
                    }],
                    else_body: vec![],
                },
            ],
        });
        let m = Machine::new(2);
        let mut init = BTreeMap::new();
        init.insert(a, vec![1.0, 2.0, 3.0, 4.0]);
        let out = run_both(&prog, &m, &init);
        // Global element 3 (rank 1 local 1) = old global 2 (=2.0) + 10.
        assert_eq!(out.arrays[&a], vec![1.0, 2.0, 12.0, 4.0]);
        assert_eq!(out.stats.total_msgs, 1);
    }

    /// Remap block -> cyclic preserves contents.
    #[test]
    fn remap_preserves_values() {
        let mut int = Interner::new();
        let main = int.intern("main");
        let a = int.intern("a");
        let mut prog = SpmdProgram {
            interner: int,
            nprocs: 3,
            procs: vec![],
            main: 0,
            dists: vec![],
        };
        let dblock = prog.add_dist(block_dist(10, 3));
        let dcyc = prog.add_dist(cyclic_dist(10, 3));
        prog.procs.push(SProc {
            name: main,
            formals: vec![],
            decls: vec![SDecl {
                name: a,
                bounds: vec![(1, 4)],
                dist: dblock,
                owner_dist: None,
            }],
            body: vec![
                SStmt::Remap {
                    array: a,
                    to_dist: dcyc,
                },
                SStmt::Remap {
                    array: a,
                    to_dist: dblock,
                },
            ],
        });
        let m = Machine::new(3);
        let mut init = BTreeMap::new();
        let vals: Vec<f64> = (1..=10).map(|v| v as f64 * 1.5).collect();
        init.insert(a, vals.clone());
        let out = run_both(&prog, &m, &init);
        assert_eq!(out.arrays[&a], vals);
        assert_eq!(out.stats.total_remaps, 3 * 2);
        assert!(out.stats.total_msgs > 0);
    }

    /// Run-time resolution Owner/LocalIdx expressions agree with the
    /// distribution arithmetic.
    #[test]
    fn owner_expression_resolves() {
        let mut int = Interner::new();
        let main = int.intern("main");
        let a = int.intern("a");
        let w = int.intern("w");
        let mut prog = SpmdProgram {
            interner: int,
            nprocs: 4,
            procs: vec![],
            main: 0,
            dists: vec![],
        };
        let did = prog.add_dist(cyclic_dist(8, 4));
        prog.procs.push(SProc {
            name: main,
            formals: vec![],
            decls: vec![SDecl {
                name: a,
                bounds: vec![(1, 2)],
                dist: did,
                owner_dist: None,
            }],
            body: vec![
                // w = owner(a(6)): global 6 under cyclic(4) -> rank 1.
                SStmt::Assign {
                    lhs: SLval::Scalar(w),
                    rhs: SExpr::Owner {
                        dist: did,
                        subs: vec![SExpr::int(6)],
                    },
                },
                // a(local(6)) = w + 1 on the owner only.
                SStmt::If {
                    cond: SExpr::bin(SBinOp::Eq, SExpr::MyP, SExpr::Var(w)),
                    then_body: vec![SStmt::Assign {
                        lhs: SLval::Elem {
                            array: a,
                            subs: vec![SExpr::LocalIdx {
                                dist: did,
                                dim: 0,
                                sub: Box::new(SExpr::int(6)),
                            }],
                        },
                        rhs: SExpr::add(SExpr::Var(w), SExpr::int(1)),
                    }],
                    else_body: vec![],
                },
            ],
        });
        let m = Machine::new(4);
        let out = run_both(&prog, &m, &BTreeMap::new());
        // Global index 6 should be 2.0, everything else 0.
        let expect: Vec<f64> = (1..=8).map(|g| if g == 6 { 2.0 } else { 0.0 }).collect();
        assert_eq!(out.arrays[&a], expect);
    }

    /// Print statements land in output (rank 0 only).
    #[test]
    fn print_collected_from_rank0() {
        let mut int = Interner::new();
        let main = int.intern("main");
        let mut prog = SpmdProgram {
            interner: int,
            nprocs: 2,
            procs: vec![],
            main: 0,
            dists: vec![],
        };
        prog.procs.push(SProc {
            name: main,
            formals: vec![],
            decls: vec![],
            body: vec![SStmt::Print {
                args: vec![SExpr::int(42)],
            }],
        });
        let m = Machine::with_cost(2, CostModel::comm_only());
        let out = run_both(&prog, &m, &BTreeMap::new());
        assert_eq!(out.printed, vec!["42".to_string()]);
    }

    /// Procedure calls bind arrays by reference and scalars by value.
    #[test]
    fn call_binds_arguments() {
        let mut int = Interner::new();
        let main = int.intern("main");
        let setv = int.intern("setv");
        let a = int.intern("a");
        let z = int.intern("z");
        let v = int.intern("v");
        let mut prog = SpmdProgram {
            interner: int,
            nprocs: 1,
            procs: vec![],
            main: 0,
            dists: vec![],
        };
        let did = prog.add_dist(ArrayDist::replicated(&[3]));
        prog.procs.push(SProc {
            name: main,
            formals: vec![],
            decls: vec![SDecl {
                name: a,
                bounds: vec![(1, 3)],
                dist: did,
                owner_dist: None,
            }],
            body: vec![SStmt::Call {
                proc: 1,
                args: vec![SActual::Array(a), SActual::Scalar(SExpr::Real(7.5))],
                copy_out: vec![],
            }],
        });
        prog.procs.push(SProc {
            name: setv,
            formals: vec![
                SFormal {
                    name: z,
                    is_array: true,
                },
                SFormal {
                    name: v,
                    is_array: false,
                },
            ],
            decls: vec![],
            body: vec![SStmt::Assign {
                lhs: SLval::Elem {
                    array: z,
                    subs: vec![SExpr::int(2)],
                },
                rhs: SExpr::Var(v),
            }],
        });
        let m = Machine::new(1);
        let out = run_both(&prog, &m, &BTreeMap::new());
        assert_eq!(out.arrays[&a], vec![0.0, 7.5, 0.0]);
    }
}
