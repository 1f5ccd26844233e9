//! Sequential reference interpreter.
//!
//! Executes the *source* program directly, ignoring all data-placement
//! statements (a Fortran D program's meaning is exactly its sequential
//! Fortran meaning — the compiler must preserve it). Used as the
//! correctness oracle for every compilation strategy: simulated SPMD
//! results must match this interpreter's results.
//!
//! It walks the AST that sema left and shares nothing else with the
//! compiler. Before the walk, each unit is resolved once: every name it
//! declares becomes a scalar slot, an array slot or a `PARAMETER`
//! constant, and every callee a unit index. A frame is a run of slots on
//! two stacks, so a variable read, a DO step and a call index instead of
//! hashing, and an element reference folds its subscripts as it
//! evaluates them.

use fortrand_frontend::ast::*;
use fortrand_frontend::sema::{ProgramInfo, UnitInfo, VarInfo};
use fortrand_ir::Sym;
use std::collections::BTreeMap;

/// Result of a sequential run.
#[derive(Debug, Default)]
pub struct SeqOutput {
    /// Final contents of every array of the main program, row-major.
    pub arrays: BTreeMap<Sym, Vec<f64>>,
    /// `print *` output lines.
    pub printed: Vec<String>,
}

/// Runtime value.
#[derive(Clone, Copy, Debug)]
enum V {
    I(i64),
    R(f64),
}

impl V {
    fn i(self) -> i64 {
        match self {
            V::I(v) => v,
            V::R(v) => v as i64,
        }
    }
    fn r(self) -> f64 {
        match self {
            V::I(v) => v as f64,
            V::R(v) => v,
        }
    }
    fn truthy(self) -> bool {
        self.i() != 0
    }
}

struct Arr<'a> {
    dims: &'a [i64],
    lower: &'a [i64],
    data: Vec<f64>,
}

impl<'a> Arr<'a> {
    fn zeroed(vi: &'a VarInfo) -> Self {
        Arr {
            dims: &vi.dims,
            lower: &vi.lower,
            data: vec![0.0; vi.dims.iter().product::<i64>() as usize],
        }
    }
}

/// What a name means inside one unit.
#[derive(Clone, Copy)]
enum Res {
    /// Neither a variable nor a `PARAMETER` of the unit.
    Free,
    /// A scalar slot of the unit's frame.
    Scalar(u32),
    /// An array slot of the unit's frame; it holds a heap index.
    Array(u32),
    /// A `PARAMETER`: `Unit::consts[k]`.
    Const(u32),
}

/// A unit with its names resolved.
struct Unit<'a> {
    src: &'a ProcUnit,
    info: &'a UnitInfo,
    /// Indexed by `Sym`; a name past the end is `Free`.
    names: Vec<Res>,
    /// Each `PARAMETER`'s value, and the slot of a scalar of the same
    /// name: a write goes there, while every read sees the constant.
    consts: Vec<(i64, Option<u32>)>,
    scalars: usize,
    /// The declaration of each array slot.
    arrays: Vec<&'a VarInfo>,
    /// Each formal's slot, in order.
    formals: Vec<Res>,
    /// A function's result slot: its own name.
    result: Option<u32>,
}

impl<'a> Unit<'a> {
    fn resolve(src: &'a ProcUnit, info: &'a UnitInfo) -> Self {
        let mut u = Unit {
            src,
            info,
            names: Vec::new(),
            consts: Vec::new(),
            scalars: 0,
            arrays: Vec::new(),
            formals: Vec::new(),
            result: None,
        };
        for (&x, vi) in &info.vars {
            let res = if vi.is_array() {
                u.arrays.push(vi);
                Res::Array(u.arrays.len() as u32 - 1)
            } else {
                Res::Scalar(u.new_scalar())
            };
            u.bind(x, res);
        }
        u.formals = src.formals.iter().map(|&f| u.res(f)).collect();
        if let UnitKind::Function(_) = src.kind {
            let k = match u.res(src.name) {
                Res::Scalar(k) => k,
                _ => u.new_scalar(),
            };
            u.bind(src.name, Res::Scalar(k));
            u.result = Some(k);
        }
        for (&x, &c) in &info.params {
            let slot = match u.res(x) {
                Res::Scalar(k) => Some(k),
                // An array keeps its slot; `Seq::eval` reads its name as
                // the constant.
                Res::Array(_) => continue,
                Res::Free | Res::Const(_) => None,
            };
            u.consts.push((c, slot));
            u.bind(x, Res::Const(u.consts.len() as u32 - 1));
        }
        u
    }

    fn new_scalar(&mut self) -> u32 {
        self.scalars += 1;
        self.scalars as u32 - 1
    }

    fn bind(&mut self, x: Sym, res: Res) {
        let i = x.0 as usize;
        if self.names.len() <= i {
            self.names.resize(i + 1, Res::Free);
        }
        self.names[i] = res;
    }

    fn res(&self, x: Sym) -> Res {
        self.names.get(x.0 as usize).copied().unwrap_or(Res::Free)
    }

    /// The scalar slot a write of `x` goes to; `None` when no read can
    /// see it (a `PARAMETER` with no variable of its name).
    fn write_slot(&self, x: Sym) -> Option<u32> {
        match self.res(x) {
            Res::Scalar(k) => Some(k),
            Res::Const(k) => self.consts[k as usize].1,
            Res::Array(_) | Res::Free => {
                panic!("sequential interpreter: write of {x:?}, not a scalar of its unit")
            }
        }
    }
}

/// A whole array passed to a scalar formal, or a name no statement
/// declares, reads as 0, or as a `PARAMETER` of the array's name.
#[cold]
fn unbound(x: Sym, u: &Unit) -> V {
    V::I(u.info.params.get(&x).copied().unwrap_or(0))
}

enum Flow {
    Normal,
    Return,
    Stop,
}

struct Seq<'a, 'u> {
    units: &'u [Unit<'a>],
    /// Indexed by `Sym`: the unit of that name.
    unit_of: Vec<usize>,
    heap: Vec<Arr<'a>>,
    /// Every live frame's scalar slots, the innermost last.
    scalars: Vec<V>,
    /// Every live frame's array slots (heap indices), the innermost last.
    arrays: Vec<usize>,
    /// Where the innermost frame's slots start.
    fs: usize,
    fa: usize,
    printed: Vec<String>,
}

/// Runs the program sequentially. `init` provides initial array contents
/// for main-program arrays (row-major); missing arrays start zeroed.
pub fn run_sequential(
    prog: &SourceProgram,
    info: &ProgramInfo,
    init: &BTreeMap<Sym, Vec<f64>>,
) -> SeqOutput {
    let units: Vec<Unit> = (prog.units.iter())
        .map(|u| Unit::resolve(u, info.unit(u.name)))
        .collect();
    let mut unit_of = vec![
        usize::MAX;
        units
            .iter()
            .map(|u| u.src.name.0 as usize + 1)
            .max()
            .unwrap_or(0)
    ];
    for (k, u) in units.iter().enumerate() {
        unit_of[u.src.name.0 as usize] = k;
    }
    let main = (units.iter())
        .find(|u| u.src.kind == UnitKind::Program)
        .expect("no PROGRAM unit");
    let mut s = Seq {
        units: &units,
        unit_of,
        heap: Vec::new(),
        scalars: vec![V::I(0); main.scalars],
        arrays: Vec::new(),
        fs: 0,
        fa: 0,
        printed: Vec::new(),
    };
    for &vi in &main.arrays {
        s.arrays.push(s.heap.len());
        s.heap.push(Arr::zeroed(vi));
    }
    for (&name, v) in init {
        if let Res::Array(k) = main.res(name) {
            let data = &mut s.heap[s.arrays[k as usize]].data;
            assert_eq!(v.len(), data.len(), "init size mismatch");
            data.copy_from_slice(v);
        }
    }
    let _ = s.body(&main.src.body, main);
    let mut out = SeqOutput {
        printed: s.printed,
        ..Default::default()
    };
    for (&name, vi) in &main.info.vars {
        if let (true, Res::Array(k)) = (vi.is_array(), main.res(name)) {
            let data = std::mem::take(&mut s.heap[s.arrays[k as usize]].data);
            out.arrays.insert(name, data);
        }
    }
    out
}

impl<'a, 'u> Seq<'a, 'u> {
    fn body(&mut self, body: &[Stmt], u: &'u Unit<'a>) -> Flow {
        for st in body {
            match self.stmt(st, u) {
                Flow::Normal => {}
                f => return f,
            }
        }
        Flow::Normal
    }

    fn stmt(&mut self, s: &Stmt, u: &'u Unit<'a>) -> Flow {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                let v = self.eval(rhs, u);
                match lhs {
                    LValue::Scalar(x) => {
                        if let Some(k) = u.write_slot(*x) {
                            self.scalars[self.fs + k as usize] = v;
                        }
                    }
                    LValue::Element { array, subs } => {
                        let (id, f) = self.element(*array, subs, u);
                        self.heap[id].data[f] = v.r();
                    }
                }
                Flow::Normal
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = self.eval(lo, u).i();
                let hi = self.eval(hi, u).i();
                let st = step.as_ref().map(|e| self.eval(e, u).i()).unwrap_or(1);
                assert!(st != 0);
                let slot = u.write_slot(*var).map(|k| self.fs + k as usize);
                let mut i = lo;
                while (st > 0 && i <= hi) || (st < 0 && i >= hi) {
                    if let Some(at) = slot {
                        self.scalars[at] = V::I(i);
                    }
                    match self.body(body, u) {
                        Flow::Normal => {}
                        f => return f,
                    }
                    i += st;
                }
                Flow::Normal
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.eval(cond, u).truthy() {
                    self.body(then_body, u)
                } else {
                    self.body(else_body, u)
                }
            }
            StmtKind::Call { name, args } => {
                self.invoke(*name, args, u);
                Flow::Normal
            }
            StmtKind::Return => Flow::Return,
            StmtKind::Stop => Flow::Stop,
            StmtKind::Print { args } => {
                let line: Vec<String> = args
                    .iter()
                    .map(|a| match self.eval(a, u) {
                        V::I(v) => format!("{v}"),
                        V::R(v) => format!("{v}"),
                    })
                    .collect();
                self.printed.push(line.join(" "));
                Flow::Normal
            }
            // Data placement statements have no sequential meaning.
            StmtKind::Align { .. } | StmtKind::Distribute { .. } | StmtKind::Continue => {
                Flow::Normal
            }
        }
    }

    /// The heap index and row-major offset of `array(subs)`.
    fn element(&mut self, array: Sym, subs: &[Expr], u: &'u Unit<'a>) -> (usize, usize) {
        let Res::Array(k) = u.res(array) else {
            panic!("sequential interpreter: {array:?} is not an array of its unit")
        };
        let id = self.arrays[self.fa + k as usize];
        let mut f = 0usize;
        for (d, e) in subs.iter().enumerate() {
            let x = self.eval(e, u).i();
            let (lo, w) = (self.heap[id].lower[d], self.heap[id].dims[d]);
            assert!(
                x >= lo && x < lo + w,
                "sequential interpreter: subscript {x} out of bounds {}..{}",
                lo,
                lo + w - 1
            );
            f = f * w as usize + (x - lo) as usize;
        }
        (id, f)
    }

    /// Calls a subroutine or function; returns the function value if any.
    #[inline(never)]
    fn invoke(&mut self, name: Sym, args: &[Expr], caller: &'u Unit<'a>) -> V {
        let units = self.units;
        let callee = &units[self.unit_of[name.0 as usize]];
        let (fs, fa, heap) = (self.scalars.len(), self.arrays.len(), self.heap.len());
        self.scalars.resize(fs + callee.scalars, V::I(0));
        self.arrays.resize(fa + callee.arrays.len(), usize::MAX);
        // Actuals are evaluated in the caller's frame; a function they
        // call pushes its frame above this one and pops it again.
        for (formal, actual) in callee.formals.iter().zip(args) {
            match (*formal, actual) {
                (Res::Array(k), Expr::Var(a)) => {
                    let Res::Array(ka) = caller.res(*a) else {
                        panic!("sequential interpreter: array formal bound to scalar {a:?}")
                    };
                    self.arrays[fa + k as usize] = self.arrays[self.fa + ka as usize];
                }
                (Res::Array(_), _) => {
                    panic!("array formal requires whole-array actual in this subset")
                }
                (Res::Scalar(k), _) => self.scalars[fs + k as usize] = self.eval(actual, caller),
                (Res::Free | Res::Const(_), _) => unreachable!("formals are variables"),
            }
        }
        // Local arrays start zeroed on every call.
        for (k, &vi) in callee.arrays.iter().enumerate() {
            if !vi.is_formal {
                self.arrays[fa + k] = self.heap.len();
                self.heap.push(Arr::zeroed(vi));
            }
        }
        if let Some(r) = callee.result {
            self.scalars[fs + r as usize] = V::R(0.0);
        }
        let (caller_fs, caller_fa) = (self.fs, self.fa);
        (self.fs, self.fa) = (fs, fa);
        let _ = self.body(&callee.src.body, callee);
        (self.fs, self.fa) = (caller_fs, caller_fa);
        let result = callee
            .result
            .map_or(V::R(0.0), |r| self.scalars[fs + r as usize]);
        // Fortran copy-out for scalar var actuals.
        for (formal, actual) in callee.formals.iter().zip(args) {
            if let (Res::Scalar(k), Expr::Var(a)) = (*formal, actual) {
                if matches!(caller.res(*a), Res::Array(_)) {
                    continue;
                }
                if let Some(at) = caller.write_slot(*a) {
                    self.scalars[caller_fs + at as usize] = self.scalars[fs + k as usize];
                }
            }
        }
        self.scalars.truncate(fs);
        self.arrays.truncate(fa);
        self.heap.truncate(heap);
        result
    }

    /// Leaves inline at the caller; an inner node costs a call.
    #[inline(always)]
    fn eval(&mut self, e: &Expr, u: &'u Unit<'a>) -> V {
        match e {
            Expr::Int(v) => V::I(*v),
            Expr::Real(v) => V::R(*v),
            Expr::Var(x) => match u.res(*x) {
                Res::Scalar(k) => self.scalars[self.fs + k as usize],
                Res::Const(k) => V::I(u.consts[k as usize].0),
                Res::Array(_) | Res::Free => unbound(*x, u),
            },
            _ => self.eval_node(e, u),
        }
    }

    #[inline(never)]
    fn eval_node(&mut self, e: &Expr, u: &'u Unit<'a>) -> V {
        match e {
            Expr::Logical(b) => V::I(*b as i64),
            Expr::Int(_) | Expr::Real(_) | Expr::Var(_) => unreachable!("leaves evaluate inline"),
            Expr::Element { array, subs } => {
                let (id, f) = self.element(*array, subs, u);
                V::R(self.heap[id].data[f])
            }
            Expr::Bin { op, l, r } => {
                let a = self.eval(l, u);
                let b = self.eval(r, u);
                self.binop(*op, a, b)
            }
            Expr::Un { op, e } => {
                let v = self.eval(e, u);
                match op {
                    UnOp::Neg => match v {
                        V::I(x) => V::I(-x),
                        V::R(x) => V::R(-x),
                    },
                    UnOp::Not => V::I(!v.truthy() as i64),
                }
            }
            Expr::Intrinsic { name, args } => self.intrinsic(*name, args, u),
            Expr::FuncCall { name, args } => self.invoke(*name, args, u),
        }
    }

    fn binop(&self, op: BinOp, a: V, b: V) -> V {
        let both_int = matches!((a, b), (V::I(_), V::I(_)));
        let bv = |c: bool| V::I(c as i64);
        if both_int {
            let (x, y) = (a.i(), b.i());
            match op {
                BinOp::Add => V::I(x + y),
                BinOp::Sub => V::I(x - y),
                BinOp::Mul => V::I(x * y),
                BinOp::Div => V::I(x / y),
                BinOp::Pow => V::I(x.pow(y.clamp(0, 62) as u32)),
                BinOp::Lt => bv(x < y),
                BinOp::Le => bv(x <= y),
                BinOp::Gt => bv(x > y),
                BinOp::Ge => bv(x >= y),
                BinOp::Eq => bv(x == y),
                BinOp::Ne => bv(x != y),
                BinOp::And => bv(x != 0 && y != 0),
                BinOp::Or => bv(x != 0 || y != 0),
            }
        } else {
            let (x, y) = (a.r(), b.r());
            match op {
                BinOp::Add => V::R(x + y),
                BinOp::Sub => V::R(x - y),
                BinOp::Mul => V::R(x * y),
                BinOp::Div => V::R(x / y),
                BinOp::Pow => V::R(x.powf(y)),
                BinOp::Lt => bv(x < y),
                BinOp::Le => bv(x <= y),
                BinOp::Gt => bv(x > y),
                BinOp::Ge => bv(x >= y),
                BinOp::Eq => bv(x == y),
                BinOp::Ne => bv(x != y),
                BinOp::And => bv(x != 0.0 && y != 0.0),
                BinOp::Or => bv(x != 0.0 || y != 0.0),
            }
        }
    }

    /// Evaluates every argument in order, as a call would; MIN and MAX
    /// fold them as they come, the others take at most two.
    #[inline(never)]
    fn intrinsic(&mut self, name: Intrinsic, args: &[Expr], u: &'u Unit<'a>) -> V {
        if let Intrinsic::Min | Intrinsic::Max = name {
            let min = name == Intrinsic::Min;
            let (mut all_int, mut int, mut real) = (true, None, f64::INFINITY);
            if !min {
                real = f64::NEG_INFINITY;
            }
            for a in args {
                let v = self.eval(a, u);
                all_int &= matches!(v, V::I(_));
                let (i, r) = (v.i(), v.r());
                int = Some(int.map_or(i, |m: i64| if min { m.min(i) } else { m.max(i) }));
                real = if min { real.min(r) } else { real.max(r) };
            }
            return if all_int {
                V::I(int.expect("MIN or MAX of no arguments"))
            } else {
                V::R(real)
            };
        }
        let mut buf = [V::I(0); 2];
        for (k, a) in args.iter().enumerate() {
            let v = self.eval(a, u);
            if let Some(slot) = buf.get_mut(k) {
                *slot = v;
            }
        }
        let vals = &buf[..args.len().min(2)];
        match name {
            Intrinsic::Abs => match vals[0] {
                V::I(v) => V::I(v.abs()),
                V::R(v) => V::R(v.abs()),
            },
            Intrinsic::Mod => match (vals[0], vals[1]) {
                (V::I(a), V::I(b)) => V::I(a % b),
                (a, b) => V::R(a.r() % b.r()),
            },
            Intrinsic::Sqrt => V::R(vals[0].r().sqrt()),
            Intrinsic::Sign => {
                let (a, b) = (vals[0].r(), vals[1].r());
                V::R(if b >= 0.0 { a.abs() } else { -a.abs() })
            }
            Intrinsic::Dble | Intrinsic::Float => V::R(vals[0].r()),
            Intrinsic::Int => V::I(vals[0].i()),
            Intrinsic::Min | Intrinsic::Max => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrand_frontend::load_program;

    fn run(src: &str, init: &[(&str, Vec<f64>)]) -> (fortrand_frontend::SourceProgram, SeqOutput) {
        let (p, info) = load_program(src).unwrap();
        let mut map = BTreeMap::new();
        for (n, v) in init {
            map.insert(p.interner.get(n).unwrap(), v.clone());
        }
        let out = run_sequential(&p, &info, &map);
        (p, out)
    }

    #[test]
    fn fig1_semantics() {
        let (p, out) = run(
            fortrand_analysis::fixtures::FIG1,
            &[("x", (1..=100).map(|v| v as f64).collect())],
        );
        let x = p.interner.get("x").unwrap();
        let got = &out.arrays[&x];
        // x(i) = 0.5 * x(i+5) for i=1..95, in order; later reads see
        // original values only for i+5 > current writes... since i+5 > i,
        // reads are of not-yet-written elements: x(i) = 0.5*(i+5).
        for i in 1..=95usize {
            assert_eq!(got[i - 1], 0.5 * (i as f64 + 5.0), "i={i}");
        }
        assert_eq!(got[95], 96.0);
    }

    #[test]
    fn call_by_reference_arrays() {
        let (p, out) = run(
            "
      PROGRAM main
      REAL a(4)
      call fill(a, 2.5)
      END
      SUBROUTINE fill(x, v)
      REAL x(4)
      REAL v
      do i = 1, 4
        x(i) = v
      enddo
      END
",
            &[],
        );
        let a = p.interner.get("a").unwrap();
        assert_eq!(out.arrays[&a], vec![2.5; 4]);
    }

    #[test]
    fn scalar_copy_out() {
        let (_, out) = run(
            "
      PROGRAM main
      INTEGER l
      l = 0
      call findmax(l)
      print *, l
      END
      SUBROUTINE findmax(l)
      INTEGER l
      l = 42
      END
",
            &[],
        );
        assert_eq!(out.printed, vec!["42"]);
    }

    #[test]
    fn function_call_result() {
        let (_, out) = run(
            "
      PROGRAM main
      REAL y
      y = square(3.0)
      print *, y
      END
      REAL FUNCTION square(x)
      REAL x
      square = x * x
      END
",
            &[],
        );
        assert_eq!(out.printed, vec!["9"]);
    }

    /// A function's result is its own name in its own unit only: a
    /// subroutine it calls that assigns a local of the same name writes
    /// that local.
    #[test]
    fn function_result_does_not_leak_into_callees() {
        let (_, out) = run(
            "
      PROGRAM main
      REAL y
      y = sq(3.0)
      print *, y
      END
      REAL FUNCTION sq(x)
      REAL x
      call s(x)
      sq = x * x
      END
      SUBROUTINE s(x)
      REAL x
      sq = 100.0
      x = x + sq
      END
",
            &[],
        );
        assert_eq!(out.printed, vec!["10609"]);
    }

    #[test]
    fn fig15_semantics() {
        let (p, out) = run(fortrand_analysis::fixtures::FIG15, &[]);
        let x = p.interner.get("x").unwrap();
        // Each k iteration: two F1 passes (+1 each), then F2 overwrites
        // with 1.5. Final: 1.5 everywhere.
        assert_eq!(out.arrays[&x], vec![1.5; 100]);
    }

    #[test]
    fn lower_bound_arrays() {
        let (p, out) = run(
            "
      PROGRAM main
      REAL a(0:3)
      do i = 0, 3
        a(i) = 1.0 * i
      enddo
      END
",
            &[],
        );
        let a = p.interner.get("a").unwrap();
        assert_eq!(out.arrays[&a], vec![0.0, 1.0, 2.0, 3.0]);
    }
}
