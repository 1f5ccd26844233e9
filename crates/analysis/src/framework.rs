//! The generic interprocedural dataflow framework (paper Table 1 as a
//! *family*, not a collection of ad-hoc passes).
//!
//! Every interprocedural problem the compiler solves — reaching
//! decompositions, interprocedural constants, GMOD/GREF side effects, and
//! the communication optimizer's available-sections walk — shares one
//! shape: facts attached to call-graph nodes, translated across call
//! edges through the formal/actual bindings, met at join points, and
//! transformed by a per-unit transfer function. This module captures that
//! shape once:
//!
//! * [`DataflowGraph`] — the graph being solved over (the ACG, or the
//!   SPMD program's call graph), presented as a dependency order plus
//!   per-node dependency edges.
//! * [`DataflowProblem`] — the lattice: boundary values, edge
//!   translation, meet, and transfer.
//! * [`solve`] — the fixpoint driver. Both graphs we solve over are
//!   acyclic (recursion is rejected up front; SPMD cycles are pinned to
//!   the problem's boundary value), so a single pass in dependency order
//!   reaches the fixpoint; the solver reports per-problem
//!   [`SolveStats`].
//! * [`FactStore`] — per-`(problem, unit)` fact digests, the currency of
//!   the §8 incremental recompilation analysis. An edit that perturbs
//!   only one fact class invalidates only the units consuming that
//!   class.
//! * [`UnitCtx`] — the per-unit calling convention shared by
//!   intraprocedural passes (e.g. [`crate::kills`]).
//!
//! ### Determinism and exactness
//!
//! The ported problems must produce *identical* facts to their
//! pre-framework implementations, including in the places where the
//! lattice operations are not associative (RSD-section widening caps the
//! section list at a fixed length; `meet_entries` filters against its
//! first operand). The framework therefore never reassociates:
//! [`DataflowProblem::translate`] returns the *list* of contributions
//! carried by one edge in arrival order, and the solver applies
//! [`DataflowProblem::meet`] once per contribution, edges enumerated in
//! the graph's deterministic dependency order.

use crate::registry::Direction;
use fortrand_frontend::ast::ProcUnit;
use fortrand_frontend::sema::UnitInfo;
use fortrand_ir::{Interner, Sym, SymEnv};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// A graph the solver can run over: nodes in dependency order, each with
/// its dependency edges for the chosen direction.
pub trait DataflowGraph {
    /// Node handle (a `Sym` for the ACG, a procedure index for SPMD).
    type Node: Copy + Ord + std::fmt::Debug;
    /// Edge payload handed to [`DataflowProblem::translate`].
    type Edge;

    /// All nodes in dependency order for `dir`: every dependency of a
    /// node (its callers for top-down problems, its callees for
    /// bottom-up) appears before the node itself. Nodes on cycles are
    /// included wherever the graph chooses; the solver pins them to the
    /// problem's boundary value.
    fn order(&self, dir: Direction) -> Vec<Self::Node>;

    /// True when `n` sits on (or its dependencies pass through) a
    /// dependency cycle, so its incoming facts cannot be trusted.
    fn on_cycle(&self, n: Self::Node) -> bool;

    /// The dependency edges of `n` for `dir`, each paired with its source
    /// node, in a deterministic order.
    fn deps(&self, n: Self::Node, dir: Direction) -> Vec<(Self::Node, &Self::Edge)>;
}

/// One interprocedural dataflow problem.
pub trait DataflowProblem<G: DataflowGraph> {
    /// The lattice value attached to each node.
    type Fact: Clone;

    /// Problem name (matches the registry row).
    fn name(&self) -> &'static str;

    /// Propagation direction over the graph.
    fn direction(&self) -> Direction;

    /// The fact a node starts from before any edge contributions are
    /// met into it (⊤ for pure meets, or the node's local facts when the
    /// problem folds contributions into locally computed state).
    fn boundary(&mut self, g: &G, n: G::Node) -> Self::Fact;

    /// The contributions `edge` carries from `src` (whose fact is final
    /// by the time this runs), in arrival order. Most problems return a
    /// single contribution; the available-sections problem returns one
    /// per call site scan so non-associative meets replay exactly.
    fn translate(
        &mut self,
        g: &G,
        edge: &G::Edge,
        src: G::Node,
        src_fact: &Self::Fact,
    ) -> Vec<Self::Fact>;

    /// Meets one contribution into the accumulator.
    fn meet(&mut self, acc: &mut Self::Fact, contrib: Self::Fact);

    /// The per-unit transfer function: consumes the met input fact and
    /// produces the node's outgoing fact. May record side facts (e.g.
    /// per-statement decompositions, call-site bindings) internally.
    fn transfer(&mut self, g: &G, n: G::Node, input: Self::Fact) -> Self::Fact;
}

/// What one [`solve`] run did — recorded in the compile report and
/// printed by `tables passes`.
#[derive(Clone, Debug, Default)]
pub struct SolveStats {
    /// Problem name (registry row).
    pub problem: String,
    /// Direction glyph (`v` top-down, `^` bottom-up, `<>` bidirectional).
    pub direction: String,
    /// Units (graph nodes) visited.
    pub units: usize,
    /// Edge contributions met into node inputs.
    pub contributions: usize,
    /// Fixpoint iterations (1 for a single dependency-ordered pass; the
    /// cloning loop re-solves reaching once per cloning round).
    pub iterations: usize,
    /// Wall-clock time spent solving, in nanoseconds.
    pub wall_ns: u64,
}

impl SolveStats {
    /// One-line rendering for reports.
    pub fn render(&self) -> String {
        format!(
            "{:<28} {:>4}  units={:<4} contribs={:<4} iters={:<2} wall={:.3}ms",
            self.problem,
            self.direction,
            self.units,
            self.contributions,
            self.iterations,
            self.wall_ns as f64 / 1e6
        )
    }
}

/// Runs `problem` to fixpoint over `g` and returns the per-node facts
/// plus solve statistics.
///
/// Nodes are visited in dependency order; each node's input is its
/// boundary value met with every contribution from its dependency edges
/// (skipped for nodes on cycles, pinning them to the boundary), then the
/// transfer function runs once. Dependency order over an acyclic
/// dependency relation makes a single pass the fixpoint.
pub fn solve<G, P>(g: &G, problem: &mut P) -> (BTreeMap<G::Node, P::Fact>, SolveStats)
where
    G: DataflowGraph,
    P: DataflowProblem<G>,
{
    let start = Instant::now();
    let dir = problem.direction();
    let mut facts: BTreeMap<G::Node, P::Fact> = BTreeMap::new();
    let mut stats = SolveStats {
        problem: problem.name().to_string(),
        direction: dir.glyph().to_string(),
        iterations: 1,
        ..Default::default()
    };
    for n in g.order(dir) {
        stats.units += 1;
        let mut acc = problem.boundary(g, n);
        if !g.on_cycle(n) {
            for (src, edge) in g.deps(n, dir) {
                let src_fact = facts
                    .get(&src)
                    .expect("dependency order: source solved before target");
                for contrib in problem.translate(g, edge, src, src_fact) {
                    stats.contributions += 1;
                    problem.meet(&mut acc, contrib);
                }
            }
        }
        let out = problem.transfer(g, n, acc);
        facts.insert(n, out);
    }
    stats.wall_ns = start.elapsed().as_nanos() as u64;
    (facts, stats)
}

/// Records a finished solve on the compile timeline as a complete span
/// ending "now", with the solve's counters as span arguments. Because
/// [`SolveStats::wall_ns`] measures the solve itself, emitting after the
/// fact reconstructs the span without threading the trace handle through
/// every analysis entry point. No-op when the trace is off.
pub fn record_solve(trace: &fortrand_trace::Trace, stats: &SolveStats) {
    if trace.on() {
        let dur_us = stats.wall_ns as f64 / 1e3;
        let end = trace.now_us();
        trace.complete(
            fortrand_trace::PID_COMPILE,
            0,
            "solve",
            &stats.problem,
            (end - dur_us).max(0.0),
            dur_us,
            vec![
                ("direction", stats.direction.as_str().into()),
                ("units", stats.units.into()),
                ("contributions", stats.contributions.into()),
                ("iterations", stats.iterations.into()),
            ],
        );
    }
}

/// The per-unit context shared by intraprocedural analyses: the unit,
/// its semantic summary, and the symbolic environment the caller wants
/// expressions folded under. Normalizes the calling convention so every
/// pass takes one argument instead of its own ad-hoc tuple.
pub struct UnitCtx<'a> {
    /// The source unit.
    pub unit: &'a ProcUnit,
    /// Its semantic summary (arrays, params, formals).
    pub info: &'a UnitInfo,
    /// Symbolic environment for expression folding (empty when the
    /// caller has no interprocedural constants to offer).
    pub env: &'a SymEnv,
}

impl<'a> UnitCtx<'a> {
    /// Context with an empty symbolic environment.
    pub fn new(unit: &'a ProcUnit, info: &'a UnitInfo, env: &'a SymEnv) -> Self {
        UnitCtx { unit, info, env }
    }
}

/// Per-`(problem, unit)` stable fact digests.
///
/// The incremental engine compares these across compilations: a unit is
/// reusable only when *every* fact class it consumes is unchanged, and —
/// the point of splitting the old monolithic hash — an edit perturbing
/// one class (say, an interprocedural constant) leaves units that don't
/// consume that class untouched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FactStore {
    digests: BTreeMap<(String, String), u64>,
}

impl FactStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the digest of `rendered` (a deterministic fact rendering)
    /// for `(problem, unit)`. `Sym(<id>)` occurrences are resolved to
    /// names first so interner renumbering can't perturb the digest.
    pub fn record(&mut self, problem: &str, unit: &str, rendered: &str, interner: &Interner) {
        self.digests.insert(
            (problem.to_string(), unit.to_string()),
            stable_hash(rendered, interner),
        );
    }

    /// Records a precomputed digest.
    pub fn record_digest(&mut self, problem: &str, unit: &str, digest: u64) {
        self.digests
            .insert((problem.to_string(), unit.to_string()), digest);
    }

    /// The digest for `(problem, unit)`, if recorded.
    pub fn digest(&self, problem: &str, unit: &str) -> Option<u64> {
        self.digests
            .get(&(problem.to_string(), unit.to_string()))
            .copied()
    }

    /// Iterates `(problem, unit) → digest` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.digests
            .iter()
            .map(|((p, u), &d)| (p.as_str(), u.as_str(), d))
    }

    /// Number of recorded digests.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }
}

fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Hashes a debug-rendered fact string after resolving `Sym(<id>)`
/// occurrences to `Sym(<name>)`.
///
/// Interner ids are assigned in parse order, so an edit that adds or
/// removes an identifier early in the file shifts the ids of every later
/// symbol — which would spuriously change the hashes of *unedited* units
/// and defeat the §8 recompilation analysis. Resolving ids to names makes
/// the hashes depend only on what the facts actually say.
pub fn stable_hash(s: &str, interner: &Interner) -> u64 {
    hash_of(&resolve_syms(s, interner))
}

/// Rewrites `Sym(<id>)` occurrences in a debug rendering to
/// `Sym(<name>)` using the interner.
pub fn resolve_syms(s: &str, interner: &Interner) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find("Sym(") {
        let (before, after) = rest.split_at(pos + 4);
        out.push_str(before);
        match after.find(')') {
            Some(end) if after[..end].bytes().all(|b| b.is_ascii_digit()) && end > 0 => {
                let id: usize = after[..end].parse().expect("digits");
                if id < interner.len() {
                    out.push_str(interner.name(Sym(id as u32)));
                } else {
                    out.push_str(&after[..end]);
                }
                out.push(')');
                rest = &after[end + 1..];
            }
            _ => rest = after,
        }
    }
    out.push_str(rest);
    out
}

/// [`DataflowGraph`] view of the augmented call graph.
///
/// Top-down problems depend on their callers (enumerated in topological
/// order so multi-edge contributions arrive deterministically);
/// bottom-up problems depend on their callees in call-list order —
/// exactly the order the pre-framework passes folded summaries in, which
/// matters because RSD-section widening is not associative.
pub struct AcgGraph<'a> {
    /// The underlying graph.
    pub acg: &'a crate::acg::Acg,
}

impl DataflowGraph for AcgGraph<'_> {
    type Node = Sym;
    type Edge = crate::acg::CallEdge;

    fn order(&self, dir: Direction) -> Vec<Sym> {
        match dir {
            Direction::TopDown => self.acg.topo.clone(),
            _ => self.acg.reverse_topo(),
        }
    }

    fn on_cycle(&self, _n: Sym) -> bool {
        // `build_acg` rejects recursion outright.
        false
    }

    fn deps(&self, n: Sym, dir: Direction) -> Vec<(Sym, &crate::acg::CallEdge)> {
        match dir {
            Direction::TopDown => {
                // In-edges, callers enumerated in topological order, each
                // caller's call sites in statement order.
                let mut v = Vec::new();
                for caller in &self.acg.topo {
                    for e in self.acg.calls.get(caller).into_iter().flatten() {
                        if e.callee == n {
                            v.push((*caller, e));
                        }
                    }
                }
                v
            }
            _ => self
                .acg
                .calls
                .get(&n)
                .into_iter()
                .flatten()
                .map(|e| (e.callee, e))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acg::build_acg;
    use crate::fixtures::FIG4;
    use fortrand_frontend::load_program;

    /// A toy problem counting, per unit, the number of distinct paths
    /// from `main` (top-down: sum of caller path counts over in-edges).
    struct PathCount;
    impl DataflowProblem<AcgGraph<'_>> for PathCount {
        type Fact = u64;
        fn name(&self) -> &'static str {
            "path count"
        }
        fn direction(&self) -> Direction {
            Direction::TopDown
        }
        fn boundary(&mut self, _g: &AcgGraph, _n: Sym) -> u64 {
            0
        }
        fn translate(
            &mut self,
            _g: &AcgGraph,
            _e: &crate::acg::CallEdge,
            _src: Sym,
            f: &u64,
        ) -> Vec<u64> {
            vec![(*f).max(1)]
        }
        fn meet(&mut self, acc: &mut u64, c: u64) {
            *acc += c;
        }
        fn transfer(&mut self, _g: &AcgGraph, _n: Sym, input: u64) -> u64 {
            input
        }
    }

    #[test]
    fn solver_visits_in_dependency_order_and_counts_paths() {
        let (prog, info) = load_program(FIG4).unwrap();
        let acg = build_acg(&prog, &info).unwrap();
        let g = AcgGraph { acg: &acg };
        let (facts, stats) = solve(&g, &mut PathCount);
        let main = prog.interner.get("p1").unwrap();
        assert_eq!(facts[&main], 0, "entry has no callers");
        // Every non-entry unit in FIG4 is reachable from main.
        for (&n, &c) in &facts {
            if n != main {
                assert!(c >= 1, "{:?} unreachable?", n);
            }
        }
        assert_eq!(stats.units, acg.topo.len());
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn acg_graph_topdown_deps_are_in_edges() {
        let (prog, info) = load_program(FIG4).unwrap();
        let acg = build_acg(&prog, &info).unwrap();
        let g = AcgGraph { acg: &acg };
        for &n in &acg.topo {
            let deps = g.deps(n, Direction::TopDown);
            assert_eq!(
                deps.len(),
                acg.callers.get(&n).map(|v| v.len()).unwrap_or(0),
                "in-degree mismatch for {:?}",
                n
            );
            for (src, e) in deps {
                assert_eq!(e.callee, n);
                assert_eq!(e.caller, src);
            }
        }
    }

    #[test]
    fn fact_store_digests_are_per_problem() {
        let interner = Interner::default();
        let mut fs = FactStore::new();
        fs.record("constants", "main", "c=8;", &interner);
        fs.record("reaching", "main", "x: BLOCK", &interner);
        let d0 = fs.digest("constants", "main").unwrap();
        fs.record("constants", "main", "c=9;", &interner);
        assert_ne!(fs.digest("constants", "main").unwrap(), d0);
        // The other class is untouched.
        assert_eq!(
            fs.digest("reaching", "main").unwrap(),
            stable_hash("x: BLOCK", &interner)
        );
        assert_eq!(fs.len(), 2);
    }

    #[test]
    fn resolve_syms_rewrites_ids_to_names() {
        let mut interner = Interner::default();
        let a = interner.intern("alpha");
        let s = format!("x -> {a:?}, junk Sym(999) Sym(x)");
        let r = resolve_syms(&s, &interner);
        assert!(r.contains("Sym(alpha)"), "{r}");
        assert!(r.contains("Sym(999)"), "out-of-range ids survive: {r}");
        assert!(r.contains("Sym(x)"), "non-numeric survives: {r}");
    }
}
