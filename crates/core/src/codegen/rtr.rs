//! Run-time resolution code generation (paper Fig. 3).
//!
//! The fallback strategy: every processor holds a full-size copy of every
//! distributed array (only the owner's elements are authoritative), all
//! loops run over their full global ranges, and each reference is resolved
//! at run time with explicit ownership tests:
//!
//! ```text
//! do i = 1,95
//!   if (my$p .eq. owner(x(i+5)) .and. owner(x(i+5)) .ne. owner(x(i)))
//!     send x(i+5) to owner(x(i))
//!   if (my$p .eq. owner(x(i)) .and. owner(x(i+5)) .ne. owner(x(i)))
//!     recv x(i+5) from owner(x(i+5))
//!   if (my$p .eq. owner(x(i))) x(i) = f(x(i+5))
//! enddo
//! ```
//!
//! Reads needed by replicated computations (scalar assignments, replicated
//! arrays) are broadcast from their owners. Dynamic redistribution becomes
//! [`SStmt::RemapGlobal`] — ownership moves, storage stays global-shaped.

use super::*;

impl UnitCompiler<'_> {
    /// Compiles one unit under run-time resolution.
    pub(super) fn compile_rtr(mut self) -> R<CachedUnit> {
        self.resolve_specs_lenient();
        let dyn_summary = dynamic_decomp::summarize(self.unit, self.reads);
        let body = self.rtr_body(&self.unit.body)?;
        let mut formals: Vec<SFormal> = Vec::new();
        for &f in &self.unit.formals {
            formals.push(SFormal {
                name: self.sym(f),
                is_array: self.ui.is_array(f),
            });
        }
        let mut decls: Vec<SDecl> = Vec::new();
        for (&a, vi) in &self.ui.vars {
            if vi.is_array() && !vi.is_formal {
                let bounds: Vec<(i64, i64)> = vi.dims.iter().map(|&e| (1, e)).collect();
                let owner_dist = if self.specs[&a].is_some() {
                    Some(self.dists[&a])
                } else {
                    None
                };
                // Storage is global-shaped; the nominal layout dist is the
                // replicated one matching the bounds.
                let repl = ArrayDist::replicated(&vi.dims);
                let repl_id = self.add_dist(repl);
                decls.push(SDecl {
                    name: self.sym(a),
                    bounds,
                    dist: repl_id,
                    owner_dist,
                });
            }
        }
        let proc = SProc {
            name: self.sym(self.unit.name),
            formals,
            decls,
            body,
        };
        Ok(self.finish(proc, Residual::default(), dyn_summary))
    }

    fn rtr_body(&mut self, body: &[Stmt]) -> R<Vec<SStmt>> {
        let mut out = Vec::new();
        for st in body {
            match &st.kind {
                StmtKind::Assign { lhs, rhs } => self.rtr_assign(st, lhs, rhs, &mut out)?,
                StmtKind::Do {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let stepc = match step {
                        None => 1,
                        Some(e) => fortrand_frontend::sema::fold_const(e, &self.params)
                            .ok_or_else(|| CodegenError::at(st.line, "non-constant DO step"))?,
                    };
                    self.rtr_sync_reads(lo, st.id, &mut out)?;
                    self.rtr_sync_reads(hi, st.id, &mut out)?;
                    let lo = self.rtr_expr(lo, st.id, &mut out)?;
                    let hi = self.rtr_expr(hi, st.id, &mut out)?;
                    let inner = self.rtr_body(body)?;
                    out.push(SStmt::Do {
                        var: self.sym(*var),
                        lo,
                        hi,
                        step: stepc,
                        body: inner,
                    });
                }
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    // Every rank must take the same branch: distributed
                    // reads in the condition are refreshed from their
                    // owners first.
                    self.rtr_sync_reads(cond, st.id, &mut out)?;
                    let c = self.rtr_expr(cond, st.id, &mut out)?;
                    let t = self.rtr_body(then_body)?;
                    let e = self.rtr_body(else_body)?;
                    out.push(SStmt::If {
                        cond: c,
                        then_body: t,
                        else_body: e,
                    });
                }
                StmtKind::Call { name, args } => {
                    if self.reads.callee(*name).is_none() {
                        return Err(CodegenError::at(st.line, "callee not yet compiled"));
                    }
                    let callee_info = self.reads.interface(*name);
                    let callee_eff = self.reads.effects(*name);
                    let mut sargs = Vec::new();
                    let mut copy_out = Vec::new();
                    for (i, a) in args.iter().enumerate() {
                        let f = callee_info.formals[i];
                        if callee_info.is_array(f) {
                            match a {
                                Expr::Var(arr) if self.ui.is_array(*arr) => {
                                    sargs.push(SActual::Array(self.sym(*arr)))
                                }
                                _ => {
                                    return Err(CodegenError::at(
                                        st.line,
                                        "array arguments must be whole arrays",
                                    ))
                                }
                            }
                        } else {
                            self.rtr_sync_reads(a, st.id, &mut out)?;
                            sargs.push(SActual::Scalar(self.rtr_expr(a, st.id, &mut out)?));
                            if let Expr::Var(v) = a {
                                if callee_eff.mod_scalars.contains(&f) && !self.ui.is_array(*v) {
                                    copy_out.push((self.sym(f), self.sym(*v)));
                                }
                            }
                        }
                    }
                    out.push(SStmt::Call {
                        proc: self.callee(*name),
                        args: sargs,
                        copy_out,
                    });
                }
                StmtKind::Return => out.push(SStmt::Return),
                StmtKind::Continue => {}
                StmtKind::Stop => out.push(SStmt::Stop),
                StmtKind::Print { args } => {
                    for a in args {
                        self.rtr_sync_reads(a, st.id, &mut out)?;
                    }
                    let args = args
                        .iter()
                        .map(|a| self.rtr_expr(a, st.id, &mut out))
                        .collect::<R<Vec<_>>>()?;
                    out.push(SStmt::Print { args });
                }
                StmtKind::Align { .. } => {}
                StmtKind::Distribute { target, kinds } => {
                    if !self.ui.is_array(*target) {
                        continue;
                    }
                    let first = !self
                        .first_distribute_seen
                        .get(target)
                        .copied()
                        .unwrap_or(false);
                    self.first_distribute_seen.insert(*target, true);
                    let is_formal = self.ui.var(*target).map(|v| v.is_formal).unwrap_or(false);
                    if first && !is_formal {
                        continue; // declaration establishes the first dist
                    }
                    let extents = self.ui.var(*target).unwrap().dims.clone();
                    let spec = DecompSpec {
                        extents: extents.clone(),
                        kinds: kinds.clone(),
                        align: fortrand_ir::dist::Alignment::identity(extents.len()),
                    };
                    let dist = spec.array_dist(&extents, self.nprocs);
                    let id = self.add_dist(dist);
                    out.push(SStmt::RemapGlobal {
                        array: self.sym(*target),
                        to_dist: id,
                    });
                }
            }
        }
        Ok(out)
    }

    /// Run-time resolution of one assignment.
    fn rtr_assign(&mut self, st: &Stmt, lhs: &LValue, rhs: &Expr, out: &mut Vec<SStmt>) -> R<()> {
        // Collect distributed rhs element reads.
        let mut reads: Vec<(Sym, Vec<Expr>)> = Vec::new();
        collect_dist_reads(rhs, self.ui, &mut reads);
        if let LValue::Element { subs, .. } = lhs {
            for s in subs {
                collect_dist_reads(s, self.ui, &mut reads);
            }
        }
        let reads: Vec<(Sym, Vec<Expr>)> = reads
            .into_iter()
            .filter(|(a, _)| self.rtr_is_distributed(st.id, *a))
            .collect();

        match lhs {
            LValue::Element { array, subs } if self.rtr_is_distributed(st.id, *array) => {
                let lsubs = subs
                    .iter()
                    .map(|s| self.rtr_expr(s, st.id, out))
                    .collect::<R<Vec<_>>>()?;
                let array = self.sym(*array);
                let owner_l = SExpr::CurOwner {
                    array,
                    subs: lsubs.clone(),
                };
                // Per-reference element messages.
                for (ra, rsubs) in &reads {
                    let rsubs_s = rsubs
                        .iter()
                        .map(|s| self.rtr_expr(s, st.id, out))
                        .collect::<R<Vec<_>>>()?;
                    let ra = self.sym(*ra);
                    let owner_r = SExpr::CurOwner {
                        array: ra,
                        subs: rsubs_s.clone(),
                    };
                    let differs = SExpr::bin(SBinOp::Ne, owner_r.clone(), owner_l.clone());
                    let tag = self.fresh_tag();
                    out.push(SStmt::If {
                        cond: SExpr::bin(
                            SBinOp::And,
                            SExpr::bin(SBinOp::Eq, SExpr::MyP, owner_r.clone()),
                            differs.clone(),
                        ),
                        then_body: vec![SStmt::SendElem {
                            to: owner_l.clone(),
                            tag,
                            value: SExpr::Elem {
                                array: ra,
                                subs: rsubs_s.clone(),
                            },
                        }],
                        else_body: vec![],
                    });
                    out.push(SStmt::If {
                        cond: SExpr::bin(
                            SBinOp::And,
                            SExpr::bin(SBinOp::Eq, SExpr::MyP, owner_l.clone()),
                            differs,
                        ),
                        then_body: vec![SStmt::RecvElem {
                            from: owner_r,
                            tag,
                            lhs: SLval::Elem {
                                array: ra,
                                subs: rsubs_s,
                            },
                        }],
                        else_body: vec![],
                    });
                }
                // Guarded assignment on the owner.
                let r = self.rtr_expr(rhs, st.id, out)?;
                out.push(SStmt::If {
                    cond: SExpr::bin(SBinOp::Eq, SExpr::MyP, owner_l),
                    then_body: vec![SStmt::Assign {
                        lhs: SLval::Elem { array, subs: lsubs },
                        rhs: r,
                    }],
                    else_body: vec![],
                });
                Ok(())
            }
            _ => {
                // Replicated computation: broadcast each distributed read
                // from its owner so every copy is fresh, then compute
                // everywhere.
                for (ra, rsubs) in &reads {
                    let rsubs_s = rsubs
                        .iter()
                        .map(|s| self.rtr_expr(s, st.id, out))
                        .collect::<R<Vec<_>>>()?;
                    let ra = self.sym(*ra);
                    let owner_r = SExpr::CurOwner {
                        array: ra,
                        subs: rsubs_s.clone(),
                    };
                    let sect = SRect {
                        dims: rsubs_s.iter().map(|s| (s.clone(), s.clone(), 1)).collect(),
                    };
                    out.push(SStmt::Bcast {
                        root: owner_r,
                        parts: vec![BcastPart {
                            src_array: ra,
                            src_section: sect.clone(),
                            dst_array: ra,
                            dst_section: sect,
                        }],
                    });
                }
                let r = self.rtr_expr(rhs, st.id, out)?;
                let l = match lhs {
                    LValue::Scalar(v) => SLval::Scalar(self.sym(*v)),
                    LValue::Element { array, subs } => SLval::Elem {
                        array: self.sym(*array),
                        subs: subs
                            .iter()
                            .map(|s| self.rtr_expr(s, st.id, out))
                            .collect::<R<Vec<_>>>()?,
                    },
                };
                out.push(SStmt::Assign { lhs: l, rhs: r });
                Ok(())
            }
        }
    }

    /// Broadcasts every distributed element read in `e` from its owner so
    /// the local copies every rank evaluates against are fresh —
    /// run-time resolution's rule for replicated evaluation contexts
    /// (branch conditions, loop bounds, call arguments).
    fn rtr_sync_reads(&mut self, e: &Expr, stmt: StmtId, out: &mut Vec<SStmt>) -> R<()> {
        let mut reads: Vec<(Sym, Vec<Expr>)> = Vec::new();
        collect_dist_reads(e, self.ui, &mut reads);
        for (ra, rsubs) in reads {
            if !self.rtr_is_distributed(stmt, ra) {
                continue;
            }
            let rsubs_s = rsubs
                .iter()
                .map(|s| self.rtr_expr(s, stmt, out))
                .collect::<R<Vec<_>>>()?;
            let ra = self.sym(ra);
            let owner_r = SExpr::CurOwner {
                array: ra,
                subs: rsubs_s.clone(),
            };
            let sect = SRect {
                dims: rsubs_s.iter().map(|s| (s.clone(), s.clone(), 1)).collect(),
            };
            out.push(SStmt::Bcast {
                root: owner_r,
                parts: vec![BcastPart {
                    src_array: ra,
                    src_section: sect.clone(),
                    dst_array: ra,
                    dst_section: sect,
                }],
            });
        }
        Ok(())
    }

    /// Expression translation for run-time resolution: everything global,
    /// no local-index rewriting.
    #[allow(clippy::only_used_in_recursion)] // stmt/out mirror the non-RTR walker
    fn rtr_expr(&mut self, e: &Expr, stmt: StmtId, out: &mut Vec<SStmt>) -> R<SExpr> {
        match e {
            Expr::Int(v) => Ok(SExpr::Int(*v)),
            Expr::Real(v) => Ok(SExpr::Real(*v)),
            Expr::Logical(b) => Ok(SExpr::Int(*b as i64)),
            Expr::Var(v) => {
                if let Some(&c) = self.params.get(v) {
                    Ok(SExpr::Int(c))
                } else {
                    Ok(SExpr::Var(self.sym(*v)))
                }
            }
            Expr::Element { array, subs } => {
                let subs = subs
                    .iter()
                    .map(|s| self.rtr_expr(s, stmt, out))
                    .collect::<R<Vec<_>>>()?;
                Ok(SExpr::Elem {
                    array: self.sym(*array),
                    subs,
                })
            }
            Expr::Bin { op, l, r } => {
                let ls = self.rtr_expr(l, stmt, out)?;
                let rs = self.rtr_expr(r, stmt, out)?;
                Ok(SExpr::bin(super::emit::tr_binop(*op), ls, rs))
            }
            Expr::Un { op, e } => {
                let inner = self.rtr_expr(e, stmt, out)?;
                Ok(match op {
                    UnOp::Neg => SExpr::Neg(Box::new(inner)),
                    UnOp::Not => SExpr::Not(Box::new(inner)),
                })
            }
            Expr::Intrinsic { name, args } => {
                let args = args
                    .iter()
                    .map(|a| self.rtr_expr(a, stmt, out))
                    .collect::<R<Vec<_>>>()?;
                Ok(match name {
                    Intrinsic::Abs => SExpr::Intr {
                        name: SIntr::Abs,
                        args,
                    },
                    Intrinsic::Min => SExpr::Intr {
                        name: SIntr::Min,
                        args,
                    },
                    Intrinsic::Max => SExpr::Intr {
                        name: SIntr::Max,
                        args,
                    },
                    Intrinsic::Mod => SExpr::Intr {
                        name: SIntr::Mod,
                        args,
                    },
                    Intrinsic::Sqrt => SExpr::Intr {
                        name: SIntr::Sqrt,
                        args,
                    },
                    Intrinsic::Sign => SExpr::Intr {
                        name: SIntr::Sign,
                        args,
                    },
                    Intrinsic::Dble | Intrinsic::Float | Intrinsic::Int => {
                        args.into_iter().next().unwrap()
                    }
                })
            }
            Expr::FuncCall { .. } => Err(CodegenError::at(
                0,
                "user FUNCTION calls unsupported in SPMD",
            )),
        }
    }
}

/// Collects element reads of arrays (any array; caller filters by
/// distribution).
fn collect_dist_reads(e: &Expr, ui: &UnitInfo, out: &mut Vec<(Sym, Vec<Expr>)>) {
    match e {
        Expr::Element { array, subs } => {
            if ui.is_array(*array) {
                out.push((*array, subs.clone()));
            }
            for s in subs {
                collect_dist_reads(s, ui, out);
            }
        }
        Expr::Bin { l, r, .. } => {
            collect_dist_reads(l, ui, out);
            collect_dist_reads(r, ui, out);
        }
        Expr::Un { e, .. } => collect_dist_reads(e, ui, out),
        Expr::Intrinsic { args, .. } | Expr::FuncCall { args, .. } => {
            for a in args {
                collect_dist_reads(a, ui, out);
            }
        }
        _ => {}
    }
}
