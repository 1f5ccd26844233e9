//! Pass B: statement emission for the compile-time strategies
//! (`Interprocedural` and `Immediate`).

use super::*;

impl UnitCompiler<'_, '_> {
    /// Full compilation of one unit under a compile-time strategy.
    pub(super) fn compile(mut self) -> R<CachedUnit> {
        self.resolve_specs()?;
        self.plan()?;

        // Dynamic-decomposition summary + caller-side remap placements.
        let dyn_summary = dynamic_decomp::summarize(
            self.unit,
            self.ui,
            self.ctx.info,
            self.ctx.reaching,
            self.dyn_summaries,
            self.ctx.se,
        );
        if self.ctx.strategy == Strategy::Interprocedural {
            self.placements = dynamic_decomp::place(
                self.unit,
                self.ctx.info,
                self.dyn_summaries,
                self.ctx.reaching,
                self.ctx.dyn_opt,
            );
        }
        self.residual.dyn_decomp = dyn_summary.clone();

        let body = self.emit_body(&self.unit.body)?;
        let mut body = body;
        // Immediate strategy: restore inherited decompositions at exit.
        if self.ctx.strategy == Strategy::Immediate && !self.is_main {
            for (array, spec) in dyn_summary.after.clone() {
                let extents = self.ui.var(array).unwrap().dims.clone();
                let dist = spec.array_dist(&extents, self.ctx.nprocs);
                let id = self.add_dist(dist);
                let array = self.sym(array);
                body.push(SStmt::Remap { array, to_dist: id });
            }
        }

        let mut formals: Vec<SFormal> = Vec::new();
        for &f in &self.unit.formals {
            formals.push(SFormal {
                name: self.sym(f),
                is_array: self.ui.is_array(f),
            });
        }
        for &b in &self.buffer_formals {
            formals.push(SFormal {
                name: b,
                is_array: true,
            });
        }
        let mut decls: Vec<SDecl> = Vec::new();
        for (&a, vi) in &self.ui.vars {
            if vi.is_array() && !vi.is_formal {
                decls.push(SDecl {
                    name: self.sym(a),
                    bounds: self.decl_bounds(a),
                    dist: self.dists[&a],
                    owner_dist: None,
                });
            }
        }
        decls.extend(self.buffer_decls.iter().cloned());

        let proc = SProc {
            name: self.sym(self.unit.name),
            formals,
            decls,
            body,
        };
        let residual = std::mem::take(&mut self.residual);
        Ok(self.finish(proc, residual, dyn_summary))
    }

    // ------------------------------------------------------------------

    pub(super) fn emit_body(&mut self, body: &[Stmt]) -> R<Vec<SStmt>> {
        let mut out = Vec::new();
        for st in body {
            // Remap placements before the statement.
            for action in self
                .placements
                .before
                .get(&st.id)
                .cloned()
                .unwrap_or_default()
            {
                out.push(self.emit_remap(&action)?);
            }
            // Planned communication anchored here.
            for op in self.comm_before.get(&st.id).cloned().unwrap_or_default() {
                out.extend(self.emit_comm(&op)?);
            }
            self.emit_stmt(st, &mut out)?;
            for action in self
                .placements
                .after
                .get(&st.id)
                .cloned()
                .unwrap_or_default()
            {
                out.push(self.emit_remap(&action)?);
            }
        }
        Ok(out)
    }

    fn emit_remap(&mut self, action: &dynamic_decomp::RemapAction) -> R<SStmt> {
        let extents = self
            .ui
            .var(action.array)
            .ok_or_else(|| CodegenError::at(0, "remap of unknown array"))?
            .dims
            .clone();
        let dist = action.to.array_dist(&extents, self.ctx.nprocs);
        let id = self.add_dist(dist);
        let array = self.sym(action.array);
        Ok(if action.mark_only {
            SStmt::MarkDist { array, to_dist: id }
        } else {
            SStmt::Remap { array, to_dist: id }
        })
    }

    fn emit_stmt(&mut self, st: &Stmt, out: &mut Vec<SStmt>) -> R<()> {
        match &st.kind {
            StmtKind::Assign { lhs, rhs } => self.emit_assign(st, lhs, rhs, out),
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => self.emit_do(st, *var, lo, hi, step.as_ref(), body, out),
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.tr_expr(cond, st.id)?;
                let t = self.emit_body(then_body)?;
                let e = self.emit_body(else_body)?;
                out.push(SStmt::If {
                    cond: c,
                    then_body: t,
                    else_body: e,
                });
                Ok(())
            }
            StmtKind::Call { name, args } => self.emit_call(st, *name, args, out),
            StmtKind::Return => {
                out.push(SStmt::Return);
                Ok(())
            }
            StmtKind::Continue => Ok(()),
            StmtKind::Stop => {
                out.push(SStmt::Stop);
                Ok(())
            }
            StmtKind::Print { args } => {
                let args = args
                    .iter()
                    .map(|a| self.tr_expr(a, st.id))
                    .collect::<R<Vec<_>>>()?;
                out.push(SStmt::Print { args });
                Ok(())
            }
            StmtKind::Align { .. } => Ok(()), // effect realized via reaching
            StmtKind::Distribute { target, kinds } => self.emit_distribute(st, *target, kinds, out),
        }
    }

    fn emit_distribute(
        &mut self,
        st: &Stmt,
        target: Sym,
        _kinds: &[DistKind],
        out: &mut Vec<SStmt>,
    ) -> R<()> {
        if !self.ui.is_array(target) {
            // Decomposition-level distribute: realized through the arrays
            // aligned to it at their next reference; dynamic re-alignment
            // of named decompositions emits per-array remaps lazily.
            return Ok(());
        }
        let first = !self
            .first_distribute_seen
            .get(&target)
            .copied()
            .unwrap_or(false);
        self.first_distribute_seen.insert(target, true);
        let is_formal = self.ui.var(target).map(|v| v.is_formal).unwrap_or(false);
        let delegated = self.ctx.strategy == Strategy::Interprocedural
            && !self.is_main
            && is_formal
            && self
                .residual
                .dyn_decomp
                .before
                .iter()
                .any(|(a, _)| *a == target);
        // A first DISTRIBUTE of a non-formal array establishes the
        // declaration spec (no remap needed); a delegated first remap of a
        // formal is the caller's job.
        if first && (delegated || !is_formal) {
            return Ok(());
        }
        // Emit an actual remap to the spec reaching the *next* statement
        // (i.e. the one this DISTRIBUTE establishes). Use the spec derived
        // from the statement's own kinds via reaching at the following
        // point: reconstruct directly.
        let spec = {
            // The reaching analysis records the state *before* each
            // statement; the state after this DISTRIBUTE is the statement's
            // own specification. Rebuild it.
            let extents = self.ui.var(target).unwrap().dims.clone();
            DecompSpec {
                extents,
                kinds: _kinds.to_vec(),
                align: fortrand_ir::dist::Alignment::identity(self.ui.var(target).unwrap().rank()),
            }
        };
        let extents = self.ui.var(target).unwrap().dims.clone();
        let dist = spec.array_dist(&extents, self.ctx.nprocs);
        let id = self.add_dist(dist);
        let _ = st;
        out.push(SStmt::Remap {
            array: self.sym(target),
            to_dist: id,
        });
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_do(
        &mut self,
        st: &Stmt,
        var: Sym,
        lo: &Expr,
        hi: &Expr,
        step: Option<&Expr>,
        body: &[Stmt],
        out: &mut Vec<SStmt>,
    ) -> R<()> {
        let stepc = match step {
            None => 1,
            Some(e) => fortrand_frontend::sema::fold_const(e, &self.params)
                .ok_or_else(|| CodegenError::at(st.line, "non-constant DO step"))?,
        };
        let part = self.partitioned.get(&st.id).cloned();
        let Some((array, dim)) = part else {
            // Plain (replicated or serial-dim) loop.
            let lo_s = self.tr_expr(lo, st.id)?;
            let hi_s = self.tr_expr(hi, st.id)?;
            self.vkinds.insert(var, VKind::Global);
            let inner = self.emit_body(body)?;
            self.vkinds.remove(&var);
            out.push(SStmt::Do {
                var: self.sym(var),
                lo: lo_s,
                hi: hi_s,
                step: stepc,
                body: inner,
            });
            return Ok(());
        };
        if stepc != 1 {
            return Err(CodegenError::at(
                st.line,
                "partitioned loop with non-unit step",
            ));
        }
        let dist_id = self.dists[&array];
        let partn = self.dist_of(array).dims[dim].clone();
        let lo_aff = expr_affine(lo, &self.params);
        let hi_aff = expr_affine(hi, &self.params);
        let lo_c = lo_aff.as_ref().and_then(|a| self.env.fold(a).as_const());
        let hi_c = hi_aff.as_ref().and_then(|a| self.env.fold(a).as_const());

        match (partn.kind, lo_c, hi_c) {
            (DistKind::Block, Some(lo_v), Some(hi_v)) => {
                // Paper-style bounds reduction:
                //   ub$n = min((my$p+1)*b, hi) - my$p*b
                let b = partn.block_size();
                let ub = self.fresh("ub");
                out.push(SStmt::Assign {
                    lhs: SLval::Scalar(ub),
                    rhs: SExpr::sub(
                        SExpr::min2(
                            SExpr::mul(SExpr::add(SExpr::MyP, SExpr::int(1)), SExpr::int(b)),
                            SExpr::int(hi_v),
                        ),
                        SExpr::mul(SExpr::MyP, SExpr::int(b)),
                    ),
                });
                let lo_s = if lo_v == 1 {
                    SExpr::int(1)
                } else {
                    // lb$ = max(lo - my$p*b, 1)
                    SExpr::max2(
                        SExpr::sub(SExpr::int(lo_v), SExpr::mul(SExpr::MyP, SExpr::int(b))),
                        SExpr::int(1),
                    )
                };
                self.vkinds.insert(
                    var,
                    VKind::Local {
                        part: partn,
                        dist: dist_id,
                        dim,
                    },
                );
                let inner = self.emit_body(body)?;
                self.vkinds.remove(&var);
                out.push(SStmt::Do {
                    var: self.sym(var),
                    lo: lo_s,
                    hi: SExpr::Var(ub),
                    step: 1,
                    body: inner,
                });
                Ok(())
            }
            _ => {
                // General local-index loop with a global-range guard
                // (cyclic distributions and symbolic bounds).
                let nloc = partn.local_extent();
                let g = self.new_name(format!("{}$g", self.ctx.prog.interner.name(var)));
                self.vkinds.insert(
                    var,
                    VKind::Local {
                        part: partn.clone(),
                        dist: dist_id,
                        dim,
                    },
                );
                // g = global index of local var on this processor.
                let local = self.sym(var);
                let g_expr = global_of_local_expr(&partn, SExpr::Var(local));
                let lo_s = self.tr_expr(lo, st.id)?;
                let hi_s = self.tr_expr(hi, st.id)?;
                // Record the companion symbol so serial-dim uses of the
                // loop var read `var$g`.
                self.global_companion.insert(var, g);
                let mut inner = vec![SStmt::Assign {
                    lhs: SLval::Scalar(g),
                    rhs: g_expr,
                }];
                let cond = SExpr::bin(
                    SBinOp::And,
                    SExpr::bin(SBinOp::Ge, SExpr::Var(g), lo_s),
                    SExpr::bin(SBinOp::Le, SExpr::Var(g), hi_s),
                );
                let guarded = self.emit_body(body)?;
                inner.push(SStmt::If {
                    cond,
                    then_body: guarded,
                    else_body: vec![],
                });
                self.global_companion.remove(&var);
                self.vkinds.remove(&var);
                out.push(SStmt::Do {
                    var: local,
                    lo: SExpr::int(1),
                    hi: SExpr::int(nloc),
                    step: 1,
                    body: inner,
                });
                Ok(())
            }
        }
    }

    fn emit_assign(&mut self, st: &Stmt, lhs: &LValue, rhs: &Expr, out: &mut Vec<SStmt>) -> R<()> {
        match lhs {
            LValue::Scalar(v) => {
                let r = self.tr_expr(rhs, st.id)?;
                out.push(SStmt::Assign {
                    lhs: SLval::Scalar(self.sym(*v)),
                    rhs: r,
                });
                Ok(())
            }
            LValue::Element { array, subs } => {
                let spec = self.spec_at(st.id, *array)?;
                if spec.is_none() {
                    // Replicated array: executed by everyone, global subs.
                    let subs = subs
                        .iter()
                        .map(|s| self.tr_expr(s, st.id))
                        .collect::<R<Vec<_>>>()?;
                    let r = self.tr_expr(rhs, st.id)?;
                    out.push(SStmt::Assign {
                        lhs: SLval::Elem {
                            array: self.sym(*array),
                            subs,
                        },
                        rhs: r,
                    });
                    return Ok(());
                }
                let dist_id = self.current_dist(st.id, *array)?;
                let dist = self.dist(dist_id).clone();
                // Classify each distributed dim: local-var match or pinned.
                let mut owner_subs: Option<Vec<SExpr>> = None;
                let mut lhs_subs: Vec<SExpr> = Vec::with_capacity(subs.len());
                for (d, sub) in subs.iter().enumerate() {
                    if dist.grid_axis[d].is_none() {
                        lhs_subs.push(self.tr_expr(sub, st.id)?);
                        continue;
                    }
                    let a = expr_affine(sub, &self.params).ok_or_else(|| {
                        CodegenError::at(st.line, "non-affine distributed subscript")
                    })?;
                    if let Some((v, off)) = a.as_sym_plus_const() {
                        if self.is_local_valued(v) {
                            if off != 0 {
                                return Err(CodegenError::at(
                                    st.line,
                                    "shifted lhs subscript on distributed dimension",
                                ));
                            }
                            lhs_subs.push(SExpr::Var(self.sym(v)));
                            continue;
                        }
                    }
                    // Pinned: ownership guard + local index conversion.
                    let g = self.tr_expr(sub, st.id)?;
                    let mut subs_pt: Vec<SExpr> = vec![SExpr::int(1); subs.len()];
                    subs_pt[d] = g.clone();
                    if owner_subs.is_some() {
                        return Err(CodegenError::at(
                            st.line,
                            "multiple pinned distributed dimensions on lhs",
                        ));
                    }
                    owner_subs = Some(subs_pt);
                    lhs_subs.push(SExpr::LocalIdx {
                        dist: dist_id,
                        dim: d,
                        sub: Box::new(g),
                    });
                }
                let r = self.tr_expr(rhs, st.id)?;
                let assign = SStmt::Assign {
                    lhs: SLval::Elem {
                        array: self.sym(*array),
                        subs: lhs_subs,
                    },
                    rhs: r,
                };
                match owner_subs {
                    Some(pt) => {
                        let cond = SExpr::bin(
                            SBinOp::Eq,
                            SExpr::MyP,
                            SExpr::Owner {
                                dist: dist_id,
                                subs: pt,
                            },
                        );
                        out.push(SStmt::If {
                            cond,
                            then_body: vec![assign],
                            else_body: vec![],
                        });
                    }
                    None => out.push(assign),
                }
                Ok(())
            }
        }
    }

    fn emit_call(&mut self, st: &Stmt, name: Sym, args: &[Expr], out: &mut Vec<SStmt>) -> R<()> {
        let cu = self
            .compiled
            .get(&name)
            .ok_or_else(|| CodegenError::at(st.line, "callee not yet compiled (recursion?)"))?;
        let callee_info = self.ctx.info.unit(name);
        // §6.4: Fortran D disallows dynamic data decomposition of aliased
        // variables — remapping one alias would silently move the other.
        {
            let mut bases: Vec<(usize, Sym)> = Vec::new();
            for (i, a) in args.iter().enumerate() {
                if let Expr::Var(v) = a {
                    if self.ui.is_array(*v) {
                        bases.push((i, *v));
                    }
                }
            }
            for (i, v) in &bases {
                let dup = bases.iter().any(|(j, w)| j != i && w == v);
                if !dup {
                    continue;
                }
                let f = callee_info.formals[*i];
                if cu.dyn_summary.kills.contains(&f) {
                    return Err(CodegenError::at(
                        st.line,
                        format!(
                            "array `{}` is aliased at this call and the callee \
                             dynamically redistributes it (Fortran D §6.4 \
                             forbids dynamic decomposition of aliased variables)",
                            self.ctx.prog.interner.name(*v)
                        ),
                    ));
                }
            }
        }
        let callee_eff = self.ctx.se.unit(name);
        let mut sargs: Vec<SActual> = Vec::with_capacity(args.len());
        let mut copy_out: Vec<(Sym, Sym)> = Vec::new();
        let mut owner_guard: Option<SExpr> = None;
        for (i, a) in args.iter().enumerate() {
            let f = callee_info.formals[i];
            if callee_info.is_array(f) {
                match a {
                    Expr::Var(arr) => sargs.push(SActual::Array(self.sym(*arr))),
                    _ => {
                        return Err(CodegenError::at(
                            st.line,
                            "array arguments must be whole arrays in this subset",
                        ))
                    }
                }
                continue;
            }
            // Scalar formal. Constrained (owner-local) formals of the
            // callee want a *local* index.
            let constraint = cu
                .residual
                .iter_constraints
                .iter()
                .find(|c| c.formal == f)
                .cloned();
            if let Some(c) = constraint {
                // Which of our arrays corresponds to the constrained array?
                let apos = callee_info.formals.iter().position(|&x| x == c.array);
                let our_arr = apos.and_then(|p| match args.get(p) {
                    Some(Expr::Var(x)) => Some(*x),
                    _ => None,
                });
                match a {
                    Expr::Var(v) if self.is_local_valued(*v) => {
                        sargs.push(SActual::Scalar(SExpr::Var(self.sym(*v))));
                    }
                    _ => {
                        // General expression: guard the call on ownership
                        // and pass the converted local index.
                        let arr = our_arr.ok_or_else(|| {
                            CodegenError::at(st.line, "constrained array actual not a variable")
                        })?;
                        let dist_id = self.current_dist(st.id, arr)?;
                        let g = self.tr_expr(a, st.id)?;
                        let rank = self.ui.var(arr).unwrap().rank();
                        let mut pt = vec![SExpr::int(1); rank];
                        pt[c.dim] = g.clone();
                        owner_guard = Some(SExpr::bin(
                            SBinOp::Eq,
                            SExpr::MyP,
                            SExpr::Owner {
                                dist: dist_id,
                                subs: pt,
                            },
                        ));
                        sargs.push(SActual::Scalar(SExpr::LocalIdx {
                            dist: dist_id,
                            dim: c.dim,
                            sub: Box::new(g),
                        }));
                    }
                }
            } else {
                sargs.push(SActual::Scalar(self.tr_expr(a, st.id)?));
                if let Expr::Var(v) = a {
                    if callee_eff.mod_scalars.contains(&f) && !self.ui.is_array(*v) {
                        copy_out.push((self.sym(f), self.sym(*v)));
                    }
                }
            }
        }
        // Delayed-broadcast buffers for this edge.
        for b in self.edge_buffers.get(&st.id).cloned().unwrap_or_default() {
            sargs.push(SActual::Array(b));
        }
        let call = SStmt::Call {
            proc: self.callee(name),
            args: sargs,
            copy_out,
        };
        match owner_guard {
            Some(cond) => out.push(SStmt::If {
                cond,
                then_body: vec![call],
                else_body: vec![],
            }),
            None => out.push(call),
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Communication materialization
    // ------------------------------------------------------------------

    fn emit_comm(&mut self, op: &CommOp) -> R<Vec<SStmt>> {
        match op {
            CommOp::Shift {
                array,
                dist,
                dim,
                offset,
                rsd,
                tag,
            } => self.emit_shift(*array, *dist, *dim, *offset, rsd, *tag),
            CommOp::Broadcast {
                array,
                dist,
                dim,
                index,
                rsd,
                buffer,
            } => self.emit_broadcast(*array, *dist, *dim, index, rsd, *buffer),
        }
    }

    /// Neighbour exchange along a BLOCK dimension (Fig. 2's send/recv).
    fn emit_shift(
        &mut self,
        array: Sym,
        dist_id: DistId,
        dim: usize,
        offset: i64,
        rsd: &Rsd,
        tag: u64,
    ) -> R<Vec<SStmt>> {
        let dist = self.dist(dist_id).clone();
        let b = dist.dims[dim].block_size();
        let p = dist.dims[dim].nprocs as i64;
        let c = offset.abs();
        // Section over non-shift dims, in local index space. Serial dims
        // keep global bounds from the vectorized section.
        let other = |dims: &mut Vec<(SExpr, SExpr, i64)>, me: &mut Self| -> R<()> {
            for (d, t) in rsd.dims.iter().enumerate() {
                if d == dim {
                    continue;
                }
                if dist.grid_axis[d].is_some() {
                    // Another distributed dim: full local range.
                    dims.push((SExpr::int(1), SExpr::int(dist.dims[d].local_extent()), 1));
                } else {
                    dims.push((me.tr_affine(&t.lo)?, me.tr_affine(&t.hi)?, t.step));
                }
            }
            Ok(())
        };
        let mut send_dims: Vec<(SExpr, SExpr, i64)> = Vec::new();
        let mut recv_dims: Vec<(SExpr, SExpr, i64)> = Vec::new();
        if offset > 0 {
            send_dims.push((SExpr::int(1), SExpr::int(c), 1));
            recv_dims.push((SExpr::int(b + 1), SExpr::int(b + c), 1));
        } else {
            send_dims.push((SExpr::int(b - c + 1), SExpr::int(b), 1));
            recv_dims.push((SExpr::int(1 - c), SExpr::int(0), 1));
        }
        // Insert other dims at their positions (shift dim stays at `dim`).
        let mut send_rect: Vec<(SExpr, SExpr, i64)> = Vec::new();
        let mut recv_rect: Vec<(SExpr, SExpr, i64)> = Vec::new();
        {
            let mut others: Vec<(SExpr, SExpr, i64)> = Vec::new();
            other(&mut others, self)?;
            let mut oi = 0;
            for d in 0..rsd.dims.len() {
                if d == dim {
                    send_rect.push(send_dims[0].clone());
                    recv_rect.push(recv_dims[0].clone());
                } else {
                    send_rect.push(others[oi].clone());
                    recv_rect.push(others[oi].clone());
                    oi += 1;
                }
            }
        }
        let array = self.sym(array);
        let (send_guard, send_to, recv_guard, recv_from) = if offset > 0 {
            (
                SExpr::bin(SBinOp::Gt, SExpr::MyP, SExpr::int(0)),
                SExpr::sub(SExpr::MyP, SExpr::int(1)),
                SExpr::bin(SBinOp::Lt, SExpr::MyP, SExpr::int(p - 1)),
                SExpr::add(SExpr::MyP, SExpr::int(1)),
            )
        } else {
            (
                SExpr::bin(SBinOp::Lt, SExpr::MyP, SExpr::int(p - 1)),
                SExpr::add(SExpr::MyP, SExpr::int(1)),
                SExpr::bin(SBinOp::Gt, SExpr::MyP, SExpr::int(0)),
                SExpr::sub(SExpr::MyP, SExpr::int(1)),
            )
        };
        Ok(vec![
            SStmt::If {
                cond: send_guard,
                then_body: vec![SStmt::Send {
                    to: send_to,
                    tag,
                    array,
                    section: SRect { dims: send_rect },
                }],
                else_body: vec![],
            },
            SStmt::If {
                cond: recv_guard,
                then_body: vec![SStmt::Recv {
                    from: recv_from,
                    tag,
                    array,
                    section: SRect { dims: recv_rect },
                }],
                else_body: vec![],
            },
        ])
    }

    /// Pinned-slice broadcast into a buffer (dgefa's pivot column).
    fn emit_broadcast(
        &mut self,
        array: Sym,
        dist_id: DistId,
        dim: usize,
        index: &Affine,
        rsd: &Rsd,
        buffer: Sym,
    ) -> R<Vec<SStmt>> {
        let dist = self.dist(dist_id).clone();
        let idx = self.tr_affine(index)?;
        let rank = dist.rank();
        let mut owner_pt = vec![SExpr::int(1); rank];
        owner_pt[dim] = idx.clone();
        let root = SExpr::Owner {
            dist: dist_id,
            subs: owner_pt,
        };
        let mut src: Vec<(SExpr, SExpr, i64)> = Vec::new();
        let mut dst: Vec<(SExpr, SExpr, i64)> = Vec::new();
        for (d, t) in rsd.dims.iter().enumerate() {
            if d == dim {
                let li = SExpr::LocalIdx {
                    dist: dist_id,
                    dim,
                    sub: Box::new(idx.clone()),
                };
                src.push((li.clone(), li, 1));
                continue;
            }
            if dist.grid_axis[d].is_some() {
                return Err(CodegenError::at(
                    0,
                    "broadcast with a second distributed dimension is unsupported",
                ));
            }
            let lo = self.tr_affine(&t.lo)?;
            let hi = self.tr_affine(&t.hi)?;
            src.push((lo.clone(), hi.clone(), t.step));
            dst.push((lo, hi, t.step));
        }
        Ok(vec![SStmt::Bcast {
            root,
            parts: vec![BcastPart {
                src_array: self.sym(array),
                src_section: SRect { dims: src },
                dst_array: buffer,
                dst_section: SRect { dims: dst },
            }],
        }])
    }

    // ------------------------------------------------------------------
    // Expression translation
    // ------------------------------------------------------------------

    pub(super) fn is_local_valued(&self, v: Sym) -> bool {
        matches!(self.vkinds.get(&v), Some(VKind::Local { .. }))
            || self.local_formals.contains_key(&v)
    }

    /// The DistId for an array at a statement (dynamic redistribution
    /// resolves to the spec reaching the statement).
    pub(super) fn current_dist(&mut self, stmt: StmtId, array: Sym) -> R<DistId> {
        let spec = self.spec_at(stmt, array)?;
        let extents = self.ui.var(array).unwrap().dims.clone();
        let dist = match &spec {
            Some(s) => s.array_dist(&extents, self.ctx.nprocs),
            None => ArrayDist::replicated(&extents),
        };
        Ok(self.add_dist(dist))
    }

    /// Translates an affine bound into an SExpr under the global-value
    /// convention (used for comm sections hoisted outside loops — bounds
    /// may mention only formals and constants).
    fn tr_affine(&mut self, a: &Affine) -> R<SExpr> {
        let folded = self.env.fold(a);
        if let Some(c) = folded.as_const() {
            return Ok(SExpr::int(c));
        }
        let mut acc: Option<SExpr> = None;
        for (s, c) in folded.terms() {
            if self.is_local_valued(s) {
                return Err(CodegenError::at(
                    0,
                    format!(
                        "local-valued symbol `{}` in a hoisted bound (unit `{}`)",
                        self.ctx.prog.interner.name(s),
                        self.ctx.prog.interner.name(self.unit.name)
                    ),
                ));
            }
            let v = SExpr::Var(self.sym(s));
            let term = if c == 1 {
                v
            } else {
                SExpr::mul(SExpr::int(c), v)
            };
            acc = Some(match acc {
                None => term,
                Some(e) => SExpr::add(e, term),
            });
        }
        let mut e = acc.unwrap_or(SExpr::int(0));
        let k = folded.constant();
        if k != 0 {
            e = SExpr::add(e, SExpr::int(k));
        }
        Ok(e)
    }

    /// Translates a source expression in *global value* context.
    pub(super) fn tr_expr(&mut self, e: &Expr, stmt: StmtId) -> R<SExpr> {
        match e {
            Expr::Int(v) => Ok(SExpr::Int(*v)),
            Expr::Real(v) => Ok(SExpr::Real(*v)),
            Expr::Logical(b) => Ok(SExpr::Int(*b as i64)),
            Expr::Var(v) => {
                if let Some(&c) = self.params.get(v) {
                    return Ok(SExpr::Int(c));
                }
                let local = SExpr::Var(self.sym(*v));
                match self.vkinds.get(v) {
                    Some(VKind::Local { part, .. }) => {
                        // Global value of a local loop index.
                        if let Some(&g) = self.global_companion.get(v) {
                            Ok(SExpr::Var(g))
                        } else {
                            Ok(global_of_local_expr(part, local))
                        }
                    }
                    _ => {
                        if let Some(&(arr, dim)) = self.local_formals.get(v) {
                            // Global value of an owner-local formal.
                            let part = self.dist_of(arr).dims[dim].clone();
                            return Ok(global_of_local_expr(&part, local));
                        }
                        Ok(local)
                    }
                }
            }
            Expr::Element { array, subs } => self.tr_element(*array, subs, stmt),
            Expr::Bin { op, l, r } => {
                let ls = self.tr_expr(l, stmt)?;
                let rs = self.tr_expr(r, stmt)?;
                Ok(SExpr::bin(tr_binop(*op), ls, rs))
            }
            Expr::Un { op, e } => {
                let inner = self.tr_expr(e, stmt)?;
                Ok(match op {
                    UnOp::Neg => SExpr::Neg(Box::new(inner)),
                    UnOp::Not => SExpr::Not(Box::new(inner)),
                })
            }
            Expr::Intrinsic { name, args } => {
                let args = args
                    .iter()
                    .map(|a| self.tr_expr(a, stmt))
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
                    // Type conversions are no-ops in the simulated REAL
                    // domain.
                    Intrinsic::Dble | Intrinsic::Float | Intrinsic::Int => {
                        args.into_iter().next().unwrap()
                    }
                })
            }
            Expr::FuncCall { .. } => Err(CodegenError::at(
                0,
                "user FUNCTION calls are unsupported in SPMD code generation",
            )),
        }
    }

    /// Translates an array element reference (rhs).
    fn tr_element(&mut self, array: Sym, subs: &[Expr], stmt: StmtId) -> R<SExpr> {
        let spec = self.spec_at(stmt, array)?;
        if spec.is_none() {
            let subs = subs
                .iter()
                .map(|s| self.tr_expr(s, stmt))
                .collect::<R<Vec<_>>>()?;
            return Ok(SExpr::Elem {
                array: self.sym(array),
                subs,
            });
        }
        let dist_id = self.current_dist(stmt, array)?;
        let dist = self.dist(dist_id).clone();
        let mut out_subs: Vec<SExpr> = Vec::with_capacity(subs.len());
        let mut pinned: Option<(usize, Affine)> = None;
        for (d, sub) in subs.iter().enumerate() {
            if dist.grid_axis[d].is_none() {
                out_subs.push(self.tr_expr(sub, stmt)?);
                continue;
            }
            let a = expr_affine(sub, &self.params)
                .ok_or_else(|| CodegenError::at(0, "non-affine distributed subscript"))?;
            if let Some((v, off)) = a.as_sym_plus_const() {
                if self.is_local_valued(v) {
                    let v = SExpr::Var(self.sym(v));
                    out_subs.push(if off == 0 {
                        v
                    } else {
                        SExpr::add(v, SExpr::int(off))
                    });
                    continue;
                }
            }
            // Pinned dimension: buffered read.
            pinned = Some((d, a));
            out_subs.push(SExpr::int(0)); // placeholder
        }
        if let Some((d, a)) = pinned {
            let key: PinKey = (array, d, a.clone());
            if self.guard_local.contains(&(stmt, key.clone())) {
                // Local under the statement's ownership guard.
                let g = self.tr_expr(&subs[d], stmt)?;
                let dist_id2 = self.current_dist(stmt, array)?;
                let mut final_subs = Vec::new();
                for (i, s) in out_subs.into_iter().enumerate() {
                    if i == d {
                        final_subs.push(SExpr::LocalIdx {
                            dist: dist_id2,
                            dim: d,
                            sub: Box::new(g.clone()),
                        });
                    } else {
                        final_subs.push(s);
                    }
                }
                return Ok(SExpr::Elem {
                    array: self.sym(array),
                    subs: final_subs,
                });
            }
            let buf = self.pin_buffers.get(&key).copied().ok_or_else(|| {
                CodegenError::at(
                    0,
                    format!(
                        "internal: pinned read of `{}` has no planned broadcast",
                        self.ctx.prog.interner.name(array)
                    ),
                )
            })?;
            // Buffer subscripts = the non-pinned dims' translated subs.
            let mut bsubs = Vec::new();
            for (i, s) in out_subs.into_iter().enumerate() {
                if i != d {
                    bsubs.push(s);
                }
            }
            return Ok(SExpr::Elem {
                array: buf,
                subs: bsubs,
            });
        }
        Ok(SExpr::Elem {
            array: self.sym(array),
            subs: out_subs,
        })
    }
}

/// `global = f(local, my$p)` for one dimension partition.
pub(super) fn global_of_local_expr(part: &DimPartition, local: SExpr) -> SExpr {
    match part.kind {
        DistKind::Serial => local,
        DistKind::Block => {
            let b = part.block_size();
            SExpr::add(SExpr::mul(SExpr::MyP, SExpr::int(b)), local)
        }
        DistKind::Cyclic => {
            let p = part.nprocs as i64;
            SExpr::add(
                SExpr::add(
                    SExpr::mul(SExpr::sub(local, SExpr::int(1)), SExpr::int(p)),
                    SExpr::MyP,
                ),
                SExpr::int(1),
            )
        }
        DistKind::BlockCyclic(k) => {
            let p = part.nprocs as i64;
            // global = ((lb)*P + my$p)*k + (l-1)%k + 1 with lb = (l-1)/k.
            let lm1 = SExpr::sub(local, SExpr::int(1));
            let lb = SExpr::bin(SBinOp::Div, lm1.clone(), SExpr::int(k));
            SExpr::add(
                SExpr::add(
                    SExpr::mul(
                        SExpr::add(SExpr::mul(lb, SExpr::int(p)), SExpr::MyP),
                        SExpr::int(k),
                    ),
                    SExpr::Intr {
                        name: SIntr::Mod,
                        args: vec![lm1, SExpr::int(k)],
                    },
                ),
                SExpr::int(1),
            )
        }
    }
}

pub(super) fn tr_binop(op: BinOp) -> SBinOp {
    match op {
        BinOp::Add => SBinOp::Add,
        BinOp::Sub => SBinOp::Sub,
        BinOp::Mul => SBinOp::Mul,
        BinOp::Div => SBinOp::Div,
        BinOp::Pow => SBinOp::Pow,
        BinOp::Lt => SBinOp::Lt,
        BinOp::Le => SBinOp::Le,
        BinOp::Gt => SBinOp::Gt,
        BinOp::Ge => SBinOp::Ge,
        BinOp::Eq => SBinOp::Eq,
        BinOp::Ne => SBinOp::Ne,
        BinOp::And => SBinOp::And,
        BinOp::Or => SBinOp::Or,
    }
}
