//! The tree-walk interpreter the lowered [`Machine`](crate::Machine)
//! replaced, kept as its differential oracle (tests only).
//!
//! [`TreeWalk`] evaluates every [`Expr`] node straight from the [`Program`]
//! on every body call, exactly as the shipped interpreter did before bodies
//! were lowered. The property test below generates random programs, runs
//! them through both evaluators, and requires identical memories,
//! registers, [`InterpStats`], trace events and [`RunError`] values.

use crate::ctrl::{
    CBound, Counter, CtrlBody, CtrlId, FilterPipe, FoldInit, FoldPipe, GatherOp, InnerOp, MapPipe,
    PipeWrite, RegWrite, ScatterOp, TileTransfer, WriteMode,
};
use crate::expr::{eval_binop, eval_unop, DramId, Expr, Func, FuncId, RegId, SramId};
use crate::interp::{InterpStats, RunError};
use crate::program::Program;
use crate::trace::{DramRange, LeafWork, TraceSink};
use crate::types::Elem;

/// Tree-walk interpreter state: one program plus its memories.
pub(crate) struct TreeWalk<'p> {
    prog: &'p Program,
    drams: Vec<Vec<Elem>>,
    srams: Vec<Vec<Elem>>,
    regs: Vec<Elem>,
    params: Vec<Elem>,
    indices: Vec<i64>,
    cur_work: LeafWork,
    pub(crate) stats: InterpStats,
}

impl<'p> TreeWalk<'p> {
    pub(crate) fn new(prog: &'p Program) -> TreeWalk<'p> {
        TreeWalk {
            prog,
            drams: prog
                .drams()
                .iter()
                .map(|d| vec![Elem::zero(d.dtype); d.len])
                .collect(),
            srams: prog
                .srams()
                .iter()
                .map(|s| vec![Elem::zero(s.dtype); s.capacity()])
                .collect(),
            regs: prog.regs().iter().map(|r| Elem::zero(r.dtype)).collect(),
            params: prog.params().iter().map(|p| Elem::zero(p.dtype)).collect(),
            indices: vec![0; prog.num_indices() as usize],
            cur_work: LeafWork::default(),
            stats: InterpStats::default(),
        }
    }

    pub(crate) fn write_dram(&mut self, id: DramId, data: &[Elem]) {
        self.drams[id.0 as usize][..data.len()].copy_from_slice(data);
    }

    pub(crate) fn set_param(&mut self, id: crate::expr::ParamId, v: Elem) {
        self.params[id.0 as usize] = v;
    }

    pub(crate) fn set_reg(&mut self, id: RegId, v: Elem) {
        self.regs[id.0 as usize] = v;
    }

    pub(crate) fn memories(&self) -> (&[Vec<Elem>], &[Vec<Elem>], &[Elem]) {
        (&self.drams, &self.srams, &self.regs)
    }

    pub(crate) fn run_traced(&mut self, sink: &mut dyn TraceSink) -> Result<(), RunError> {
        self.exec_ctrl(self.prog.root(), sink)
    }

    fn exec_ctrl(&mut self, id: CtrlId, sink: &mut dyn TraceSink) -> Result<(), RunError> {
        let ctrl = self.prog.ctrl(id);
        let dims = self.resolve_cchain(&ctrl.cchain, &ctrl.name)?;
        match &ctrl.body {
            CtrlBody::Outer { children, .. } => {
                let children = children.clone();
                sink.outer_enter(id);
                self.iterate(&dims, 0, &mut |m| {
                    sink.outer_iter(id);
                    for &c in &children {
                        m.exec_ctrl(c, sink)?;
                    }
                    Ok(())
                })?;
                sink.outer_exit(id);
                Ok(())
            }
            CtrlBody::Inner(op) => {
                let op = op.clone();
                let name = ctrl.name.clone();
                self.cur_work = LeafWork::default();
                self.exec_inner(&name, &dims, &op)?;
                let work = std::mem::take(&mut self.cur_work);
                sink.leaf(id, work);
                Ok(())
            }
        }
    }

    /// Resolves counter bounds to concrete `(index, min, max, stride)` tuples.
    fn resolve_cchain(
        &self,
        cchain: &[Counter],
        ctrl_name: &str,
    ) -> Result<Vec<(usize, i64, i64, i64)>, RunError> {
        cchain
            .iter()
            .map(|c| {
                let min = self.resolve_bound(c.min)?;
                let max = self.resolve_bound(c.max)?;
                if c.stride < 1 {
                    return Err(RunError::BadBound {
                        ctrl: ctrl_name.to_string(),
                    });
                }
                Ok((c.index.0 as usize, min, max, c.stride))
            })
            .collect()
    }

    fn resolve_bound(&self, b: CBound) -> Result<i64, RunError> {
        Ok(match b {
            CBound::Const(v) => v,
            CBound::Reg(r) => self.regs[r.0 as usize].as_i32()? as i64,
            CBound::Param(p) => self.params[p.0 as usize].as_i32()? as i64,
        })
    }

    /// Nested iteration over resolved counter dims, invoking `act` per tuple.
    fn iterate(
        &mut self,
        dims: &[(usize, i64, i64, i64)],
        d: usize,
        act: &mut dyn FnMut(&mut Self) -> Result<(), RunError>,
    ) -> Result<(), RunError> {
        if d == dims.len() {
            return act(self);
        }
        let (idx, min, max, stride) = dims[d];
        let mut v = min;
        while v < max {
            self.indices[idx] = v;
            self.iterate(dims, d + 1, act)?;
            v += stride;
        }
        Ok(())
    }

    /// Evaluates a function in the current index environment.
    fn eval(&mut self, fid: FuncId, args: &[Elem]) -> Result<Vec<Elem>, RunError> {
        let f: &Func = self.prog.func(fid);
        let mut vals: Vec<Elem> = Vec::with_capacity(f.nodes().len());
        for node in f.nodes() {
            let v = match node {
                Expr::Const(c) => *c,
                Expr::Index(i) => Elem::I32(self.indices[i.0 as usize] as i32),
                Expr::Param(p) => self.params[p.0 as usize],
                Expr::ReadReg(r) => self.regs[r.0 as usize],
                Expr::Arg(n) => args[*n as usize],
                Expr::Load { mem, addr } => {
                    let coords: Vec<i64> = addr
                        .iter()
                        .map(|&a| vals[a.0 as usize].as_i32().map(|v| v as i64))
                        .collect::<Result<_, _>>()?;
                    let sram = self.prog.sram(*mem);
                    let off = sram.flatten(&coords).ok_or_else(|| RunError::SramOob {
                        mem: sram.name.clone(),
                        addr: *coords.first().unwrap_or(&-1),
                    })?;
                    self.srams[mem.0 as usize][off]
                }
                Expr::Unary(op, a) => eval_unop(*op, vals[a.0 as usize])?,
                Expr::Binary(op, a, b) => eval_binop(*op, vals[a.0 as usize], vals[b.0 as usize])?,
                Expr::Mux(c, t, e) => {
                    if vals[c.0 as usize].is_truthy() {
                        vals[t.0 as usize]
                    } else {
                        vals[e.0 as usize]
                    }
                }
            };
            vals.push(v);
        }
        Ok(f.outputs().iter().map(|&o| vals[o.0 as usize]).collect())
    }

    fn eval_scalar(&mut self, fid: FuncId) -> Result<Elem, RunError> {
        Ok(self.eval(fid, &[])?[0])
    }

    fn sram_write_linear(&mut self, id: SramId, off: i64, v: Elem) -> Result<(), RunError> {
        let buf = &mut self.srams[id.0 as usize];
        if off < 0 || off as usize >= buf.len() {
            return Err(RunError::SramOob {
                mem: self.prog.sram(id).name.clone(),
                addr: off,
            });
        }
        buf[off as usize] = v;
        Ok(())
    }

    fn sram_read_linear(&self, id: SramId, off: i64) -> Result<Elem, RunError> {
        let buf = &self.srams[id.0 as usize];
        if off < 0 || off as usize >= buf.len() {
            return Err(RunError::SramOob {
                mem: self.prog.sram(id).name.clone(),
                addr: off,
            });
        }
        Ok(buf[off as usize])
    }

    fn dram_read(&self, id: DramId, off: i64) -> Result<Elem, RunError> {
        let buf = &self.drams[id.0 as usize];
        if off < 0 || off as usize >= buf.len() {
            return Err(RunError::DramOob {
                mem: self.prog.dram(id).name.clone(),
                addr: off,
            });
        }
        Ok(buf[off as usize])
    }

    fn dram_write(&mut self, id: DramId, off: i64, v: Elem) -> Result<(), RunError> {
        let buf = &mut self.drams[id.0 as usize];
        if off < 0 || off as usize >= buf.len() {
            return Err(RunError::DramOob {
                mem: self.prog.dram(id).name.clone(),
                addr: off,
            });
        }
        buf[off as usize] = v;
        Ok(())
    }

    /// Applies one pipe write given already-evaluated body outputs.
    fn apply_write(&mut self, w: &PipeWrite, outs: &[Elem]) -> Result<(), RunError> {
        let coords: Vec<i64> = self
            .eval(w.addr, &[])?
            .iter()
            .map(|e| e.as_i32().map(|v| v as i64))
            .collect::<Result<_, _>>()?;
        let sram = self.prog.sram(w.sram);
        let off = sram.flatten(&coords).ok_or_else(|| RunError::SramOob {
            mem: sram.name.clone(),
            addr: *coords.first().unwrap_or(&-1),
        })? as i64;
        let v = outs[w.value_slot];
        let stored = match w.mode {
            WriteMode::Overwrite => v,
            WriteMode::Accumulate(op) => {
                let old = self.sram_read_linear(w.sram, off)?;
                eval_binop(op, old, v)?
            }
        };
        self.stats.sram_writes += 1;
        self.sram_write_linear(w.sram, off, stored)
    }

    fn exec_inner(
        &mut self,
        name: &str,
        dims: &[(usize, i64, i64, i64)],
        op: &InnerOp,
    ) -> Result<(), RunError> {
        match op {
            InnerOp::Map(m) => self.exec_map(dims, m),
            InnerOp::Fold(f) => self.exec_fold(name, dims, f),
            InnerOp::Filter(f) => self.exec_filter(name, dims, f),
            InnerOp::RegWrite(rw) => self.exec_regwrite(dims, rw),
            InnerOp::LoadTile(t) => self.exec_tuplewise(dims, &mut |m| m.load_tile(t)),
            InnerOp::StoreTile(t) => self.exec_tuplewise(dims, &mut |m| m.store_tile(t)),
            InnerOp::Gather(g) => self.exec_tuplewise(dims, &mut |m| m.gather(g)),
            InnerOp::Scatter(s) => self.exec_tuplewise(dims, &mut |m| m.scatter(s)),
        }
    }

    fn exec_tuplewise(
        &mut self,
        dims: &[(usize, i64, i64, i64)],
        act: &mut dyn FnMut(&mut Self) -> Result<(), RunError>,
    ) -> Result<(), RunError> {
        self.iterate(dims, 0, act)
    }

    fn exec_map(&mut self, dims: &[(usize, i64, i64, i64)], m: &MapPipe) -> Result<(), RunError> {
        self.iterate(dims, 0, &mut |s| {
            s.stats.body_invocations += 1;
            s.cur_work.trips += 1;
            let outs = s.eval(m.body, &[])?;
            for w in &m.writes {
                s.apply_write(w, &outs)?;
            }
            Ok(())
        })
    }

    fn exec_fold(
        &mut self,
        name: &str,
        dims: &[(usize, i64, i64, i64)],
        f: &FoldPipe,
    ) -> Result<(), RunError> {
        let n = f.combine.len();
        let mut acc: Vec<Elem> = Vec::with_capacity(n);
        for (slot, init) in f.init.iter().enumerate() {
            match init {
                FoldInit::Const(v) => acc.push(*v),
                FoldInit::Resume => {
                    let reg = f.out_regs[slot].ok_or_else(|| RunError::ResumeWithoutReg {
                        ctrl: name.to_string(),
                    })?;
                    acc.push(self.regs[reg.0 as usize]);
                }
            }
        }
        self.iterate(dims, 0, &mut |s| {
            s.stats.body_invocations += 1;
            s.cur_work.trips += 1;
            let outs = s.eval(f.map, &[])?;
            for slot in 0..n {
                acc[slot] = eval_binop(f.combine[slot], acc[slot], outs[slot])?;
            }
            Ok(())
        })?;
        for (slot, reg) in f.out_regs.iter().enumerate() {
            if let Some(r) = reg {
                self.regs[r.0 as usize] = acc[slot];
            }
        }
        for w in &f.writes {
            self.apply_write(w, &acc)?;
        }
        Ok(())
    }

    fn exec_filter(
        &mut self,
        name: &str,
        dims: &[(usize, i64, i64, i64)],
        f: &FilterPipe,
    ) -> Result<(), RunError> {
        let k = self.prog.func(f.body).outputs().len() - 1;
        let cap = self.prog.sram(f.out).capacity();
        let mut count: i64 = 0;
        self.iterate(dims, 0, &mut |s| {
            s.stats.body_invocations += 1;
            s.cur_work.trips += 1;
            let outs = s.eval(f.body, &[])?;
            if outs[k].is_truthy() {
                if (count as usize + 1) * k > cap {
                    return Err(RunError::FilterOverflow {
                        ctrl: name.to_string(),
                    });
                }
                for (j, &v) in outs[..k].iter().enumerate() {
                    s.stats.sram_writes += 1;
                    s.sram_write_linear(f.out, count * k as i64 + j as i64, v)?;
                }
                count += 1;
            }
            Ok(())
        })?;
        self.cur_work.emitted = count as u64;
        self.regs[f.count_reg.0 as usize] = Elem::I32(count as i32);
        Ok(())
    }

    fn exec_regwrite(
        &mut self,
        dims: &[(usize, i64, i64, i64)],
        rw: &RegWrite,
    ) -> Result<(), RunError> {
        self.iterate(dims, 0, &mut |s| {
            s.cur_work.trips += 1;
            let v = s.eval_scalar(rw.func)?;
            s.regs[rw.reg.0 as usize] = v;
            Ok(())
        })
    }

    fn load_tile(&mut self, t: &TileTransfer) -> Result<(), RunError> {
        let base = self.eval_scalar(t.dram_base)?.as_i32()? as i64;
        for r in 0..t.rows {
            self.cur_work.dram.push(DramRange {
                dram: t.dram,
                offset: base + (r * t.dram_row_stride) as i64,
                len: t.cols as u32,
                is_write: false,
            });
            self.cur_work.trips += t.cols as u64;
            for c in 0..t.cols {
                let v = self.dram_read(t.dram, base + (r * t.dram_row_stride + c) as i64)?;
                self.stats.dram_reads += 1;
                self.sram_write_linear(t.sram, (r * t.cols + c) as i64, v)?;
            }
        }
        Ok(())
    }

    fn store_tile(&mut self, t: &TileTransfer) -> Result<(), RunError> {
        let base = self.eval_scalar(t.dram_base)?.as_i32()? as i64;
        for r in 0..t.rows {
            self.cur_work.dram.push(DramRange {
                dram: t.dram,
                offset: base + (r * t.dram_row_stride) as i64,
                len: t.cols as u32,
                is_write: true,
            });
            self.cur_work.trips += t.cols as u64;
            for c in 0..t.cols {
                let v = self.sram_read_linear(t.sram, (r * t.cols + c) as i64)?;
                self.stats.dram_writes += 1;
                self.dram_write(t.dram, base + (r * t.dram_row_stride + c) as i64, v)?;
            }
        }
        Ok(())
    }

    fn gather(&mut self, g: &GatherOp) -> Result<(), RunError> {
        let base = self.eval_scalar(g.base)?.as_i32()? as i64;
        let len = self.resolve_bound(g.len)?;
        let ib = self.resolve_bound(g.idx_base)?;
        for i in 0..len {
            let idx = self.sram_read_linear(g.indices, ib + i)?.as_i32()? as i64;
            self.cur_work.dram.push(DramRange {
                dram: g.dram,
                offset: base + idx,
                len: 1,
                is_write: false,
            });
            self.cur_work.trips += 1;
            let v = self.dram_read(g.dram, base + idx)?;
            self.stats.dram_reads += 1;
            self.sram_write_linear(g.dst, i, v)?;
        }
        Ok(())
    }

    fn scatter(&mut self, s: &ScatterOp) -> Result<(), RunError> {
        let base = self.eval_scalar(s.base)?.as_i32()? as i64;
        let len = self.resolve_bound(s.len)?;
        let ib = self.resolve_bound(s.idx_base)?;
        for i in 0..len {
            let idx = self.sram_read_linear(s.indices, ib + i)?.as_i32()? as i64;
            self.cur_work.dram.push(DramRange {
                dram: s.dram,
                offset: base + idx,
                len: 1,
                is_write: true,
            });
            self.cur_work.trips += 1;
            let v = self.sram_read_linear(s.src, i)?;
            self.stats.dram_writes += 1;
            self.dram_write(s.dram, base + idx, v)?;
        }
        Ok(())
    }
}

mod tests {
    use super::*;
    use crate::ctrl::Schedule;
    use crate::expr::{BinOp, ExprId, IndexId, ParamId, UnaryOp};
    use crate::interp::Machine;
    use crate::program::ProgramBuilder;
    use crate::trace::{TraceNode, TraceRecorder};
    use crate::types::DType;
    use proptest::prelude::*;

    /// Every structural event, in arrival order.
    #[derive(Debug, Clone, PartialEq)]
    enum Event {
        Enter(CtrlId),
        Iter(CtrlId),
        Exit(CtrlId),
        Leaf(CtrlId, LeafWork),
    }

    #[derive(Default)]
    struct Log(Vec<Event>);

    impl TraceSink for Log {
        fn outer_enter(&mut self, c: CtrlId) {
            self.0.push(Event::Enter(c));
        }
        fn outer_iter(&mut self, c: CtrlId) {
            self.0.push(Event::Iter(c));
        }
        fn outer_exit(&mut self, c: CtrlId) {
            self.0.push(Event::Exit(c));
        }
        fn leaf(&mut self, c: CtrlId, w: LeafWork) {
            self.0.push(Event::Leaf(c, w));
        }
    }

    /// Replays a complete event log into the recorded trace tree.
    fn tree(events: &[Event]) -> TraceNode {
        let mut r = TraceRecorder::new();
        for e in events.iter().cloned() {
            match e {
                Event::Enter(c) => r.outer_enter(c),
                Event::Iter(c) => r.outer_iter(c),
                Event::Exit(c) => r.outer_exit(c),
                Event::Leaf(c, w) => r.leaf(c, w),
            }
        }
        r.into_trace()
    }

    const BINOPS: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
    ];
    const ASSOC: [BinOp; 7] = [
        BinOp::Add,
        BinOp::Mul,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
    ];
    const UNOPS: [UnaryOp; 9] = [
        UnaryOp::Neg,
        UnaryOp::Not,
        UnaryOp::Abs,
        UnaryOp::Exp,
        UnaryOp::Ln,
        UnaryOp::Sqrt,
        UnaryOp::Recip,
        UnaryOp::I2F,
        UnaryOp::F2I,
    ];
    /// Scratchpad shapes: 1-D, 2-D and 3-D, both types. The last one is
    /// small so filters overflow it.
    const SRAMS: [(DType, &[usize]); 6] = [
        (DType::I32, &[8]),
        (DType::F32, &[8]),
        (DType::F32, &[3, 4]),
        (DType::I32, &[2, 3]),
        (DType::I32, &[2, 2, 3]),
        (DType::I32, &[3]),
    ];
    const DRAM_LEN: usize = 24;

    /// Random valid programs over a fixed set of memories: every pattern
    /// kind, nested outer controllers, register and parameter bounds,
    /// resumed folds, accumulate writes, multi-dimensional and
    /// float-addressed loads. Types are mostly consistent, so most runs
    /// finish and the rest stop at a typed error.
    struct Gen<'r> {
        rng: &'r mut TestRng,
        b: ProgramBuilder,
        srams: Vec<SramId>,
        drams: Vec<DramId>,
        regs: Vec<RegId>,
        params: Vec<ParamId>,
        depth: usize,
    }

    impl Gen<'_> {
        fn below(&mut self, n: usize) -> usize {
            self.rng.below(n as u64) as usize
        }

        /// True with probability `pct` percent.
        fn pct(&mut self, pct: usize) -> bool {
            self.below(100) < pct
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }

        fn elem(&mut self, dtype: DType) -> Elem {
            match dtype {
                DType::I32 => Elem::I32(self.below(12) as i32 - 2),
                DType::F32 => Elem::F32((self.below(64) as f32 - 16.0) / 4.0),
            }
        }

        fn any_elem(&mut self) -> Elem {
            let t = if self.pct(50) { DType::I32 } else { DType::F32 };
            self.elem(t)
        }

        fn sram_dtype(&self, s: SramId) -> DType {
            SRAMS[s.0 as usize].0
        }

        fn dims(&self, s: SramId) -> &'static [usize] {
            SRAMS[s.0 as usize].1
        }

        /// A node of type `want` if there is one (usually), else any node.
        fn operand(&mut self, f: &mut Func, types: &mut Vec<DType>, want: DType) -> ExprId {
            let same: Vec<usize> = (0..types.len()).filter(|&i| types[i] == want).collect();
            if !same.is_empty() && self.pct(92) {
                return ExprId(self.pick(&same) as u32);
            }
            if types.is_empty() || self.pct(50) {
                let e = self.elem(want);
                types.push(want);
                return f.konst(e);
            }
            ExprId(self.below(types.len()) as u32)
        }

        fn node(&mut self, f: &mut Func, types: &mut Vec<DType>, scope: &[IndexId]) {
            let t = if self.pct(50) { DType::I32 } else { DType::F32 };
            let (id, ty) = match self.below(9) {
                0 => {
                    let e = self.any_elem();
                    (f.konst(e), e.dtype())
                }
                1 | 2 if !scope.is_empty() => {
                    let i = self.pick(scope);
                    (f.index(i), DType::I32)
                }
                1 => (f.konst(Elem::I32(1)), DType::I32),
                2 => {
                    let p = self.pick(&self.params.clone());
                    (f.param(p), [DType::I32, DType::F32][p.0 as usize])
                }
                3 => {
                    let r = self.pick(&self.regs.clone());
                    (
                        f.read_reg(r),
                        [DType::I32, DType::I32, DType::F32][r.0 as usize],
                    )
                }
                4 | 5 => {
                    let s = self.pick(&self.srams.clone());
                    let mut addr = Vec::new();
                    for _ in self.dims(s) {
                        // A scope index is the usual in-bounds coordinate;
                        // any integer node may stray out of bounds and,
                        // rarely, a float coordinate is a type error.
                        let c = if !scope.is_empty() && self.pct(60) {
                            let i = self.pick(scope);
                            types.push(DType::I32);
                            f.index(i)
                        } else if self.pct(4) {
                            self.operand(f, types, DType::F32)
                        } else {
                            self.operand(f, types, DType::I32)
                        };
                        addr.push(c);
                    }
                    (f.load(s, addr), self.sram_dtype(s))
                }
                6 => {
                    let op = self.pick(&UNOPS);
                    let want = if op.is_float_only() || self.pct(50) {
                        DType::F32
                    } else {
                        DType::I32
                    };
                    let a = self.operand(f, types, want);
                    let ty = match op {
                        UnaryOp::I2F => DType::F32,
                        UnaryOp::F2I | UnaryOp::Not => DType::I32,
                        _ => want,
                    };
                    (f.unary(op, a), ty)
                }
                7 => {
                    let op = self.pick(&BINOPS);
                    let t = if op.is_integer_only() { DType::I32 } else { t };
                    let a = self.operand(f, types, t);
                    let b = self.operand(f, types, t);
                    let ty = if op.is_comparison() { DType::I32 } else { t };
                    (f.binary(op, a, b), ty)
                }
                _ => {
                    let c = self.operand(f, types, DType::I32);
                    let a = self.operand(f, types, t);
                    let e = self.operand(f, types, t);
                    (f.mux(c, a, e), t)
                }
            };
            debug_assert_eq!(id.0 as usize, types.len());
            types.push(ty);
        }

        /// A function of `outs.len()` outputs; output `k` is of type
        /// `outs[k]` when given (usually honoured).
        fn func(&mut self, scope: &[IndexId], outs: &[Option<DType>]) -> FuncId {
            let mut f = Func::new("f");
            let mut types = Vec::new();
            for _ in 0..1 + self.below(6) {
                self.node(&mut f, &mut types, scope);
            }
            let outputs = outs
                .iter()
                .map(|want| match want {
                    Some(t) => self.operand(&mut f, &mut types, *t),
                    None => ExprId(self.below(types.len()) as u32),
                })
                .collect();
            f.set_outputs(outputs);
            self.b.func(f)
        }

        /// An address function for `s`: one integer coordinate per dim.
        fn addr(&mut self, scope: &[IndexId], s: SramId) -> FuncId {
            let outs = vec![Some(DType::I32); self.dims(s).len()];
            self.func(scope, &outs)
        }

        fn bound(&mut self, hi: usize) -> CBound {
            match self.below(10) {
                0 => CBound::Reg(self.pick(&self.regs.clone())),
                1 => CBound::Param(self.pick(&self.params.clone())),
                _ => CBound::Const(self.below(hi) as i64),
            }
        }

        fn cchain(&mut self, max_len: usize) -> Vec<Counter> {
            (0..self.below(max_len + 1))
                .map(|_| {
                    let min = if self.pct(80) {
                        CBound::Const(self.below(2) as i64)
                    } else {
                        self.bound(3)
                    };
                    let max = self.bound(5);
                    let stride = 1 + self.below(2) as i64;
                    let par = 1 + self.below(3);
                    self.b.counter(min, max, stride, par)
                })
                .collect()
        }

        fn write(&mut self, scope: &[IndexId], n_slots: usize, body: Option<FuncId>) -> PipeWrite {
            let sram = self.pick(&self.srams.clone());
            let addr = match body {
                // The body doubles as the address function.
                Some(f) if self.dims(sram).len() == n_slots && self.pct(30) => f,
                _ => self.addr(scope, sram),
            };
            let mode = if self.pct(30) {
                WriteMode::Accumulate(self.pick(&BINOPS))
            } else {
                WriteMode::Overwrite
            };
            PipeWrite {
                sram,
                addr,
                value_slot: self.below(n_slots),
                mode,
            }
        }

        fn ctrl(&mut self, scope: &[IndexId]) -> CtrlId {
            if self.depth < 2 && self.pct(25) {
                return self.outer(scope);
            }
            let cchain = self.cchain(2);
            let own: Vec<IndexId> = cchain.iter().map(|c| c.index).collect();
            let inner_scope: Vec<IndexId> = scope.iter().chain(&own).copied().collect();
            let op = match self.below(8) {
                0 | 1 => {
                    let n = 1 + self.below(3);
                    let body = self.func(&inner_scope, &vec![None; n]);
                    let writes = (0..self.below(3))
                        .map(|_| self.write(&inner_scope, n, Some(body)))
                        .collect();
                    InnerOp::Map(MapPipe { body, writes })
                }
                2 | 3 => {
                    let combine: Vec<BinOp> =
                        (0..1 + self.below(2)).map(|_| self.pick(&ASSOC)).collect();
                    let n = combine.len();
                    let map = self.func(&inner_scope, &vec![None; n]);
                    let init = (0..n)
                        .map(|_| {
                            if self.pct(30) {
                                FoldInit::Resume
                            } else {
                                FoldInit::Const(self.any_elem())
                            }
                        })
                        .collect();
                    let out_regs = (0..n)
                        .map(|_| self.pct(85).then(|| self.pick(&self.regs.clone())))
                        .collect();
                    let writes = (0..self.below(2))
                        .map(|_| self.write(scope, n, None))
                        .collect();
                    InnerOp::Fold(FoldPipe {
                        map,
                        combine,
                        init,
                        out_regs,
                        writes,
                    })
                }
                4 => {
                    let k = 1 + self.below(2);
                    let mut outs = vec![None; k];
                    outs.push(Some(DType::I32));
                    // The last scratchpad is the small one filters overflow.
                    let out = if self.pct(50) {
                        self.srams[SRAMS.len() - 1]
                    } else {
                        self.pick(&self.srams.clone())
                    };
                    InnerOp::Filter(FilterPipe {
                        body: self.func(&inner_scope, &outs),
                        out,
                        count_reg: self.pick(&self.regs.clone()),
                    })
                }
                5 => InnerOp::RegWrite(RegWrite {
                    reg: self.pick(&self.regs.clone()),
                    func: self.func(&inner_scope, &[None]),
                }),
                6 => {
                    let sram = self.pick(&self.srams.clone());
                    let cap: usize = self.dims(sram).iter().product();
                    let rows = 1 + self.below(2.min(cap));
                    let cols = 1 + self.below(cap / rows);
                    let t = TileTransfer {
                        dram: self.pick(&self.drams.clone()),
                        dram_base: self.func(scope, &[Some(DType::I32)]),
                        rows,
                        cols,
                        dram_row_stride: cols + self.below(4),
                        sram,
                    };
                    if self.pct(50) {
                        InnerOp::LoadTile(t)
                    } else {
                        InnerOp::StoreTile(t)
                    }
                }
                _ => {
                    let dram = self.pick(&self.drams.clone());
                    let base = self.func(scope, &[Some(DType::I32)]);
                    let indices = self.pick(&self.srams.clone());
                    let idx_base = self.bound(3);
                    let other = self.pick(&self.srams.clone());
                    let len = self.bound(6);
                    if self.pct(50) {
                        InnerOp::Gather(GatherOp {
                            dram,
                            base,
                            indices,
                            idx_base,
                            dst: other,
                            len,
                        })
                    } else {
                        InnerOp::Scatter(ScatterOp {
                            dram,
                            base,
                            indices,
                            idx_base,
                            src: other,
                            len,
                        })
                    }
                }
            };
            self.b.inner("leaf", cchain, op)
        }

        fn outer(&mut self, scope: &[IndexId]) -> CtrlId {
            let cchain = self.cchain(2);
            let scope: Vec<IndexId> = scope
                .iter()
                .copied()
                .chain(cchain.iter().map(|c| c.index))
                .collect();
            self.depth += 1;
            let children = (0..1 + self.below(3)).map(|_| self.ctrl(&scope)).collect();
            self.depth -= 1;
            self.b
                .outer("outer", Schedule::Sequential, cchain, children)
        }
    }

    /// A random program and its initial memories.
    struct Case {
        prog: Program,
        drams: Vec<(DramId, Vec<Elem>)>,
        regs: Vec<(RegId, Elem)>,
        params: Vec<(ParamId, Elem)>,
    }

    fn gen_case(rng: &mut TestRng) -> Case {
        let mut b = ProgramBuilder::new("random");
        let drams = vec![
            b.dram("di", DType::I32, DRAM_LEN),
            b.dram("df", DType::F32, DRAM_LEN),
        ];
        let srams = SRAMS
            .iter()
            .enumerate()
            .map(|(i, (t, dims))| b.sram(&format!("s{i}"), *t, dims))
            .collect();
        let regs = vec![
            b.reg("r0", DType::I32),
            b.reg("r1", DType::I32),
            b.reg("rf", DType::F32),
        ];
        let params = vec![b.param("pi", DType::I32), b.param("pf", DType::F32)];
        let mut g = Gen {
            rng,
            b,
            srams,
            drams,
            regs,
            params,
            depth: 0,
        };
        let root = g.outer(&[]);
        let data = |g: &mut Gen, t: DType, n: usize| (0..n).map(|_| g.elem(t)).collect();
        let drams = vec![
            (g.drams[0], data(&mut g, DType::I32, DRAM_LEN)),
            (g.drams[1], data(&mut g, DType::F32, DRAM_LEN)),
        ];
        let regs = vec![
            (g.regs[0], g.elem(DType::I32)),
            (g.regs[1], g.elem(DType::I32)),
            (g.regs[2], g.elem(DType::F32)),
        ];
        let params = vec![
            (g.params[0], g.elem(DType::I32)),
            (g.params[1], g.elem(DType::F32)),
        ];
        let prog = g.b.finish(root).expect("generated programs validate");
        Case {
            prog,
            drams,
            regs,
            params,
        }
    }

    /// Everything a run can be observed by.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        result: Result<(), RunError>,
        events: Vec<Event>,
        drams: Vec<Vec<Elem>>,
        srams: Vec<Vec<Elem>>,
        regs: Vec<Elem>,
        stats: InterpStats,
    }

    /// Runs `case` twice on the lowered machine (the second run starts
    /// from the first one's memories) and returns both outcomes.
    fn run_lowered(case: &Case) -> Vec<Outcome> {
        let p = &case.prog;
        let mut m = Machine::new(p);
        for (id, d) in &case.drams {
            m.write_dram(*id, d);
        }
        for &(r, v) in &case.regs {
            m.set_reg(r, v);
        }
        for &(q, v) in &case.params {
            m.set_param(q, v);
        }
        (0..2)
            .map(|_| {
                let mut log = Log::default();
                let result = m.run_traced(&mut log);
                Outcome {
                    result,
                    events: log.0,
                    drams: (0..p.drams().len())
                        .map(|i| m.dram_data(DramId(i as u32)).to_vec())
                        .collect(),
                    srams: (0..p.srams().len())
                        .map(|i| m.sram_data(SramId(i as u32)).to_vec())
                        .collect(),
                    regs: (0..p.regs().len())
                        .map(|i| m.reg(RegId(i as u32)))
                        .collect(),
                    stats: m.stats,
                }
            })
            .collect()
    }

    fn run_tree_walk(case: &Case) -> Vec<Outcome> {
        let mut m = TreeWalk::new(&case.prog);
        for (id, d) in &case.drams {
            m.write_dram(*id, d);
        }
        for &(r, v) in &case.regs {
            m.set_reg(r, v);
        }
        for &(q, v) in &case.params {
            m.set_param(q, v);
        }
        (0..2)
            .map(|_| {
                let mut log = Log::default();
                let result = m.run_traced(&mut log);
                let (drams, srams, regs) = m.memories();
                Outcome {
                    result,
                    events: log.0,
                    drams: drams.to_vec(),
                    srams: srams.to_vec(),
                    regs: regs.to_vec(),
                    stats: m.stats,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn lowered_evaluator_matches_tree_walk(seed in any::<u64>()) {
            let case = gen_case(&mut TestRng::new(seed));
            let lowered = run_lowered(&case);
            let oracle = run_tree_walk(&case);
            for (run, (got, want)) in lowered.iter().zip(&oracle).enumerate() {
                prop_assert_eq!(got, want, "run {} of {:#?}", run, case.prog);
                if got.result.is_ok() {
                    prop_assert_eq!(tree(&got.events), tree(&want.events));
                }
            }
        }
    }

    /// A map whose second write uses the body itself as its address
    /// function, after the first write changed what the body loads: the
    /// address sees the new load, the value is still the body's output.
    #[test]
    fn body_reused_as_write_address_keeps_its_outputs() {
        let mut b = ProgramBuilder::new("alias");
        let d = b.dram("d", DType::I32, 8);
        let s = b.sram("s", DType::I32, &[8]);
        let t = b.sram("t", DType::I32, &[8]);
        let mut zero = Func::new("zero");
        let z = zero.konst(Elem::I32(0));
        zero.set_outputs(vec![z]);
        let zero = b.func(zero);
        let load = b.inner(
            "load",
            vec![],
            InnerOp::LoadTile(TileTransfer {
                dram: d,
                dram_base: zero,
                rows: 1,
                cols: 8,
                dram_row_stride: 8,
                sram: s,
            }),
        );
        let i = b.counter(0, 1, 1, 1);
        let mut body = Func::new("body");
        let iv = body.index(i.index);
        let x = body.load(s, vec![iv]);
        body.set_outputs(vec![x]);
        let body = b.func(body);
        let mut at = Func::new("at");
        let iv = at.index(i.index);
        at.set_outputs(vec![iv]);
        let at = b.func(at);
        let map = b.inner(
            "map",
            vec![i],
            InnerOp::Map(MapPipe {
                body,
                writes: vec![
                    // s[0] += s[0]
                    PipeWrite {
                        sram: s,
                        addr: at,
                        value_slot: 0,
                        mode: WriteMode::Accumulate(BinOp::Add),
                    },
                    // t[s[0]] = the body's s[0], read before the first write
                    PipeWrite {
                        sram: t,
                        addr: body,
                        value_slot: 0,
                        mode: WriteMode::Overwrite,
                    },
                ],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![load, map]);
        let case = Case {
            prog: b.finish(root).unwrap(),
            drams: vec![(d, (1..=8).map(Elem::I32).collect())],
            regs: vec![],
            params: vec![],
        };
        let lowered = run_lowered(&case);
        assert_eq!(lowered, run_tree_walk(&case));
        assert_eq!(lowered[0].srams[t.0 as usize][2], Elem::I32(1));
    }

    /// The generator reaches every error class and plenty of clean runs,
    /// so the differential property is not vacuous.
    #[test]
    fn generated_programs_cover_every_outcome() {
        let mut seen = std::collections::BTreeMap::new();
        let mut rng = TestRng::new(0x0AC1E);
        for _ in 0..1000 {
            let case = gen_case(&mut rng);
            let kind = match &run_lowered(&case)[0].result {
                Ok(()) => "ok",
                Err(RunError::Type(_)) => "type",
                Err(RunError::SramOob { .. }) => "sram_oob",
                Err(RunError::DramOob { .. }) => "dram_oob",
                Err(RunError::ResumeWithoutReg { .. }) => "resume",
                Err(RunError::FilterOverflow { .. }) => "filter",
                Err(RunError::BadBound { .. }) => "bad_bound",
            };
            *seen.entry(kind).or_insert(0usize) += 1;
        }
        for kind in ["ok", "type", "sram_oob", "dram_oob", "resume", "filter"] {
            assert!(
                seen.get(kind).copied().unwrap_or(0) >= 5,
                "{kind}: {seen:?}"
            );
        }
        assert!(seen["ok"] >= 200, "{seen:?}");
    }
}
