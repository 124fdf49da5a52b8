//! Host reference interpreter for parallel-pattern programs.
//!
//! The interpreter executes a [`Program`] with *sequential* semantics:
//! controllers run depth-first in program order, ignoring schedules and
//! parallelization factors. Because the programming model guarantees that
//! schedules and `par` factors only affect performance (the compiler
//! inserts N-buffering to preserve values), the interpreter's final memory
//! state is the golden reference against which the cycle-accurate simulator
//! is checked, element for element.
//!
//! # Lowered bodies
//!
//! A PCU runs a pattern body that was configured once into fixed pipeline
//! stages (§3.1 of the paper); the interpreter does the same on the host.
//! [`Machine::new`] lowers every [`Func`](crate::Func) once into a flat
//! list of ops whose operands are slot numbers within the function.
//! Scratchpad loads carry their dimensions, so an address flattens without
//! building a coordinate list, and a load addressed only by loop indices
//! reads the indices directly. Loop indices and constants that nothing
//! reads any more are dropped; every node that can fail still runs, in
//! order, so errors are the tree walk's.
//!
//! Every function owns a fixed region of one value arena per machine; a
//! body call writes its nodes into that region by index and its consumers
//! read the outputs in place. Write-address functions evaluate into a
//! shared scratch region instead, so a pipe body keeps its outputs while
//! its writes compute their addresses, and fold accumulators live in a
//! third region. Controllers are borrowed from the program and counter
//! chains resolve onto a reused stack, so neither a body call nor a
//! controller call allocates.
//!
//! Lowering lives in the machine, not in [`Program`]: the program's
//! [`stable_hash`](Program::stable_hash) is FNV over its `Debug` output and
//! keys compile caches, artifacts and checkpoints, so the program's fields
//! must not change.

use crate::ctrl::{
    CBound, Counter, CtrlBody, CtrlId, FilterPipe, FoldInit, FoldPipe, GatherOp, InnerOp, MapPipe,
    PipeWrite, RegWrite, ScatterOp, TileTransfer, WriteMode,
};
use crate::expr::{
    eval_binop, eval_unop, BinOp, DramId, Expr, ExprId, FuncId, RegId, SramId, UnaryOp,
};
use crate::program::Program;
use crate::trace::{DramRange, LeafWork, NullSink, TraceSink};
use crate::types::{Elem, TypeError};
use std::fmt;
use std::sync::Arc;

/// Runtime error raised by the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A word of the wrong type reached an operation.
    Type(TypeError),
    /// Scratchpad access out of bounds.
    SramOob {
        /// Scratchpad name.
        mem: String,
        /// Offending linear or per-dim coordinate.
        addr: i64,
    },
    /// DRAM access out of bounds.
    DramOob {
        /// Buffer name.
        mem: String,
        /// Offending element offset.
        addr: i64,
    },
    /// A `FoldInit::Resume` slot has no output register to resume from.
    ResumeWithoutReg {
        /// Controller name.
        ctrl: String,
    },
    /// A filter emitted more groups than its output scratchpad holds.
    FilterOverflow {
        /// Controller name.
        ctrl: String,
    },
    /// A counter bound resolved to a negative trip count configuration.
    BadBound {
        /// Controller name.
        ctrl: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Type(e) => write!(f, "{e}"),
            RunError::SramOob { mem, addr } => {
                write!(f, "scratchpad `{mem}` access out of bounds at {addr}")
            }
            RunError::DramOob { mem, addr } => {
                write!(f, "dram `{mem}` access out of bounds at {addr}")
            }
            RunError::ResumeWithoutReg { ctrl } => {
                write!(f, "fold `{ctrl}` resumes a slot with no output register")
            }
            RunError::FilterOverflow { ctrl } => {
                write!(f, "filter `{ctrl}` overflowed its output scratchpad")
            }
            RunError::BadBound { ctrl } => {
                write!(f, "controller `{ctrl}` has an invalid runtime bound")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<TypeError> for RunError {
    fn from(e: TypeError) -> RunError {
        RunError::Type(e)
    }
}

/// Counters accumulated during interpretation, used for sanity cross-checks
/// against the simulator's activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Pattern-body evaluations (one per index tuple of each compute pipe).
    pub body_invocations: u64,
    /// Words read from DRAM (dense + sparse).
    pub dram_reads: u64,
    /// Words written to DRAM (dense + sparse).
    pub dram_writes: u64,
    /// Words written to scratchpads by compute pipes.
    pub sram_writes: u64,
}

/// One lowered expression node. Operands are slots within the function's
/// arena region; a node's own slot is its [`ExprId`](crate::ExprId).
#[derive(Debug, Clone, Copy)]
enum Op {
    Const(Elem),
    Index(u32),
    Param(u32),
    Reg(u32),
    Arg(u8),
    /// `mem[a]` on a one-dimensional scratchpad of `d0` words.
    Load1 {
        mem: u32,
        a: u32,
        d0: u32,
    },
    /// `mem[a][b]` on a `d0 × d1` scratchpad.
    Load2 {
        mem: u32,
        a: u32,
        b: u32,
        d0: u32,
        d1: u32,
    },
    /// [`Op::Load1`] addressed directly by loop index `i`.
    Load1I {
        mem: u32,
        i: u32,
        d0: u32,
    },
    /// [`Op::Load2`] addressed directly by loop indices `i` and `j`.
    Load2I {
        mem: u32,
        i: u32,
        j: u32,
        d0: u32,
        d1: u32,
    },
    /// Any other load: `n` coordinate slots starting at `addr` in
    /// [`Code::coords`].
    LoadN {
        mem: u32,
        addr: u32,
        n: u32,
    },
    Unary(UnaryOp, u32),
    Binary(BinOp, u32, u32),
    Mux(u32, u32, u32),
}

impl Op {
    /// Whether the op only reads machine state: it cannot fail, so it may
    /// be dropped when nothing reads its slot.
    fn is_source(&self) -> bool {
        matches!(
            self,
            Op::Const(_) | Op::Index(_) | Op::Param(_) | Op::Reg(_)
        )
    }

    /// Calls `f` on every slot the op reads.
    fn operands(&self, coords: &[u32], mut f: impl FnMut(u32)) {
        match *self {
            Op::Load1 { a, .. } | Op::Unary(_, a) => f(a),
            Op::Load2 { a, b, .. } | Op::Binary(_, a, b) => {
                f(a);
                f(b);
            }
            Op::Mux(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            Op::LoadN { addr, n, .. } => coords[addr as usize..][..n as usize]
                .iter()
                .for_each(|&s| f(s)),
            _ => {}
        }
    }
}

/// A lowered op and the slot it writes.
#[derive(Debug, Clone, Copy)]
struct Step {
    dst: u32,
    op: Op,
}

/// A lowered [`Func`](crate::Func): where its steps and outputs sit in
/// [`Code`], and the arena offset of its own value region.
#[derive(Debug, Clone, Copy)]
struct LFunc {
    steps: u32,
    len: u32,
    outs: u32,
    n_outs: u32,
    base: u32,
}

/// Every function of a program, lowered once by [`Machine::new`].
#[derive(Debug)]
struct Code {
    /// Indexed by [`FuncId`].
    funcs: Vec<LFunc>,
    steps: Vec<Step>,
    /// Output slots of every function, relative to its region.
    outs: Vec<u32>,
    /// Coordinate slots of [`Op::LoadN`] loads.
    coords: Vec<u32>,
    /// Arena offset of the region write-address functions evaluate into.
    scratch: usize,
    /// Arena offset of the fold accumulators.
    acc: usize,
    /// Arena size.
    arena: usize,
}

impl Code {
    fn lower(prog: &Program) -> Code {
        let mut code = Code {
            funcs: Vec::with_capacity(prog.funcs().len()),
            steps: Vec::new(),
            outs: Vec::new(),
            coords: Vec::new(),
            scratch: 0,
            acc: 0,
            arena: 0,
        };
        let (mut base, mut widest) = (0, 0);
        for f in prog.funcs() {
            let nodes = f.nodes();
            let ops: Vec<Op> = nodes
                .iter()
                .map(|e| lower_expr(prog, nodes, e, &mut code.coords))
                .collect();
            // Nodes run in order, so every node that can fail still fails
            // first; only unread sources (loop indices folded into loads,
            // unused constants) are dropped.
            let mut read = vec![false; nodes.len()];
            for o in f.outputs() {
                read[o.0 as usize] = true;
            }
            for op in &ops {
                op.operands(&code.coords, |s| read[s as usize] = true);
            }
            let start = code.steps.len();
            code.steps.extend(
                ops.into_iter()
                    .enumerate()
                    .filter(|(i, op)| read[*i] || !op.is_source())
                    .map(|(i, op)| Step { dst: i as u32, op }),
            );
            code.funcs.push(LFunc {
                steps: start as u32,
                len: (code.steps.len() - start) as u32,
                outs: code.outs.len() as u32,
                n_outs: f.outputs().len() as u32,
                base: base as u32,
            });
            code.outs.extend(f.outputs().iter().map(|o| o.0));
            base += nodes.len();
            widest = widest.max(nodes.len());
        }
        let slots = prog
            .ctrls()
            .iter()
            .map(|c| match &c.body {
                CtrlBody::Inner(InnerOp::Fold(f)) => f.init.len().max(f.combine.len()),
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        code.scratch = base;
        code.acc = base + widest;
        code.arena = code.acc + slots;
        code
    }

    /// Output `k` of `f`, as a slot relative to the region `f` ran in.
    fn out(&self, f: &LFunc, k: usize) -> usize {
        debug_assert!(k < f.n_outs as usize);
        self.outs[f.outs as usize + k] as usize
    }

    /// All output slots of `f`, relative to its region.
    fn outs(&self, f: &LFunc) -> &[u32] {
        &self.outs[f.outs as usize..][..f.n_outs as usize]
    }
}

fn lower_expr(prog: &Program, nodes: &[Expr], e: &Expr, coords: &mut Vec<u32>) -> Op {
    match e {
        Expr::Const(c) => Op::Const(*c),
        Expr::Index(i) => Op::Index(i.0),
        Expr::Param(p) => Op::Param(p.0),
        Expr::ReadReg(r) => Op::Reg(r.0),
        Expr::Arg(n) => Op::Arg(*n),
        Expr::Load { mem, addr } => {
            let dims: &[usize] = prog
                .srams()
                .get(mem.0 as usize)
                .map_or(&[], |s| s.dims.as_slice());
            let dims: Option<Vec<u32>> = dims.iter().map(|&d| u32::try_from(d).ok()).collect();
            // A loop index is always an integer, so a load addressed only
            // by indices reads them directly.
            let index = |a: ExprId| match nodes[a.0 as usize] {
                Expr::Index(i) => Some(i.0),
                _ => None,
            };
            let mem = mem.0;
            match (addr.as_slice(), dims.as_deref()) {
                (&[a], Some(&[d0])) => match index(a) {
                    Some(i) => Op::Load1I { mem, i, d0 },
                    None => Op::Load1 { mem, a: a.0, d0 },
                },
                (&[a, b], Some(&[d0, d1])) => match (index(a), index(b)) {
                    (Some(i), Some(j)) => Op::Load2I { mem, i, j, d0, d1 },
                    _ => Op::Load2 {
                        mem,
                        a: a.0,
                        b: b.0,
                        d0,
                        d1,
                    },
                },
                _ => {
                    let at = coords.len() as u32;
                    coords.extend(addr.iter().map(|a| a.0));
                    Op::LoadN {
                        mem,
                        addr: at,
                        n: addr.len() as u32,
                    }
                }
            }
        }
        Expr::Unary(op, a) => Op::Unary(*op, a.0),
        Expr::Binary(op, a, b) => Op::Binary(*op, a.0, b.0),
        Expr::Mux(c, t, f) => Op::Mux(c.0, t.0, f.0),
    }
}

/// [`eval_binop`] with the arithmetic of the hot pattern bodies (the
/// multiply-accumulate chains of GEMM, the dot products of the ML kernels)
/// inlined; every other case, errors included, goes through `eval_binop`.
#[inline(always)]
fn binop(op: BinOp, a: Elem, b: Elem) -> Result<Elem, TypeError> {
    Ok(match (op, a, b) {
        (BinOp::Add, Elem::F32(x), Elem::F32(y)) => Elem::F32(x + y),
        (BinOp::Sub, Elem::F32(x), Elem::F32(y)) => Elem::F32(x - y),
        (BinOp::Mul, Elem::F32(x), Elem::F32(y)) => Elem::F32(x * y),
        (BinOp::Add, Elem::I32(x), Elem::I32(y)) => Elem::I32(x.wrapping_add(y)),
        (BinOp::Sub, Elem::I32(x), Elem::I32(y)) => Elem::I32(x.wrapping_sub(y)),
        (BinOp::Mul, Elem::I32(x), Elem::I32(y)) => Elem::I32(x.wrapping_mul(y)),
        _ => eval_binop(op, a, b)?,
    })
}

fn sram_oob(prog: &Program, mem: SramId, addr: i64) -> RunError {
    RunError::SramOob {
        mem: prog.sram(mem).name.clone(),
        addr,
    }
}

/// Flattens the coordinates held in `slots` of `vals` to a linear offset
/// into `mem`. Every coordinate is type-checked before any bound, and an
/// out-of-bounds or wrong-arity address reports its first coordinate (-1
/// when there is none), as the tree walk always has.
fn flatten(
    prog: &Program,
    mem: SramId,
    vals: &[Elem],
    slots: impl ExactSizeIterator<Item = usize> + Clone,
) -> Result<usize, RunError> {
    let mut first = -1;
    for (k, s) in slots.clone().enumerate() {
        let c = vals[s].as_i32()? as i64;
        if k == 0 {
            first = c;
        }
    }
    let coords = slots.map(|s| match vals[s] {
        Elem::I32(c) => c as i64,
        Elem::F32(_) => unreachable!("coordinates were type-checked above"),
    });
    prog.sram(mem)
        .flatten_iter(coords)
        .ok_or_else(|| sram_oob(prog, mem, first))
}

/// One resolved counter: `index` runs from `min` while below `max`.
#[derive(Debug, Clone, Copy)]
struct Dim {
    index: usize,
    min: i64,
    max: i64,
    stride: i64,
}

/// A controller's resolved counter chain: `dims[start..end]` of the
/// machine's dim stack.
#[derive(Debug, Clone, Copy)]
struct Chain {
    start: usize,
    end: usize,
}

/// Interpreter state: one program, its lowered functions, and its memories.
#[derive(Debug, Clone)]
pub struct Machine<'p> {
    prog: &'p Program,
    /// Shared so a run can hold the code while it mutates the machine.
    code: Arc<Code>,
    drams: Vec<Vec<Elem>>,
    srams: Vec<Vec<Elem>>,
    regs: Vec<Elem>,
    params: Vec<Elem>,
    indices: Vec<i64>,
    /// The value arena: one region per function, then the write-address
    /// scratch region, then the fold accumulators.
    vals: Vec<Elem>,
    /// Resolved counter chains of the controllers being executed,
    /// innermost last.
    dims: Vec<Dim>,
    cur_work: LeafWork,
    /// Accumulated statistics.
    pub stats: InterpStats,
}

impl<'p> Machine<'p> {
    /// Creates a machine with zero-initialized memories for `prog`, and
    /// lowers every function of `prog` once (see the module docs).
    pub fn new(prog: &'p Program) -> Machine<'p> {
        let code = Code::lower(prog);
        Machine {
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
            vals: vec![Elem::I32(0); code.arena],
            dims: Vec::new(),
            code: Arc::new(code),
            cur_work: LeafWork::default(),
            stats: InterpStats::default(),
        }
    }

    /// Copies host data into a DRAM buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than the buffer.
    pub fn write_dram(&mut self, id: DramId, data: &[Elem]) {
        let buf = &mut self.drams[id.0 as usize];
        assert!(data.len() <= buf.len(), "host data exceeds buffer");
        buf[..data.len()].copy_from_slice(data);
    }

    /// Reads back a DRAM buffer.
    pub fn dram_data(&self, id: DramId) -> &[Elem] {
        &self.drams[id.0 as usize]
    }

    /// Reads back a scratchpad.
    pub fn sram_data(&self, id: SramId) -> &[Elem] {
        &self.srams[id.0 as usize]
    }

    /// Sets a runtime parameter.
    pub fn set_param(&mut self, id: crate::expr::ParamId, v: Elem) {
        self.params[id.0 as usize] = v;
    }

    /// Sets a register (e.g. to seed an accumulating fold).
    pub fn set_reg(&mut self, id: RegId, v: Elem) {
        self.regs[id.0 as usize] = v;
    }

    /// Reads a register.
    pub fn reg(&self, id: RegId) -> Elem {
        self.regs[id.0 as usize]
    }

    /// Executes the whole program.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on out-of-bounds accesses, type errors, or
    /// invalid runtime bounds.
    pub fn run(&mut self) -> Result<(), RunError> {
        self.run_traced(&mut NullSink)
    }

    /// Executes the whole program, reporting structural events and leaf
    /// work to `sink` (see [`TraceSink`]). The cycle-accurate simulator
    /// replays the recorded trace for timing.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_traced(&mut self, sink: &mut dyn TraceSink) -> Result<(), RunError> {
        let code = Arc::clone(&self.code);
        self.dims.clear();
        self.exec_ctrl(&code, self.prog.root(), sink)
    }

    fn exec_ctrl(
        &mut self,
        code: &Code,
        id: CtrlId,
        sink: &mut dyn TraceSink,
    ) -> Result<(), RunError> {
        let prog = self.prog;
        let ctrl = prog.ctrl(id);
        let chain = self.resolve_cchain(&ctrl.cchain, &ctrl.name)?;
        match &ctrl.body {
            CtrlBody::Outer { children, .. } => {
                sink.outer_enter(id);
                self.iterate(chain, &mut |m| {
                    sink.outer_iter(id);
                    for &c in children {
                        m.exec_ctrl(code, c, sink)?;
                    }
                    Ok(())
                })?;
                sink.outer_exit(id);
            }
            CtrlBody::Inner(op) => {
                self.cur_work = LeafWork::default();
                self.exec_inner(code, &ctrl.name, chain, op)?;
                let work = std::mem::take(&mut self.cur_work);
                sink.leaf(id, work);
            }
        }
        self.dims.truncate(chain.start);
        Ok(())
    }

    /// Resolves counter bounds onto the dim stack.
    fn resolve_cchain(&mut self, cchain: &[Counter], ctrl_name: &str) -> Result<Chain, RunError> {
        let start = self.dims.len();
        for c in cchain {
            let min = self.resolve_bound(c.min)?;
            let max = self.resolve_bound(c.max)?;
            if c.stride < 1 {
                return Err(RunError::BadBound {
                    ctrl: ctrl_name.to_string(),
                });
            }
            self.dims.push(Dim {
                index: c.index.0 as usize,
                min,
                max,
                stride: c.stride,
            });
        }
        Ok(Chain {
            start,
            end: self.dims.len(),
        })
    }

    fn resolve_bound(&self, b: CBound) -> Result<i64, RunError> {
        Ok(match b {
            CBound::Const(v) => v,
            CBound::Reg(r) => self.regs[r.0 as usize].as_i32()? as i64,
            CBound::Param(p) => self.params[p.0 as usize].as_i32()? as i64,
        })
    }

    /// Nested iteration over a resolved counter chain, invoking `act` per
    /// index tuple.
    fn iterate<F>(&mut self, chain: Chain, act: &mut F) -> Result<(), RunError>
    where
        F: FnMut(&mut Self) -> Result<(), RunError>,
    {
        match chain.end - chain.start {
            0 => act(self),
            1 => {
                let Dim {
                    index,
                    min,
                    max,
                    stride,
                } = self.dims[chain.start];
                let mut v = min;
                while v < max {
                    self.indices[index] = v;
                    act(self)?;
                    v += stride;
                }
                Ok(())
            }
            _ => self.iterate_from(chain.start, chain.end, act),
        }
    }

    fn iterate_from<F>(&mut self, d: usize, end: usize, act: &mut F) -> Result<(), RunError>
    where
        F: FnMut(&mut Self) -> Result<(), RunError>,
    {
        if d == end {
            return act(self);
        }
        let Dim {
            index,
            min,
            max,
            stride,
        } = self.dims[d];
        let mut v = min;
        while v < max {
            self.indices[index] = v;
            self.iterate_from(d + 1, end, act)?;
            v += stride;
        }
        Ok(())
    }

    /// Evaluates `f` in the current index environment into the arena
    /// region at `base`.
    fn eval(&mut self, code: &Code, f: &LFunc, base: usize) -> Result<(), RunError> {
        let steps = &code.steps[f.steps as usize..][..f.len as usize];
        let vals = &mut self.vals[base..];
        for &Step { dst, op } in steps {
            vals[dst as usize] = match op {
                Op::Const(c) => c,
                Op::Index(x) => Elem::I32(self.indices[x as usize] as i32),
                Op::Param(p) => self.params[p as usize],
                Op::Reg(r) => self.regs[r as usize],
                Op::Arg(n) => panic!("argument {n} read by a body evaluated without arguments"),
                Op::Load1 { mem, a, d0 } => {
                    let c0 = vals[a as usize].as_i32()? as i64;
                    if c0 < 0 || c0 >= d0 as i64 {
                        return Err(sram_oob(self.prog, SramId(mem), c0));
                    }
                    self.srams[mem as usize][c0 as usize]
                }
                Op::Load2 { mem, a, b, d0, d1 } => {
                    let c0 = vals[a as usize].as_i32()? as i64;
                    let c1 = vals[b as usize].as_i32()? as i64;
                    if c0 < 0 || c0 >= d0 as i64 || c1 < 0 || c1 >= d1 as i64 {
                        return Err(sram_oob(self.prog, SramId(mem), c0));
                    }
                    self.srams[mem as usize][c0 as usize * d1 as usize + c1 as usize]
                }
                Op::Load1I { mem, i, d0 } => {
                    let c0 = self.indices[i as usize] as i32 as i64;
                    if c0 < 0 || c0 >= d0 as i64 {
                        return Err(sram_oob(self.prog, SramId(mem), c0));
                    }
                    self.srams[mem as usize][c0 as usize]
                }
                Op::Load2I { mem, i, j, d0, d1 } => {
                    let c0 = self.indices[i as usize] as i32 as i64;
                    let c1 = self.indices[j as usize] as i32 as i64;
                    if c0 < 0 || c0 >= d0 as i64 || c1 < 0 || c1 >= d1 as i64 {
                        return Err(sram_oob(self.prog, SramId(mem), c0));
                    }
                    self.srams[mem as usize][c0 as usize * d1 as usize + c1 as usize]
                }
                Op::LoadN { mem, addr, n } => {
                    let slots = &code.coords[addr as usize..][..n as usize];
                    let slots = slots.iter().map(|&s| s as usize);
                    let off = flatten(self.prog, SramId(mem), vals, slots)?;
                    self.srams[mem as usize][off]
                }
                Op::Unary(op, a) => eval_unop(op, vals[a as usize])?,
                Op::Binary(op, a, b) => binop(op, vals[a as usize], vals[b as usize])?,
                Op::Mux(c, t, e) => {
                    if vals[c as usize].is_truthy() {
                        vals[t as usize]
                    } else {
                        vals[e as usize]
                    }
                }
            };
        }
        Ok(())
    }

    /// Evaluates `fid` in its own region and returns its first output.
    fn eval_scalar(&mut self, code: &Code, fid: FuncId) -> Result<Elem, RunError> {
        let f = &code.funcs[fid.0 as usize];
        let base = f.base as usize;
        self.eval(code, f, base)?;
        Ok(self.vals[base + code.out(f, 0)])
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

    /// Applies one pipe write of the arena value at `src`. The address
    /// function runs in the scratch region, so the pipe body's outputs stay
    /// in place for the pipe's other writes.
    fn apply_write(&mut self, code: &Code, w: &PipeWrite, src: usize) -> Result<(), RunError> {
        let af = &code.funcs[w.addr.0 as usize];
        let base = code.scratch;
        self.eval(code, af, base)?;
        let slots = code.outs(af).iter().map(|&o| base + o as usize);
        let off = flatten(self.prog, w.sram, &self.vals, slots)?;
        let v = self.vals[src];
        let buf = &mut self.srams[w.sram.0 as usize];
        let stored = match w.mode {
            WriteMode::Overwrite => v,
            WriteMode::Accumulate(op) => binop(op, buf[off], v)?,
        };
        self.stats.sram_writes += 1;
        buf[off] = stored;
        Ok(())
    }

    fn exec_inner(
        &mut self,
        code: &Code,
        name: &str,
        chain: Chain,
        op: &InnerOp,
    ) -> Result<(), RunError> {
        match op {
            InnerOp::Map(m) => self.exec_map(code, chain, m),
            InnerOp::Fold(f) => self.exec_fold(code, name, chain, f),
            InnerOp::Filter(f) => self.exec_filter(code, name, chain, f),
            InnerOp::RegWrite(rw) => self.exec_regwrite(code, chain, rw),
            InnerOp::LoadTile(t) => self.iterate(chain, &mut |m| m.load_tile(code, t)),
            InnerOp::StoreTile(t) => self.iterate(chain, &mut |m| m.store_tile(code, t)),
            InnerOp::Gather(g) => self.iterate(chain, &mut |m| m.gather(code, g)),
            InnerOp::Scatter(s) => self.iterate(chain, &mut |m| m.scatter(code, s)),
        }
    }

    fn exec_map(&mut self, code: &Code, chain: Chain, m: &MapPipe) -> Result<(), RunError> {
        let body = code.funcs[m.body.0 as usize];
        let base = body.base as usize;
        self.iterate(chain, &mut |s| {
            s.stats.body_invocations += 1;
            s.cur_work.trips += 1;
            s.eval(code, &body, base)?;
            for w in &m.writes {
                s.apply_write(code, w, base + code.out(&body, w.value_slot))?;
            }
            Ok(())
        })
    }

    fn exec_fold(
        &mut self,
        code: &Code,
        name: &str,
        chain: Chain,
        f: &FoldPipe,
    ) -> Result<(), RunError> {
        let acc = code.acc;
        for (slot, init) in f.init.iter().enumerate() {
            self.vals[acc + slot] = match init {
                FoldInit::Const(v) => *v,
                FoldInit::Resume => {
                    let reg = f.out_regs[slot].ok_or_else(|| RunError::ResumeWithoutReg {
                        ctrl: name.to_string(),
                    })?;
                    self.regs[reg.0 as usize]
                }
            };
        }
        let map = code.funcs[f.map.0 as usize];
        let base = map.base as usize;
        self.iterate(chain, &mut |s| {
            s.stats.body_invocations += 1;
            s.cur_work.trips += 1;
            s.eval(code, &map, base)?;
            for (slot, (&op, &out)) in f.combine.iter().zip(code.outs(&map)).enumerate() {
                let v = s.vals[base + out as usize];
                s.vals[acc + slot] = binop(op, s.vals[acc + slot], v)?;
            }
            Ok(())
        })?;
        for (slot, reg) in f.out_regs.iter().enumerate() {
            if let Some(r) = reg {
                self.regs[r.0 as usize] = self.vals[acc + slot];
            }
        }
        for w in &f.writes {
            self.apply_write(code, w, acc + w.value_slot)?;
        }
        Ok(())
    }

    fn exec_filter(
        &mut self,
        code: &Code,
        name: &str,
        chain: Chain,
        f: &FilterPipe,
    ) -> Result<(), RunError> {
        let body = code.funcs[f.body.0 as usize];
        let base = body.base as usize;
        let k = body.n_outs as usize - 1;
        let cap = self.prog.sram(f.out).capacity();
        let mut count: i64 = 0;
        self.iterate(chain, &mut |s| {
            s.stats.body_invocations += 1;
            s.cur_work.trips += 1;
            s.eval(code, &body, base)?;
            if s.vals[base + code.out(&body, k)].is_truthy() {
                if (count as usize + 1) * k > cap {
                    return Err(RunError::FilterOverflow {
                        ctrl: name.to_string(),
                    });
                }
                for j in 0..k {
                    s.stats.sram_writes += 1;
                    let v = s.vals[base + code.out(&body, j)];
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

    fn exec_regwrite(&mut self, code: &Code, chain: Chain, rw: &RegWrite) -> Result<(), RunError> {
        self.iterate(chain, &mut |s| {
            s.cur_work.trips += 1;
            let v = s.eval_scalar(code, rw.func)?;
            s.regs[rw.reg.0 as usize] = v;
            Ok(())
        })
    }

    fn load_tile(&mut self, code: &Code, t: &TileTransfer) -> Result<(), RunError> {
        let base = self.eval_scalar(code, t.dram_base)?.as_i32()? as i64;
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

    fn store_tile(&mut self, code: &Code, t: &TileTransfer) -> Result<(), RunError> {
        let base = self.eval_scalar(code, t.dram_base)?.as_i32()? as i64;
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

    fn gather(&mut self, code: &Code, g: &GatherOp) -> Result<(), RunError> {
        let base = self.eval_scalar(code, g.base)?.as_i32()? as i64;
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

    fn scatter(&mut self, code: &Code, s: &ScatterOp) -> Result<(), RunError> {
        let base = self.eval_scalar(code, s.base)?.as_i32()? as i64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::Schedule;
    use crate::expr::Func;
    use crate::program::ProgramBuilder;
    use crate::types::DType;

    /// out[i] = a[i] + b[i] over a 16-element tile loaded from DRAM.
    fn build_vadd() -> (Program, DramId, DramId, DramId) {
        let mut b = ProgramBuilder::new("vadd");
        let da = b.dram("a", DType::F32, 16);
        let db = b.dram("b", DType::F32, 16);
        let dc = b.dram("c", DType::F32, 16);
        let sa = b.sram("ta", DType::F32, &[16]);
        let sb = b.sram("tb", DType::F32, &[16]);
        let sc = b.sram("tc", DType::F32, &[16]);

        let mut zero = Func::new("zero");
        let z = zero.konst(Elem::I32(0));
        zero.set_outputs(vec![z]);
        let zero = b.func(zero);

        let lda = b.inner(
            "load_a",
            vec![],
            InnerOp::LoadTile(TileTransfer {
                dram: da,
                dram_base: zero,
                rows: 1,
                cols: 16,
                dram_row_stride: 16,
                sram: sa,
            }),
        );
        let ldb = b.inner(
            "load_b",
            vec![],
            InnerOp::LoadTile(TileTransfer {
                dram: db,
                dram_base: zero,
                rows: 1,
                cols: 16,
                dram_row_stride: 16,
                sram: sb,
            }),
        );

        let i = b.counter(0, 16, 1, 4);
        let idx = i.index;
        let mut body = Func::new("add");
        let ii = body.index(idx);
        let av = body.load(sa, vec![ii]);
        let bv = body.load(sb, vec![ii]);
        let sum = body.binary(BinOp::Add, av, bv);
        body.set_outputs(vec![sum]);
        let body = b.func(body);
        let mut addr = Func::new("addr");
        let ii = addr.index(idx);
        addr.set_outputs(vec![ii]);
        let addr = b.func(addr);
        let add = b.inner(
            "add",
            vec![i],
            InnerOp::Map(MapPipe {
                body,
                writes: vec![PipeWrite {
                    sram: sc,
                    addr,
                    value_slot: 0,
                    mode: WriteMode::Overwrite,
                }],
            }),
        );
        let st = b.inner(
            "store_c",
            vec![],
            InnerOp::StoreTile(TileTransfer {
                dram: dc,
                dram_base: zero,
                rows: 1,
                cols: 16,
                dram_row_stride: 16,
                sram: sc,
            }),
        );
        let root = b.outer(
            "root",
            Schedule::Sequential,
            vec![],
            vec![lda, ldb, add, st],
        );
        (b.finish(root).unwrap(), da, db, dc)
    }

    #[test]
    fn vadd_end_to_end() {
        let (p, da, db, dc) = build_vadd();
        let mut m = Machine::new(&p);
        let a: Vec<Elem> = (0..16).map(|i| Elem::F32(i as f32)).collect();
        let bv: Vec<Elem> = (0..16).map(|i| Elem::F32(10.0 * i as f32)).collect();
        m.write_dram(da, &a);
        m.write_dram(db, &bv);
        m.run().unwrap();
        for i in 0..16 {
            assert_eq!(m.dram_data(dc)[i], Elem::F32(11.0 * i as f32));
        }
        assert_eq!(m.stats.body_invocations, 16);
        assert_eq!(m.stats.dram_reads, 32);
        assert_eq!(m.stats.dram_writes, 16);
    }

    #[test]
    fn fold_sums_indices() {
        let mut b = ProgramBuilder::new("sum");
        let r = b.reg("acc", DType::I32);
        let i = b.counter(0, 10, 1, 1);
        let mut map = Func::new("id");
        let ii = map.index(i.index);
        map.set_outputs(vec![ii]);
        let map = b.func(map);
        let fold = b.inner(
            "sum",
            vec![i],
            InnerOp::Fold(FoldPipe {
                map,
                combine: vec![BinOp::Add],
                init: vec![FoldInit::Const(Elem::I32(0))],
                out_regs: vec![Some(r)],
                writes: vec![],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![fold]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        m.run().unwrap();
        assert_eq!(m.reg(r), Elem::I32(45));
    }

    #[test]
    fn fold_resume_accumulates_across_invocations() {
        let mut b = ProgramBuilder::new("resume");
        let r = b.reg("acc", DType::I32);
        let outer_i = b.counter(0, 3, 1, 1);
        let inner_i = b.counter(0, 4, 1, 1);
        let mut map = Func::new("one");
        let one = map.konst(Elem::I32(1));
        map.set_outputs(vec![one]);
        let map = b.func(map);
        let fold = b.inner(
            "count",
            vec![inner_i],
            InnerOp::Fold(FoldPipe {
                map,
                combine: vec![BinOp::Add],
                init: vec![FoldInit::Resume],
                out_regs: vec![Some(r)],
                writes: vec![],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![outer_i], vec![fold]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        m.run().unwrap();
        // 3 outer iterations x 4 inner elements
        assert_eq!(m.reg(r), Elem::I32(12));
    }

    #[test]
    fn filter_compacts_and_counts() {
        let mut b = ProgramBuilder::new("filter");
        let out = b.sram("out", DType::I32, &[16]);
        let cnt = b.reg("cnt", DType::I32);
        let i = b.counter(0, 10, 1, 1);
        let mut body = Func::new("even");
        let ii = body.index(i.index);
        let two = body.konst(Elem::I32(2));
        let m2 = body.binary(BinOp::Rem, ii, two);
        let zero = body.konst(Elem::I32(0));
        let pred = body.binary(BinOp::Eq, m2, zero);
        body.set_outputs(vec![ii, pred]);
        let body = b.func(body);
        let fi = b.inner(
            "keep_even",
            vec![i],
            InnerOp::Filter(FilterPipe {
                body,
                out,
                count_reg: cnt,
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![fi]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        m.run().unwrap();
        assert_eq!(m.reg(cnt), Elem::I32(5));
        let got: Vec<i32> = (0..5)
            .map(|i| m.sram_data(out)[i].as_i32().unwrap())
            .collect();
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut b = ProgramBuilder::new("gs");
        let src = b.dram("src", DType::I32, 32);
        let dst = b.dram("dst", DType::I32, 32);
        let idx = b.sram("idx", DType::I32, &[8]);
        let tmp = b.sram("tmp", DType::I32, &[8]);
        let mut zero = Func::new("zero");
        let z = zero.konst(Elem::I32(0));
        zero.set_outputs(vec![z]);
        let zero = b.func(zero);

        // Fill idx[i] = 3*i (on-chip) so gather pulls a strided pattern.
        let i = b.counter(0, 8, 1, 1);
        let mut body = Func::new("idxgen");
        let ii = body.index(i.index);
        let three = body.konst(Elem::I32(3));
        let v = body.binary(BinOp::Mul, ii, three);
        body.set_outputs(vec![v]);
        let body = b.func(body);
        let mut addr = Func::new("addr");
        let ii = addr.index(i.index);
        addr.set_outputs(vec![ii]);
        let addr = b.func(addr);
        let gen = b.inner(
            "idxgen",
            vec![i],
            InnerOp::Map(MapPipe {
                body,
                writes: vec![PipeWrite {
                    sram: idx,
                    addr,
                    value_slot: 0,
                    mode: WriteMode::Overwrite,
                }],
            }),
        );
        let ga = b.inner(
            "gather",
            vec![],
            InnerOp::Gather(GatherOp {
                dram: src,
                base: zero,
                indices: idx,
                idx_base: CBound::Const(0),
                dst: tmp,
                len: CBound::Const(8),
            }),
        );
        let sc = b.inner(
            "scatter",
            vec![],
            InnerOp::Scatter(ScatterOp {
                dram: dst,
                base: zero,
                indices: idx,
                idx_base: CBound::Const(0),
                src: tmp,
                len: CBound::Const(8),
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![gen, ga, sc]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        let data: Vec<Elem> = (0..32).map(|i| Elem::I32(100 + i)).collect();
        m.write_dram(src, &data);
        m.run().unwrap();
        for i in 0..8 {
            assert_eq!(m.dram_data(dst)[3 * i], Elem::I32(100 + 3 * i as i32));
        }
    }

    #[test]
    fn reg_dependent_bound() {
        let mut b = ProgramBuilder::new("dyn");
        let n = b.reg("n", DType::I32);
        let acc = b.reg("acc", DType::I32);
        // n = 7
        let mut setn = Func::new("setn");
        let seven = setn.konst(Elem::I32(7));
        setn.set_outputs(vec![seven]);
        let setn = b.func(setn);
        let set = b.inner(
            "setn",
            vec![],
            InnerOp::RegWrite(RegWrite { reg: n, func: setn }),
        );
        // acc = sum over 0..n of 1
        let i = b.counter(CBound::Const(0), CBound::Reg(n), 1, 1);
        let mut one = Func::new("one");
        let o = one.konst(Elem::I32(1));
        one.set_outputs(vec![o]);
        let one = b.func(one);
        let fold = b.inner(
            "count",
            vec![i],
            InnerOp::Fold(FoldPipe {
                map: one,
                combine: vec![BinOp::Add],
                init: vec![FoldInit::Const(Elem::I32(0))],
                out_regs: vec![Some(acc)],
                writes: vec![],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![set, fold]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        m.run().unwrap();
        assert_eq!(m.reg(acc), Elem::I32(7));
    }

    #[test]
    fn sram_oob_reported() {
        let mut b = ProgramBuilder::new("oob");
        let out = b.sram("out", DType::I32, &[4]);
        let i = b.counter(0, 8, 1, 1);
        let mut body = Func::new("id");
        let ii = body.index(i.index);
        body.set_outputs(vec![ii]);
        let body = b.func(body);
        let mut addr = Func::new("addr");
        let ii = addr.index(i.index);
        addr.set_outputs(vec![ii]);
        let addr = b.func(addr);
        let mp = b.inner(
            "p",
            vec![i],
            InnerOp::Map(MapPipe {
                body,
                writes: vec![PipeWrite {
                    sram: out,
                    addr,
                    value_slot: 0,
                    mode: WriteMode::Overwrite,
                }],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![mp]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        assert!(matches!(m.run(), Err(RunError::SramOob { .. })));
    }

    #[test]
    fn accumulate_write_is_dense_hash_reduce() {
        // Histogram: bins[i % 3] += 1 — the canonical dense HashReduce.
        let mut b = ProgramBuilder::new("hist");
        let bins = b.sram("bins", DType::I32, &[3]);
        let i = b.counter(0, 9, 1, 1);
        let mut body = Func::new("one");
        let o = body.konst(Elem::I32(1));
        body.set_outputs(vec![o]);
        let body = b.func(body);
        let mut key = Func::new("key");
        let ii = key.index(i.index);
        let three = key.konst(Elem::I32(3));
        let k = key.binary(BinOp::Rem, ii, three);
        key.set_outputs(vec![k]);
        let key = b.func(key);
        let mp = b.inner(
            "hist",
            vec![i],
            InnerOp::Map(MapPipe {
                body,
                writes: vec![PipeWrite {
                    sram: bins,
                    addr: key,
                    value_slot: 0,
                    mode: WriteMode::Accumulate(BinOp::Add),
                }],
            }),
        );
        let root = b.outer("root", Schedule::Sequential, vec![], vec![mp]);
        let p = b.finish(root).unwrap();
        let mut m = Machine::new(&p);
        m.run().unwrap();
        for i in 0..3 {
            assert_eq!(m.sram_data(bins)[i], Elem::I32(3));
        }
    }
}
