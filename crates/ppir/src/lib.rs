//! # plasticine-ppir — parallel-pattern intermediate representation
//!
//! The programming model of *Plasticine: A Reconfigurable Architecture for
//! Parallel Patterns* (ISCA 2017): data-parallel programs expressed as
//! hierarchies of `Map`, `FlatMap`, `Fold`, and `HashReduce` patterns over
//! explicit on-chip and off-chip memories, in the style of the Delite
//! Hardware Definition Language (DHDL).
//!
//! This crate provides:
//!
//! * the IR itself — [`Program`], [`Controller`], [`Func`], memory objects;
//! * a builder API ([`ProgramBuilder`]) with full structural validation;
//! * a host reference interpreter ([`Machine`]) whose final memory state is
//!   the golden reference for the cycle-accurate simulator.
//!
//! # Examples
//!
//! Summing `0..10` with a `Fold`:
//!
//! ```
//! use plasticine_ppir::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new("sum");
//! let acc = b.reg("acc", DType::I32);
//! let i = b.counter(0, 10, 1, 1);
//! let mut map = Func::new("identity");
//! let iv = map.index(i.index);
//! map.set_outputs(vec![iv]);
//! let map = b.func(map);
//! let fold = b.inner("sum", vec![i], InnerOp::Fold(FoldPipe {
//!     map,
//!     combine: vec![BinOp::Add],
//!     init: vec![FoldInit::Const(Elem::I32(0))],
//!     out_regs: vec![Some(acc)],
//!     writes: vec![],
//! }));
//! let root = b.outer("root", Schedule::Sequential, vec![], vec![fold]);
//! let program = b.finish(root)?;
//!
//! let mut m = Machine::new(&program);
//! m.run()?;
//! assert_eq!(m.reg(acc), Elem::I32(45));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod ctrl;
mod expr;
mod interp;
mod mem;
#[cfg(test)]
mod oracle;
mod program;
mod trace;
mod types;

pub use ctrl::{
    CBound, Controller, Counter, CtrlBody, CtrlId, FilterPipe, FoldInit, FoldPipe, GatherOp,
    InnerOp, MapPipe, PipeWrite, RegWrite, ScatterOp, Schedule, TileTransfer, WriteMode,
};
pub use expr::{
    eval_binop, eval_unop, BinOp, DramId, Expr, ExprId, Func, FuncId, IndexId, ParamId, RegId,
    SramId, UnaryOp,
};
pub use interp::{InterpStats, Machine, RunError};
pub use mem::{BankingMode, DramBuf, Param, Reg, Sram};
pub use program::{stable_hash_of, validate, Program, ProgramBuilder, ValidateError};
pub use trace::{DramRange, LeafWork, NullSink, TraceNode, TraceRecorder, TraceSink};
pub use types::{DType, Elem, TypeError};
