//! # cce-tinyvm — a tiny register virtual machine for DBT studies
//!
//! This crate provides the *guest architecture* substrate for the code-cache
//! eviction study: a small register ISA ([`isa`]), byte-addressed programs
//! with an explicit control-flow graph ([`program`]), a builder for
//! constructing well-formed programs ([`builder`]), a deterministic
//! interpreter with observation hooks ([`interp`]), structured random
//! program generators ([`gen`]), and a disassembler ([`disasm`]).
//!
//! The paper this workspace reproduces drove its cache simulator with the
//! verbose logs of DynamoRIO executing real binaries. This crate was the
//! guest side of a from-scratch translator that has since been deleted:
//! every trace the simulator, the figures and the benchmark consume now
//! comes from the statistical models in `cce-workloads`. Only
//! [`program::Pc`], the head address recorded in `cce-dbt`'s trace
//! registry, is used outside this crate; the rest is unused and is
//! slated for removal.
//!
//! # Example
//!
//! ```
//! use cce_tinyvm::builder::ProgramBuilder;
//! use cce_tinyvm::interp::{Interp, StopReason};
//! use cce_tinyvm::isa::{Cond, Instr, Reg};
//!
//! // A program that counts r1 from 10 down to 0.
//! let mut b = ProgramBuilder::new();
//! let f = b.begin_function("main");
//! let entry = b.block(f);
//! let body = b.block(f);
//! let done = b.block(f);
//! b.push(entry, Instr::MovImm { dst: Reg::R1, imm: 10 });
//! b.jump(entry, body);
//! b.push(body, Instr::AddImm { dst: Reg::R1, src: Reg::R1, imm: -1 });
//! b.branch(body, Cond::Gt, Reg::R1, Reg::ZERO, body, done);
//! b.halt(done);
//! b.set_entry(f, entry);
//! let program = b.finish().expect("valid program");
//!
//! let mut interp = Interp::new(&program);
//! let stop = interp.run(1_000_000);
//! assert_eq!(stop, StopReason::Halted);
//! assert_eq!(interp.reg(Reg::R1), 0);
//! ```

#![deny(unsafe_code)]

pub mod builder;
pub mod disasm;
pub mod encode;
pub mod gen;
pub mod interp;
pub mod isa;
pub mod program;

pub use builder::ProgramBuilder;
pub use interp::{ExecObserver, Interp, StopReason};
pub use isa::{Cond, Instr, Reg};
pub use program::{BasicBlock, BlockId, FuncId, Pc, Program, Terminator};
