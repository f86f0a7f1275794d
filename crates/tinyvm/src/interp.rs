//! A deterministic block-stepping interpreter with observation hooks.
//!
//! The interpreter executes a [`Program`] basic block at a time. Before each
//! block's body runs, an optional [`ExecObserver`] is notified — the hook a
//! dynamic binary translator would use for execution profiling and
//! superblock formation without the interpreter knowing anything about
//! caching.

use crate::isa::{Instr, Reg};
use crate::program::{BasicBlock, BlockId, Pc, Program, Terminator};

/// Why [`Interp::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The program executed a `Halt` terminator or returned from `main`.
    Halted,
    /// The fuel budget (maximum executed blocks) was exhausted.
    OutOfFuel,
    /// The call stack exceeded [`Interp::MAX_CALL_DEPTH`].
    StackOverflow,
}

/// Receives a callback at every basic-block entry.
///
/// Implementations must be cheap: the observer runs on the hot path of the
/// interpreter loop.
pub trait ExecObserver {
    /// Called when control enters `block`, whose layout address is `pc`.
    fn on_block_enter(&mut self, pc: Pc, block: &BasicBlock);
}

/// An observer that does nothing (used by the plain [`Interp::run`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl ExecObserver for NullObserver {
    fn on_block_enter(&mut self, _pc: Pc, _block: &BasicBlock) {}
}

/// Interpreter state over a borrowed [`Program`].
#[derive(Debug)]
pub struct Interp<'p> {
    program: &'p Program,
    regs: [i64; Reg::COUNT],
    memory: Vec<i64>,
    call_stack: Vec<BlockId>,
    current: Option<BlockId>,
    instructions_retired: u64,
    blocks_entered: u64,
}

impl<'p> Interp<'p> {
    /// Maximum call-stack depth before execution aborts with
    /// [`StopReason::StackOverflow`].
    pub const MAX_CALL_DEPTH: usize = 4096;

    /// Creates an interpreter positioned at the program's entry.
    #[must_use]
    pub fn new(program: &'p Program) -> Interp<'p> {
        Interp {
            program,
            regs: [0; Reg::COUNT],
            memory: vec![0; program.memory_words()],
            call_stack: Vec::new(),
            current: Some(program.function(program.main()).entry),
            instructions_retired: 0,
            blocks_entered: 0,
        }
    }

    /// Reads a register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    /// Writes a register (useful for seeding inputs in tests/examples).
    pub fn set_reg(&mut self, r: Reg, value: i64) {
        self.regs[r.index()] = value;
    }

    /// Reads guest memory at a word index (wrapped into bounds).
    #[must_use]
    pub fn mem(&self, word: usize) -> i64 {
        self.memory[word % self.memory.len()]
    }

    /// Total instructions retired so far (bodies + terminators).
    #[must_use]
    pub fn instructions_retired(&self) -> u64 {
        self.instructions_retired
    }

    /// Total basic blocks entered so far.
    #[must_use]
    pub fn blocks_entered(&self) -> u64 {
        self.blocks_entered
    }

    /// True if the machine has halted.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.current.is_none()
    }

    /// Runs without observation until halt or `max_blocks` blocks execute.
    pub fn run(&mut self, max_blocks: u64) -> StopReason {
        self.run_observed(max_blocks, &mut NullObserver)
    }

    /// Runs until halt or `max_blocks` blocks execute, notifying `observer`
    /// at every block entry.
    pub fn run_observed(&mut self, max_blocks: u64, observer: &mut dyn ExecObserver) -> StopReason {
        for _ in 0..max_blocks {
            let Some(block_id) = self.current else {
                return StopReason::Halted;
            };
            let block = self.program.block(block_id);
            observer.on_block_enter(self.program.block_addr(block_id), block);
            self.blocks_entered += 1;
            for instr in &block.instrs {
                self.step_instr(instr);
            }
            self.instructions_retired += block.instrs.len() as u64 + 1;
            match self.step_terminator(block) {
                Ok(next) => self.current = next,
                Err(stop) => {
                    self.current = None;
                    return stop;
                }
            }
            if self.current.is_none() {
                return StopReason::Halted;
            }
        }
        if self.current.is_none() {
            StopReason::Halted
        } else {
            StopReason::OutOfFuel
        }
    }

    fn mem_index(&self, base: Reg, offset: i32) -> usize {
        let addr = self.regs[base.index()].wrapping_add(i64::from(offset));
        (addr.unsigned_abs() as usize) % self.memory.len()
    }

    fn step_instr(&mut self, instr: &Instr) {
        match *instr {
            Instr::MovImm { dst, imm } => self.regs[dst.index()] = imm,
            Instr::Mov { dst, src } => self.regs[dst.index()] = self.regs[src.index()],
            Instr::Add { dst, a, b } => {
                self.regs[dst.index()] = self.regs[a.index()].wrapping_add(self.regs[b.index()]);
            }
            Instr::AddImm { dst, src, imm } => {
                self.regs[dst.index()] = self.regs[src.index()].wrapping_add(imm);
            }
            Instr::Sub { dst, a, b } => {
                self.regs[dst.index()] = self.regs[a.index()].wrapping_sub(self.regs[b.index()]);
            }
            Instr::Mul { dst, a, b } => {
                self.regs[dst.index()] = self.regs[a.index()].wrapping_mul(self.regs[b.index()]);
            }
            Instr::Xor { dst, a, b } => {
                self.regs[dst.index()] = self.regs[a.index()] ^ self.regs[b.index()];
            }
            Instr::And { dst, a, b } => {
                self.regs[dst.index()] = self.regs[a.index()] & self.regs[b.index()];
            }
            Instr::Or { dst, a, b } => {
                self.regs[dst.index()] = self.regs[a.index()] | self.regs[b.index()];
            }
            Instr::ShlImm { dst, src, amount } => {
                self.regs[dst.index()] = self.regs[src.index()] << (amount & 63);
            }
            Instr::ShrImm { dst, src, amount } => {
                self.regs[dst.index()] = ((self.regs[src.index()] as u64) >> (amount & 63)) as i64;
            }
            Instr::Load { dst, base, offset } => {
                let idx = self.mem_index(base, offset);
                self.regs[dst.index()] = self.memory[idx];
            }
            Instr::Store { src, base, offset } => {
                let idx = self.mem_index(base, offset);
                self.memory[idx] = self.regs[src.index()];
            }
            Instr::Nop => {}
        }
    }

    fn step_terminator(&mut self, block: &BasicBlock) -> Result<Option<BlockId>, StopReason> {
        match &block.terminator {
            Terminator::Jump(t) => Ok(Some(*t)),
            Terminator::Branch {
                cond,
                lhs,
                rhs,
                taken,
                fallthrough,
            } => {
                let l = self.regs[lhs.index()];
                let r = self.regs[rhs.index()];
                Ok(Some(if cond.eval(l, r) {
                    *taken
                } else {
                    *fallthrough
                }))
            }
            Terminator::Call { callee, ret_to } => {
                if self.call_stack.len() >= Self::MAX_CALL_DEPTH {
                    return Err(StopReason::StackOverflow);
                }
                self.call_stack.push(*ret_to);
                Ok(Some(self.program.function(*callee).entry))
            }
            Terminator::Return => Ok(self.call_stack.pop()),
            Terminator::IndirectJump { selector, targets } => {
                let v = self.regs[selector.index()].unsigned_abs() as usize;
                Ok(Some(targets[v % targets.len()]))
            }
            Terminator::Halt => Err(StopReason::Halted),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::isa::Cond;

    fn countdown(n: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.begin_function("main");
        let entry = b.block(f);
        let body = b.block(f);
        let done = b.block(f);
        b.push(
            entry,
            Instr::MovImm {
                dst: Reg::R1,
                imm: n,
            },
        );
        b.jump(entry, body);
        b.push(
            body,
            Instr::AddImm {
                dst: Reg::R1,
                src: Reg::R1,
                imm: -1,
            },
        );
        b.branch(body, Cond::Gt, Reg::R1, Reg::ZERO, body, done);
        b.halt(done);
        b.set_entry(f, entry);
        b.finish().unwrap()
    }

    #[test]
    fn countdown_halts_with_zero() {
        let p = countdown(100);
        let mut i = Interp::new(&p);
        assert_eq!(i.run(10_000), StopReason::Halted);
        assert_eq!(i.reg(Reg::R1), 0);
        // entry + 100 body iterations + done
        assert_eq!(i.blocks_entered(), 102);
    }

    #[test]
    fn fuel_limit_stops_execution() {
        let p = countdown(1_000_000);
        let mut i = Interp::new(&p);
        assert_eq!(i.run(10), StopReason::OutOfFuel);
        assert!(!i.is_halted());
        // Can resume.
        assert_eq!(i.run(u64::MAX), StopReason::Halted);
    }

    #[test]
    fn observer_sees_every_block() {
        struct Counter(u64);
        impl ExecObserver for Counter {
            fn on_block_enter(&mut self, _pc: Pc, _b: &BasicBlock) {
                self.0 += 1;
            }
        }
        let p = countdown(5);
        let mut i = Interp::new(&p);
        let mut c = Counter(0);
        i.run_observed(u64::MAX, &mut c);
        assert_eq!(c.0, i.blocks_entered());
    }

    #[test]
    fn call_and_return_flow() {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        let sq = b.begin_function("square");
        let m0 = b.block(main);
        let m1 = b.block(main);
        let s0 = b.block(sq);
        b.push(
            m0,
            Instr::MovImm {
                dst: Reg::R2,
                imm: 7,
            },
        );
        b.call(m0, sq, m1);
        b.halt(m1);
        b.push(
            s0,
            Instr::Mul {
                dst: Reg::R3,
                a: Reg::R2,
                b: Reg::R2,
            },
        );
        b.ret(s0);
        b.set_entry(main, m0);
        b.set_entry(sq, s0);
        let p = b.finish().unwrap();
        let mut i = Interp::new(&p);
        assert_eq!(i.run(100), StopReason::Halted);
        assert_eq!(i.reg(Reg::R3), 49);
    }

    #[test]
    fn return_from_main_halts() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_function("main");
        let e = b.block(f);
        b.ret(e);
        b.set_entry(f, e);
        let p = b.finish().unwrap();
        let mut i = Interp::new(&p);
        assert_eq!(i.run(100), StopReason::Halted);
    }

    #[test]
    fn infinite_recursion_overflows() {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        let m0 = b.block(main);
        let m1 = b.block(main);
        b.call(m0, main, m1);
        b.halt(m1);
        b.set_entry(main, m0);
        let p = b.finish().unwrap();
        let mut i = Interp::new(&p);
        assert_eq!(i.run(u64::MAX), StopReason::StackOverflow);
    }

    #[test]
    fn indirect_jump_selects_by_register() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_function("main");
        let e = b.block(f);
        let t0 = b.block(f);
        let t1 = b.block(f);
        let done = b.block(f);
        b.push(
            e,
            Instr::MovImm {
                dst: Reg::R1,
                imm: 1,
            },
        );
        b.indirect(e, Reg::R1, vec![t0, t1]);
        b.push(
            t0,
            Instr::MovImm {
                dst: Reg::R5,
                imm: 100,
            },
        );
        b.jump(t0, done);
        b.push(
            t1,
            Instr::MovImm {
                dst: Reg::R5,
                imm: 200,
            },
        );
        b.jump(t1, done);
        b.halt(done);
        b.set_entry(f, e);
        let p = b.finish().unwrap();
        let mut i = Interp::new(&p);
        i.run(100);
        assert_eq!(i.reg(Reg::R5), 200);
    }

    #[test]
    fn memory_load_store_roundtrip() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_function("main");
        let e = b.block(f);
        b.push(
            e,
            Instr::MovImm {
                dst: Reg::R1,
                imm: 16,
            },
        );
        b.push(
            e,
            Instr::MovImm {
                dst: Reg::R2,
                imm: 1234,
            },
        );
        b.push(
            e,
            Instr::Store {
                src: Reg::R2,
                base: Reg::R1,
                offset: 4,
            },
        );
        b.push(
            e,
            Instr::Load {
                dst: Reg::R3,
                base: Reg::R1,
                offset: 4,
            },
        );
        b.halt(e);
        b.set_entry(f, e);
        let p = b.finish().unwrap();
        let mut i = Interp::new(&p);
        i.run(10);
        assert_eq!(i.reg(Reg::R3), 1234);
        assert_eq!(i.mem(20), 1234);
    }

    #[test]
    fn deterministic_replay() {
        let p = countdown(50);
        let run = |p: &Program| {
            let mut i = Interp::new(p);
            i.run(u64::MAX);
            (i.instructions_retired(), i.blocks_entered(), i.reg(Reg::R1))
        };
        assert_eq!(run(&p), run(&p));
    }
}
