//! Textual disassembly of programs, blocks and instructions.
//!
//! A debugging aid for printing small programs.

use crate::isa::Instr;
use crate::program::{BasicBlock, Program, Terminator};
use std::fmt::Write as _;

/// Formats a single instruction in AT&T-flavoured assembly.
///
/// # Example
///
/// ```
/// use cce_tinyvm::disasm::format_instr;
/// use cce_tinyvm::isa::{Instr, Reg};
/// let s = format_instr(&Instr::AddImm { dst: Reg::R1, src: Reg::R2, imm: -4 });
/// assert_eq!(s, "addi  r1, r2, -4");
/// ```
#[must_use]
pub fn format_instr(instr: &Instr) -> String {
    match *instr {
        Instr::MovImm { dst, imm } => format!("movi  {dst}, {imm}"),
        Instr::Mov { dst, src } => format!("mov   {dst}, {src}"),
        Instr::Add { dst, a, b } => format!("add   {dst}, {a}, {b}"),
        Instr::AddImm { dst, src, imm } => format!("addi  {dst}, {src}, {imm}"),
        Instr::Sub { dst, a, b } => format!("sub   {dst}, {a}, {b}"),
        Instr::Mul { dst, a, b } => format!("mul   {dst}, {a}, {b}"),
        Instr::Xor { dst, a, b } => format!("xor   {dst}, {a}, {b}"),
        Instr::And { dst, a, b } => format!("and   {dst}, {a}, {b}"),
        Instr::Or { dst, a, b } => format!("or    {dst}, {a}, {b}"),
        Instr::ShlImm { dst, src, amount } => format!("shl   {dst}, {src}, {amount}"),
        Instr::ShrImm { dst, src, amount } => format!("shr   {dst}, {src}, {amount}"),
        Instr::Load { dst, base, offset } => format!("ld    {dst}, [{base}{offset:+}]"),
        Instr::Store { src, base, offset } => format!("st    [{base}{offset:+}], {src}"),
        Instr::Nop => "nop".to_owned(),
    }
}

/// Formats a terminator.
#[must_use]
pub fn format_terminator(t: &Terminator) -> String {
    match t {
        Terminator::Jump(b) => format!("jmp   B{}", b.0),
        Terminator::Branch {
            cond,
            lhs,
            rhs,
            taken,
            fallthrough,
        } => format!(
            "b.{cond}  {lhs}, {rhs} -> B{} else B{}",
            taken.0, fallthrough.0
        ),
        Terminator::Call { callee, ret_to } => format!("call  F{} ret B{}", callee.0, ret_to.0),
        Terminator::Return => "ret".to_owned(),
        Terminator::IndirectJump { selector, targets } => {
            let ts: Vec<String> = targets.iter().map(|t| format!("B{}", t.0)).collect();
            format!("ijmp  {selector} [{}]", ts.join(", "))
        }
        Terminator::Halt => "halt".to_owned(),
    }
}

/// Formats one basic block with its layout address.
#[must_use]
pub fn format_block(program: &Program, block: &BasicBlock) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "B{} @ {} ({} bytes):",
        block.id.0,
        program.block_addr(block.id),
        block.byte_len()
    );
    for i in &block.instrs {
        let _ = writeln!(out, "    {}", format_instr(i));
    }
    let _ = writeln!(out, "    {}", format_terminator(&block.terminator));
    out
}

/// Formats the entire program, function by function.
#[must_use]
pub fn format_program(program: &Program) -> String {
    let mut out = String::new();
    for f in program.functions() {
        let _ = writeln!(out, "fn {} (F{}):", f.name, f.id.0);
        for &bid in &f.blocks {
            out.push_str(&format_block(program, program.block(bid)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::isa::{Cond, Reg};

    #[test]
    fn program_disassembly_mentions_every_block() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_function("main");
        let e = b.block(f);
        let x = b.block(f);
        b.push(
            e,
            Instr::MovImm {
                dst: Reg::R1,
                imm: 3,
            },
        );
        b.branch(e, Cond::Ne, Reg::R1, Reg::ZERO, x, x);
        b.halt(x);
        b.set_entry(f, e);
        let p = b.finish().unwrap();
        let text = format_program(&p);
        assert!(text.contains("fn main"));
        assert!(text.contains("B0"));
        assert!(text.contains("B1"));
        assert!(text.contains("movi  r1, 3"));
        assert!(text.contains("halt"));
    }

    #[test]
    fn every_instr_formats_nonempty() {
        let instrs = [
            Instr::MovImm {
                dst: Reg::R1,
                imm: 0,
            },
            Instr::Mov {
                dst: Reg::R1,
                src: Reg::R2,
            },
            Instr::Add {
                dst: Reg::R1,
                a: Reg::R2,
                b: Reg::R3,
            },
            Instr::AddImm {
                dst: Reg::R1,
                src: Reg::R2,
                imm: 1,
            },
            Instr::Sub {
                dst: Reg::R1,
                a: Reg::R2,
                b: Reg::R3,
            },
            Instr::Mul {
                dst: Reg::R1,
                a: Reg::R2,
                b: Reg::R3,
            },
            Instr::Xor {
                dst: Reg::R1,
                a: Reg::R2,
                b: Reg::R3,
            },
            Instr::And {
                dst: Reg::R1,
                a: Reg::R2,
                b: Reg::R3,
            },
            Instr::Or {
                dst: Reg::R1,
                a: Reg::R2,
                b: Reg::R3,
            },
            Instr::ShlImm {
                dst: Reg::R1,
                src: Reg::R2,
                amount: 3,
            },
            Instr::ShrImm {
                dst: Reg::R1,
                src: Reg::R2,
                amount: 3,
            },
            Instr::Load {
                dst: Reg::R1,
                base: Reg::R2,
                offset: 0,
            },
            Instr::Store {
                src: Reg::R1,
                base: Reg::R2,
                offset: 0,
            },
            Instr::Nop,
        ];
        for i in &instrs {
            assert!(!format_instr(i).is_empty());
        }
    }
}
