//! Programs, functions, basic blocks and the byte-address layout.
//!
//! A [`Program`] is a set of functions, each a list of [`BasicBlock`]s with
//! explicit [`Terminator`]s. After construction the program is *laid out*:
//! every block receives a byte address ([`Pc`]) as if the program had been
//! assembled into a flat image, and every block knows its encoded byte
//! length. Those addresses and lengths are what a dynamic binary translator
//! would profile and what would give its superblocks their variable sizes.

use crate::isa::{Cond, Instr, Reg};
use std::collections::BTreeMap;
use std::fmt;

/// A byte address in the guest program image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(pub u64);

impl Pc {
    /// The raw address value.
    #[must_use]
    pub fn addr(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#08x}", self.0)
    }
}

/// Identifies a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Identifies a basic block within a [`Program`] (globally unique, not
/// per-function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// How control leaves a basic block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump to another block.
    Jump(BlockId),
    /// Two-way conditional branch comparing `lhs` against `rhs`.
    Branch {
        cond: Cond,
        lhs: Reg,
        rhs: Reg,
        taken: BlockId,
        fallthrough: BlockId,
    },
    /// Call `callee`; on return, continue at `ret_to`.
    Call { callee: FuncId, ret_to: BlockId },
    /// Return to the caller's `ret_to` block (or halt from `main`).
    Return,
    /// Indirect jump: `targets[reg % targets.len()]`.
    ///
    /// Models switch statements / indirect branches, which in a DBT become
    /// superblock exits that cannot be statically chained.
    IndirectJump {
        selector: Reg,
        targets: Vec<BlockId>,
    },
    /// Stop the machine.
    Halt,
}

impl Terminator {
    /// Encoded byte length of the terminator in the program image.
    #[must_use]
    pub fn encoded_len(&self) -> u32 {
        match self {
            Terminator::Jump(_) => 5,
            Terminator::Branch { .. } => 6,
            Terminator::Call { .. } => 5,
            Terminator::Return => 1,
            Terminator::IndirectJump { targets, .. } => 3 + 4 * targets.len() as u32,
            Terminator::Halt => 2,
        }
    }

    /// All statically-known successor blocks.
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch {
                taken, fallthrough, ..
            } => vec![*taken, *fallthrough],
            Terminator::Call { ret_to, .. } => vec![*ret_to],
            Terminator::IndirectJump { targets, .. } => targets.clone(),
            Terminator::Return | Terminator::Halt => vec![],
        }
    }
}

/// A straight-line sequence of instructions ending in a [`Terminator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Globally unique id.
    pub id: BlockId,
    /// The function this block belongs to.
    pub func: FuncId,
    /// Straight-line body.
    pub instrs: Vec<Instr>,
    /// The block's terminator.
    pub terminator: Terminator,
}

impl BasicBlock {
    /// Encoded byte length of the whole block (body + terminator).
    #[must_use]
    pub fn byte_len(&self) -> u32 {
        self.instrs.iter().map(Instr::encoded_len).sum::<u32>() + self.terminator.encoded_len()
    }

    /// Number of instructions including the terminator.
    #[must_use]
    pub fn instr_count(&self) -> u32 {
        self.instrs.len() as u32 + 1
    }
}

/// A function: a named entry block plus the blocks it owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// The function's id.
    pub id: FuncId,
    /// Human-readable name (for disassembly).
    pub name: String,
    /// Entry block.
    pub entry: BlockId,
    /// Blocks owned by this function, in layout order.
    pub blocks: Vec<BlockId>,
}

/// A complete, laid-out TinyVM program.
///
/// Construct via [`crate::builder::ProgramBuilder`]; the builder validates
/// the CFG and computes the layout. All lookups here are O(1)/O(log n).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub(crate) functions: Vec<Function>,
    pub(crate) blocks: Vec<BasicBlock>,
    /// Byte address of each block, indexed by `BlockId`.
    pub(crate) block_addr: Vec<Pc>,
    /// Map from byte address back to block, for PC-based lookup.
    pub(crate) addr_to_block: BTreeMap<Pc, BlockId>,
    pub(crate) main: FuncId,
    /// Number of 64-bit words of guest data memory.
    pub(crate) memory_words: usize,
    pub(crate) image_len: u64,
}

impl Program {
    /// The function executed first.
    #[must_use]
    pub fn main(&self) -> FuncId {
        self.main
    }

    /// The entry `Pc` of the program (entry block of `main`).
    #[must_use]
    pub fn entry_pc(&self) -> Pc {
        self.block_addr(self.function(self.main).entry)
    }

    /// All functions in layout order.
    #[must_use]
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Looks up a function by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    #[must_use]
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// All basic blocks, indexable by [`BlockId`].
    #[must_use]
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Looks up a block by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// The byte address assigned to `id` by the layout.
    #[must_use]
    pub fn block_addr(&self, id: BlockId) -> Pc {
        self.block_addr[id.0 as usize]
    }

    /// The block starting exactly at `pc`, if any.
    #[must_use]
    pub fn block_at(&self, pc: Pc) -> Option<BlockId> {
        self.addr_to_block.get(&pc).copied()
    }

    /// Total encoded length of the program image in bytes.
    #[must_use]
    pub fn image_len(&self) -> u64 {
        self.image_len
    }

    /// Words of guest data memory the interpreter should allocate.
    #[must_use]
    pub fn memory_words(&self) -> usize {
        self.memory_words
    }

    /// Number of basic blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Static successors of a block (branch targets; returns excluded).
    #[must_use]
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        self.block(id).terminator.successors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn two_block_program() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.begin_function("main");
        let e = b.block(f);
        let x = b.block(f);
        b.push(
            e,
            Instr::MovImm {
                dst: Reg::R1,
                imm: 1,
            },
        );
        b.jump(e, x);
        b.halt(x);
        b.set_entry(f, e);
        b.finish().unwrap()
    }

    #[test]
    fn layout_assigns_increasing_addresses() {
        let p = two_block_program();
        let addrs: Vec<u64> = (0..p.block_count())
            .map(|i| p.block_addr(BlockId(i as u32)).addr())
            .collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), addrs.len(), "addresses must be unique");
    }

    #[test]
    fn block_at_inverts_block_addr() {
        let p = two_block_program();
        for blk in p.blocks() {
            let pc = p.block_addr(blk.id);
            assert_eq!(p.block_at(pc), Some(blk.id));
        }
        assert_eq!(p.block_at(Pc(u64::MAX)), None);
    }

    #[test]
    fn image_len_covers_all_blocks() {
        let p = two_block_program();
        let sum: u64 = p.blocks().iter().map(|b| u64::from(b.byte_len())).sum();
        assert!(p.image_len() >= sum);
        let last = p
            .blocks()
            .iter()
            .map(|b| p.block_addr(b.id).addr() + u64::from(b.byte_len()))
            .max()
            .unwrap();
        assert_eq!(p.image_len(), last);
    }

    #[test]
    fn terminator_lengths_and_successors() {
        let t = Terminator::IndirectJump {
            selector: Reg::R2,
            targets: vec![BlockId(0), BlockId(1), BlockId(2)],
        };
        assert_eq!(t.encoded_len(), 3 + 12);
        assert_eq!(t.successors().len(), 3);
        assert!(Terminator::Return.successors().is_empty());
    }

    #[test]
    fn programs_compare_structurally() {
        // Layout and lookup tables participate in equality, so two
        // independently built identical programs compare equal.
        assert_eq!(two_block_program(), two_block_program());
    }
}
