//! Functions, basic blocks, virtual registers and frame slots.

use crate::inst::{Inst, RegClass};
use std::fmt;

macro_rules! entity_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Create an id from a raw index.
            #[inline]
            pub fn new(index: u32) -> Self {
                Self(index)
            }

            /// The raw index, usable as a dense table key.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            /// Writes the prefix and index; width and fill are ignored.
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str($prefix)?;
                f.write_str(digits(self.0, &mut [0; 10]))
            }
        }
    };
}

/// `n` in decimal, written into `buf`.
pub(crate) fn digits(mut n: u32, buf: &mut [u8; 10]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

entity_id! {
    /// A virtual register. Before allocation there are arbitrarily many;
    /// after the renumber pass each virtual register is one live range.
    VReg, "v"
}
entity_id! {
    /// A basic block label.
    BlockId, "b"
}
entity_id! {
    /// A stack-frame slot (a local array, scalar whose address is taken, or
    /// a spill slot created by the allocator).
    FrameSlot, "s"
}

/// Metadata for one virtual register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VRegData {
    /// Register class.
    pub class: RegClass,
    /// Human-readable name hint (source variable name, spill temp, …).
    pub name: String,
    /// False for ranges the allocator must never spill — the temporaries
    /// introduced by spill code itself. Spilling one would recreate an
    /// identical temporary and the Build–Simplify–Color cycle would never
    /// converge (Chaitin's "never spill" refinement).
    pub spillable: bool,
}

/// Metadata for one frame slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotData {
    /// Size in bytes.
    pub size: u64,
    /// Human-readable name hint.
    pub name: String,
    /// True if this slot was created to hold a spilled live range.
    pub is_spill: bool,
}

/// A basic block: a straight-line run of instructions ending in a terminator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// The instructions. The last one must be a terminator.
    pub insts: Vec<Inst>,
}

impl Block {
    /// The block's terminator, if the block is non-empty.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.is_terminator())
    }
}

/// A function: parameters, blocks, registers and frame layout.
///
/// Block 0 is the entry block. Parameters are virtual registers that are
/// implicitly defined on entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    name: String,
    params: Vec<VReg>,
    ret_class: Option<RegClass>,
    blocks: Vec<Block>,
    vregs: Vec<VRegData>,
    slots: Vec<SlotData>,
}

impl Function {
    /// Create an empty function with a single empty entry block.
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            params: Vec::new(),
            ret_class: None,
            blocks: vec![Block::default()],
            vregs: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the function (e.g. to qualify it when merging modules).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Parameter registers, in order. Implicitly defined at entry.
    pub fn params(&self) -> &[VReg] {
        &self.params
    }

    /// Register class of the return value, if the function returns one.
    pub fn ret_class(&self) -> Option<RegClass> {
        self.ret_class
    }

    /// Set the return class.
    pub fn set_ret_class(&mut self, class: Option<RegClass>) {
        self.ret_class = class;
    }

    /// Append a parameter of the given class; returns its register.
    pub fn add_param(&mut self, class: RegClass, name: impl Into<String>) -> VReg {
        let v = self.new_vreg(class, name);
        self.params.push(v);
        v
    }

    /// Create a fresh virtual register (spillable by default).
    pub fn new_vreg(&mut self, class: RegClass, name: impl Into<String>) -> VReg {
        let v = VReg::new(self.vregs.len() as u32);
        self.vregs.push(VRegData {
            class,
            name: name.into(),
            spillable: true,
        });
        v
    }

    /// Mark whether `v` may be spilled (see [`VRegData::spillable`]).
    pub fn set_spillable(&mut self, v: VReg, spillable: bool) {
        self.vregs[v.index()].spillable = spillable;
    }

    /// Create a fresh frame slot of `size` bytes.
    pub fn new_slot(&mut self, size: u64, name: impl Into<String>, is_spill: bool) -> FrameSlot {
        let s = FrameSlot::new(self.slots.len() as u32);
        self.slots.push(SlotData {
            size,
            name: name.into(),
            is_spill,
        });
        s
    }

    /// Rename a frame slot.
    pub fn rename_slot(&mut self, s: FrameSlot, name: impl Into<String>) {
        self.slots[s.index()].name = name.into();
    }

    /// Rename a virtual register.
    pub fn rename_vreg(&mut self, v: VReg, name: impl Into<String>) {
        self.vregs[v.index()].name = name.into();
    }

    /// Set the register class of `v` (the parser's class inference).
    pub(crate) fn set_class(&mut self, v: VReg, class: RegClass) {
        self.vregs[v.index()].class = class;
    }

    /// Create a fresh empty block.
    pub fn new_block(&mut self) -> BlockId {
        let b = BlockId::new(self.blocks.len() as u32);
        self.blocks.push(Block::default());
        b
    }

    /// The entry block (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId::new(0)
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of virtual registers.
    pub fn num_vregs(&self) -> usize {
        self.vregs.len()
    }

    /// Number of frame slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Total frame size in bytes (slots are 8-byte aligned).
    pub fn frame_size(&self) -> u64 {
        self.slots.iter().map(|s| (s.size + 7) & !7).sum()
    }

    /// Access a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Metadata for a virtual register.
    pub fn vreg(&self, v: VReg) -> &VRegData {
        &self.vregs[v.index()]
    }

    /// Register class of `v` (shorthand).
    pub fn class_of(&self, v: VReg) -> RegClass {
        self.vregs[v.index()].class
    }

    /// Metadata for a frame slot.
    pub fn slot(&self, s: FrameSlot) -> &SlotData {
        &self.slots[s.index()]
    }

    /// Iterate over block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId::new)
    }

    /// Iterate over `(BlockId, &Block)` pairs.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::new(i as u32), b))
    }

    /// Iterate over all instructions with their locations.
    pub fn insts(&self) -> impl Iterator<Item = (BlockId, usize, &Inst)> {
        self.blocks().flat_map(|(bid, b)| {
            b.insts
                .iter()
                .enumerate()
                .map(move |(i, inst)| (bid, i, inst))
        })
    }

    /// Total instruction count.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Replace the body of every block through a rewriting closure; used by
    /// passes that insert or delete instructions.
    pub fn rewrite_blocks(&mut self, mut f: impl FnMut(BlockId, Vec<Inst>) -> Vec<Inst>) {
        for i in 0..self.blocks.len() {
            let old = std::mem::take(&mut self.blocks[i].insts);
            self.blocks[i].insts = f(BlockId::new(i as u32), old);
        }
    }

    /// Apply `f` to every instruction in place.
    pub fn for_each_inst_mut(&mut self, mut f: impl FnMut(BlockId, usize, &mut Inst)) {
        for (bi, block) in self.blocks.iter_mut().enumerate() {
            for (ii, inst) in block.insts.iter_mut().enumerate() {
                f(BlockId::new(bi as u32), ii, inst);
            }
        }
    }

    /// Replace this function's parameter registers (used by renumbering).
    pub fn set_params(&mut self, params: Vec<VReg>) {
        self.params = params;
    }

    /// Replace the entire virtual-register table (used by renumbering, which
    /// rewrites the code so each def-use web gets a distinct register).
    pub fn set_vreg_table(&mut self, vregs: Vec<VRegData>) {
        self.vregs = vregs;
    }

    /// Count of static load/store instructions (used in reporting).
    pub fn memory_op_count(&self) -> usize {
        self.insts().filter(|(_, _, i)| i.is_memory()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Imm};

    #[test]
    fn new_function_has_entry_block() {
        let f = Function::new("f");
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.entry(), BlockId::new(0));
        assert_eq!(f.num_insts(), 0);
    }

    #[test]
    fn vregs_and_params() {
        let mut f = Function::new("f");
        let a = f.add_param(RegClass::Int, "a");
        let b = f.add_param(RegClass::Float, "b");
        let t = f.new_vreg(RegClass::Int, "t");
        assert_eq!(f.params(), &[a, b]);
        assert_eq!(f.num_vregs(), 3);
        assert_eq!(f.class_of(a), RegClass::Int);
        assert_eq!(f.class_of(b), RegClass::Float);
        assert_eq!(f.vreg(t).name, "t");
    }

    #[test]
    fn frame_layout_aligns_slots() {
        let mut f = Function::new("f");
        f.new_slot(12, "a", false);
        f.new_slot(8, "b", true);
        assert_eq!(f.frame_size(), 16 + 8);
        assert!(f.slot(FrameSlot::new(1)).is_spill);
    }

    #[test]
    fn rewrite_blocks_replaces_bodies() {
        let mut f = Function::new("f");
        let t = f.new_vreg(RegClass::Int, "t");
        let entry = f.entry();
        f.block_mut(entry).insts.push(Inst::LoadImm {
            dst: t,
            imm: Imm::Int(1),
        });
        f.block_mut(entry).insts.push(Inst::Ret { value: Some(t) });
        f.rewrite_blocks(|_, mut insts| {
            insts.insert(
                1,
                Inst::Bin {
                    op: BinOp::AddI,
                    dst: t,
                    lhs: t,
                    rhs: t,
                },
            );
            insts
        });
        assert_eq!(f.num_insts(), 3);
        assert!(f.block(entry).terminator().is_some());
    }
}
