//! Instructions, operators, immediates and addressing modes.

use crate::func::{BlockId, FrameSlot, VReg};
use crate::module::GlobalId;
use std::fmt;

/// The two register classes of the modeled machine.
///
/// The paper's target, the IBM RT/PC, has sixteen general-purpose registers
/// and eight floating-point registers; the two files are allocated
/// independently (a node in one class never interferes with a node in the
/// other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// General-purpose (integer / address) registers.
    Int,
    /// Floating-point registers.
    Float,
}

impl RegClass {
    /// All register classes, in a fixed order.
    pub const ALL: [RegClass; 2] = [RegClass::Int, RegClass::Float];

    /// A dense index for per-class tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RegClass::Int => 0,
            RegClass::Float => 1,
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RegClass::Int => "int",
            RegClass::Float => "float",
        })
    }
}

/// An immediate constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Imm {
    /// A 64-bit signed integer constant.
    Int(i64),
    /// A 64-bit floating-point constant.
    Float(f64),
}

impl Imm {
    /// The register class a value of this immediate lives in.
    pub fn class(self) -> RegClass {
        match self {
            Imm::Int(_) => RegClass::Int,
            Imm::Float(_) => RegClass::Float,
        }
    }
}

impl fmt::Display for Imm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Imm::Int(v) => write!(f, "{v}"),
            Imm::Float(v) => write!(f, "{v:?}"),
        }
    }
}

/// Comparison predicates (shared by integer and float compares).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl Cmp {
    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Eq,
            Cmp::Ne => Cmp::Ne,
            Cmp::Lt => Cmp::Gt,
            Cmp::Le => Cmp::Ge,
            Cmp::Gt => Cmp::Lt,
            Cmp::Ge => Cmp::Le,
        }
    }

    /// The logical negation of the predicate.
    pub fn negated(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Ne,
            Cmp::Ne => Cmp::Eq,
            Cmp::Lt => Cmp::Ge,
            Cmp::Le => Cmp::Gt,
            Cmp::Gt => Cmp::Le,
            Cmp::Ge => Cmp::Lt,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Eq => "eq",
            Cmp::Ne => "ne",
            Cmp::Lt => "lt",
            Cmp::Le => "le",
            Cmp::Gt => "gt",
            Cmp::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    NegI,
    /// Float negation.
    NegF,
    /// Bitwise/logical not (operates on 0/1 values as logical not).
    Not,
    /// Integer absolute value.
    AbsI,
    /// Float absolute value.
    AbsF,
    /// Float square root.
    SqrtF,
    /// Convert integer to float.
    IntToFloat,
    /// Convert float to integer (truncating toward zero).
    FloatToInt,
}

impl UnOp {
    /// Register class of the result.
    pub fn result_class(self) -> RegClass {
        match self {
            UnOp::NegI | UnOp::Not | UnOp::AbsI | UnOp::FloatToInt => RegClass::Int,
            UnOp::NegF | UnOp::AbsF | UnOp::SqrtF | UnOp::IntToFloat => RegClass::Float,
        }
    }

    /// Register class of the operand.
    pub fn operand_class(self) -> RegClass {
        match self {
            UnOp::NegI | UnOp::Not | UnOp::AbsI | UnOp::IntToFloat => RegClass::Int,
            UnOp::NegF | UnOp::AbsF | UnOp::SqrtF | UnOp::FloatToInt => RegClass::Float,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            UnOp::NegI => "neg.i",
            UnOp::NegF => "neg.f",
            UnOp::Not => "not",
            UnOp::AbsI => "abs.i",
            UnOp::AbsF => "abs.f",
            UnOp::SqrtF => "sqrt.f",
            UnOp::IntToFloat => "cvt.if",
            UnOp::FloatToInt => "cvt.fi",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition.
    AddI,
    /// Integer subtraction.
    SubI,
    /// Integer multiplication.
    MulI,
    /// Integer division (truncating; division by zero is a simulator trap).
    DivI,
    /// Integer remainder.
    RemI,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Integer minimum.
    MinI,
    /// Integer maximum.
    MaxI,
    /// Float addition.
    AddF,
    /// Float subtraction.
    SubF,
    /// Float multiplication.
    MulF,
    /// Float division.
    DivF,
    /// Float minimum.
    MinF,
    /// Float maximum.
    MaxF,
    /// Integer comparison; result is 0 or 1 in an integer register.
    CmpI(Cmp),
    /// Float comparison; result is 0 or 1 in an integer register.
    CmpF(Cmp),
}

impl BinOp {
    /// Register class of the result.
    pub fn result_class(self) -> RegClass {
        use BinOp::*;
        match self {
            AddI | SubI | MulI | DivI | RemI | And | Or | Xor | Shl | Shr | MinI | MaxI
            | CmpI(_) | CmpF(_) => RegClass::Int,
            AddF | SubF | MulF | DivF | MinF | MaxF => RegClass::Float,
        }
    }

    /// Register class of both operands.
    pub fn operand_class(self) -> RegClass {
        use BinOp::*;
        match self {
            AddI | SubI | MulI | DivI | RemI | And | Or | Xor | Shl | Shr | MinI | MaxI
            | CmpI(_) => RegClass::Int,
            AddF | SubF | MulF | DivF | MinF | MaxF | CmpF(_) => RegClass::Float,
        }
    }

    /// True for the comparison forms.
    pub fn is_compare(self) -> bool {
        matches!(self, BinOp::CmpI(_) | BinOp::CmpF(_))
    }

    fn mnemonic(self) -> &'static str {
        use BinOp::*;
        match self {
            AddI => "add.i",
            SubI => "sub.i",
            MulI => "mul.i",
            DivI => "div.i",
            RemI => "rem.i",
            And => "and",
            Or => "or",
            Xor => "xor",
            Shl => "shl",
            Shr => "shr",
            MinI => "min.i",
            MaxI => "max.i",
            AddF => "add.f",
            SubF => "sub.f",
            MulF => "mul.f",
            DivF => "div.f",
            MinF => "min.f",
            MaxF => "max.f",
            // Indexed in `Cmp`'s declaration order.
            CmpI(c) => [
                "cmp.i.eq", "cmp.i.ne", "cmp.i.lt", "cmp.i.le", "cmp.i.gt", "cmp.i.ge",
            ][c as usize],
            CmpF(c) => [
                "cmp.f.eq", "cmp.f.ne", "cmp.f.lt", "cmp.f.le", "cmp.f.gt", "cmp.f.ge",
            ][c as usize],
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A memory address.
///
/// All addressing is base-plus-displacement, as on the modeled RISC. Frame
/// and global forms are frame-pointer / data-segment relative and therefore
/// consume no allocatable register — this matters for spill code, which must
/// not itself demand extra registers for addressing (Chaitin's design relies
/// on this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Addr {
    /// `[base + offset]` where `base` is an integer register holding an
    /// address (e.g. an array parameter).
    Reg {
        /// Base address register.
        base: VReg,
        /// Byte displacement.
        offset: i64,
    },
    /// `[frame_slot + offset]`: frame-pointer-relative.
    Frame {
        /// The frame slot.
        slot: FrameSlot,
        /// Byte displacement within the slot.
        offset: i64,
    },
    /// `[global + offset]`: a module-level data block.
    Global {
        /// The global data block.
        global: GlobalId,
        /// Byte displacement within the block.
        offset: i64,
    },
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Addr::Reg { base, offset } => write!(f, "[{base}{offset:+}]"),
            Addr::Frame { slot, offset } => write!(f, "[{slot}{offset:+}]"),
            Addr::Global { global, offset } => write!(f, "[{global}{offset:+}]"),
        }
    }
}

/// A single three-address instruction.
///
/// The last instruction of every block must be a *terminator*
/// ([`Inst::Jump`], [`Inst::Branch`] or [`Inst::Ret`]); terminators may not
/// appear elsewhere. [`verify_function`](crate::verify_function) checks this.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Register-to-register copy. Copies are what the allocator's coalescing
    /// phase removes; the interference builder treats them specially
    /// (the destination does not interfere with the source).
    Copy {
        /// Destination register.
        dst: VReg,
        /// Source register (same class as `dst`).
        src: VReg,
    },
    /// Load an immediate constant into a register.
    LoadImm {
        /// Destination register.
        dst: VReg,
        /// The constant.
        imm: Imm,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: VReg,
        /// Operand register.
        src: VReg,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: VReg,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: VReg,
    },
    /// Load from memory.
    Load {
        /// Destination register (class decides 8-byte int or float load).
        dst: VReg,
        /// Source address.
        addr: Addr,
    },
    /// Store to memory.
    Store {
        /// Source register.
        src: VReg,
        /// Destination address.
        addr: Addr,
    },
    /// Materialize the address of a frame slot into a register.
    FrameAddr {
        /// Destination (integer) register.
        dst: VReg,
        /// The slot whose address is taken.
        slot: FrameSlot,
    },
    /// Materialize the address of a global into a register.
    GlobalAddr {
        /// Destination (integer) register.
        dst: VReg,
        /// The global whose address is taken.
        global: GlobalId,
    },
    /// Call a function by name. Arguments are passed by value (addresses for
    /// arrays); the callee's register file is private, so a call clobbers no
    /// caller registers — allocation is purely intraprocedural, as in the
    /// paper.
    Call {
        /// Register receiving the return value, if any.
        dst: Option<VReg>,
        /// Callee name, resolved within the enclosing [`Module`](crate::Module).
        callee: String,
        /// Argument registers.
        args: Vec<VReg>,
    },
    /// Unconditional jump.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch on an integer register (zero = false).
    Branch {
        /// Condition register.
        cond: VReg,
        /// Target when `cond != 0`.
        if_true: BlockId,
        /// Target when `cond == 0`.
        if_false: BlockId,
    },
    /// Return from the function.
    Ret {
        /// Returned value, if the function returns one.
        value: Option<VReg>,
    },
}

impl Inst {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::Copy { dst, .. }
            | Inst::LoadImm { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::FrameAddr { dst, .. }
            | Inst::GlobalAddr { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } | Inst::Jump { .. } | Inst::Branch { .. } | Inst::Ret { .. } => None,
        }
    }

    /// Append the registers used (read) by this instruction to `out`.
    ///
    /// A register may appear twice (e.g. `add t, x, x`).
    pub fn uses_into(&self, out: &mut Vec<VReg>) {
        fn addr_use(addr: &Addr, out: &mut Vec<VReg>) {
            if let Addr::Reg { base, .. } = addr {
                out.push(*base);
            }
        }
        match self {
            Inst::Copy { src, .. } | Inst::Un { src, .. } => out.push(*src),
            Inst::Bin { lhs, rhs, .. } => {
                out.push(*lhs);
                out.push(*rhs);
            }
            Inst::Load { addr, .. } => addr_use(addr, out),
            Inst::Store { src, addr } => {
                out.push(*src);
                addr_use(addr, out);
            }
            Inst::Call { args, .. } => out.extend_from_slice(args),
            Inst::Branch { cond, .. } => out.push(*cond),
            Inst::Ret { value } => out.extend(value.iter().copied()),
            Inst::LoadImm { .. }
            | Inst::FrameAddr { .. }
            | Inst::GlobalAddr { .. }
            | Inst::Jump { .. } => {}
        }
    }

    /// The registers used by this instruction, freshly allocated.
    pub fn uses(&self) -> Vec<VReg> {
        let mut v = Vec::new();
        self.uses_into(&mut v);
        v
    }

    /// Rewrite every *use* occurrence through `f`.
    pub fn map_uses(&mut self, mut f: impl FnMut(VReg) -> VReg) {
        fn addr_map(addr: &mut Addr, f: &mut impl FnMut(VReg) -> VReg) {
            if let Addr::Reg { base, .. } = addr {
                *base = f(*base);
            }
        }
        match self {
            Inst::Copy { src, .. } | Inst::Un { src, .. } => *src = f(*src),
            Inst::Bin { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Load { addr, .. } => addr_map(addr, &mut f),
            Inst::Store { src, addr } => {
                *src = f(*src);
                addr_map(addr, &mut f);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Branch { cond, .. } => *cond = f(*cond),
            Inst::Ret { value } => {
                if let Some(v) = value {
                    *v = f(*v);
                }
            }
            Inst::LoadImm { .. }
            | Inst::FrameAddr { .. }
            | Inst::GlobalAddr { .. }
            | Inst::Jump { .. } => {}
        }
    }

    /// Rewrite the *def* occurrence through `f`.
    pub fn map_def(&mut self, mut f: impl FnMut(VReg) -> VReg) {
        match self {
            Inst::Copy { dst, .. }
            | Inst::LoadImm { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::FrameAddr { dst, .. }
            | Inst::GlobalAddr { dst, .. } => *dst = f(*dst),
            Inst::Call { dst, .. } => {
                if let Some(d) = dst {
                    *d = f(*d);
                }
            }
            Inst::Store { .. } | Inst::Jump { .. } | Inst::Branch { .. } | Inst::Ret { .. } => {}
        }
    }

    /// True if this is a register-to-register copy.
    pub fn is_copy(&self) -> bool {
        matches!(self, Inst::Copy { .. })
    }

    /// True if this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Jump { .. } | Inst::Branch { .. } | Inst::Ret { .. }
        )
    }

    /// True if this instruction touches memory.
    pub fn is_memory(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }

    /// Successor blocks of a terminator (empty for non-terminators and `Ret`).
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (a, b) = match self {
            Inst::Jump { target } => (Some(*target), None),
            Inst::Branch {
                if_true, if_false, ..
            } => (Some(*if_true), Some(*if_false)),
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Rewrite terminator targets through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Inst::Jump { target } => *target = f(*target),
            Inst::Branch {
                if_true, if_false, ..
            } => {
                *if_true = f(*if_true);
                *if_false = f(*if_false);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> VReg {
        VReg::new(n)
    }

    #[test]
    fn def_and_uses() {
        let i = Inst::Bin {
            op: BinOp::AddI,
            dst: v(0),
            lhs: v(1),
            rhs: v(1),
        };
        assert_eq!(i.def(), Some(v(0)));
        assert_eq!(i.uses(), vec![v(1), v(1)]);
    }

    #[test]
    fn store_has_no_def() {
        let i = Inst::Store {
            src: v(3),
            addr: Addr::Reg {
                base: v(4),
                offset: 8,
            },
        };
        assert_eq!(i.def(), None);
        assert_eq!(i.uses(), vec![v(3), v(4)]);
    }

    #[test]
    fn frame_addressing_uses_no_register() {
        let i = Inst::Load {
            dst: v(0),
            addr: Addr::Frame {
                slot: FrameSlot::new(2),
                offset: 16,
            },
        };
        assert!(i.uses().is_empty());
    }

    #[test]
    fn successors_of_terminators() {
        let j = Inst::Jump {
            target: BlockId::new(3),
        };
        assert_eq!(j.successors().collect::<Vec<_>>(), vec![BlockId::new(3)]);
        let b = Inst::Branch {
            cond: v(0),
            if_true: BlockId::new(1),
            if_false: BlockId::new(2),
        };
        assert_eq!(
            b.successors().collect::<Vec<_>>(),
            vec![BlockId::new(1), BlockId::new(2)]
        );
        let r = Inst::Ret { value: None };
        assert_eq!(r.successors().count(), 0);
    }

    #[test]
    fn map_uses_rewrites_each_occurrence() {
        let mut i = Inst::Bin {
            op: BinOp::MulI,
            dst: v(0),
            lhs: v(1),
            rhs: v(2),
        };
        i.map_uses(|r| VReg::new(r.index() as u32 + 10));
        assert_eq!(i.uses(), vec![v(11), v(12)]);
        assert_eq!(i.def(), Some(v(0)));
    }

    #[test]
    fn cmp_negation_and_swap() {
        assert_eq!(Cmp::Lt.negated(), Cmp::Ge);
        assert_eq!(Cmp::Lt.swapped(), Cmp::Gt);
        assert_eq!(Cmp::Eq.swapped(), Cmp::Eq);
        for c in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
            assert_eq!(c.negated().negated(), c);
            assert_eq!(c.swapped().swapped(), c);
        }
    }

    #[test]
    fn operators_print_their_mnemonics() {
        for c in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
            assert_eq!(BinOp::CmpI(c).to_string(), format!("cmp.i.{c}"));
            assert_eq!(BinOp::CmpF(c).to_string(), format!("cmp.f.{c}"));
        }
        assert_eq!(BinOp::MaxF.to_string(), "max.f");
        assert_eq!(UnOp::FloatToInt.to_string(), "cvt.fi");
        // Width and fill are ignored, as every listing expects.
        let padded = format!(
            "{:>8}|{:<8}|{:^8}|{:>8}|{:>8}|{:>8}",
            RegClass::Float,
            Cmp::Le,
            BinOp::AddI,
            VReg::new(12),
            BlockId::new(0),
            FrameSlot::new(4_294_967_295)
        );
        assert_eq!(padded, "float|le|add.i|v12|b0|s4294967295");
    }

    #[test]
    fn operator_classes() {
        assert_eq!(BinOp::AddF.result_class(), RegClass::Float);
        assert_eq!(BinOp::CmpF(Cmp::Lt).result_class(), RegClass::Int);
        assert_eq!(BinOp::CmpF(Cmp::Lt).operand_class(), RegClass::Float);
        assert_eq!(UnOp::IntToFloat.result_class(), RegClass::Float);
        assert_eq!(UnOp::IntToFloat.operand_class(), RegClass::Int);
    }
}
