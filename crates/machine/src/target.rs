//! Target description: register files and physical registers.

use optimist_ir::RegClass;
use std::fmt;

/// A physical register: a color within one register class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysReg {
    /// Which register file.
    pub class: RegClass,
    /// Index within the file (`0..Target::regs(class)`).
    pub index: u16,
}

impl PhysReg {
    /// Construct a physical register.
    pub fn new(class: RegClass, index: u16) -> Self {
        PhysReg { class, index }
    }
}

/// The most registers one class can hold: a [`PhysReg::index`] is a `u16`,
/// so no class can have more colors than it can name. A bound of the
/// representation, not a setting.
pub const MAX_REGS_PER_CLASS: usize = u16::MAX as usize + 1;

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "r{}", self.index),
            RegClass::Float => write!(f, "f{}", self.index),
        }
    }
}

/// Register-file sizes of the modeled machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target {
    name: String,
    int_regs: usize,
    float_regs: usize,
}

impl Target {
    /// The paper's machine: 16 general-purpose + 8 floating-point registers.
    pub fn rt_pc() -> Self {
        Target {
            name: "rt-pc".to_string(),
            int_regs: 16,
            float_regs: 8,
        }
    }

    /// The RT/PC with the integer file artificially restricted, as in the
    /// quicksort study (Figure 6). The paper notes the RT/PC's conventions
    /// prevent meaningful experimentation below 8 registers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above [`MAX_REGS_PER_CLASS`].
    pub fn with_int_regs(n: usize) -> Self {
        assert!(n > 0, "a target needs at least one integer register");
        assert!(
            n <= MAX_REGS_PER_CLASS,
            "a register class holds at most {MAX_REGS_PER_CLASS} registers"
        );
        Target {
            name: format!("rt-pc/{n}"),
            int_regs: n,
            float_regs: 8,
        }
    }

    /// A fully custom target.
    ///
    /// # Panics
    ///
    /// Panics if either file is empty or larger than
    /// [`MAX_REGS_PER_CLASS`].
    pub fn custom(name: impl Into<String>, int_regs: usize, float_regs: usize) -> Self {
        assert!(
            int_regs > 0 && float_regs > 0,
            "register files must be non-empty"
        );
        assert!(
            int_regs <= MAX_REGS_PER_CLASS && float_regs <= MAX_REGS_PER_CLASS,
            "a register class holds at most {MAX_REGS_PER_CLASS} registers"
        );
        Target {
            name: name.into(),
            int_regs,
            float_regs,
        }
    }

    /// The target's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of allocatable registers in `class` — the `k` the allocator
    /// colors with.
    pub fn regs(&self, class: RegClass) -> usize {
        match class {
            RegClass::Int => self.int_regs,
            RegClass::Float => self.float_regs,
        }
    }
}

impl Default for Target {
    /// Defaults to [`Target::rt_pc`].
    fn default() -> Self {
        Target::rt_pc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rt_pc_matches_paper() {
        let t = Target::rt_pc();
        assert_eq!(t.regs(RegClass::Int), 16);
        assert_eq!(t.regs(RegClass::Float), 8);
    }

    #[test]
    fn restricted_target_only_shrinks_int_file() {
        let t = Target::with_int_regs(8);
        assert_eq!(t.regs(RegClass::Int), 8);
        assert_eq!(t.regs(RegClass::Float), 8);
        assert_eq!(t.name(), "rt-pc/8");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_registers_rejected() {
        Target::with_int_regs(0);
    }

    #[test]
    #[should_panic(expected = "at most 65536")]
    fn more_registers_than_an_index_can_name_rejected() {
        Target::with_int_regs(MAX_REGS_PER_CLASS + 1);
    }

    #[test]
    #[should_panic(expected = "at most 65536")]
    fn oversized_custom_file_rejected() {
        Target::custom("big", 16, MAX_REGS_PER_CLASS + 1);
    }

    #[test]
    fn largest_file_is_accepted() {
        let t = Target::custom("big", MAX_REGS_PER_CLASS, MAX_REGS_PER_CLASS);
        assert_eq!(t.regs(RegClass::Int), 65_536);
        assert_eq!(
            Target::with_int_regs(MAX_REGS_PER_CLASS).regs(RegClass::Int),
            65_536
        );
    }

    #[test]
    fn physreg_display() {
        assert_eq!(PhysReg::new(RegClass::Int, 3).to_string(), "r3");
        assert_eq!(PhysReg::new(RegClass::Float, 7).to_string(), "f7");
    }
}
