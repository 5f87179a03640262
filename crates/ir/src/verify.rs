//! Structural and type verification of IR.

use crate::func::{Function, VReg};
use crate::inst::{Addr, Inst, RegClass};
use crate::module::Module;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An IR well-formedness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Which function the error is in.
    pub function: String,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ir verification failed in `{}`: {}",
            self.function, self.message
        )
    }
}

impl Error for VerifyError {}

struct Checker<'a> {
    func: &'a Function,
    module: Option<&'a Module>,
    /// The module's functions by name, for calls.
    callees: &'a HashMap<&'a str, &'a Function>,
}

impl Checker<'_> {
    fn err(&self, message: String) -> VerifyError {
        VerifyError {
            function: self.func.name().to_string(),
            message,
        }
    }

    fn check_vreg(&self, v: VReg, want: Option<RegClass>, what: &str) -> Result<(), VerifyError> {
        if v.index() >= self.func.num_vregs() {
            return Err(self.err(format!("{what}: {v} out of range")));
        }
        if let Some(class) = want {
            let got = self.func.class_of(v);
            if got != class {
                return Err(self.err(format!("{what}: {v} has class {got}, expected {class}")));
            }
        }
        Ok(())
    }

    fn check_addr(&self, addr: &Addr) -> Result<(), VerifyError> {
        match *addr {
            Addr::Reg { base, .. } => self.check_vreg(base, Some(RegClass::Int), "address base"),
            Addr::Frame { slot, .. } => {
                if slot.index() >= self.func.num_slots() {
                    Err(self.err(format!("frame slot {slot} out of range")))
                } else {
                    Ok(())
                }
            }
            Addr::Global { global, .. } => {
                if let Some(m) = self.module {
                    if global.index() >= m.globals().len() {
                        return Err(self.err(format!("global {global} out of range")));
                    }
                }
                Ok(())
            }
        }
    }

    fn check_inst(&self, inst: &Inst) -> Result<(), VerifyError> {
        match inst {
            Inst::Copy { dst, src } => {
                self.check_vreg(*dst, None, "copy dst")?;
                self.check_vreg(*src, Some(self.func.class_of(*dst)), "copy src")
            }
            Inst::LoadImm { dst, imm } => self.check_vreg(*dst, Some(imm.class()), "loadimm dst"),
            Inst::Un { op, dst, src } => {
                self.check_vreg(*dst, Some(op.result_class()), "unop dst")?;
                self.check_vreg(*src, Some(op.operand_class()), "unop src")
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                self.check_vreg(*dst, Some(op.result_class()), "binop dst")?;
                self.check_vreg(*lhs, Some(op.operand_class()), "binop lhs")?;
                self.check_vreg(*rhs, Some(op.operand_class()), "binop rhs")
            }
            Inst::Load { dst, addr } => {
                self.check_vreg(*dst, None, "load dst")?;
                self.check_addr(addr)
            }
            Inst::Store { src, addr } => {
                self.check_vreg(*src, None, "store src")?;
                self.check_addr(addr)
            }
            Inst::FrameAddr { dst, slot } => {
                self.check_vreg(*dst, Some(RegClass::Int), "frameaddr dst")?;
                if slot.index() >= self.func.num_slots() {
                    return Err(self.err(format!("frame slot {slot} out of range")));
                }
                Ok(())
            }
            Inst::GlobalAddr { dst, global } => {
                self.check_vreg(*dst, Some(RegClass::Int), "globaladdr dst")?;
                if let Some(m) = self.module {
                    if global.index() >= m.globals().len() {
                        return Err(self.err(format!("global {global} out of range")));
                    }
                }
                Ok(())
            }
            Inst::Call { dst, callee, args } => {
                for (i, a) in args.iter().enumerate() {
                    self.check_vreg(*a, None, &format!("call arg {i}"))?;
                }
                if self.module.is_some() {
                    match self.callees.get(callee.as_str()) {
                        None => {
                            return Err(self.err(format!("call to unknown function `{callee}`")))
                        }
                        Some(f) => {
                            if f.params().len() != args.len() {
                                return Err(self.err(format!(
                                    "call to `{callee}` passes {} args, expected {}",
                                    args.len(),
                                    f.params().len()
                                )));
                            }
                            for (i, (a, p)) in args.iter().zip(f.params()).enumerate() {
                                let want = f.class_of(*p);
                                self.check_vreg(*a, Some(want), &format!("call arg {i}"))?;
                            }
                            match (dst, f.ret_class()) {
                                (Some(d), Some(rc)) => {
                                    self.check_vreg(*d, Some(rc), "call dst")?;
                                }
                                (Some(_), None) => {
                                    return Err(self.err(format!(
                                        "call captures result of void function `{callee}`"
                                    )))
                                }
                                _ => {}
                            }
                        }
                    }
                } else if let Some(d) = dst {
                    self.check_vreg(*d, None, "call dst")?;
                }
                Ok(())
            }
            Inst::Jump { target } => self.check_block(*target),
            Inst::Branch {
                cond,
                if_true,
                if_false,
            } => {
                self.check_vreg(*cond, Some(RegClass::Int), "branch cond")?;
                self.check_block(*if_true)?;
                self.check_block(*if_false)
            }
            Inst::Ret { value } => match (value, self.func.ret_class()) {
                (Some(v), Some(rc)) => self.check_vreg(*v, Some(rc), "ret value"),
                (Some(_), None) => Err(self.err("ret with value in void function".into())),
                (None, Some(_)) => {
                    Err(self.err("ret without value in value-returning function".into()))
                }
                (None, None) => Ok(()),
            },
        }
    }

    fn check_block(&self, b: crate::func::BlockId) -> Result<(), VerifyError> {
        if b.index() >= self.func.num_blocks() {
            Err(self.err(format!("branch target {b} out of range")))
        } else {
            Ok(())
        }
    }

    fn run(&self) -> Result<(), VerifyError> {
        for (bid, block) in self.func.blocks() {
            if block.insts.is_empty() {
                return Err(self.err(format!("block {bid} is empty")));
            }
            for (i, inst) in block.insts.iter().enumerate() {
                let last = i + 1 == block.insts.len();
                if inst.is_terminator() != last {
                    return Err(self.err(format!(
                        "block {bid}: terminator placement error at instruction {i}"
                    )));
                }
                self.check_inst(inst)?;
            }
        }
        Ok(())
    }
}

/// Verify one function (without cross-function call checking).
///
/// # Errors
///
/// Returns the first structural or type violation found: empty blocks,
/// misplaced terminators, out-of-range ids, or register-class mismatches.
pub fn verify_function(func: &Function) -> Result<(), VerifyError> {
    Checker {
        func,
        module: None,
        callees: &HashMap::new(),
    }
    .run()
}

/// Verify a whole module, including call signatures and global references.
///
/// # Errors
///
/// Returns the first violation found in any function.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    // The first function of a name, as `Module::function` finds it.
    let mut callees = HashMap::new();
    for f in module.functions() {
        callees.entry(f.name()).or_insert(f);
    }
    for func in module.functions() {
        Checker {
            func,
            module: Some(module),
            callees: &callees,
        }
        .run()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Imm};

    #[test]
    fn accepts_well_formed() {
        let mut b = FunctionBuilder::new("ok");
        let x = b.add_param(RegClass::Int, "x");
        b.set_ret_class(Some(RegClass::Int));
        let t = b.binv(BinOp::AddI, x, x);
        b.ret(Some(t));
        verify_function(&b.finish()).unwrap();
    }

    #[test]
    fn rejects_class_mismatch() {
        let mut b = FunctionBuilder::new("bad");
        let x = b.add_param(RegClass::Float, "x");
        let t = b.new_vreg(RegClass::Int, "t");
        b.bin(BinOp::AddI, t, x, x);
        b.ret(None);
        let e = verify_function(&b.finish()).unwrap_err();
        assert!(e.to_string().contains("class"));
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut b = FunctionBuilder::new("bad");
        let t = b.new_vreg(RegClass::Int, "t");
        b.load_imm(t, Imm::Int(1));
        let e = verify_function(&b.finish()).unwrap_err();
        assert!(e.to_string().contains("terminator"));
    }

    #[test]
    fn rejects_empty_block() {
        let mut b = FunctionBuilder::new("bad");
        b.ret(None);
        b.new_block();
        let e = verify_function(&b.finish()).unwrap_err();
        assert!(e.to_string().contains("empty"));
    }

    #[test]
    fn rejects_ret_mismatch() {
        let mut b = FunctionBuilder::new("bad");
        b.set_ret_class(Some(RegClass::Int));
        b.ret(None);
        assert!(verify_function(&b.finish()).is_err());
    }

    #[test]
    fn module_checks_call_arity() {
        let mut callee = FunctionBuilder::new("callee");
        callee.add_param(RegClass::Int, "a");
        callee.ret(None);

        let mut caller = FunctionBuilder::new("caller");
        caller.call(None, "callee", vec![]);
        caller.ret(None);

        let mut m = Module::new();
        m.add_function(callee.finish());
        m.add_function(caller.finish());
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("args"));
    }

    #[test]
    fn module_checks_unknown_callee() {
        let mut caller = FunctionBuilder::new("caller");
        caller.call(None, "ghost", vec![]);
        caller.ret(None);
        let mut m = Module::new();
        m.add_function(caller.finish());
        assert!(verify_module(&m).is_err());
    }
}
