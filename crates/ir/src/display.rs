//! Textual rendering of IR, for debugging, golden tests, and the wire
//! format of the serving layer.
//!
//! The rendering is **lossless**: every piece of [`Function`] state that
//! the parser cannot reconstruct from the instructions alone — register
//! names, register classes that type inference would miss, the
//! never-spill flag, frame-slot names — is emitted as `reg`/`slot`
//! metadata lines, so `parse(display(f)) == f` holds exactly. The
//! `optimist-serve` result cache depends on this round trip; the proptests
//! in the workspace root pin it down.
//!
//! One printer writes both forms into any [`fmt::Write`]: `Display` and
//! [`write_canonical`], which renders as if every register and slot
//! carried its default name. That canonical text is what
//! content-addressed caching hashes, streamed straight into the hash
//! state without building a string.

use crate::func::{digits, Function};
use crate::inst::{Inst, RegClass};
use crate::module::Module;
use crate::{FrameSlot, VReg};
use std::fmt;

/// Write `name` as a double-quoted string, escaping `\` and `"`.
fn write_quoted(out: &mut impl fmt::Write, name: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in name.chars() {
        if c == '\\' || c == '"' {
            out.write_char('\\')?;
        }
        out.write_char(c)?;
    }
    out.write_char('"')
}

/// True if `name` is the default name `{prefix}{index}`.
fn is_default_name(name: &str, prefix: char, index: usize) -> bool {
    name.strip_prefix(prefix) == Some(digits(index as u32, &mut [0; 10]))
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Copy { dst, src } => write!(f, "{dst} = copy {src}"),
            Inst::LoadImm { dst, imm } => write!(f, "{dst} = imm {imm}"),
            Inst::Un { op, dst, src } => write!(f, "{dst} = {op} {src}"),
            Inst::Bin { op, dst, lhs, rhs } => write!(f, "{dst} = {op} {lhs}, {rhs}"),
            Inst::Load { dst, addr } => write!(f, "{dst} = load {addr}"),
            Inst::Store { src, addr } => write!(f, "store {src}, {addr}"),
            Inst::FrameAddr { dst, slot } => write!(f, "{dst} = frameaddr {slot}"),
            Inst::GlobalAddr { dst, global } => write!(f, "{dst} = globaladdr {global}"),
            Inst::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call {callee}(")?;
                } else {
                    write!(f, "call {callee}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::Jump { target } => write!(f, "jump {target}"),
            Inst::Branch {
                cond,
                if_true,
                if_false,
            } => write!(f, "branch {cond}, {if_true}, {if_false}"),
            Inst::Ret { value } => match value {
                Some(v) => write!(f, "ret {v}"),
                None => write!(f, "ret"),
            },
        }
    }
}

/// The one function printer. With `canonical` set, every register and
/// slot is written as if it carried its default name `v<N>`/`s<N>`.
fn write_function(out: &mut impl fmt::Write, func: &Function, canonical: bool) -> fmt::Result {
    write!(out, "func {}(", func.name())?;
    for (i, p) in func.params().iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write!(out, "{p}:{}", func.class_of(*p))?;
    }
    out.write_char(')')?;
    if let Some(rc) = func.ret_class() {
        write!(out, " -> {rc}")?;
    }
    out.write_str(" {\n")?;
    for s in 0..func.num_slots() {
        let slot = FrameSlot::new(s as u32);
        let data = func.slot(slot);
        write!(out, "    slot {slot} = {} bytes", data.size)?;
        if !canonical && !is_default_name(&data.name, 's', s) {
            out.write_char(' ')?;
            write_quoted(out, &data.name)?;
        }
        if data.is_spill {
            out.write_str(" (spill)")?;
        }
        out.write_char('\n')?;
    }
    // `reg` metadata lines carry everything the instructions don't:
    // names, the never-spill flag, and any class the parser's type
    // inference could not recover (float is always spelled out;
    // unreferenced registers would otherwise vanish entirely).
    let mut referenced = vec![false; func.num_vregs()];
    let mut uses = Vec::new();
    for &p in func.params() {
        referenced[p.index()] = true;
    }
    for (_, _, inst) in func.insts() {
        uses.clear();
        inst.uses_into(&mut uses);
        for v in inst.def().iter().chain(&uses) {
            referenced[v.index()] = true;
        }
    }
    for (i, &is_referenced) in referenced.iter().enumerate() {
        let v = VReg::new(i as u32);
        let data = func.vreg(v);
        let named = !canonical && !is_default_name(&data.name, 'v', i);
        if !named && data.spillable && data.class == RegClass::Int && is_referenced {
            continue;
        }
        write!(out, "    reg {v}:{}", data.class)?;
        if named {
            out.write_char(' ')?;
            write_quoted(out, &data.name)?;
        }
        if !data.spillable {
            out.write_str(" nospill")?;
        }
        out.write_char('\n')?;
    }
    for (bid, block) in func.blocks() {
        writeln!(out, "{bid}:")?;
        for inst in &block.insts {
            writeln!(out, "    {inst}")?;
        }
    }
    out.write_char('}')
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_function(f, self, false)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in self.globals() {
            writeln!(f, "global {} [{} bytes]", g.name, g.size)?;
        }
        for (i, func) in self.functions().iter().enumerate() {
            if i > 0 || !self.globals().is_empty() {
                writeln!(f)?;
            }
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

/// Write `func` in **canonical text form**: the lossless text format with
/// every register written as `v<N>` and every slot as `s<N>`, whatever
/// its name.
///
/// Names are the only function state with no effect on register
/// allocation, so two functions have equal canonical text exactly when
/// they are α-equivalent for the allocator: same instructions, classes,
/// slots, and never-spill flags. The `optimist-serve` result cache hashes
/// this text (together with a configuration fingerprint) as its
/// content address, streaming it into the hash state.
///
/// # Errors
///
/// Only those of `out`.
pub fn write_canonical(out: &mut impl fmt::Write, func: &Function) -> fmt::Result {
    write_function(out, func, true)
}

#[cfg(test)]
mod tests {
    use super::write_canonical;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, RegClass};

    #[test]
    fn function_renders_readably() {
        let mut b = FunctionBuilder::new("f");
        let x = b.add_param(RegClass::Int, "x");
        b.set_ret_class(Some(RegClass::Int));
        let t = b.binv(BinOp::MulI, x, x);
        b.ret(Some(t));
        let s = b.finish().to_string();
        assert!(s.contains("func f(v0:int) -> int {"));
        assert!(s.contains("v1 = mul.i v0, v0"));
        assert!(s.contains("ret v1"));
        // The parameter's source name rides along as metadata.
        assert!(s.contains("reg v0:int \"x\""));
    }

    fn canonical_text(f: &crate::Function) -> String {
        let mut s = String::new();
        write_canonical(&mut s, f).unwrap();
        s
    }

    #[test]
    fn canonical_text_ignores_names_but_not_flags() {
        let build = |names: [&str; 2], spillable: bool| {
            let mut b = FunctionBuilder::new("f");
            b.set_ret_class(Some(RegClass::Int));
            let x = b.add_param(RegClass::Int, names[0]);
            let t = b.binv(BinOp::MulI, x, x);
            let mut f = b.finish();
            f.rename_vreg(t, names[1]);
            f.set_spillable(t, spillable);
            f.block_mut(f.entry())
                .insts
                .push(crate::Inst::Ret { value: Some(t) });
            f
        };
        let a = build(["x", "t"], true);
        let b = build(["alpha", "beta"], true);
        assert_ne!(a.to_string(), b.to_string(), "names are displayed");
        assert_eq!(canonical_text(&a), canonical_text(&b), "…but not hashed");
        let c = build(["x", "t"], false);
        assert_ne!(
            canonical_text(&a),
            canonical_text(&c),
            "never-spill is allocation-relevant and must stay"
        );
    }

    #[test]
    fn unreferenced_and_nospill_registers_are_declared() {
        let mut f = crate::Function::new("f");
        let dead = f.new_vreg(RegClass::Float, "v0");
        let _ = dead;
        let v = f.new_vreg(RegClass::Int, "v1");
        f.set_spillable(v, false);
        f.block_mut(f.entry())
            .insts
            .push(crate::Inst::Ret { value: None });
        let s = f.to_string();
        assert!(s.contains("reg v0:float"), "{s}");
        assert!(s.contains("reg v1:int nospill"), "{s}");
    }
}
