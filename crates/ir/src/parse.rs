//! A text parser for the IR, the inverse of the [`Display`](std::fmt)
//! rendering: `parse_module(&module.to_string())` reconstructs the module
//! **exactly** (`parse(display(f)) == f` — the serving layer's wire format
//! relies on this being lossless).
//!
//! Dumps carry `reg`/`slot` metadata lines for register and slot names,
//! classes, and never-spill flags. Hand-written IR may omit them: register
//! classes are then reconstructed by constraint propagation from operator
//! signatures, parameter annotations, copies, and call edges (registers
//! touched only by class-agnostic instructions default to `int`, which
//! preserves semantics — loads, stores and copies move raw bits), names
//! default to `v<N>`/`s<N>`, and everything is spillable.
//!
//! Useful for golden tests, for re-reading `optimist compile` dumps, for
//! the `optimist-serve` request protocol, and for writing IR by hand
//! without the builder.

use crate::func::{BlockId, FrameSlot, Function, VReg};
use crate::inst::{Addr, BinOp, Cmp, Imm, Inst, RegClass, UnOp};
use crate::module::{GlobalId, Module};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A text-format parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: u32,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ir parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err<T>(line: u32, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: msg.into(),
    })
}

/// Parse a whole module (globals then functions).
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut module = Module::new();
    // Every consumer reads lines trimmed, so trim each one once here.
    let lines: Vec<(u32, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i as u32 + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();

    let mut i = 0;
    // Globals first: `global NAME [SIZE bytes]`.
    while i < lines.len() {
        let (ln, t) = lines[i];
        if let Some(rest) = t.strip_prefix("global ") {
            let (name, size) = parse_global(rest, ln)?;
            module.add_global(name, size);
            i += 1;
        } else {
            break;
        }
    }
    // Functions, with their constraints in module order.
    let mut pending: Vec<Constraints> = Vec::new();
    let mut index: HashMap<&str, usize> = HashMap::new();
    while i < lines.len() {
        let (func, name, consumed, constraints) = parse_function_lines(&lines[i..])?;
        // Names address functions (calls, allocations, the simulator), so
        // a second body under one name would silently replace the first.
        if index.insert(name, pending.len()).is_some() {
            return err(lines[i].0, format!("duplicate function `{name}`"));
        }
        pending.push(constraints);
        module.add_function(func);
        i += consumed;
    }
    if module.functions().is_empty() {
        return err(0, "no functions in module text");
    }
    resolve_classes(&mut module, &pending, &index);
    Ok(module)
}

/// Parse a single function (no call-edge class propagation across units —
/// for multi-function inputs use [`parse_module`]).
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line.
pub fn parse_function(text: &str) -> Result<Function, ParseError> {
    let m = parse_module(text)?;
    m.functions().first().cloned().ok_or_else(|| ParseError {
        line: 0,
        message: "no function found".into(),
    })
}

fn parse_global(rest: &str, ln: u32) -> Result<(String, u64), ParseError> {
    // NAME [SIZE bytes]
    let Some((name, tail)) = rest.split_once(' ') else {
        return err(ln, "malformed global line");
    };
    let tail = tail.trim();
    let inner = tail
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(" bytes]"))
        .ok_or_else(|| ParseError {
            line: ln,
            message: "expected `[N bytes]`".into(),
        })?;
    let size: u64 = inner.trim().parse().map_err(|_| ParseError {
        line: ln,
        message: format!("bad global size `{inner}`"),
    })?;
    Ok((name.trim().to_string(), size))
}

/// Pending class constraints collected while parsing. Callees are named
/// by slices of the module text, resolved to function indices once every
/// function is read.
#[derive(Default)]
struct Constraints<'a> {
    /// (vreg, class) — hard constraints from operator signatures.
    known: Vec<(u32, RegClass)>,
    /// (a, b) — must share a class (copies).
    equal: Vec<(u32, u32)>,
    /// (arg_vreg, callee, param_index).
    call_args: Vec<(u32, &'a str, usize)>,
    /// (dst_vreg, callee).
    call_rets: Vec<(u32, &'a str)>,
}

/// Parse one function from the head of `lines`: the function, its name as
/// written, the lines consumed and its class constraints.
fn parse_function_lines<'a>(
    lines: &[(u32, &'a str)],
) -> Result<(Function, &'a str, usize, Constraints<'a>), ParseError> {
    let (ln0, header) = lines[0];
    let rest = header.strip_prefix("func ").ok_or_else(|| ParseError {
        line: ln0,
        message: format!("expected `func`, found `{header}`"),
    })?;
    let open = rest.find('(').ok_or_else(|| ParseError {
        line: ln0,
        message: "missing `(` in func header".into(),
    })?;
    let name = rest[..open].trim();
    let close = rest.find(')').ok_or_else(|| ParseError {
        line: ln0,
        message: "missing `)` in func header".into(),
    })?;
    let params_text = &rest[open + 1..close];
    let tail = rest[close + 1..].trim();
    let (ret_class, brace_ok) = match tail {
        "{" => (None, true),
        t => match t.strip_prefix("-> ") {
            Some(rt) => {
                let rt = rt.trim_end_matches('{').trim();
                (Some(parse_class(rt, ln0)?), t.ends_with('{'))
            }
            None => (None, false),
        },
    };
    if !brace_ok {
        return err(ln0, "func header must end with `{`");
    }

    let mut func = Function::new(name);
    func.set_ret_class(ret_class);
    let mut constraints = Constraints::default();

    // Parameters: `vN:class` in order. Indices must be sequential from 0.
    let mut next_vreg = 0u32;
    if !params_text.trim().is_empty() {
        for p in params_text.split(',') {
            let p = p.trim();
            let Some((v, c)) = p.split_once(':') else {
                return err(ln0, format!("malformed parameter `{p}`"));
            };
            let idx = parse_vreg(v, ln0)?;
            if idx != next_vreg {
                return err(ln0, format!("parameters must be v0..vK in order, got {v}"));
            }
            next_vreg += 1;
            func.add_param(parse_class(c.trim(), ln0)?, v.trim());
        }
    }

    // Body: slots, reg metadata, block labels, instructions, closing brace.
    let mut consumed = 1;
    let mut current: Option<BlockId> = None;
    let mut max_vreg = next_vreg as i64 - 1;
    let mut insts_tmp: Vec<(BlockId, Inst)> = Vec::new();
    let mut max_slot: i64 = -1;
    let mut declared_slots: Vec<(u64, bool, Option<String>)> = Vec::new();
    let mut declared_regs: Vec<(u32, RegClass, Option<String>, bool)> = Vec::new();
    let mut max_block: i64 = -1;
    let mut done = false;

    let mut uses = Vec::new();
    for &(ln, t) in &lines[1..] {
        consumed += 1;
        if t == "}" {
            done = true;
            break;
        }
        if let Some(rest) = t.strip_prefix("slot ") {
            // sN = SIZE bytes ["NAME"] [(spill)]
            let Some((sid, tail)) = rest.split_once('=') else {
                return err(ln, "malformed slot line");
            };
            let idx = parse_index(sid.trim(), 's', ln)?;
            if idx as usize != declared_slots.len() {
                return err(ln, "slots must be declared in order s0, s1, …");
            }
            let tail = tail.trim();
            let Some((num, mut rest)) = tail.split_once(char::is_whitespace) else {
                return err(ln, "expected `= N bytes`");
            };
            let size: u64 = num.parse().map_err(|_| ParseError {
                line: ln,
                message: format!("bad slot size `{num}`"),
            })?;
            rest = rest
                .trim_start()
                .strip_prefix("bytes")
                .ok_or_else(|| ParseError {
                    line: ln,
                    message: "expected `= N bytes`".into(),
                })?
                .trim_start();
            let mut name = None;
            if rest.starts_with('"') {
                let (n, r) = parse_quoted(rest, ln)?;
                name = Some(n);
                rest = r.trim_start();
            }
            let spill = match rest.trim() {
                "" => false,
                "(spill)" => true,
                other => return err(ln, format!("trailing `{other}` on slot line")),
            };
            declared_slots.push((size, spill, name));
            max_slot = max_slot.max(idx as i64);
            continue;
        }
        if let Some(rest) = t.strip_prefix("reg ") {
            // vN:class ["NAME"] [nospill]
            let rest = rest.trim();
            let (head, mut tail) = match rest.split_once(char::is_whitespace) {
                Some((h, t)) => (h, t.trim_start()),
                None => (rest, ""),
            };
            let Some((v_s, c_s)) = head.split_once(':') else {
                return err(ln, "reg line needs `v<N>:class`");
            };
            let idx = parse_vreg(v_s, ln)?;
            let class = parse_class(c_s.trim(), ln)?;
            let mut name = None;
            if tail.starts_with('"') {
                let (n, r) = parse_quoted(tail, ln)?;
                name = Some(n);
                tail = r.trim_start();
            }
            let spillable = match tail.trim() {
                "" => true,
                "nospill" => false,
                other => return err(ln, format!("trailing `{other}` on reg line")),
            };
            declared_regs.push((idx, class, name, spillable));
            max_vreg = max_vreg.max(idx as i64);
            continue;
        }
        if let Some(label) = t.strip_suffix(':') {
            let idx = parse_index(label.trim(), 'b', ln)?;
            max_block = max_block.max(idx as i64);
            current = Some(BlockId::new(idx));
            continue;
        }
        let Some(block) = current else {
            return err(ln, format!("instruction before any block label: `{t}`"));
        };
        let inst = parse_inst(t, ln, &mut constraints)?;
        // Track vreg/slot/block maxima for table sizing.
        if let Some(d) = inst.def() {
            max_vreg = max_vreg.max(d.index() as i64);
        }
        uses.clear();
        inst.uses_into(&mut uses);
        for u in &uses {
            max_vreg = max_vreg.max(u.index() as i64);
        }
        for s in inst.successors() {
            max_block = max_block.max(s.index() as i64);
        }
        if let Inst::FrameAddr { slot, .. } = &inst {
            max_slot = max_slot.max(slot.index() as i64);
        }
        match &inst {
            Inst::Load { addr, .. } | Inst::Store { addr, .. } => {
                if let Addr::Frame { slot, .. } = addr {
                    max_slot = max_slot.max(slot.index() as i64);
                }
            }
            _ => {}
        }
        insts_tmp.push((block, inst));
    }
    if !done {
        return err(ln0, format!("function `{name}` has no closing brace"));
    }
    // The tables below are sized by the largest index. A printed function
    // writes every index at least once, so none reaches the byte length of
    // its text (header through closing brace); a larger one would size a
    // table by a number that no text of this length can justify.
    let close = lines[consumed - 1].1;
    let len = close.as_ptr() as usize + close.len() - header.as_ptr() as usize;
    for (max, prefix) in [(max_vreg, 'v'), (max_slot, 's'), (max_block, 'b')] {
        if max >= len as i64 {
            return err(
                ln0,
                format!("`{prefix}{max}` is out of range for a {len}-byte function"),
            );
        }
    }

    // Materialize tables. Declared names move in; only registers without
    // one get a default name (parameters are named by the header).
    let mut named = vec![false; (max_vreg + 1) as usize];
    named[..func.num_vregs()].fill(true);
    while func.num_vregs() < named.len() {
        func.new_vreg(RegClass::Int, String::new());
    }
    for (idx, class, name, spillable) in declared_regs {
        let v = VReg::new(idx);
        constraints.known.push((idx, class));
        if let Some(n) = name {
            func.rename_vreg(v, n);
            named[idx as usize] = true;
        }
        func.set_spillable(v, spillable);
    }
    for (i, _) in named.iter().enumerate().filter(|(_, &n)| !n) {
        func.rename_vreg(VReg::new(i as u32), format!("v{i}"));
    }
    for (i, (size, spill, name)) in declared_slots.into_iter().enumerate() {
        func.new_slot(size, name.unwrap_or_else(|| format!("s{i}")), spill);
    }
    while (func.num_slots() as i64) <= max_slot {
        let n = func.num_slots();
        func.new_slot(8, format!("s{n}"), false);
    }
    while (func.num_blocks() as i64) <= max_block {
        func.new_block();
    }
    for (block, inst) in insts_tmp {
        func.block_mut(block).insts.push(inst);
    }

    Ok((func, name, consumed, constraints))
}

/// Parse a leading double-quoted string (with `\"`/`\\` escapes); returns
/// the unescaped contents and the text after the closing quote.
fn parse_quoted(s: &str, ln: u32) -> Result<(String, &str), ParseError> {
    let body = s.strip_prefix('"').ok_or_else(|| ParseError {
        line: ln,
        message: "expected `\"`".into(),
    })?;
    // Most names have no escape: slice them.
    if let Some(end) = body
        .find(['"', '\\'])
        .filter(|&i| body.as_bytes()[i] == b'"')
    {
        return Ok((body[..end].to_string(), &body[end + 1..]));
    }
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &body[i + c.len_utf8()..])),
            '\\' => match chars.next() {
                Some((_, e @ ('"' | '\\'))) => out.push(e),
                _ => return err(ln, "bad escape in quoted name"),
            },
            c => out.push(c),
        }
    }
    err(ln, "unterminated quoted name")
}

fn parse_class(s: &str, ln: u32) -> Result<RegClass, ParseError> {
    match s {
        "int" => Ok(RegClass::Int),
        "float" => Ok(RegClass::Float),
        other => err(ln, format!("unknown class `{other}`")),
    }
}

fn parse_vreg(s: &str, ln: u32) -> Result<u32, ParseError> {
    parse_index(s, 'v', ln)
}

fn parse_index(s: &str, prefix: char, ln: u32) -> Result<u32, ParseError> {
    let s = s.trim();
    s.strip_prefix(prefix)
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| ParseError {
            line: ln,
            message: format!("expected `{prefix}<N>`, found `{s}`"),
        })
}

fn vreg(s: &str, ln: u32) -> Result<VReg, ParseError> {
    Ok(VReg::new(parse_vreg(s, ln)?))
}

fn parse_addr(s: &str, ln: u32) -> Result<Addr, ParseError> {
    let inner = s
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| ParseError {
            line: ln,
            message: format!("expected `[base±off]`, found `{s}`"),
        })?;
    // Split at the sign of the offset: the format is {base}{offset:+}.
    let split = inner
        .char_indices()
        .skip(1)
        .find(|&(_, c)| c == '+' || c == '-')
        .map(|(i, _)| i)
        .ok_or_else(|| ParseError {
            line: ln,
            message: format!("missing offset in address `{s}`"),
        })?;
    let (base, off) = inner.split_at(split);
    let offset: i64 = off.parse().map_err(|_| ParseError {
        line: ln,
        message: format!("bad offset `{off}`"),
    })?;
    let base = base.trim();
    match base.chars().next() {
        Some('v') => Ok(Addr::Reg {
            base: vreg(base, ln)?,
            offset,
        }),
        Some('s') => Ok(Addr::Frame {
            slot: FrameSlot::new(parse_index(base, 's', ln)?),
            offset,
        }),
        Some('g') => Ok(Addr::Global {
            global: GlobalId::new(parse_index(base, 'g', ln)?),
            offset,
        }),
        _ => err(ln, format!("bad address base `{base}`")),
    }
}

fn unop_of(s: &str) -> Option<UnOp> {
    Some(match s {
        "neg.i" => UnOp::NegI,
        "neg.f" => UnOp::NegF,
        "not" => UnOp::Not,
        "abs.i" => UnOp::AbsI,
        "abs.f" => UnOp::AbsF,
        "sqrt.f" => UnOp::SqrtF,
        "cvt.if" => UnOp::IntToFloat,
        "cvt.fi" => UnOp::FloatToInt,
        _ => return None,
    })
}

fn cmp_of(s: &str) -> Option<Cmp> {
    Some(match s {
        "eq" => Cmp::Eq,
        "ne" => Cmp::Ne,
        "lt" => Cmp::Lt,
        "le" => Cmp::Le,
        "gt" => Cmp::Gt,
        "ge" => Cmp::Ge,
        _ => return None,
    })
}

fn binop_of(s: &str) -> Option<BinOp> {
    if let Some(c) = s.strip_prefix("cmp.i.").and_then(cmp_of) {
        return Some(BinOp::CmpI(c));
    }
    if let Some(c) = s.strip_prefix("cmp.f.").and_then(cmp_of) {
        return Some(BinOp::CmpF(c));
    }
    Some(match s {
        "add.i" => BinOp::AddI,
        "sub.i" => BinOp::SubI,
        "mul.i" => BinOp::MulI,
        "div.i" => BinOp::DivI,
        "rem.i" => BinOp::RemI,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        "min.i" => BinOp::MinI,
        "max.i" => BinOp::MaxI,
        "add.f" => BinOp::AddF,
        "sub.f" => BinOp::SubF,
        "mul.f" => BinOp::MulF,
        "div.f" => BinOp::DivF,
        "min.f" => BinOp::MinF,
        "max.f" => BinOp::MaxF,
        _ => return None,
    })
}

fn parse_inst<'a>(t: &'a str, ln: u32, cons: &mut Constraints<'a>) -> Result<Inst, ParseError> {
    // Forms without a destination.
    if let Some(rest) = t.strip_prefix("store ") {
        let Some((src, addr)) = rest.split_once(',') else {
            return err(ln, "store needs `src, [addr]`");
        };
        return Ok(Inst::Store {
            src: vreg(src, ln)?,
            addr: parse_addr(addr, ln)?,
        });
    }
    if let Some(rest) = t.strip_prefix("jump ") {
        return Ok(Inst::Jump {
            target: BlockId::new(parse_index(rest, 'b', ln)?),
        });
    }
    if let Some(rest) = t.strip_prefix("branch ") {
        let mut parts = rest.split(',');
        let (Some(c), Some(t), Some(f), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return err(ln, "branch needs `cond, bT, bF`");
        };
        let cond = vreg(c, ln)?;
        cons.known.push((cond.index() as u32, RegClass::Int));
        return Ok(Inst::Branch {
            cond,
            if_true: BlockId::new(parse_index(t, 'b', ln)?),
            if_false: BlockId::new(parse_index(f, 'b', ln)?),
        });
    }
    if t == "ret" {
        return Ok(Inst::Ret { value: None });
    }
    if let Some(rest) = t.strip_prefix("ret ") {
        return Ok(Inst::Ret {
            value: Some(vreg(rest, ln)?),
        });
    }
    if let Some(rest) = t.strip_prefix("call ") {
        let (callee, args) = parse_call(rest, ln)?;
        for (i, a) in args.iter().enumerate() {
            cons.call_args.push((a.index() as u32, callee, i));
        }
        return Ok(Inst::Call {
            dst: None,
            callee: callee.to_string(),
            args,
        });
    }

    // `vD = ...` forms.
    let Some((dst_s, rhs)) = t.split_once('=') else {
        return err(ln, format!("unrecognized instruction `{t}`"));
    };
    let dst = vreg(dst_s, ln)?;
    let rhs = rhs.trim();

    if let Some(rest) = rhs.strip_prefix("copy ") {
        let src = vreg(rest, ln)?;
        cons.equal.push((dst.index() as u32, src.index() as u32));
        return Ok(Inst::Copy { dst, src });
    }
    if let Some(rest) = rhs.strip_prefix("imm ") {
        let rest = rest.trim();
        let imm = if let Ok(v) = rest.parse::<i64>() {
            Imm::Int(v)
        } else {
            Imm::Float(rest.parse::<f64>().map_err(|_| ParseError {
                line: ln,
                message: format!("bad immediate `{rest}`"),
            })?)
        };
        cons.known.push((dst.index() as u32, imm.class()));
        return Ok(Inst::LoadImm { dst, imm });
    }
    if let Some(rest) = rhs.strip_prefix("load ") {
        return Ok(Inst::Load {
            dst,
            addr: parse_addr(rest, ln)?,
        });
    }
    if let Some(rest) = rhs.strip_prefix("frameaddr ") {
        cons.known.push((dst.index() as u32, RegClass::Int));
        return Ok(Inst::FrameAddr {
            dst,
            slot: FrameSlot::new(parse_index(rest, 's', ln)?),
        });
    }
    if let Some(rest) = rhs.strip_prefix("globaladdr ") {
        cons.known.push((dst.index() as u32, RegClass::Int));
        return Ok(Inst::GlobalAddr {
            dst,
            global: GlobalId::new(parse_index(rest, 'g', ln)?),
        });
    }
    if let Some(rest) = rhs.strip_prefix("call ") {
        let (callee, args) = parse_call(rest, ln)?;
        for (i, a) in args.iter().enumerate() {
            cons.call_args.push((a.index() as u32, callee, i));
        }
        cons.call_rets.push((dst.index() as u32, callee));
        return Ok(Inst::Call {
            dst: Some(dst),
            callee: callee.to_string(),
            args,
        });
    }

    // Unary / binary by mnemonic.
    let (mn, operands) = rhs.split_once(' ').ok_or_else(|| ParseError {
        line: ln,
        message: format!("unrecognized instruction `{t}`"),
    })?;
    if let Some(op) = unop_of(mn) {
        let src = vreg(operands, ln)?;
        cons.known.push((dst.index() as u32, op.result_class()));
        cons.known.push((src.index() as u32, op.operand_class()));
        return Ok(Inst::Un { op, dst, src });
    }
    if let Some(op) = binop_of(mn) {
        let Some((l, r)) = operands.split_once(',') else {
            return err(ln, "binary op needs two operands");
        };
        let (lhs, rhs_v) = (vreg(l, ln)?, vreg(r, ln)?);
        cons.known.push((dst.index() as u32, op.result_class()));
        cons.known.push((lhs.index() as u32, op.operand_class()));
        cons.known.push((rhs_v.index() as u32, op.operand_class()));
        return Ok(Inst::Bin {
            op,
            dst,
            lhs,
            rhs: rhs_v,
        });
    }
    err(ln, format!("unknown mnemonic `{mn}`"))
}

fn parse_call(rest: &str, ln: u32) -> Result<(&str, Vec<VReg>), ParseError> {
    let open = rest.find('(').ok_or_else(|| ParseError {
        line: ln,
        message: "call needs `name(args)`".into(),
    })?;
    let callee = rest[..open].trim();
    let inner = rest[open + 1..]
        .strip_suffix(')')
        .ok_or_else(|| ParseError {
            line: ln,
            message: "call missing `)`".into(),
        })?;
    let args = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner
            .split(',')
            .map(|a| vreg(a, ln))
            .collect::<Result<_, _>>()?
    };
    Ok((callee, args))
}

/// Propagate class constraints module-wide and set every register's
/// class. `pending[i]` holds the constraints of the module's `i`th
/// function, and `index` maps each function's name to its position.
fn resolve_classes(module: &mut Module, pending: &[Constraints], index: &HashMap<&str, usize>) {
    // Each call constraint's callee, looked up once.
    let callee = |name: &str| index.get(name).map(|&i| &module.functions()[i]);
    let calls: Vec<(Vec<_>, Vec<_>)> = pending
        .iter()
        .map(|c| {
            let args = c.call_args.iter();
            let rets = c.call_rets.iter();
            (
                args.map(|&(a, name, idx)| (a, callee(name), idx)).collect(),
                rets.map(|&(d, name)| (d, callee(name))).collect(),
            )
        })
        .collect();

    // Per-function class vectors, seeded by parameters (already typed).
    let mut classes: Vec<Vec<Option<RegClass>>> = module
        .functions()
        .iter()
        .zip(pending)
        .map(|(f, c)| {
            let mut v = vec![None; f.num_vregs()];
            for &p in f.params() {
                v[p.index()] = Some(f.class_of(p));
            }
            for &(r, cl) in &c.known {
                v[r as usize] = Some(cl);
            }
            v
        })
        .collect();

    // Fixpoint over copies, rets, and call edges.
    let mut changed = true;
    while changed {
        changed = false;
        let functions = module.functions().iter().zip(pending).zip(&calls);
        for (((f, cons), (call_args, call_rets)), local) in functions.zip(&mut classes) {
            // copies
            for &(a, b) in &cons.equal {
                match (local[a as usize], local[b as usize]) {
                    (Some(x), None) => {
                        local[b as usize] = Some(x);
                        changed = true;
                    }
                    (None, Some(x)) => {
                        local[a as usize] = Some(x);
                        changed = true;
                    }
                    _ => {}
                }
            }
            // ret values
            if let Some(rc) = f.ret_class() {
                for (_, block) in f.blocks() {
                    if let Some(Inst::Ret { value: Some(v) }) = block.insts.last() {
                        if local[v.index()].is_none() {
                            local[v.index()] = Some(rc);
                            changed = true;
                        }
                    }
                }
            }
            // call args / rets
            for &(a, cf, idx) in call_args {
                if local[a as usize].is_none() {
                    if let Some(cf) = cf {
                        if let Some(&p) = cf.params().get(idx) {
                            local[a as usize] = Some(cf.class_of(p));
                            changed = true;
                        }
                    }
                }
            }
            for &(d, cf) in call_rets {
                if local[d as usize].is_none() {
                    if let Some(rc) = cf.and_then(|cf| cf.ret_class()) {
                        local[d as usize] = Some(rc);
                        changed = true;
                    }
                }
            }
        }
    }

    // Apply (unknowns default to int — class-agnostic bit movement).
    for (f, local) in module.functions_mut().iter_mut().zip(classes) {
        for (i, class) in local.into_iter().enumerate() {
            f.set_class(VReg::new(i as u32), class.unwrap_or(RegClass::Int));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::verify::{verify_function, verify_module};

    #[test]
    fn duplicate_function_names_are_rejected_at_the_second_header() {
        let text = "func f(v0:int) -> int {\nb0:\n    v1 = add.i v0, v0\n    ret v1\n}\n\
                    func f(v0:int) -> int {\nb0:\n    v1 = mul.i v0, v0\n    ret v1\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 6);
        assert_eq!(e.message, "duplicate function `f`");
    }

    #[test]
    fn round_trip_simple_function() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.add_param(RegClass::Int, "x");
        let t = b.binv(BinOp::AddI, x, x);
        b.ret(Some(t));
        let f = b.finish();
        let text = f.to_string();
        let parsed = parse_function(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        verify_function(&parsed).unwrap();
        assert_eq!(parsed.num_insts(), f.num_insts());
        assert_eq!(parsed.num_blocks(), f.num_blocks());
        // Second round trip is exact (names are canonical after one trip).
        assert_eq!(
            parsed.to_string(),
            parse_function(&parsed.to_string()).unwrap().to_string()
        );
    }

    #[test]
    fn round_trip_with_slots_floats_and_control_flow() {
        let mut b = FunctionBuilder::new("g");
        b.set_ret_class(Some(RegClass::Float));
        let n = b.add_param(RegClass::Int, "n");
        let slot = b.new_slot(80, "buf");
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let acc = b.new_vreg(RegClass::Float, "acc");
        b.load_imm(acc, Imm::Float(0.0));
        let i = b.new_vreg(RegClass::Int, "i");
        b.load_imm(i, Imm::Int(0));
        b.jump(head);
        b.switch_to(head);
        let c = b.cmp_i(Cmp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let eight = b.int(8);
        let off = b.binv(BinOp::MulI, i, eight);
        let base = b.new_vreg(RegClass::Int, "base");
        b.frame_addr(base, slot);
        let addr = b.binv(BinOp::AddI, base, off);
        let x = b.new_vreg(RegClass::Float, "x");
        b.load(
            x,
            Addr::Reg {
                base: addr,
                offset: 0,
            },
        );
        b.bin(BinOp::AddF, acc, acc, x);
        let one = b.int(1);
        b.bin(BinOp::AddI, i, i, one);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(acc));
        let f = b.finish();

        let text = f.to_string();
        let parsed = parse_function(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        verify_function(&parsed).unwrap();
        assert_eq!(parsed.num_slots(), 1);
        assert_eq!(parsed.slot(FrameSlot::new(0)).size, 80);
        // Classes recovered: the float accumulator and loaded element.
        assert_eq!(parsed.class_of(acc), RegClass::Float);
        assert_eq!(parsed.class_of(x), RegClass::Float);
        assert_eq!(parsed.class_of(i), RegClass::Int);
    }

    #[test]
    fn round_trip_module_with_calls_and_globals() {
        let mut m = Module::new();
        m.add_global("shared", 64);
        let mut callee = FunctionBuilder::new("callee");
        callee.set_ret_class(Some(RegClass::Float));
        let a = callee.add_param(RegClass::Float, "a");
        let r = callee.binv(BinOp::MulF, a, a);
        callee.ret(Some(r));
        m.add_function(callee.finish());

        let mut caller = FunctionBuilder::new("caller");
        caller.set_ret_class(Some(RegClass::Float));
        let x = caller.float(2.5);
        let d = caller.new_vreg(RegClass::Float, "d");
        caller.call(Some(d), "callee", vec![x]);
        caller.ret(Some(d));
        m.add_function(caller.finish());
        verify_module(&m).unwrap();

        let text = m.to_string();
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        verify_module(&parsed).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(parsed.globals().len(), 1);
        assert_eq!(parsed.globals()[0].size, 64);
        assert_eq!(parsed.functions().len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_module("func f() {\nb0:\n    v0 = bogus v1\n}\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn negative_offsets_parse() {
        let text = "func f() {\n    slot s0 = 16 bytes\nb0:\n    v0 = load [s0-8]\n    ret\n}\n";
        // Negative frame offsets are unusual but representable.
        let f = parse_function(text).unwrap();
        match &f.block(BlockId::new(0)).insts[0] {
            Inst::Load {
                addr: Addr::Frame { offset, .. },
                ..
            } => assert_eq!(*offset, -8),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        // Names, classes, spillable flags, slot names: everything equal.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Float));
        let x = b.add_param(RegClass::Float, "x");
        let slot = b.new_slot(24, "buf");
        let t = b.binv(BinOp::MulF, x, x);
        let base = b.new_vreg(RegClass::Int, "base");
        b.frame_addr(base, slot);
        b.store(t, Addr::Reg { base, offset: 0 });
        b.ret(Some(t));
        let mut f = b.finish();
        f.set_spillable(t, false);
        // An unreferenced register must survive the trip too.
        f.new_vreg(RegClass::Float, "ghost");
        let parsed = parse_function(&f.to_string()).unwrap_or_else(|e| panic!("{e}\n{f}"));
        assert_eq!(parsed, f);
    }

    #[test]
    fn quoted_names_with_escapes_round_trip() {
        let mut f = Function::new("f");
        let v = f.new_vreg(RegClass::Int, "we\\ird \"name\"");
        f.block_mut(BlockId::new(0))
            .insts
            .push(Inst::Ret { value: Some(v) });
        let parsed = parse_function(&f.to_string()).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn spill_slot_annotation_round_trips() {
        let mut f = Function::new("f");
        f.new_slot(8, "spill.x", true);
        f.block_mut(BlockId::new(0))
            .insts
            .push(Inst::Ret { value: None });
        let text = f.to_string();
        assert!(text.contains("(spill)"));
        let parsed = parse_function(&text).unwrap();
        assert!(parsed.slot(FrameSlot::new(0)).is_spill);
    }

    #[test]
    fn error_messages_keep_their_text() {
        // One malformed input per error site. `bad IR: …` responses carry
        // these messages verbatim, so each must keep its exact text.
        let body = |insts: &str| format!("func f(v0:int) -> int {{\nb0:\n{insts}}}\n");
        let cases: Vec<(&str, String, u32, &str)> = vec![
            (
                "bad operand",
                body("    v1 = add.i v0, vx\n    ret v1\n"),
                3,
                "expected `v<N>`, found `vx`",
            ),
            (
                "address without offset",
                body("    v1 = load [v0]\n    ret v1\n"),
                3,
                "missing offset in address `[v0]`",
            ),
            (
                "store address without offset",
                body("    store v0, [v0]\n    ret v0\n"),
                3,
                "missing offset in address ` [v0]`",
            ),
            (
                "bad address base",
                body("    v1 = load [x0+8]\n    ret v1\n"),
                3,
                "bad address base `x0`",
            ),
            (
                "address without brackets",
                body("    v1 = load v0+8\n    ret v1\n"),
                3,
                "expected `[base±off]`, found `v0+8`",
            ),
            (
                "bad address register",
                body("    v1 = load [vq+8]\n    ret v1\n"),
                3,
                "expected `v<N>`, found `vq`",
            ),
            (
                "call without `)`",
                body("    call f(v1\n    ret v0\n"),
                3,
                "call missing `)`",
            ),
            (
                "call without `(`",
                body("    v1 = call f\n    ret v1\n"),
                3,
                "call needs `name(args)`",
            ),
            (
                "unknown mnemonic",
                body("    v1 = frob v0, v0\n    ret v1\n"),
                3,
                "unknown mnemonic `frob`",
            ),
            (
                "mnemonic without operands",
                body("    v1 = neg.i\n    ret v1\n"),
                3,
                "unrecognized instruction `v1 = neg.i`",
            ),
            (
                "slot without `bytes`",
                "func f() {\n    slot s0 = 8 words\nb0:\n    ret\n}\n".into(),
                2,
                "expected `= N bytes`",
            ),
            (
                "reg without class",
                "func f() {\n    reg v0\nb0:\n    ret\n}\n".into(),
                2,
                "reg line needs `v<N>:class`",
            ),
            (
                "unterminated name",
                "func f() {\n    reg v0:int \"abc\nb0:\n    ret\n}\n".into(),
                2,
                "unterminated quoted name",
            ),
            (
                "bad escape",
                "func f() {\n    reg v0:int \"a\\qb\"\nb0:\n    ret\n}\n".into(),
                2,
                "bad escape in quoted name",
            ),
            (
                "missing `}`",
                "func f(v0:int) -> int {\nb0:\n    ret v0\n".into(),
                1,
                "function `f` has no closing brace",
            ),
            (
                "duplicate function",
                body("    ret v0\n").repeat(2),
                5,
                "duplicate function `f`",
            ),
            (
                "not a func header",
                "fun f() {\nb0:\n    ret\n}\n".into(),
                1,
                "expected `func`, found `fun f() {`",
            ),
            (
                "header without `(`",
                "func f {\nb0:\n    ret\n}\n".into(),
                1,
                "missing `(` in func header",
            ),
            (
                "header without `)`",
                "func f( {\nb0:\n    ret\n}\n".into(),
                1,
                "missing `)` in func header",
            ),
            (
                "global without size",
                "global g 8\nfunc f() {\nb0:\n    ret\n}\n".into(),
                1,
                "expected `[N bytes]`",
            ),
            (
                "bad block label",
                "func f() {\nbx:\n    ret\n}\n".into(),
                2,
                "expected `b<N>`, found `bx`",
            ),
            (
                "register index past the text",
                body("    v4000000000 = imm 1\n    ret v4000000000\n"),
                1,
                "`v4000000000` is out of range for a 73-byte function",
            ),
            (
                "slot index past the text",
                body("    v1 = frameaddr s99\n    ret v1\n"),
                1,
                "`s99` is out of range for a 63-byte function",
            ),
            (
                "block index past the text",
                body("    jump b99\n").replace("b0:", "b35:"),
                1,
                "`b99` is out of range for a 43-byte function",
            ),
        ];
        for (what, text, line, message) in cases {
            let expected = ParseError {
                line,
                message: message.into(),
            };
            assert_eq!(parse_module(&text), Err(expected), "{what}");
        }
    }

    /// A module of many small functions, each calling the next eight
    /// times without `reg` lines, so every call result's class comes from
    /// its callee: resolving a callee is a lookup, not a scan of the
    /// module, so the parse stays linear in the text.
    #[test]
    fn call_classes_resolve_without_scanning_the_module() {
        const FUNCTIONS: usize = 16_000;
        let mut text = String::new();
        for i in 0..FUNCTIONS {
            text.push_str(&format!("func f{i}(v0:int) -> int {{\nb0:\n"));
            if i + 1 == FUNCTIONS {
                text.push_str("    ret v0\n}\n");
                continue;
            }
            for c in 1..=8 {
                text.push_str(&format!("    v{c} = call f{}(v{})\n", i + 1, c - 1));
            }
            text.push_str("    ret v8\n}\n");
        }
        let start = std::time::Instant::now();
        let m = parse_module(&text).unwrap();
        let took = start.elapsed();
        assert_eq!(m.functions().len(), FUNCTIONS);
        for f in m.functions() {
            for v in 0..f.num_vregs() {
                assert_eq!(f.class_of(VReg::new(v as u32)), RegClass::Int);
            }
        }
        verify_module(&m).unwrap();
        // Resolving each callee by scanning the module took 5.4–7.9 s on
        // this input (release build, 2 vCPUs).
        if !cfg!(debug_assertions) {
            assert!(took.as_secs_f64() < 1.0, "parsing took {took:?}");
        }
    }
}
