//! Two-pass assembler.

use crate::{slots, Slot, Symbols};
use std::collections::HashMap;
use std::fmt;
use xbgp_vm::insn::{op, Insn, Program};
use xbgp_vm::isa::{Form, Imm, ISA};

/// An assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError { line, message: message.into() })
}

/// One parsed operand.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Operand {
    Reg(u8),
    Imm(i64),
    /// `[reg+off]` — the offset may be a symbolic name (resolved in pass 2),
    /// optionally negated.
    Mem(u8, OffExpr),
    /// A not-yet-resolved name (label or symbol).
    Name(String),
}

/// A memory-operand offset: literal or `±symbol`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OffExpr {
    Imm(i16),
    Sym { name: String, negate: bool },
}

struct Line {
    source_line: usize,
    mnemonic: String,
    /// Index in [`ISA`] of the first row named `mnemonic`.
    first: usize,
    operands: Vec<Operand>,
}

fn parse_int(s: &str) -> Option<i64> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()? as i64
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn parse_reg(s: &str) -> Option<u8> {
    let n = s.strip_prefix('r')?.parse::<u8>().ok()?;
    (n <= 10).then_some(n)
}

fn parse_operand(tok: &str, line: usize) -> Result<Operand, AsmError> {
    let tok = tok.trim();
    if tok.starts_with('[') {
        let inner =
            tok.strip_prefix('[')
                .and_then(|t| t.strip_suffix(']'))
                .ok_or_else(|| AsmError {
                    line,
                    message: format!("malformed memory operand `{tok}`"),
                })?;
        let (reg_s, off) = if let Some(i) = inner.find(['+', '-']) {
            let (r, rest) = inner.split_at(i);
            let rest = rest.trim();
            let off = match parse_int(rest) {
                Some(v) => {
                    if v < i64::from(i16::MIN) || v > i64::from(i16::MAX) {
                        return err(line, format!("offset {v} out of i16 range"));
                    }
                    OffExpr::Imm(v as i16)
                }
                None => {
                    // Symbolic offset: `+NAME` or `-NAME`.
                    let (negate, name) = match rest.strip_prefix('-') {
                        Some(n) => (true, n),
                        None => (false, rest.strip_prefix('+').unwrap_or(rest)),
                    };
                    let name = name.trim();
                    if name.is_empty()
                        || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    {
                        return err(line, format!("bad offset in `{tok}`"));
                    }
                    OffExpr::Sym { name: name.to_string(), negate }
                }
            };
            (r.trim(), off)
        } else {
            (inner.trim(), OffExpr::Imm(0))
        };
        let reg = parse_reg(reg_s)
            .ok_or_else(|| AsmError { line, message: format!("bad register in `{tok}`") })?;
        return Ok(Operand::Mem(reg, off));
    }
    if let Some(r) = parse_reg(tok) {
        return Ok(Operand::Reg(r));
    }
    if tok.starts_with('r') && tok[1..].chars().all(|c| c.is_ascii_digit()) {
        return err(line, format!("invalid register `{tok}` (valid: r0..r10)"));
    }
    if let Some(v) = parse_int(tok) {
        return Ok(Operand::Imm(v));
    }
    // `+N` jump offsets.
    if let Some(rest) = tok.strip_prefix('+') {
        if let Some(v) = parse_int(rest) {
            return Ok(Operand::Imm(v));
        }
    }
    Ok(Operand::Name(tok.to_string()))
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for marker in [";", "#", "//"] {
        if let Some(i) = line.find(marker) {
            end = end.min(i);
        }
    }
    &line[..end]
}

/// Whether `operands` have the shape `form` takes.
fn fits(form: Form, operands: &[Operand]) -> bool {
    slots(form).count() == operands.len()
        && slots(form).zip(operands).all(|(slot, opnd)| match slot {
            Slot::Dst | Slot::Src => matches!(opnd, Operand::Reg(_)),
            Slot::Imm | Slot::Off => matches!(opnd, Operand::Imm(_) | Operand::Name(_)),
            Slot::MemDst | Slot::MemSrc => matches!(opnd, Operand::Mem(..)),
        })
}

/// Assemble with an empty external symbol table.
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    assemble_with_symbols(src, &Symbols::new())
}

/// Assemble `src`, resolving names through `.equ` definitions, labels, and
/// the provided external symbol table (in that priority order).
pub fn assemble_with_symbols(src: &str, external: &Symbols) -> Result<Program, AsmError> {
    let mut lines: Vec<Line> = Vec::new();
    let mut labels: HashMap<String, usize> = HashMap::new();
    let mut equs: HashMap<String, i64> = HashMap::new();
    let mut pc = 0usize;

    // Pass 1: tokenize, collect labels (slot addresses) and .equ constants.
    for (lineno0, raw) in src.lines().enumerate() {
        let lineno = lineno0 + 1;
        let mut text = strip_comment(raw).trim();
        if text.is_empty() {
            continue;
        }
        // Directives.
        if let Some(rest) = text.strip_prefix(".equ") {
            let parts: Vec<&str> = rest.splitn(2, ',').map(str::trim).collect();
            if parts.len() != 2 || parts[0].is_empty() {
                return err(lineno, ".equ requires `.equ NAME, value`");
            }
            let value = match parse_int(parts[1]) {
                Some(v) => v,
                None => match equs.get(parts[1]).or_else(|| external.get(parts[1])) {
                    Some(v) => *v,
                    None => return err(lineno, format!("unknown value `{}` in .equ", parts[1])),
                },
            };
            equs.insert(parts[0].to_string(), value);
            continue;
        }
        // Labels (possibly followed by an instruction on the same line).
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty()
                || !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                break;
            }
            if labels.insert(label.to_string(), pc).is_some() {
                return err(lineno, format!("duplicate label `{label}`"));
            }
            text = rest[1..].trim();
            if text.is_empty() {
                break;
            }
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m.to_ascii_lowercase(), r.trim()),
            None => (text.to_ascii_lowercase(), ""),
        };
        let operands = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',')
                .map(|t| parse_operand(t, lineno))
                .collect::<Result<Vec<_>, _>>()?
        };
        let Some(first) = ISA.iter().position(|r| r.name == mnemonic) else {
            return err(lineno, format!("unknown mnemonic `{mnemonic}`"));
        };
        pc += if ISA[first].opcode == op::LDDW { 2 } else { 1 };
        lines.push(Line { source_line: lineno, mnemonic, first, operands });
    }

    // Pass 2: encode.
    let mut insns: Vec<Insn> = Vec::new();
    let resolve = |name: &str, lineno: usize| -> Result<i64, AsmError> {
        if let Some(v) = equs.get(name) {
            return Ok(*v);
        }
        if let Some(v) = external.get(name) {
            return Ok(*v);
        }
        err(lineno, format!("unknown symbol `{name}`"))
    };

    for line in &lines {
        let ln = line.source_line;
        // A name has one row, or a constant-operand row and then a
        // register-operand one: take the row the operands fit, else the
        // first, whose shape the errors below then describe.
        let row = ISA[line.first..]
            .iter()
            .filter(|r| r.name == line.mnemonic)
            .find(|r| fits(r.form, &line.operands))
            .unwrap_or(&ISA[line.first]);
        let cur_pc = insns.len();
        // Resolve a jump-target operand to a relative i16 offset.
        let jump_off = |opnd: &Operand| -> Result<i16, AsmError> {
            let target = match opnd {
                Operand::Imm(v) => {
                    return i16::try_from(*v).map_err(|_| AsmError {
                        line: ln,
                        message: format!("jump offset {v} out of range"),
                    })
                }
                Operand::Name(n) => match labels.get(n.as_str()) {
                    Some(t) => *t as i64,
                    None => resolve(n, ln)?,
                },
                _ => return err(ln, "expected a label or offset"),
            };
            let rel = target - (cur_pc as i64) - 1;
            i16::try_from(rel).map_err(|_| AsmError {
                line: ln,
                message: format!("jump to {target} out of i16 range"),
            })
        };
        let imm_of = |opnd: &Operand| -> Result<i64, AsmError> {
            match opnd {
                Operand::Imm(v) => Ok(*v),
                Operand::Name(n) => resolve(n, ln),
                _ => err(ln, "expected an immediate or symbol"),
            }
        };
        let imm32_of = |opnd: &Operand| -> Result<i32, AsmError> {
            let v = imm_of(opnd)?;
            i32::try_from(v)
                .or_else(|_| {
                    // Accept unsigned 32-bit constants like 0xffffffff.
                    u32::try_from(v).map(|u| u as i32)
                })
                .map_err(|_| AsmError {
                    line: ln,
                    message: format!("immediate {v} out of 32-bit range"),
                })
        };
        let reg_of = |opnd: &Operand| -> Result<u8, AsmError> {
            match opnd {
                Operand::Reg(r) => Ok(*r),
                _ => err(ln, "expected a register"),
            }
        };
        let mem_of = |opnd: &Operand| -> Result<(u8, i16), AsmError> {
            match opnd {
                Operand::Mem(r, OffExpr::Imm(o)) => Ok((*r, *o)),
                Operand::Mem(r, OffExpr::Sym { name, negate }) => {
                    let mut v = resolve(name, ln)?;
                    if *negate {
                        v = -v;
                    }
                    let off = i16::try_from(v).map_err(|_| AsmError {
                        line: ln,
                        message: format!("symbolic offset {name}={v} out of i16 range"),
                    })?;
                    Ok((*r, off))
                }
                _ => err(ln, "expected `[reg+off]`"),
            }
        };
        let want = slots(row.form).count();
        if line.operands.len() != want {
            return err(
                ln,
                format!("`{}` takes {want} operand(s), got {}", line.mnemonic, line.operands.len()),
            );
        }
        let mut insn = Insn::new(row.opcode, 0, 0, 0, 0);
        let mut hi = None;
        for (slot, opnd) in slots(row.form).zip(&line.operands) {
            match slot {
                Slot::Dst => insn.dst = reg_of(opnd)?,
                Slot::Src => insn.src = reg_of(opnd)?,
                Slot::Imm if row.opcode == op::LDDW => {
                    let v = imm_of(opnd)? as u64;
                    insn.imm = v as u32 as i32;
                    hi = Some(Insn::new(0, 0, 0, 0, (v >> 32) as u32 as i32));
                }
                Slot::Imm => insn.imm = imm32_of(opnd)?,
                Slot::Off => insn.offset = jump_off(opnd)?,
                Slot::MemDst => (insn.dst, insn.offset) = mem_of(opnd)?,
                Slot::MemSrc => (insn.src, insn.offset) = mem_of(opnd)?,
            }
        }
        if let Imm::Width(w) = row.form.imm {
            insn.imm = w;
        }
        insns.push(insn);
        insns.extend(hi);
    }
    Ok(Program::new(insns))
}
