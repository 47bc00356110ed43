//! Textual assembler for the paper's listing syntax.
//!
//! The accepted grammar mirrors the compiled-kernel listings in §3.5:
//!
//! ```text
//! L7:
//!     mov     s0,vl           ; set vector length
//!     ld.l    40120(a5),v0    ; ZX
//!     mul.d   v0,s1,v1
//!     ld.l    0(a2):5,v2      ; stride-5 load
//!     add.d   v1,v0,v3
//!     st.l    v3,24024(a5)
//!     add.w   #1024,a5
//!     sub.w   #128,s0
//!     lt.w    #0,s0
//!     jbrs.t  L7
//!     halt
//! ```
//!
//! Comments run from `;` to end of line. Labels are identifiers followed
//! by `:` on their own line or before an instruction. The disassembler is
//! [`Instruction`]'s `Display`; [`assemble`] and `Display` round-trip.

use std::collections::BTreeMap;

use crate::error::AsmError;
use crate::instr::{CmpOp, FpOp, Instruction, IntOp, IntOperand, MemRef, ScalarReg, VOperand};
use crate::program::Program;
use crate::reg::{AReg, SReg, VReg};
use crate::value::ScalarValue;

/// Assembles source text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the offending 1-based line number for
/// unknown mnemonics, malformed operands, duplicate labels, or undefined
/// branch targets.
///
/// # Example
///
/// ```
/// let p = c240_isa::asm::assemble(
///     "L: ld.l 0(a5),v0\n   add.d v0,v1,v2\n   jbr L\n",
/// )?;
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.label("L"), Some(0));
/// # Ok::<(), c240_isa::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut instrs = Vec::new();
    let mut labels: BTreeMap<String, usize> = BTreeMap::new();
    for (lineno, raw) in source.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match raw.split_once(';') {
            Some((code, _comment)) => code,
            None => raw,
        };
        let mut rest = line.trim();
        // Leading labels (possibly several on one line).
        while let Some(colon) = rest.find(':') {
            let (head, tail) = rest.split_at(colon);
            let name = head.trim();
            if !is_identifier(name) {
                break;
            }
            // `0(a5):5` contains a colon too; a label's colon must come
            // before any parenthesis or whitespace inside the mnemonic.
            if head.contains(char::is_whitespace) {
                break;
            }
            if labels.insert(name.to_string(), instrs.len()).is_some() {
                return Err(AsmError::new(lineno, format!("duplicate label `{name}`")));
            }
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        let ins = parse_instruction(rest).map_err(|msg| AsmError::new(lineno, msg))?;
        instrs.push(ins);
    }
    Program::new(instrs, labels).map_err(|e| AsmError::new(0, e.to_string()))
}

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '.' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn parse_instruction(text: &str) -> Result<Instruction, String> {
    let (mnemonic, operands) = match text.split_once(char::is_whitespace) {
        Some((m, o)) => (m.trim(), o.trim()),
        None => (text, ""),
    };
    let ops = split_operands(operands);
    match mnemonic {
        "ld.l" => {
            let [addr, dst] = two(&ops, mnemonic)?;
            Ok(Instruction::VLoad {
                addr: parse_memref(addr)?,
                dst: parse_vreg(dst)?,
            })
        }
        "st.l" => {
            let [src, addr] = two(&ops, mnemonic)?;
            Ok(Instruction::VStore {
                src: parse_vreg(src)?,
                addr: parse_memref(addr)?,
            })
        }
        "add.d" | "sub.d" | "mul.d" | "div.d" => {
            let [a, b, dst] = three(&ops, mnemonic)?;
            let a = parse_voperand(a)?;
            let b = parse_voperand(b)?;
            let dst = parse_vreg(dst)?;
            if a.as_vreg().is_none() && b.as_vreg().is_none() {
                return Err(format!("`{mnemonic}` requires at least one vector operand"));
            }
            Ok(match mnemonic {
                "add.d" => Instruction::VAdd { a, b, dst },
                "sub.d" => Instruction::VSub { a, b, dst },
                "mul.d" => Instruction::VMul { a, b, dst },
                _ => Instruction::VDiv { a, b, dst },
            })
        }
        "neg.d" => {
            let [src, dst] = two(&ops, mnemonic)?;
            Ok(Instruction::VNeg {
                src: parse_vreg(src)?,
                dst: parse_vreg(dst)?,
            })
        }
        "sum.d" => {
            let [src, dst] = two(&ops, mnemonic)?;
            Ok(Instruction::VSum {
                src: parse_vreg(src)?,
                dst: parse_sreg(dst)?,
            })
        }
        "radd.d" => {
            let [src, acc] = two(&ops, mnemonic)?;
            Ok(Instruction::VRAdd {
                src: parse_vreg(src)?,
                acc: parse_sreg(acc)?,
            })
        }
        "rsub.d" => {
            let [src, acc] = two(&ops, mnemonic)?;
            Ok(Instruction::VRSub {
                src: parse_vreg(src)?,
                acc: parse_sreg(acc)?,
            })
        }
        "mov" => parse_mov(&ops),
        "add.w" | "sub.w" | "mul.w" | "shl.w" | "shr.w" => {
            let [src, dst] = two(&ops, mnemonic)?;
            let op = match mnemonic {
                "add.w" => IntOp::Add,
                "sub.w" => IntOp::Sub,
                "mul.w" => IntOp::Mul,
                "shl.w" => IntOp::Shl,
                _ => IntOp::Shr,
            };
            Ok(Instruction::SIntOp {
                op,
                src: parse_int_operand(src)?,
                dst: parse_scalar_reg(dst)?,
            })
        }
        "add.s" | "sub.s" | "mul.s" | "div.s" => {
            let [a, b, dst] = three(&ops, mnemonic)?;
            let op = match mnemonic {
                "add.s" => FpOp::Add,
                "sub.s" => FpOp::Sub,
                "mul.s" => FpOp::Mul,
                _ => FpOp::Div,
            };
            Ok(Instruction::SFpOp {
                op,
                a: parse_sreg(a)?,
                b: parse_sreg(b)?,
                dst: parse_sreg(dst)?,
            })
        }
        "ld.w" | "ld.d" => {
            let [addr, dst] = two(&ops, mnemonic)?;
            Ok(Instruction::SLoad {
                addr: parse_memref(addr)?,
                dst: parse_scalar_reg(dst)?,
            })
        }
        "st.w" | "st.d" => {
            let [src, addr] = two(&ops, mnemonic)?;
            Ok(Instruction::SStore {
                src: parse_scalar_reg(src)?,
                addr: parse_memref(addr)?,
            })
        }
        "lt.w" | "le.w" | "eq.w" | "ne.w" | "gt.w" | "ge.w" => {
            let [lhs, rhs] = two(&ops, mnemonic)?;
            let op = match mnemonic {
                "lt.w" => CmpOp::Lt,
                "le.w" => CmpOp::Le,
                "eq.w" => CmpOp::Eq,
                "ne.w" => CmpOp::Ne,
                "gt.w" => CmpOp::Gt,
                _ => CmpOp::Ge,
            };
            Ok(Instruction::Cmp {
                op,
                lhs: parse_int_operand(lhs)?,
                rhs: parse_scalar_reg(rhs)?,
            })
        }
        "jbrs.t" => one_label(&ops, mnemonic).map(|t| Instruction::BranchT { target: t }),
        "jbrs.f" => one_label(&ops, mnemonic).map(|t| Instruction::BranchF { target: t }),
        "jbr" => one_label(&ops, mnemonic).map(|t| Instruction::Jump { target: t }),
        "halt" => {
            expect_no_operands(&ops, mnemonic)?;
            Ok(Instruction::Halt)
        }
        "nop" => {
            expect_no_operands(&ops, mnemonic)?;
            Ok(Instruction::Nop)
        }
        other => Err(format!("unknown mnemonic `{other}`")),
    }
}

fn parse_mov(ops: &[&str]) -> Result<Instruction, String> {
    let [src, dst] = two(ops, "mov")?;
    if dst.eq_ignore_ascii_case("vl") {
        if let Some(imm) = src.strip_prefix('#') {
            let value: u32 = imm
                .parse()
                .map_err(|_| format!("bad vector length `{src}`"))?;
            return Ok(Instruction::SetVlImm { value });
        }
        return Ok(Instruction::SetVl {
            src: parse_sreg(src)?,
        });
    }
    if let Some(imm) = src.strip_prefix('#') {
        let value = parse_immediate(imm)?;
        return Ok(Instruction::SMovImm {
            value,
            dst: parse_scalar_reg(dst)?,
        });
    }
    Ok(Instruction::SMov {
        src: parse_scalar_reg(src)?,
        dst: parse_scalar_reg(dst)?,
    })
}

fn parse_immediate(text: &str) -> Result<ScalarValue, String> {
    text.parse::<i64>()
        .map(ScalarValue::Int)
        .or_else(|_| text.parse::<f64>().map(ScalarValue::Fp))
        .map_err(|_| format!("bad immediate `#{text}`"))
}

fn split_operands(text: &str) -> Vec<&str> {
    if text.is_empty() {
        Vec::new()
    } else {
        text.split(',').map(str::trim).collect()
    }
}

fn two<'a>(ops: &[&'a str], mnemonic: &str) -> Result<[&'a str; 2], String> {
    match ops {
        [a, b] => Ok([*a, *b]),
        _ => Err(format!(
            "`{mnemonic}` expects 2 operands, found {}",
            ops.len()
        )),
    }
}

fn three<'a>(ops: &[&'a str], mnemonic: &str) -> Result<[&'a str; 3], String> {
    match ops {
        [a, b, c] => Ok([*a, *b, *c]),
        _ => Err(format!(
            "`{mnemonic}` expects 3 operands, found {}",
            ops.len()
        )),
    }
}

fn one_label(ops: &[&str], mnemonic: &str) -> Result<String, String> {
    match ops {
        [l] if is_identifier(l) => Ok((*l).to_string()),
        [l] => Err(format!("bad label `{l}`")),
        _ => Err(format!(
            "`{mnemonic}` expects 1 operand, found {}",
            ops.len()
        )),
    }
}

fn expect_no_operands(ops: &[&str], mnemonic: &str) -> Result<(), String> {
    if ops.is_empty() {
        Ok(())
    } else {
        Err(format!("`{mnemonic}` takes no operands"))
    }
}

fn parse_vreg(text: &str) -> Result<VReg, String> {
    text.parse::<VReg>().map_err(|e| e.to_string())
}

fn parse_sreg(text: &str) -> Result<SReg, String> {
    text.parse::<SReg>().map_err(|e| e.to_string())
}

fn parse_voperand(text: &str) -> Result<VOperand, String> {
    if text.starts_with('v') {
        parse_vreg(text).map(VOperand::V)
    } else if text.starts_with('s') {
        parse_sreg(text).map(VOperand::S)
    } else {
        Err(format!("bad vector operand `{text}`"))
    }
}

fn parse_scalar_reg(text: &str) -> Result<ScalarReg, String> {
    if text.starts_with('a') {
        text.parse::<AReg>()
            .map(ScalarReg::A)
            .map_err(|e| e.to_string())
    } else if text.starts_with('s') {
        parse_sreg(text).map(ScalarReg::S)
    } else {
        Err(format!("bad scalar register `{text}`"))
    }
}

fn parse_int_operand(text: &str) -> Result<IntOperand, String> {
    if let Some(imm) = text.strip_prefix('#') {
        imm.parse::<i64>()
            .map(IntOperand::Imm)
            .map_err(|_| format!("bad immediate `{text}`"))
    } else {
        parse_scalar_reg(text).map(IntOperand::Reg)
    }
}

/// Parses `offset(aN)` or `offset(aN):stride`.
fn parse_memref(text: &str) -> Result<MemRef, String> {
    let (body, stride) = match text.rsplit_once(':') {
        Some((body, s)) => {
            let stride: i64 = s.parse().map_err(|_| format!("bad stride in `{text}`"))?;
            if stride == 0 {
                return Err(format!("zero stride in `{text}`"));
            }
            (body, stride)
        }
        None => (text, 1),
    };
    let open = body
        .find('(')
        .ok_or_else(|| format!("bad memory operand `{text}`"))?;
    let close = body
        .rfind(')')
        .filter(|&c| c > open)
        .ok_or_else(|| format!("bad memory operand `{text}`"))?;
    let offset_text = body[..open].trim();
    let offset: i64 = if offset_text.is_empty() {
        0
    } else {
        offset_text
            .parse()
            .map_err(|_| format!("bad offset in `{text}`"))?
    };
    let base: AReg = body[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| format!("bad base register in `{text}`"))?;
    Ok(MemRef::new(base, offset).with_stride(stride))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Stride;

    #[test]
    fn assembles_paper_lfk1_listing() {
        let src = "\
L7:
    mov     s0,vl           ; #145
    ld.l    40120(a5),v0    ; ZX
    mul.d   v0,s1,v1
    ld.l    40128(a5),v2    ; ZX
    mul.d   v2,s3,v0
    add.d   v1,v0,v3
    ld.l    32032(a5),v1    ; Y
    mul.d   v1,v3,v2
    add.d   v2,s7,v0
    st.l    v0,24024(a5)    ; X
    add.w   #1024,a5
    sub.w   #128,s0
    lt.w    #0,s0
    jbrs.t  L7
    halt
";
        let p = assemble(src).unwrap();
        assert_eq!(p.len(), 15);
        assert_eq!(p.label("L7"), Some(0));
        let vectors: Vec<_> = p.instructions().iter().filter(|i| i.is_vector()).collect();
        assert_eq!(vectors.len(), 9);
    }

    #[test]
    fn roundtrip_display_assemble() {
        let src = "\
start:
    mov #128,vl
    mov #2.5,s1
    mov #-7,a3
    ld.l 0(a5):5,v0
    mul.d v0,s1,v1
    sub.d v1,v0,v2
    div.d v2,v1,v3
    neg.d v3,v4
    sum.d v4,s2
    radd.d v4,s3
    rsub.d v4,s4
    st.l v2,-16(a6)
    ld.w 8(a0),a1
    ld.d 16(a0),s5
    st.w s5,24(a0)
    add.s s1,s2,s3
    mul.w #3,a1
    shl.w #1,a2
    ge.w s0,s1
    jbrs.f start
    nop
    halt
";
        let p = assemble(src).unwrap();
        let rendered = p.to_string();
        let q = assemble(&rendered).unwrap();
        assert_eq!(p, q, "round-trip mismatch:\n{rendered}");
    }

    #[test]
    fn strided_memref() {
        let p = assemble("ld.l 100(a2):25,v3").unwrap();
        match &p.instructions()[0] {
            Instruction::VLoad { addr, dst } => {
                assert_eq!(addr.offset, 100);
                assert_eq!(addr.stride, Stride::Words(25));
                assert_eq!(dst.index(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_stride_and_offset() {
        let p = assemble("ld.l -8(a1):-1,v0").unwrap();
        match &p.instructions()[0] {
            Instruction::VLoad { addr, .. } => {
                assert_eq!(addr.offset, -8);
                assert_eq!(addr.stride.words(), -1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_line_numbers() {
        let err = assemble("nop\nfrob v0\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.message().contains("frob"));
    }

    #[test]
    fn undefined_label_reported() {
        let err = assemble("jbr nowhere\n").unwrap_err();
        assert!(err.message().contains("nowhere"));
    }

    #[test]
    fn duplicate_label_reported() {
        let err = assemble("L: nop\nL: nop\n").unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn all_scalar_operand_arith_rejected() {
        let err = assemble("add.d s0,s1,v0\n").unwrap_err();
        assert!(err.message().contains("vector operand"));
    }

    #[test]
    fn zero_stride_rejected() {
        for src in ["ld.l 0(a0):0,v0", "st.l v0,8(a1):0"] {
            let err = assemble(src).unwrap_err();
            assert!(err.message().contains("zero stride"), "{src}: {err}");
        }
    }

    #[test]
    fn wrong_operand_count() {
        let err = assemble("add.d v0,v1\n").unwrap_err();
        assert!(err.message().contains("3 operands"));
    }

    #[test]
    fn bare_offsetless_memref() {
        let p = assemble("ld.l (a5),v0").unwrap();
        match &p.instructions()[0] {
            Instruction::VLoad { addr, .. } => assert_eq!(addr.offset, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_vl_forms() {
        let p = assemble("mov s0,vl\nmov #64,vl\n").unwrap();
        assert_eq!(
            p.instructions()[0],
            Instruction::SetVl {
                src: "s0".parse().unwrap()
            }
        );
        assert_eq!(p.instructions()[1], Instruction::SetVlImm { value: 64 });
    }

    #[test]
    fn fp_vs_int_immediates() {
        let p = assemble("mov #3,s0\nmov #3.0,s1\n").unwrap();
        match (&p.instructions()[0], &p.instructions()[1]) {
            (Instruction::SMovImm { value: a, .. }, Instruction::SMovImm { value: b, .. }) => {
                assert_eq!(*a, ScalarValue::Int(3));
                assert_eq!(*b, ScalarValue::Fp(3.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fp_immediates_read_back_bit_for_bit() {
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            1e15,
            -3e16,
            1e20,
            1e-7,
        ] {
            let text = Instruction::SMovImm {
                value: ScalarValue::Fp(x),
                dst: ScalarReg::S("s0".parse().unwrap()),
            }
            .to_string();
            match assemble(&text).unwrap().instructions() {
                [Instruction::SMovImm {
                    value: ScalarValue::Fp(y),
                    ..
                }] => assert_eq!(y.to_bits(), x.to_bits(), "`{text}`"),
                other => panic!("`{text}` assembled as {other:?}"),
            }
        }
    }

    #[test]
    fn label_on_same_line_and_comments() {
        let p = assemble("top: nop ; comment here\n  jbr top ; loop\n").unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.label("top"), Some(0));
    }
}
