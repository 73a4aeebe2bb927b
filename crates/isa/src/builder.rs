//! Programmatic assembler with forward-reference label resolution.
//!
//! [`ProgramBuilder`] is the code-generation front end used by the
//! benchmark kernels: instructions are pushed in order, control transfers
//! may name labels that are defined later, and [`ProgramBuilder::assemble`]
//! resolves every reference into concrete pipeline-relative offsets.

use std::collections::BTreeMap;

use crate::error::{IsaError, ParseAsmError};
use crate::instr::{BranchCond, Instr};
use crate::program::Program;
use crate::reg::Reg;

#[derive(Debug, Clone)]
enum Slot {
    Fixed(Instr),
    Branch {
        cond: BranchCond,
        ra: Reg,
        rb: Reg,
        label: String,
    },
    Jmp {
        label: String,
    },
    Jal {
        rd: Reg,
        label: String,
    },
}

/// Incremental program builder with labels and pseudo-instructions.
///
/// # Example
///
/// A countdown loop using a backward label reference:
///
/// ```
/// use wbsn_isa::{Instr, ProgramBuilder, Reg};
///
/// # fn main() -> Result<(), wbsn_isa::IsaError> {
/// let mut b = ProgramBuilder::new();
/// b.load_const(Reg::R1, 3);
/// b.label("again")?;
/// b.push(Instr::addi(Reg::R1, Reg::R1, -1));
/// b.bne_to(Reg::R1, Reg::R0, "again");
/// b.push(Instr::Halt);
/// let p = b.assemble()?;
/// assert_eq!(p.label("again"), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    slots: Vec<Slot>,
    labels: BTreeMap<String, usize>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no instructions have been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Defines `name` at the current position.
    ///
    /// # Errors
    ///
    /// Returns an error if the label was already defined.
    pub fn label(&mut self, name: &str) -> Result<(), IsaError> {
        if self.labels.contains_key(name) {
            return Err(ParseAsmError::new(format!("label `{name}` defined twice")).into());
        }
        self.labels.insert(name.to_string(), self.slots.len());
        Ok(())
    }

    /// Appends a concrete instruction.
    pub fn push(&mut self, instr: Instr) {
        self.slots.push(Slot::Fixed(instr));
    }

    /// Appends a conditional branch to a (possibly forward) label.
    pub fn branch_to(&mut self, cond: BranchCond, ra: Reg, rb: Reg, label: &str) {
        self.slots.push(Slot::Branch {
            cond,
            ra,
            rb,
            label: label.to_string(),
        });
    }

    /// `bne ra, rb, label`.
    pub fn bne_to(&mut self, ra: Reg, rb: Reg, label: &str) {
        self.branch_to(BranchCond::Ne, ra, rb, label);
    }

    /// Appends an unconditional jump to a label.
    pub fn jmp_to(&mut self, label: &str) {
        self.slots.push(Slot::Jmp {
            label: label.to_string(),
        });
    }

    /// Appends a call (`jal` to the label with the link register).
    pub fn call(&mut self, label: &str) {
        self.slots.push(Slot::Jal {
            rd: Reg::LINK,
            label: label.to_string(),
        });
    }

    /// Appends a return through the link register.
    pub fn ret(&mut self) {
        self.push(Instr::Jr { ra: Reg::LINK });
    }

    /// Loads an arbitrary 16-bit constant into `rd`, using one `li` when
    /// the value fits the sign-extended 15-bit immediate and a `lui`/`ori`
    /// pair otherwise.
    pub fn load_const(&mut self, rd: Reg, value: u16) {
        let as_signed = value as i16;
        if (-16384..=16383).contains(&as_signed) {
            self.push(Instr::Li { rd, imm: as_signed });
        } else {
            self.push(Instr::Lui {
                rd,
                imm: (value >> 8) as u8,
            });
            let low = value & 0xFF;
            if low != 0 {
                self.push(Instr::AluImm {
                    op: crate::instr::AluImmOp::Ori,
                    rd,
                    ra: rd,
                    imm: low as i16,
                });
            }
        }
    }

    /// Loads a signed 16-bit constant into `rd`.
    pub fn load_const_i16(&mut self, rd: Reg, value: i16) {
        self.load_const(rd, value as u16);
    }

    /// Resolves all label references and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns an error for undefined labels or offsets that exceed the
    /// branch/jump encoding ranges.
    pub fn assemble(self) -> Result<Program, IsaError> {
        let mut instrs = Vec::with_capacity(self.slots.len());
        for (pc, slot) in self.slots.iter().enumerate() {
            let resolve = |label: &str| -> Result<i32, IsaError> {
                let target = self.labels.get(label).ok_or_else(|| {
                    IsaError::from(ParseAsmError::new(format!("undefined label `{label}`")))
                })?;
                Ok(*target as i32 - (pc as i32 + 1))
            };
            let instr = match slot {
                Slot::Fixed(i) => *i,
                Slot::Branch {
                    cond,
                    ra,
                    rb,
                    label,
                } => {
                    let off = resolve(label)?;
                    let off = i16::try_from(off).map_err(|_| {
                        IsaError::from(ParseAsmError::new(format!(
                            "branch to `{label}` out of range ({off} words)"
                        )))
                    })?;
                    Instr::Branch {
                        cond: *cond,
                        ra: *ra,
                        rb: *rb,
                        off,
                    }
                }
                Slot::Jmp { label } => Instr::Jmp {
                    off: resolve(label)?,
                },
                Slot::Jal { rd, label } => {
                    let off = resolve(label)?;
                    let off = i16::try_from(off).map_err(|_| {
                        IsaError::from(ParseAsmError::new(format!(
                            "call to `{label}` out of range ({off} words)"
                        )))
                    })?;
                    Instr::Jal { rd: *rd, off }
                }
            };
            // Validate encoding ranges eagerly so errors surface at
            // assembly time, not at link or load time.
            instr.encode().map_err(IsaError::from)?;
            instrs.push(instr);
        }
        Ok(Program::with_labels(instrs, self.labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_references() {
        let mut b = ProgramBuilder::new();
        b.jmp_to("end"); // forward
        b.label("mid").unwrap();
        b.push(Instr::Nop);
        b.label("end").unwrap();
        b.bne_to(Reg::R1, Reg::R0, "mid"); // backward
        b.push(Instr::Halt);
        let p = b.assemble().unwrap();
        assert_eq!(p.instrs()[0], Instr::Jmp { off: 1 });
        assert_eq!(
            p.instrs()[2],
            Instr::Branch {
                cond: BranchCond::Ne,
                ra: Reg::R1,
                rb: Reg::R0,
                off: -2
            }
        );
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.jmp_to("nowhere");
        assert!(b.assemble().is_err());
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.label("x").unwrap();
        assert!(b.label("x").is_err());
    }

    #[test]
    fn load_const_small_uses_one_instruction() {
        let mut b = ProgramBuilder::new();
        b.load_const(Reg::R1, 100);
        b.load_const_i16(Reg::R2, -5);
        let p = b.assemble().unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn load_const_large_uses_lui_ori() {
        let mut b = ProgramBuilder::new();
        b.load_const(Reg::R1, 0x7FFF);
        let p = b.assemble().unwrap();
        assert_eq!(
            p.instrs(),
            &[
                Instr::Lui {
                    rd: Reg::R1,
                    imm: 0x7F
                },
                Instr::AluImm {
                    op: crate::instr::AluImmOp::Ori,
                    rd: Reg::R1,
                    ra: Reg::R1,
                    imm: 0xFF
                }
            ]
        );
    }

    #[test]
    fn load_const_round_byte_skips_ori() {
        let mut b = ProgramBuilder::new();
        b.load_const(Reg::R1, 0x4000);
        let p = b.assemble().unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(
            p.instrs()[0],
            Instr::Lui {
                rd: Reg::R1,
                imm: 0x40
            }
        );
    }

    #[test]
    fn call_and_ret_use_link_register() {
        let mut b = ProgramBuilder::new();
        b.call("f");
        b.push(Instr::Halt);
        b.label("f").unwrap();
        b.ret();
        let p = b.assemble().unwrap();
        assert_eq!(
            p.instrs()[0],
            Instr::Jal {
                rd: Reg::LINK,
                off: 1
            }
        );
        assert_eq!(p.instrs()[2], Instr::Jr { ra: Reg::LINK });
    }
}
