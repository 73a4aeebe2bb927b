//! Differential proof that the platform's load-use hazard check matches
//! the instruction's operands.
//!
//! The pipeline tests the predecoded [`DecodedInstr::src_mask`] bitmask
//! ([`Core::has_load_use_hazard_mask`]). The reference predicate here
//! walks the instruction's `sources()` directly: a hazard exists exactly
//! when one of them is the register the test latched. This suite proves
//! the two agree for every decodable instruction — exhaustively over
//! all opcode/register-field combinations (including `Sw` store-data
//! and branch source registers, which live in unusual encoding fields)
//! and by random sampling over the full 24-bit word space.

use proptest::prelude::*;
use wbsn_isa::{DecodedInstr, Instr, Reg};
use wbsn_sim::cpu::Core;

/// A core whose hazard latch holds `rd`, as if `lw rd, 0(r0)` just
/// retired.
fn core_with_latched(rd: Reg) -> Core {
    let mut c = Core::new(0, 0);
    c.retire(Instr::lw(rd, Reg::R0, 0), Some(0));
    c
}

/// The reference predicate: `instr` reads the `latched` register.
fn reads(instr: &Instr, latched: Reg) -> bool {
    instr.sources().iter().flatten().any(|&s| s == latched)
}

/// Asserts the mask form agrees with the reference predicate for
/// `instr` under every possible latch state (each of the 8 registers,
/// plus no latch at all).
fn assert_forms_agree(instr: Instr) {
    let mask = DecodedInstr::new(instr).src_mask;
    for latch in Reg::ALL {
        assert_eq!(
            reads(&instr, latch),
            core_with_latched(latch).has_load_use_hazard_mask(mask),
            "hazard forms disagree for {instr:?} with latch {latch:?}",
        );
    }
    assert!(!Core::new(0, 0).has_load_use_hazard_mask(mask));
}

/// Every opcode with every register-field combination: opcodes occupy
/// bits 18..24 and the three register fields bits 9..18, so sweeping
/// those with representative low bits covers every operand shape the
/// decoder can produce — `Sw` keeps its store-data register in the
/// "rd" field and branches keep both sources in the "rd"/"ra" fields,
/// exactly the shapes a naive mask builder would get wrong.
#[test]
fn hazard_forms_agree_on_every_opcode_and_register_shape() {
    let mut decodable = 0u32;
    for opcode in 0u32..0x40 {
        for regs in 0u32..512 {
            for low in [0u32, 0x1FF] {
                let word = (opcode << 18) | (regs << 9) | low;
                let Ok(instr) = Instr::decode(word) else {
                    continue;
                };
                decodable += 1;
                assert_forms_agree(instr);
            }
        }
    }
    assert!(decodable > 0, "the sweep decoded nothing");
}

proptest! {
    #[test]
    fn hazard_forms_agree_on_random_words(word in 0u32..1 << 24) {
        if let Ok(instr) = Instr::decode(word) {
            assert_forms_agree(instr);
        }
    }
}
