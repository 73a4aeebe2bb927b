//! Linker: places code sections into instruction-memory banks.
//!
//! The paper's mapping step requires that "binary code of the different
//! phases is placed in different IM banks in order to avoid access
//! conflicts and benefit from broadcasting". The [`Linker`] consumes
//! assembled [`Program`] sections together with optional bank assignments
//! (the *building directives* of the tool-chain) and produces a
//! [`LinkedImage`]: a full instruction-memory image, per-core entry
//! points, the set of instruction banks that must stay powered, and the
//! initial data-memory contents.

use std::collections::BTreeMap;

use crate::error::{DecodeError, LinkError};
use crate::instr::Instr;
use crate::mem::{DM_WORDS, IM_BANKS, IM_BANK_WORDS, IM_WORDS};
use crate::program::Program;

/// A named code section to be placed into the instruction memory.
#[derive(Debug, Clone)]
pub struct Section {
    /// Section name, unique within one link.
    pub name: String,
    /// The assembled program body.
    pub program: Program,
    /// Bank this section must live in; `None` lets the linker choose
    /// (first-fit from bank 0, which is what the single-core baseline
    /// uses to minimise the number of powered banks).
    pub bank: Option<usize>,
}

impl Section {
    /// Creates a section with automatic bank placement.
    pub fn new(name: impl Into<String>, program: Program) -> Section {
        Section {
            name: name.into(),
            program,
            bank: None,
        }
    }

    /// Creates a section pinned to a specific instruction-memory bank.
    pub fn in_bank(name: impl Into<String>, program: Program, bank: usize) -> Section {
        Section {
            name: name.into(),
            program,
            bank: Some(bank),
        }
    }
}

/// A contiguous block of initial data-memory contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// First word address of the segment in the core-visible address space.
    pub base: u32,
    /// The 16-bit words to preload.
    pub words: Vec<u16>,
}

impl DataSegment {
    /// Creates a data segment at `base`.
    pub fn new(base: u32, words: Vec<u16>) -> DataSegment {
        DataSegment { base, words }
    }
}

/// Collects sections, data segments and entry points, then links them.
///
/// # Example
///
/// ```
/// use wbsn_isa::{Instr, Linker, Program, Section};
///
/// # fn main() -> Result<(), wbsn_isa::IsaError> {
/// let main = Program::from_instrs(vec![Instr::Nop, Instr::Halt]);
/// let mut linker = Linker::new();
/// linker.add_section(Section::in_bank("main", main, 2));
/// linker.set_entry(0, "main");
/// let image = linker.link()?;
/// assert_eq!(image.entry(0), Some(2 * 4096));
/// assert_eq!(image.active_im_banks(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Linker {
    sections: Vec<Section>,
    data: Vec<DataSegment>,
    entries: BTreeMap<usize, String>,
}

impl Linker {
    /// Creates an empty linker.
    pub fn new() -> Linker {
        Linker::default()
    }

    /// Adds a code section.
    pub fn add_section(&mut self, section: Section) -> &mut Self {
        self.sections.push(section);
        self
    }

    /// Adds an initial data-memory segment.
    pub fn add_data(&mut self, segment: DataSegment) -> &mut Self {
        self.data.push(segment);
        self
    }

    /// Declares that `core` starts executing at the first instruction of
    /// the named section.
    pub fn set_entry(&mut self, core: usize, section: impl Into<String>) -> &mut Self {
        self.entries.insert(core, section.into());
        self
    }

    /// Performs placement and produces the final image.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] for duplicate section names, bank indices
    /// outside the geometry, bank overflow, out-of-range or overlapping
    /// data segments, and entries naming unknown sections.
    pub fn link(&self) -> Result<LinkedImage, LinkError> {
        let mut bank_fill = [0usize; IM_BANKS];
        let mut placed: BTreeMap<String, (u32, usize)> = BTreeMap::new();
        let mut im = vec![0u32; IM_WORDS];
        let mut code_words = 0usize;
        let mut sync_words = 0usize;

        // Pinned sections first so auto placement cannot steal their space.
        let (pinned, auto): (Vec<_>, Vec<_>) = self.sections.iter().partition(|s| s.bank.is_some());
        for section in pinned.into_iter().chain(auto) {
            if placed.contains_key(&section.name) {
                return Err(LinkError::DuplicateSection(section.name.clone()));
            }
            let len = section.program.len();
            let bank = match section.bank {
                Some(bank) => {
                    if bank >= IM_BANKS {
                        return Err(LinkError::BankOutOfRange {
                            section: section.name.clone(),
                            bank,
                            banks: IM_BANKS,
                        });
                    }
                    if bank_fill[bank] + len > IM_BANK_WORDS {
                        return Err(LinkError::BankOverflow {
                            section: section.name.clone(),
                            bank,
                            excess: bank_fill[bank] + len - IM_BANK_WORDS,
                        });
                    }
                    bank
                }
                None => {
                    let candidate = bank_fill
                        .iter()
                        .position(|&fill| fill + len <= IM_BANK_WORDS);
                    match candidate {
                        Some(bank) => bank,
                        None => {
                            return Err(LinkError::BankOverflow {
                                section: section.name.clone(),
                                bank: IM_BANKS - 1,
                                excess: len,
                            })
                        }
                    }
                }
            };
            let base = (bank * IM_BANK_WORDS + bank_fill[bank]) as u32;
            for (i, instr) in section.program.instrs().iter().enumerate() {
                // Programs validated their encodings at assembly time, so
                // an encode failure here is a programming error.
                im[base as usize + i] = instr
                    .encode()
                    .expect("assembled program contains encodable instructions");
                if instr.is_sync_ise() {
                    sync_words += 1;
                }
            }
            bank_fill[bank] += len;
            code_words += len;
            placed.insert(section.name.clone(), (base, len));
        }

        let mut entries = BTreeMap::new();
        for (&core, name) in &self.entries {
            let (base, _) = placed
                .get(name)
                .ok_or_else(|| LinkError::UnknownEntrySection {
                    core,
                    section: name.clone(),
                })?;
            entries.insert(core, *base);
        }

        // Merge and validate data segments.
        let mut dm_init: BTreeMap<u32, u16> = BTreeMap::new();
        for seg in &self.data {
            let end = seg.base as usize + seg.words.len();
            if end > DM_WORDS {
                return Err(LinkError::DataOutOfRange {
                    base: seg.base,
                    len: seg.words.len(),
                });
            }
            for (i, &w) in seg.words.iter().enumerate() {
                let addr = seg.base + i as u32;
                if dm_init.insert(addr, w).is_some() {
                    return Err(LinkError::DataOverlap { addr });
                }
            }
        }

        let active_banks: Vec<bool> = bank_fill.iter().map(|&f| f > 0).collect();
        let sections = placed
            .into_iter()
            .map(|(name, (base, len))| PlacedSection { name, base, len })
            .collect();

        Ok(LinkedImage {
            im,
            entries,
            active_banks,
            sections,
            code_words,
            sync_words,
            dm_init,
        })
    }
}

/// A section after placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedSection {
    /// Section name.
    pub name: String,
    /// First instruction-memory address of the section.
    pub base: u32,
    /// Length in instruction words.
    pub len: usize,
}

/// The output of a successful link: a full instruction-memory image plus
/// the metadata the platform loader needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkedImage {
    im: Vec<u32>,
    entries: BTreeMap<usize, u32>,
    active_banks: Vec<bool>,
    sections: Vec<PlacedSection>,
    code_words: usize,
    sync_words: usize,
    dm_init: BTreeMap<u32, u16>,
}

impl LinkedImage {
    /// The full instruction-memory image (one 24-bit word per address).
    pub fn im_words(&self) -> &[u32] {
        &self.im
    }

    /// The instruction word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the instruction memory.
    pub fn instr_word(&self, addr: u32) -> u32 {
        self.im[addr as usize]
    }

    /// Entry address for `core`, if one was declared.
    pub fn entry(&self, core: usize) -> Option<u32> {
        self.entries.get(&core).copied()
    }

    /// Core → entry-address pairs in core order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.entries.iter().map(|(&c, &a)| (c, a))
    }

    /// Number of instruction banks containing code — Table I's
    /// "Active IM banks".
    pub fn active_im_banks(&self) -> usize {
        self.active_banks.iter().filter(|&&b| b).count()
    }

    /// Placed sections with their final addresses.
    pub fn sections(&self) -> &[PlacedSection] {
        &self.sections
    }

    /// Total placed code size in instruction words.
    pub fn code_words(&self) -> usize {
        self.code_words
    }

    /// Number of placed synchronization-ISE instructions.
    pub fn sync_words(&self) -> usize {
        self.sync_words
    }

    /// Static code overhead of the synchronization ISE, in percent —
    /// Table I's "Code Overhead (%)".
    pub fn code_overhead_percent(&self) -> f64 {
        if self.code_words == 0 {
            0.0
        } else {
            100.0 * self.sync_words as f64 / self.code_words as f64
        }
    }

    /// Initial data-memory contents as `(address, word)` pairs.
    pub fn dm_init(&self) -> impl Iterator<Item = (u32, u16)> + '_ {
        self.dm_init.iter().map(|(&a, &w)| (a, w))
    }

    /// Decodes the instruction at `addr`, if it is a valid encoding.
    pub fn decode_at(&self, addr: u32) -> Option<Instr> {
        Instr::decode(self.instr_word(addr)).ok()
    }

    /// Reconstructs a placed section as a [`Program`] by decoding its
    /// instruction words — the image-walking primitive behind the
    /// static sync-protocol verifier.
    ///
    /// # Errors
    ///
    /// Returns the first invalid encoding (which would also fault at
    /// fetch time on the platform).
    pub fn section_program(&self, section: &PlacedSection) -> Result<Program, DecodeError> {
        let instrs = (0..section.len)
            .map(|offset| Instr::decode(self.instr_word(section.base + offset as u32)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program::from_instrs(instrs))
    }

    /// The cores whose entry point starts `section`.
    pub fn cores_entering(&self, section: &PlacedSection) -> Vec<usize> {
        self.entries
            .iter()
            .filter(|(_, &addr)| addr == section.base)
            .map(|(&core, _)| core)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;
    use crate::reg::Reg;

    fn prog(n: usize) -> Program {
        Program::from_instrs(vec![Instr::Nop; n])
    }

    #[test]
    fn pinned_sections_land_in_their_banks() {
        let mut l = Linker::new();
        l.add_section(Section::in_bank("a", prog(4), 3));
        l.add_section(Section::in_bank("b", prog(2), 3));
        let image = l.link().unwrap();
        let a = image.sections().iter().find(|s| s.name == "a").unwrap();
        let b = image.sections().iter().find(|s| s.name == "b").unwrap();
        assert_eq!(a.base, 3 * IM_BANK_WORDS as u32);
        assert_eq!(b.base, a.base + 4);
        assert_eq!(image.active_im_banks(), 1);
    }

    #[test]
    fn auto_sections_first_fit_from_bank_zero() {
        let mut l = Linker::new();
        l.add_section(Section::new("a", prog(IM_BANK_WORDS)));
        l.add_section(Section::new("b", prog(10)));
        let image = l.link().unwrap();
        let b = image.sections().iter().find(|s| s.name == "b").unwrap();
        assert_eq!(b.base, IM_BANK_WORDS as u32);
        assert_eq!(image.active_im_banks(), 2);
    }

    #[test]
    fn pinned_before_auto() {
        let mut l = Linker::new();
        l.add_section(Section::new("auto", prog(8)));
        l.add_section(Section::in_bank("pin", prog(8), 0));
        let image = l.link().unwrap();
        let pin = image.sections().iter().find(|s| s.name == "pin").unwrap();
        let auto = image.sections().iter().find(|s| s.name == "auto").unwrap();
        assert_eq!(pin.base, 0);
        assert_eq!(auto.base, 8);
    }

    #[test]
    fn entries_resolve_to_section_bases() {
        let mut l = Linker::new();
        l.add_section(Section::in_bank("main", prog(3), 1));
        l.set_entry(0, "main");
        let image = l.link().unwrap();
        assert_eq!(image.entry(0), Some(IM_BANK_WORDS as u32));
        assert_eq!(image.entry(1), None);
    }

    #[test]
    fn unknown_entry_is_an_error() {
        let mut l = Linker::new();
        l.set_entry(0, "missing");
        assert!(matches!(
            l.link(),
            Err(LinkError::UnknownEntrySection { .. })
        ));
    }

    #[test]
    fn bank_overflow_detected() {
        let mut l = Linker::new();
        l.add_section(Section::in_bank("big", prog(IM_BANK_WORDS + 1), 0));
        assert!(matches!(l.link(), Err(LinkError::BankOverflow { .. })));
    }

    #[test]
    fn bank_out_of_range_detected() {
        let mut l = Linker::new();
        l.add_section(Section::in_bank("x", prog(1), IM_BANKS));
        assert!(matches!(l.link(), Err(LinkError::BankOutOfRange { .. })));
    }

    #[test]
    fn duplicate_sections_rejected() {
        let mut l = Linker::new();
        l.add_section(Section::new("x", prog(1)));
        l.add_section(Section::new("x", prog(1)));
        assert!(matches!(l.link(), Err(LinkError::DuplicateSection(_))));
    }

    #[test]
    fn data_segments_merge_and_validate() {
        let mut l = Linker::new();
        l.add_data(DataSegment::new(10, vec![1, 2, 3]));
        l.add_data(DataSegment::new(20, vec![9]));
        let image = l.link().unwrap();
        let init: Vec<_> = image.dm_init().collect();
        assert_eq!(init, vec![(10, 1), (11, 2), (12, 3), (20, 9)]);

        let mut bad = Linker::new();
        bad.add_data(DataSegment::new(10, vec![1, 2]));
        bad.add_data(DataSegment::new(11, vec![3]));
        assert!(matches!(bad.link(), Err(LinkError::DataOverlap { .. })));

        let mut oob = Linker::new();
        oob.add_data(DataSegment::new(DM_WORDS as u32 - 1, vec![1, 2]));
        assert!(matches!(oob.link(), Err(LinkError::DataOutOfRange { .. })));
    }

    #[test]
    fn code_overhead_counts_sync_instructions() {
        let p = Program::from_instrs(vec![
            Instr::sinc(0),
            Instr::Sleep,
            Instr::add(Reg::R1, Reg::R1, Reg::R1),
            Instr::Halt,
        ]);
        let mut l = Linker::new();
        l.add_section(Section::new("m", p));
        let image = l.link().unwrap();
        assert_eq!(image.sync_words(), 2);
        assert_eq!(image.code_words(), 4);
        assert!((image.code_overhead_percent() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn image_decodes_back() {
        let p = Program::from_instrs(vec![Instr::lw(Reg::R1, Reg::R2, 7)]);
        let mut l = Linker::new();
        l.add_section(Section::in_bank("m", p, 2));
        let image = l.link().unwrap();
        let addr = 2 * IM_BANK_WORDS as u32;
        assert_eq!(image.decode_at(addr), Some(Instr::lw(Reg::R1, Reg::R2, 7)));
    }
}
