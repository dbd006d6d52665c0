//! The flat EVA32 memory map.

use serde::{Deserialize, Serialize};

/// Classification of an address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// Read-only memory: code and constant data.
    Rom,
    /// Read-write memory: data, bss and the stack.
    Ram,
    /// Not mapped; accesses fault.
    Unmapped,
}

/// The memory map: one ROM window and one RAM window.
///
/// The stack grows *down* from [`MemoryMap::stack_top`]. The assembler's
/// default layout (`text_base = 0`, `data_base = 0x1000_0000`) matches
/// [`MemoryMap::default`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryMap {
    /// Base address of ROM.
    pub rom_base: u32,
    /// ROM size in bytes.
    pub rom_size: u32,
    /// Base address of RAM.
    pub ram_base: u32,
    /// RAM size in bytes.
    pub ram_size: u32,
}

impl Default for MemoryMap {
    /// 1 MiB ROM at `0x0000_0000`, 1 MiB RAM at `0x1000_0000`.
    fn default() -> MemoryMap {
        MemoryMap {
            rom_base: 0x0000_0000,
            rom_size: 0x0010_0000,
            ram_base: 0x1000_0000,
            ram_size: 0x0010_0000,
        }
    }
}

impl MemoryMap {
    /// Classifies an address.
    pub fn region(&self, addr: u32) -> Region {
        if addr.wrapping_sub(self.rom_base) < self.rom_size {
            Region::Rom
        } else if addr.wrapping_sub(self.ram_base) < self.ram_size {
            Region::Ram
        } else {
            Region::Unmapped
        }
    }

    /// Returns `true` if an access of `len` bytes at `addr` stays inside
    /// one mapped region.
    pub fn access_ok(&self, addr: u32, len: u32) -> bool {
        let r = self.region(addr);
        r != Region::Unmapped && len > 0 && self.region(addr + (len - 1)) == r
    }

    /// The initial stack pointer: one byte past the end of RAM, which is
    /// 16-byte aligned for the default map.
    pub fn stack_top(&self) -> u32 {
        self.ram_base + self.ram_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_classified() {
        let m = MemoryMap::default();
        assert_eq!(m.region(0), Region::Rom);
        assert_eq!(m.region(0x000f_ffff), Region::Rom);
        assert_eq!(m.region(0x0010_0000), Region::Unmapped);
        assert_eq!(m.region(0x1000_0000), Region::Ram);
        assert_eq!(m.region(0x100f_ffff), Region::Ram);
        assert_eq!(m.region(0x1010_0000), Region::Unmapped);
        assert_eq!(m.region(0xffff_ffff), Region::Unmapped);
    }

    #[test]
    fn access_bounds() {
        let m = MemoryMap::default();
        assert!(m.access_ok(0x000f_fffc, 4));
        assert!(!m.access_ok(0x000f_fffd, 4)); // crosses out of ROM
        assert!(!m.access_ok(0x2000_0000, 1));
        assert!(!m.access_ok(0, 0));
    }

    #[test]
    fn stack_top_at_ram_end() {
        let m = MemoryMap::default();
        assert_eq!(m.stack_top(), 0x1010_0000);
        assert_eq!(m.stack_top(), m.ram_base + m.ram_size);
    }
}
