//! Simulated physical address space.
//!
//! The simulator never stores payload bytes — a buffer is just an address
//! range. Addresses matter because the cache model is indexed by them and
//! because the DMA engine must split transfers at page boundaries
//! (the copy engine works on pinned physical pages, §2.2.2).

/// Page size of the simulated machine (4 KiB, as on the paper's testbed).
pub const PAGE_SIZE: u64 = 4096;

/// A contiguous simulated buffer: a base address and a length in bytes.
///
/// ```rust
/// use ioat_memsim::{AddressAllocator, PAGE_SIZE};
/// let mut alloc = AddressAllocator::new();
/// let buf = alloc.alloc(10_000);
/// assert_eq!(buf.addr() % PAGE_SIZE, 0, "allocations are page-aligned");
/// assert_eq!(buf.len(), 10_000);
/// assert_eq!(buf.pages(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Buffer {
    addr: u64,
    len: u64,
}

impl Buffer {
    /// Creates a buffer over `[addr, addr + len)`.
    pub fn new(addr: u64, len: u64) -> Self {
        Buffer { addr, len }
    }

    /// Base address.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of (possibly partial) pages the buffer spans.
    pub fn pages(&self) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let first = self.addr / PAGE_SIZE;
        let last = (self.addr + self.len - 1) / PAGE_SIZE;
        last - first + 1
    }

    /// A sub-range of this buffer.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` exceeds the buffer.
    pub fn slice(&self, offset: u64, len: u64) -> Buffer {
        assert!(
            offset + len <= self.len,
            "slice [{offset}, {}) out of buffer of len {}",
            offset + len,
            self.len
        );
        Buffer {
            addr: self.addr + offset,
            len,
        }
    }

    /// Splits the buffer into page-bounded chunks, as the DMA engine must
    /// ("a single transfer cannot span discontinuous physical pages").
    pub fn page_chunks(&self) -> impl Iterator<Item = Buffer> + '_ {
        let mut offset = 0u64;
        std::iter::from_fn(move || {
            if offset >= self.len {
                return None;
            }
            let addr = self.addr + offset;
            let room_in_page = PAGE_SIZE - (addr % PAGE_SIZE);
            let len = room_in_page.min(self.len - offset);
            offset += len;
            Some(Buffer { addr, len })
        })
    }
}

/// A bump allocator handing out page-aligned, non-overlapping buffers from
/// a simulated address space.
///
/// Different components (kernel socket buffers, user application buffers,
/// NIC header rings) allocate from the same space so their cache footprints
/// interact realistically.
#[derive(Debug, Clone)]
pub struct AddressAllocator {
    next: u64,
}

impl Default for AddressAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressAllocator {
    /// Creates an allocator starting at a non-zero base (so address 0 is
    /// never handed out and can serve as a sentinel).
    pub fn new() -> Self {
        AddressAllocator { next: PAGE_SIZE }
    }

    /// Allocates a page-aligned buffer of `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero; zero-length "buffers" should use
    /// [`Buffer::new`] explicitly where the model needs a placeholder.
    pub fn alloc(&mut self, len: u64) -> Buffer {
        assert!(len > 0, "cannot allocate an empty buffer");
        let addr = self.next;
        let pages = len.div_ceil(PAGE_SIZE);
        self.next += pages * PAGE_SIZE;
        Buffer { addr, len }
    }

    /// Bytes of address space consumed so far.
    pub fn used(&self) -> u64 {
        self.next - PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut a = AddressAllocator::new();
        let b1 = a.alloc(1);
        let b2 = a.alloc(PAGE_SIZE + 1);
        let b3 = a.alloc(100);
        assert_eq!(b1.addr() % PAGE_SIZE, 0);
        assert_eq!(b2.addr() % PAGE_SIZE, 0);
        assert!(b1.addr() + PAGE_SIZE <= b2.addr());
        assert!(b2.addr() + 2 * PAGE_SIZE <= b3.addr());
    }

    #[test]
    fn page_count_handles_straddles() {
        // A 2-byte buffer straddling a page boundary spans 2 pages.
        let b = Buffer::new(PAGE_SIZE - 1, 2);
        assert_eq!(b.pages(), 2);
        assert_eq!(Buffer::new(0, 0).pages(), 0);
        assert_eq!(Buffer::new(0, PAGE_SIZE).pages(), 1);
        assert_eq!(Buffer::new(0, PAGE_SIZE + 1).pages(), 2);
    }

    #[test]
    fn page_chunks_cover_buffer_without_straddling() {
        let b = Buffer::new(PAGE_SIZE - 100, 2 * PAGE_SIZE);
        let chunks: Vec<Buffer> = b.page_chunks().collect();
        let total: u64 = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, b.len());
        for c in &chunks {
            let first_page = c.addr() / PAGE_SIZE;
            let last_page = (c.addr() + c.len() - 1) / PAGE_SIZE;
            assert_eq!(first_page, last_page, "chunk straddles a page");
        }
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 100);
    }

    #[test]
    fn slice_stays_in_bounds() {
        let b = Buffer::new(1000, 50);
        let s = b.slice(10, 20);
        assert_eq!(s.addr(), 1010);
        assert_eq!(s.len(), 20);
    }

    #[test]
    #[should_panic(expected = "out of buffer")]
    fn slice_past_end_panics() {
        Buffer::new(0, 10).slice(5, 6);
    }
}
