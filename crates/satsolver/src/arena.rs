//! Bump-arena clause storage with compact inline headers.
//!
//! Clauses live in one contiguous word arena: a two-word header
//! (`size | LBD | flags` packed into the first word, the clause activity
//! in the second) immediately followed by the literals. A [`ClauseRef`]
//! is the `u32` word offset of the header, so dereferencing a clause is
//! one pointer add and the header shares a cache line with the first
//! literals — the layout CaDiCaL and Glucose use for the propagation hot
//! path, in contrast to the previous header-table-plus-literal-pool
//! design that cost two dependent loads per clause.
//!
//! Deletion tombstones the header in place; [`Arena::compact`] squeezes
//! the tombstones out and returns a [`RefMap`] so the solver can patch
//! every outstanding reference (watch lists, trail reasons).
//!
//! The backing store is always allocated cache-line aligned. With
//! [`ArenaMode::HugePages`] it is instead aligned and sized to 2 MiB
//! boundaries and the kernel is advised (`madvise(MADV_HUGEPAGE)`) to
//! back it with transparent huge pages, which removes most TLB misses on
//! multi-hundred-megabyte clause databases (see "Towards Faster
//! Reasoners By Using Transparent Huge Pages"). The mode changes only
//! allocation, never semantics.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

use crate::types::Lit;

/// A stable-until-compaction handle to a clause in an [`Arena`]: the
/// word offset of the clause header. After [`Arena::compact`] every held
/// reference must be translated through the returned [`RefMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClauseRef(u32);

impl ClauseRef {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a clause arena allocates its backing store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArenaMode {
    /// Cache-line (64-byte) aligned heap allocation.
    #[default]
    Standard,
    /// 2 MiB-aligned, 2 MiB-granular allocation, advised to the kernel
    /// as a transparent-huge-page candidate. Semantics are identical to
    /// [`ArenaMode::Standard`]; only TLB behavior differs.
    HugePages,
}

const CACHE_LINE: usize = 64;
const HUGE_PAGE: usize = 2 * 1024 * 1024;

// Header word 0: size | LBD | flags.
const LEN_BITS: u32 = 24;
const LEN_MASK: u32 = (1 << LEN_BITS) - 1;
const LBD_SHIFT: u32 = LEN_BITS;
const LBD_BITS: u32 = 6;
/// Largest LBD the header can record; larger glues are clamped. The
/// retention policy only discriminates among small glues (protect ≤ 2,
/// sort the rest), so merging the tail above 63 loses nothing.
pub const LBD_CAP: u32 = (1 << LBD_BITS) - 1;
const LBD_MASK: u32 = LBD_CAP << LBD_SHIFT;
const LEARNT_BIT: u32 = 1 << 30;
const DELETED_BIT: u32 = 1 << 31;
const HEADER_WORDS: usize = 2;

/// A manually managed `u32` vector with configurable alignment, the
/// backing store of [`Arena`]. Plain `Vec` cannot express the 2 MiB
/// alignment huge pages need.
#[derive(Debug)]
struct Words {
    ptr: NonNull<u32>,
    len: usize,
    cap: usize,
    mode: ArenaMode,
}

// SAFETY: `Words` owns its allocation exclusively (no aliasing, no
// interior mutability), so moving or sharing it across threads is as
// safe as for `Vec<u32>`.
unsafe impl Send for Words {}
unsafe impl Sync for Words {}

impl Words {
    fn new(mode: ArenaMode) -> Words {
        Words {
            ptr: NonNull::dangling(),
            len: 0,
            cap: 0,
            mode,
        }
    }

    fn align(&self) -> usize {
        match self.mode {
            ArenaMode::Standard => CACHE_LINE,
            ArenaMode::HugePages => HUGE_PAGE,
        }
    }

    fn layout(&self, cap_words: usize) -> Layout {
        Layout::from_size_align(cap_words * 4, self.align()).expect("arena layout")
    }

    #[inline]
    fn as_slice(&self) -> &[u32] {
        // SAFETY: `ptr` points at `len` initialized words (dangling only
        // when len == 0, for which an empty slice is valid).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u32] {
        // SAFETY: as `as_slice`, plus exclusive access via `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    fn reserve(&mut self, additional: usize) {
        if self.len + additional <= self.cap {
            return;
        }
        let mut new_cap = (self.len + additional).max(self.cap * 2).max(1024);
        if self.mode == ArenaMode::HugePages {
            // Whole huge pages: both the base address (via alignment) and
            // the length land on 2 MiB boundaries, the shape THP wants.
            let words_per_page = HUGE_PAGE / 4;
            new_cap = new_cap.div_ceil(words_per_page) * words_per_page;
        }
        let new_layout = self.layout(new_cap);
        // SAFETY: `new_layout` has non-zero size (new_cap >= 1024).
        let raw = unsafe { alloc(new_layout) };
        let Some(new_ptr) = NonNull::new(raw as *mut u32) else {
            handle_alloc_error(new_layout)
        };
        if self.mode == ArenaMode::HugePages {
            advise_huge(raw, new_cap * 4);
        }
        if self.cap > 0 {
            // SAFETY: both regions are valid for `len` words and do not
            // overlap (fresh allocation).
            unsafe {
                std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), new_ptr.as_ptr(), self.len);
                dealloc(self.ptr.as_ptr() as *mut u8, self.layout(self.cap));
            }
        }
        self.ptr = new_ptr;
        self.cap = new_cap;
    }

    fn extend_from_slice(&mut self, words: &[u32]) {
        self.reserve(words.len());
        // SAFETY: `reserve` guarantees capacity; the source is a plain
        // slice that cannot alias the (freshly reserved) tail.
        unsafe {
            std::ptr::copy_nonoverlapping(
                words.as_ptr(),
                self.ptr.as_ptr().add(self.len),
                words.len(),
            );
        }
        self.len += words.len();
    }

    fn push(&mut self, word: u32) {
        self.reserve(1);
        // SAFETY: `reserve` guarantees capacity for one more word.
        unsafe {
            *self.ptr.as_ptr().add(self.len) = word;
        }
        self.len += 1;
    }
}

impl Drop for Words {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: `ptr` was allocated with exactly this layout.
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, self.layout(self.cap)) };
        }
    }
}

/// Advises the kernel to back `[ptr, ptr+len)` with transparent huge
/// pages. Advisory only: failure (or an unsupported platform) is
/// silently ignored, matching `madvise` semantics.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn advise_huge(ptr: *mut u8, len: usize) {
    const SYS_MADVISE: usize = 28;
    const MADV_HUGEPAGE: usize = 14;
    let mut _ret: isize;
    // SAFETY: madvise on an owned mapping cannot violate memory safety;
    // the kernel either applies or rejects the advice.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MADVISE => _ret,
            in("rdi") ptr,
            in("rsi") len,
            in("rdx") MADV_HUGEPAGE,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn advise_huge(ptr: *mut u8, len: usize) {
    const SYS_MADVISE: usize = 233;
    const MADV_HUGEPAGE: usize = 14;
    let mut _ret: isize;
    // SAFETY: as the x86_64 variant.
    unsafe {
        std::arch::asm!(
            "svc 0",
            inlateout("x0") ptr => _ret,
            in("x1") len,
            in("x2") MADV_HUGEPAGE,
            in("x8") SYS_MADVISE,
            options(nostack),
        );
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn advise_huge(_ptr: *mut u8, _len: usize) {}

/// The clause database: original and learnt clauses bump-allocated in a
/// single word arena, headers inline with their literals.
#[derive(Debug)]
pub struct Arena {
    words: Words,
    /// Words occupied by tombstoned clauses, to decide when to compact.
    wasted: usize,
    live: usize,
    live_learnt: usize,
    /// Amount to bump a used clause's activity by (exponentially rescaled).
    activity_inc: f32,
}

impl Default for Arena {
    fn default() -> Arena {
        Arena::new(ArenaMode::Standard)
    }
}

impl Arena {
    /// Creates an empty arena with the given allocation mode.
    pub fn new(mode: ArenaMode) -> Arena {
        Arena {
            words: Words::new(mode),
            wasted: 0,
            live: 0,
            live_learnt: 0,
            activity_inc: 1.0,
        }
    }

    /// Allocates a clause (at least two literals; units live on the
    /// trail) with the given learn-time LBD and returns its handle.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "clause arena only stores non-unit clauses");
        assert!(
            lits.len() < LEN_MASK as usize,
            "clause of {} literals exceeds the arena header size field",
            lits.len()
        );
        let off = self.words.len;
        let mut w0 = lits.len() as u32 | (lbd.min(LBD_CAP) << LBD_SHIFT);
        if learnt {
            w0 |= LEARNT_BIT;
        }
        self.words.push(w0);
        self.words.push(0f32.to_bits());
        for &l in lits {
            self.words.push(l.code() as u32);
        }
        self.live += 1;
        if learnt {
            self.live_learnt += 1;
        }
        ClauseRef(off as u32)
    }

    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        self.words.as_slice()[cref.index()]
    }

    /// Number of literals in `cref`.
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        (self.header(cref) & LEN_MASK) as usize
    }

    /// The literals of `cref`.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let start = cref.index() + HEADER_WORDS;
        let len = self.len(cref);
        let words = &self.words.as_slice()[start..start + len];
        // SAFETY: `Lit` is a transparent-equivalent wrapper around the
        // `u32` codes the arena stores (written in `alloc` via
        // `Lit::code`), so reinterpreting the word slice is sound.
        unsafe { std::slice::from_raw_parts(words.as_ptr() as *const Lit, len) }
    }

    /// Mutable access to the literals of `cref` (used to reorder watches).
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let start = cref.index() + HEADER_WORDS;
        let len = self.len(cref);
        let words = &mut self.words.as_mut_slice()[start..start + len];
        // SAFETY: as `lits`.
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut Lit, len) }
    }

    /// Whether `cref` is a learnt clause.
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & LEARNT_BIT != 0
    }

    /// Whether `cref` has been deleted.
    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.header(cref) & DELETED_BIT != 0
    }

    /// The recorded LBD (glue) of `cref`, clamped to [`LBD_CAP`].
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        (self.header(cref) & LBD_MASK) >> LBD_SHIFT
    }

    /// Overwrites the recorded LBD of `cref` (clamped to [`LBD_CAP`]).
    #[inline]
    pub fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        let w = &mut self.words.as_mut_slice()[cref.index()];
        *w = (*w & !LBD_MASK) | (lbd.min(LBD_CAP) << LBD_SHIFT);
    }

    /// The activity score of a clause.
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f32 {
        f32::from_bits(self.words.as_slice()[cref.index() + 1])
    }

    /// Marks a clause deleted; its storage is reclaimed by the next
    /// [`Arena::compact`].
    pub fn delete(&mut self, cref: ClauseRef) {
        let learnt = self.is_learnt(cref);
        let len = self.len(cref);
        let w = &mut self.words.as_mut_slice()[cref.index()];
        if *w & DELETED_BIT == 0 {
            *w |= DELETED_BIT;
            self.wasted += HEADER_WORDS + len;
            self.live -= 1;
            if learnt {
                self.live_learnt -= 1;
            }
        }
    }

    /// Bumps the activity of a clause involved in conflict analysis.
    pub fn bump_activity(&mut self, cref: ClauseRef) {
        let inc = self.activity_inc;
        let act = self.activity(cref) + inc;
        self.words.as_mut_slice()[cref.index() + 1] = act.to_bits();
        if act > 1e20 {
            self.rescale_activities();
        }
    }

    fn rescale_activities(&mut self) {
        let mut o = 0;
        while o < self.words.len {
            let len = (self.words.as_slice()[o] & LEN_MASK) as usize;
            let act = f32::from_bits(self.words.as_slice()[o + 1]) * 1e-20;
            self.words.as_mut_slice()[o + 1] = act.to_bits();
            o += HEADER_WORDS + len;
        }
        self.activity_inc *= 1e-20;
    }

    /// Decays all clause activities by increasing the bump amount.
    pub fn decay_activity(&mut self) {
        self.activity_inc /= 0.999;
    }

    /// All live clause handles, in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        ArenaIter {
            arena: self,
            offset: 0,
            learnt_only: false,
        }
    }

    /// All live learnt clause handles, in allocation order.
    pub fn iter_learnt(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        ArenaIter {
            arena: self,
            offset: 0,
            learnt_only: true,
        }
    }

    /// Number of live clauses.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Number of live learnt clauses.
    #[inline]
    pub fn learnt_count(&self) -> usize {
        self.live_learnt
    }

    /// True when more than a quarter of the arena is tombstones, the
    /// point where a compaction pays for itself.
    pub fn should_compact(&self) -> bool {
        self.wasted * 4 >= self.words.len.max(1)
    }

    /// Squeezes tombstoned clauses out of the arena. Every outstanding
    /// [`ClauseRef`] is invalidated; the caller must translate each
    /// through the returned [`RefMap`] (and refs to deleted clauses not
    /// at all — they have no image).
    pub fn compact(&mut self) -> RefMap {
        let mut new_words = Words::new(self.words.mode);
        new_words.reserve(self.words.len - self.wasted);
        let mut map = Vec::with_capacity(self.live);
        let mut o = 0;
        while o < self.words.len {
            let w0 = self.words.as_slice()[o];
            let len = (w0 & LEN_MASK) as usize;
            if w0 & DELETED_BIT == 0 {
                map.push((o as u32, new_words.len as u32));
                new_words.extend_from_slice(&self.words.as_slice()[o..o + HEADER_WORDS + len]);
            }
            o += HEADER_WORDS + len;
        }
        self.words = new_words;
        self.wasted = 0;
        RefMap { map }
    }
}

struct ArenaIter<'a> {
    arena: &'a Arena,
    offset: usize,
    learnt_only: bool,
}

impl Iterator for ArenaIter<'_> {
    type Item = ClauseRef;

    fn next(&mut self) -> Option<ClauseRef> {
        while self.offset < self.arena.words.len {
            let off = self.offset;
            let w0 = self.arena.words.as_slice()[off];
            let len = (w0 & LEN_MASK) as usize;
            self.offset += HEADER_WORDS + len;
            if w0 & DELETED_BIT != 0 {
                continue;
            }
            if self.learnt_only && w0 & LEARNT_BIT == 0 {
                continue;
            }
            return Some(ClauseRef(off as u32));
        }
        None
    }
}

/// Old-offset → new-offset translation produced by [`Arena::compact`].
#[derive(Debug)]
pub struct RefMap {
    /// `(old, new)` pairs sorted by old offset (allocation order).
    map: Vec<(u32, u32)>,
}

impl RefMap {
    /// The post-compaction handle for a pre-compaction live clause.
    ///
    /// # Panics
    ///
    /// Panics if `old` did not survive compaction (deleted clauses have
    /// no image; translating such a ref is a solver invariant violation).
    #[inline]
    pub fn new_ref(&self, old: ClauseRef) -> ClauseRef {
        let i = self
            .map
            .binary_search_by_key(&old.0, |&(o, _)| o)
            .expect("relocating a clause ref that did not survive compaction");
        ClauseRef(self.map[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lit(i: usize) -> Lit {
        Var::from_index(i).positive()
    }

    fn arena_case(mode: ArenaMode) {
        let mut db = Arena::new(mode);
        let a = db.alloc(&[lit(0), lit(1)], false, 0);
        let b = db.alloc(&[lit(2), lit(3), lit(4)], true, 3);
        assert_eq!(db.lits(a), &[lit(0), lit(1)]);
        assert_eq!(db.lits(b), &[lit(2), lit(3), lit(4)]);
        assert!(!db.is_learnt(a));
        assert!(db.is_learnt(b));
        assert_eq!(db.lbd(b), 3);
        assert_eq!(db.live_count(), 2);
        assert_eq!(db.learnt_count(), 1);
        db.set_lbd(b, 2);
        assert_eq!(db.lbd(b), 2);
    }

    #[test]
    fn add_and_read_back_standard() {
        arena_case(ArenaMode::Standard);
    }

    #[test]
    fn add_and_read_back_huge_pages() {
        arena_case(ArenaMode::HugePages);
    }

    #[test]
    fn lbd_is_clamped_to_header_field() {
        let mut db = Arena::default();
        let c = db.alloc(&[lit(0), lit(1)], true, 1000);
        assert_eq!(db.lbd(c), LBD_CAP);
        db.set_lbd(c, 7);
        assert_eq!(db.lbd(c), 7);
        assert_eq!(db.len(c), 2, "lbd writes must not clobber the size");
        assert!(db.is_learnt(c));
    }

    #[test]
    fn delete_and_compact_relocates_live_refs() {
        let mut db = Arena::default();
        let mut refs = Vec::new();
        for i in 0..20 {
            refs.push(db.alloc(&[lit(i), lit(i + 1), lit(i + 2)], i % 2 == 0, 2));
        }
        for (i, &r) in refs.iter().enumerate() {
            if i % 2 == 1 {
                db.delete(r);
            }
        }
        assert_eq!(db.live_count(), 10);
        assert!(db.should_compact());
        let map = db.compact();
        for (i, &r) in refs.iter().enumerate() {
            if i % 2 == 0 {
                let r = map.new_ref(r);
                assert_eq!(db.lits(r), &[lit(i), lit(i + 1), lit(i + 2)]);
            }
        }
        assert!(!db.should_compact());
        assert_eq!(db.iter().count(), 10);
    }

    #[test]
    #[should_panic(expected = "did not survive")]
    fn relocating_deleted_ref_panics() {
        let mut db = Arena::default();
        let a = db.alloc(&[lit(0), lit(1)], false, 0);
        let _b = db.alloc(&[lit(1), lit(2)], false, 0);
        db.delete(a);
        let map = db.compact();
        let _ = map.new_ref(a);
    }

    #[test]
    fn activity_bump_and_rescale() {
        let mut db = Arena::default();
        let a = db.alloc(&[lit(0), lit(1)], true, 2);
        for _ in 0..100 {
            db.bump_activity(a);
            db.decay_activity();
        }
        assert!(db.activity(a) > 0.0);
    }

    #[test]
    fn iteration_skips_deleted_and_filters_learnt() {
        let mut db = Arena::default();
        let a = db.alloc(&[lit(0), lit(1)], false, 0);
        let b = db.alloc(&[lit(2), lit(3)], true, 2);
        let c = db.alloc(&[lit(4), lit(5)], true, 2);
        db.delete(b);
        let live: Vec<ClauseRef> = db.iter().collect();
        assert_eq!(live, vec![a, c]);
        let learnt: Vec<ClauseRef> = db.iter_learnt().collect();
        assert_eq!(learnt, vec![c]);
    }

    #[test]
    fn huge_page_arena_survives_growth() {
        // Force several reallocations past the initial reservation.
        let mut db = Arena::new(ArenaMode::HugePages);
        let mut refs = Vec::new();
        for i in 0..5000 {
            refs.push(db.alloc(&[lit(i), lit(i + 1), lit(i + 2), lit(i + 3)], true, 4));
        }
        for (i, &r) in refs.iter().enumerate() {
            assert_eq!(db.lits(r)[0], lit(i));
            assert_eq!(db.lbd(r), 4);
        }
    }
}
