//! In-repo test support, replacing the external `rand`/`proptest`
//! stack so the workspace builds and tests with no network access (an
//! empty registry cache).
//!
//! Two pieces:
//!
//! * [`Rng`] — a SplitMix64 pseudo-random generator (Steele, Lea &
//!   Flood 2014; the seeding generator of `xoshiro`), deterministic and
//!   good enough for test-case generation;
//! * [`forall`] — a seeded property-test loop: runs a closure over many
//!   independently seeded generators and reports the failing case's seed
//!   so it can be replayed with [`check_seed`].

#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// let mut rng = testkit::Rng::seed(42);
/// let a = rng.below(10);
/// assert!(a < 10);
/// let b = rng.range(5, 8);
/// assert!((5..8).contains(&b));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn seed(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..bound`. `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Multiply-shift range reduction (Lemire); the slight bias is
        // irrelevant for test-case generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform value in `lo..hi` (half-open). `lo < hi` required.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// A uniform `usize` in `0..bound`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// A fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// A uniform value in a half-open `Range`, the `std::ops::Range`
    /// spelling of [`Rng::range`]: `rng.gen_range(5..8)`.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        self.range(range.start, range.end)
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Uniformly permutes a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// A vector of `len` items drawn from `gen`, with `len` uniform in
    /// `min_len..=max_len`.
    pub fn vec_of<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut gen: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let len = self.range(min_len as u64, max_len as u64 + 1) as usize;
        (0..len).map(|_| gen(self)).collect()
    }
}

/// Base seed for [`forall`], overridable via the `TESTKIT_SEED`
/// environment variable for soak runs.
fn base_seed() -> u64 {
    std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_CAFE_F00D_D00D)
}

/// Derives the per-case seed used by [`forall`] for `case` under `name`.
pub fn case_seed(name: &str, case: u32) -> u64 {
    // FNV-1a over the name, mixed with the base seed and case index
    // through one SplitMix64 round so cases are decorrelated.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    Rng::seed(base_seed() ^ h ^ (u64::from(case) << 32)).next_u64()
}

/// Runs `cases` independently seeded executions of `body`, panicking with
/// a replayable seed on the first failure.
///
/// The replacement for a `proptest!` block: generate inputs from the
/// provided [`Rng`] and assert properties with ordinary `assert!`s. On
/// failure the case index and seed are printed; rerun just that case
/// with [`check_seed`] while debugging.
///
/// # Examples
///
/// ```
/// testkit::forall("addition_commutes", 64, |rng| {
///     let (a, b) = (rng.below(1000), rng.below(1000));
///     assert_eq!(a + b, b + a);
/// });
/// ```
pub fn forall(name: &str, cases: u32, mut body: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Rng::seed(seed);
            body(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!(
                "forall `{name}`: case {case}/{cases} failed \
                 (replay with testkit::check_seed(\"{name}\", {seed:#x}, ...))"
            );
            resume_unwind(payload);
        }
    }
}

/// Replays a single [`forall`] case from the seed it reported.
pub fn check_seed(name: &str, seed: u64, mut body: impl FnMut(&mut Rng)) {
    let _ = name; // names the failure being replayed, for the reader
    let mut rng = Rng::seed(seed);
    body(&mut rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the SplitMix64
        // reference implementation (Vigna's splitmix64.c).
        let mut rng = Rng::seed(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn determinism_and_stream_independence() {
        let a: Vec<u64> = {
            let mut r = Rng::seed(9);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed(9);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::seed(10);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut rng = Rng::seed(3);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
            assert!(rng.index(3) < 3);
        }
        // Tiny bound exercises the reduction's edge.
        for _ in 0..100 {
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed(4);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn vec_of_respects_length_bounds() {
        let mut rng = Rng::seed(5);
        for _ in 0..200 {
            let v = rng.vec_of(2, 5, |r| r.below(3));
            assert!((2..=5).contains(&v.len()));
        }
        let empty = rng.vec_of(0, 0, |r| r.below(3));
        assert!(empty.is_empty());
    }

    #[test]
    fn gen_range_matches_range() {
        let mut a = Rng::seed(11);
        let mut b = Rng::seed(11);
        for _ in 0..200 {
            assert_eq!(a.gen_range(3..17), b.range(3, 17));
        }
    }

    #[test]
    fn shuffle_permutes_and_is_deterministic() {
        let mut rng = Rng::seed(12);
        let mut v: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut v);
        // Same multiset…
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
        // …deterministic under the seed…
        let mut w: Vec<u32> = (0..20).collect();
        Rng::seed(12).shuffle(&mut w);
        assert_eq!(v, w);
        // …and actually permutes (overwhelmingly likely for 20 elements).
        assert_ne!(v, (0..20).collect::<Vec<u32>>());
        // Degenerate sizes are fine.
        rng.shuffle::<u32>(&mut []);
        let mut one = [7u32];
        rng.shuffle(&mut one);
        assert_eq!(one, [7]);
    }

    #[test]
    fn forall_runs_every_case() {
        let mut count = 0;
        forall("counting", 17, |_| count += 1);
        assert_eq!(count, 17);
    }

    #[test]
    fn forall_failure_reports_replayable_seed() {
        // The failing seed printed by forall must reproduce under
        // check_seed with the same derivation.
        let failing = case_seed("always_fails", 0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall("always_fails", 4, |rng| {
                assert!(rng.below(10) == u64::MAX, "always fails");
            });
        }));
        assert!(result.is_err());
        let replay = catch_unwind(AssertUnwindSafe(|| {
            check_seed("always_fails", failing, |rng| {
                assert!(rng.below(10) == u64::MAX, "always fails");
            });
        }));
        assert!(replay.is_err());
    }
}
