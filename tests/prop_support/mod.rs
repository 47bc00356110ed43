//! A tiny deterministic generator for the property tests.
//!
//! The build environment has no network access, so the `proptest` crate
//! is unavailable; these tests instead draw inputs from a seeded
//! xorshift64* generator. Each test case prints its seed on failure, so
//! any failure is reproducible by construction. [`kernel`] draws the
//! random kernels the compiler properties and the compiled-listing pins
//! share.

use macs_compiler::{Expr, Kernel};

/// xorshift64* — deterministic, seedable, good enough for input fuzzing.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point and decorrelate small seeds.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }

    pub fn u8(&mut self) -> u8 {
        (self.next() >> 32) as u8
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.next() % (hi - lo)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi);
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A string of printable ASCII plus `\n` and `\t`, like the
    /// `"[ -~\n\t]{min,max}"` proptest pattern.
    pub fn ascii_string(&mut self, min: usize, max: usize) -> String {
        let n = self.range_usize(min, max + 1);
        (0..n)
            .map(|_| match self.range_u64(0, 16) {
                0 => '\n',
                1 => '\t',
                _ => (b' ' + (self.next() % 95) as u8) as char,
            })
            .collect()
    }

    /// A string drawn from an explicit byte alphabet.
    pub fn string_from(&mut self, alphabet: &[u8], min: usize, max: usize) -> String {
        let n = self.range_usize(min, max + 1);
        (0..n)
            .map(|_| alphabet[self.range_usize(0, alphabet.len())] as char)
            .collect()
    }
}

/// Random (but well-formed) kernels for the compiler properties.
fn expr(rng: &mut Rng, depth: u32) -> Expr {
    let leaf = |rng: &mut Rng| match rng.range_u64(0, 3) {
        0 => {
            let name = ["a", "b", "c"][rng.range_usize(0, 3)];
            macs_compiler::load(name, rng.range_i64(0, 4))
        }
        1 => macs_compiler::param("p"),
        _ => macs_compiler::con(rng.range_i64(1, 9) as f64 / 4.0),
    };
    if depth == 0 {
        return leaf(rng);
    }
    // Weighted choice mirroring the original strategy: 4 add, 3 mul,
    // 2 sub, 1 neg — and leaves become likelier as depth shrinks.
    if rng.range_u64(0, 4) == 0 {
        return leaf(rng);
    }
    match rng.range_u64(0, 10) {
        0..=3 => expr(rng, depth - 1) + expr(rng, depth - 1),
        4..=6 => expr(rng, depth - 1) * expr(rng, depth - 1),
        7..=8 => expr(rng, depth - 1) - expr(rng, depth - 1),
        _ => -expr(rng, depth - 1),
    }
}

pub fn kernel(rng: &mut Rng) -> Kernel {
    let e = expr(rng, 3);
    Kernel::new("random")
        .array("a", 1200)
        .array("b", 1200)
        .array("c", 1200)
        .array("o", 1200)
        .param("p", 1.5)
        .store("o", 0, e)
}
