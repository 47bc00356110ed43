//! Banked memory subsystem of the Convex C-240 (§2, §3.2 of the paper).
//!
//! The standard C-240 memory configuration has **32 interleaved banks** of
//! 8-byte words with an **8-cycle bank cycle time**, one port per CPU (plus
//! one I/O port), and a dynamic-RAM **refresh** that claims the memory for
//! 8 cycles every 400 cycles (16 µs at 40 ns/cycle) — a potential 2%
//! penalty. Under ideal conditions the four CPUs sustain one access per
//! CPU per cycle; contention from other processors degrades a port to one
//! access every 1.4–1.6 cycles (§4.2).
//!
//! [`MemorySystem`] provides the timing + data interface used by the
//! cycle-level simulator: each access names a word address and an earliest
//! start time, and receives the granted time back, after bank busy time,
//! refresh windows and background [`ContentionStream`]s are honored.
//! A vector load or store is granted as a whole stream by
//! [`MemorySystem::grant_stream`], element by element exactly as
//! [`MemorySystem::grant`] would grant each one. Its data space is
//! [`MachineDescription::words`] words, every one `0.0` until written,
//! and is stored grow-on-write: only the words up to the highest one
//! written take memory.
//! Times are exact integer *ticks*, 20 per cycle (the machine's 1/20-cycle
//! timing quantum); read-outs such as [`WaitTicks::cycles`] convert to
//! cycles through [`c240_isa::timing::cycles`].
//! [`ScalarCache`] models the ASU data cache that scalar accesses go
//! through (vector accesses bypass it).
//!
//! Both build themselves from the one [`MachineDescription`] every layer
//! reads: its bank geometry, refresh, data space and scalar-cache
//! geometry. The background load is a [`ContentionConfig`] beside it, and
//! [`validate`](fn@validate) checks the two together.
//!
//! # Example
//!
//! ```
//! use c240_isa::MachineDescription;
//! use c240_mem::{ContentionConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(&MachineDescription::c240(), &ContentionConfig::idle());
//! mem.poke(100, 2.5);
//! let t = mem.grant(100, 0);
//! assert_eq!(mem.peek(100), 2.5);
//! // A second access to the same bank waits out the 8-cycle (160-tick)
//! // bank busy.
//! let t2 = mem.grant(100, t);
//! assert!(t2 >= t + 160);
//! ```
//!
//! [`MachineDescription`]: c240_isa::MachineDescription
//! [`MachineDescription::words`]: c240_isa::MachineDescription::words

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod contention;
mod system;
mod validate;

use c240_isa::timing::TICKS_PER_CYCLE;

pub use cache::ScalarCache;
pub use contention::{ContentionConfig, ContentionStream};
pub use system::{BankState, MemorySystem, StreamGrants, WaitBreakdown, WaitTicks};
pub use validate::{
    validate, MemConfigError, MAX_BANKS, MAX_BANK_BUSY, MAX_CONTENTION_CLAIMS, MAX_REFRESH_PERIOD,
    MAX_WORDS,
};

/// A whole number of cycles as ticks, saturating at the `i64` range
/// (validated configurations stay far below it).
fn cycle_ticks(cycles: u64) -> i64 {
    i64::try_from(cycles).map_or(i64::MAX, |c| c.saturating_mul(TICKS_PER_CYCLE))
}

/// Word-granular bank index for an address under a given interleave.
///
/// Banks interleave on consecutive words: `bank = word_address % banks`.
///
/// ```
/// assert_eq!(c240_mem::bank_of(33, 32), 1);
/// ```
pub fn bank_of(word_addr: u64, banks: u32) -> u32 {
    (word_addr % u64::from(banks)) as u32
}

/// Steady-state cycles per element for a strided vector stream, from bank
/// structure alone (no refresh, no contention).
///
/// A stream of word stride `s` revisits the same bank every
/// `banks / gcd(|s|, banks)` elements; if that is fewer elements than the
/// bank needs cycles to recover, throughput is bank-limited.
///
/// ```
/// // Unit stride: one element per cycle.
/// assert_eq!(c240_mem::stride_cycles_per_element(1, 32, 8), 1.0);
/// // Stride 16 hits 2 banks alternately: 8-cycle banks limit it to
/// // one element every 4 cycles.
/// assert_eq!(c240_mem::stride_cycles_per_element(16, 32, 8), 4.0);
/// // Stride 32 hammers one bank: one element per bank cycle.
/// assert_eq!(c240_mem::stride_cycles_per_element(32, 32, 8), 8.0);
/// ```
pub fn stride_cycles_per_element(stride_words: i64, banks: u32, bank_busy: u64) -> f64 {
    let revisit = rotation(stride_words.unsigned_abs(), banks);
    (bank_busy as f64 / revisit as f64).max(1.0)
}

/// Tick `t`'s offset into a pattern repeating every `period` ticks, from
/// the cursor `start` (a multiple of `period`): it divides only when `t`
/// leaves the period `start` opens, then moves there.
fn period_offset(t: i64, period: i64, start: &mut i64) -> i64 {
    let mut into = t - *start;
    if !(0..period).contains(&into) {
        into = t % period;
        *start = t - into;
    }
    into
}

/// How many steps of `stride` words a bank sequence takes to return to
/// its first bank: `banks / gcd(stride, banks)`.
fn rotation(stride: u64, banks: u32) -> u64 {
    let banks = u64::from(banks);
    banks / gcd(stride % banks, banks)
}

pub(crate) fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(32, 8), 8);
        assert_eq!(gcd(25, 32), 1);
        assert_eq!(gcd(0, 7), 7);
    }

    #[test]
    fn bank_mapping() {
        assert_eq!(bank_of(0, 32), 0);
        assert_eq!(bank_of(31, 32), 31);
        assert_eq!(bank_of(32, 32), 0);
    }

    #[test]
    fn odd_strides_are_conflict_free() {
        for s in [1i64, 3, 5, 7, 25, 101] {
            assert_eq!(stride_cycles_per_element(s, 32, 8), 1.0, "stride {s}");
        }
    }

    #[test]
    fn power_of_two_strides_degrade() {
        assert_eq!(stride_cycles_per_element(2, 32, 8), 1.0); // 16 banks > 8
        assert_eq!(stride_cycles_per_element(4, 32, 8), 1.0); // 8 banks = 8
        assert_eq!(stride_cycles_per_element(8, 32, 8), 2.0); // 4 banks
        assert_eq!(stride_cycles_per_element(64, 32, 8), 8.0);
    }
}
