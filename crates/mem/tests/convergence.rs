//! Every memory configuration that `MemConfig::validate` accepts must be
//! one the grant search can serve: validation's saturation check and the
//! search read the same background claim table, so no accepted
//! configuration may trip the search's "did not converge" guard.

use std::panic::{catch_unwind, AssertUnwindSafe};

use c240_mem::{ContentionConfig, MemConfig, MemorySystem};

const T: i64 = 20;

/// A small deterministic generator for sampling the grid.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// Grants one access per start tick, then a unit-stride stream and a
/// stream that stays on one bank, each from the latest grant on.
fn exercise(mut mem: MemorySystem, period: i64) {
    let banks = i64::from(mem.config().banks);
    let mut last = 0;
    for (i, start) in [
        0,
        1,
        T - 1,
        123 * T + 7,
        period * T - 1,
        400 * T - 3,
        9_999 * T + 11,
    ]
    .into_iter()
    .enumerate()
    {
        last = mem.grant(i as u64 * 5, start).max(last);
    }
    let chain: Vec<i64> = (0..64).map(|e| last + 13 * e).collect();
    let unit = mem.grant_stream(3, 1, last, T, &chain, |_, _, _| {});
    let chain: Vec<i64> = (0..16).map(|e| unit.last + 7 * e).collect();
    mem.grant_stream(1, banks, unit.last + 3, 27, &chain, |_, _, _| {});
}

/// Lockstep and mixed contention × N in 1..=15 × banks in 1..=64, each
/// with a bank busy time drawn from 1..=40 and refresh drawn on or off:
/// every configuration `validate` accepts grants single accesses and two
/// streams from several start ticks without a panic.
#[test]
fn every_accepted_configuration_converges() {
    let mut rng = Lcg(0xc0_ffee);
    let (mut accepted, mut rejected) = (0u32, 0u32);
    let mut failures = Vec::new();
    for lockstep in [true, false] {
        for n in 1..=15usize {
            for banks in 1..=64u32 {
                let contention = if lockstep {
                    ContentionConfig::lockstep(n)
                } else {
                    ContentionConfig::mixed(n)
                };
                let period = contention.pattern_period(banks) as i64;
                let config = MemConfig {
                    banks,
                    bank_busy: 1 + rng.below(40),
                    refresh_enabled: rng.below(2) == 0,
                    words: 4096,
                    contention,
                    ..MemConfig::c240()
                };
                if config.validate().is_err() {
                    rejected += 1;
                    continue;
                }
                accepted += 1;
                let mem = MemorySystem::new(config.clone());
                if catch_unwind(AssertUnwindSafe(|| exercise(mem, period))).is_err() {
                    failures.push(config);
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {accepted} accepted configurations panicked, first {:?}",
        failures.len(),
        failures.first()
    );
    assert!(
        accepted > 500 && rejected > 500,
        "{accepted} accepted, {rejected} rejected"
    );
}
