//! Every memory configuration that `c240_mem::validate` accepts must be
//! one the grant search can serve: validation's saturation check and the
//! search read the same background claim table, so no accepted
//! configuration may trip the search's "did not converge" guard. Where
//! refresh decides, the converse is checked too: a bank validation calls
//! saturated has a search that never ends.

use std::panic::{catch_unwind, AssertUnwindSafe};

use c240_isa::MachineDescription;
use c240_mem::{ContentionConfig, ContentionStream, MemConfigError, MemorySystem};

const T: i64 = 20;

/// A memory configuration under test: the machine and its background
/// load.
#[derive(Debug, Clone)]
struct Config {
    machine: MachineDescription,
    contention: ContentionConfig,
}

impl Config {
    /// The C-240 with `banks` banks of `bank_busy` cycles under
    /// `contention`.
    fn new(banks: u32, bank_busy: u64, contention: ContentionConfig) -> Self {
        let machine = MachineDescription {
            banks,
            bank_busy,
            ..MachineDescription::c240()
        };
        Config {
            machine,
            contention,
        }
    }

    fn memory(&self) -> MemorySystem {
        MemorySystem::new(&self.machine, &self.contention)
    }

    /// `c240_mem::validate`'s verdict, its machine label stripped.
    fn validate(&self) -> Result<(), MemConfigError> {
        c240_mem::validate(&self.machine, &self.contention).map_err(|e| e.root().clone())
    }

    fn pattern_period(&self) -> u64 {
        self.contention.pattern_period(self.machine.banks)
    }
}

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
fn exercise(config: &Config) {
    let (mut mem, period) = (config.memory(), config.pattern_period() as i64);
    let banks = i64::from(config.machine.banks);
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

/// Grants every bank from start ticks spread over four refresh periods.
fn exercise_every_bank(config: &Config) {
    let mut mem = config.memory();
    for bank in 0..u64::from(config.machine.banks) {
        for k in 0..24 {
            mem.grant(bank, (k * 67 + 3 * bank as i64) * T);
        }
    }
}

/// Whether a grant search on `bank` from some cycle of one period of the
/// claims and the refresh windows never ends.
fn some_search_runs_forever(config: &Config, bank: u32) -> bool {
    let pattern = config.pattern_period();
    let refresh = config.machine.refresh_period;
    let span = pattern / gcd(pattern, refresh) * refresh;
    let mut mem = config.memory();
    let searches = || {
        for cycle in 0..span as i64 {
            mem.reset_timing();
            mem.grant(u64::from(bank), cycle * T);
        }
    };
    catch_unwind(AssertUnwindSafe(searches)).is_err()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Hand-built streams whose pattern period is a multiple of the 400-cycle
/// refresh period, so their claim-free cycles keep one refresh offset.
/// First four whose verdict refresh decides:
/// - one that leaves each of 2 banks one claim-free cycle per 400, inside
///   a refresh window, so its searches never end;
/// - one that leaves bank 0 of 16 the claim-free cycles 2 to 9 of every
///   refresh period, from the end of a claim inside the window to the
///   start of the next claim. A search blocked by refresh at cycle 2
///   waits the whole 8-cycle window to cycle 10, stepping over cycles 8
///   and 9, which lie outside the window, so its searches never end;
/// - the same stream with a bank busy time of 22, which leaves cycles 0
///   to 9 free: the wait from cycle 0 ends at 8, inside the run, so it
///   grants;
/// - two streams on 16 banks whose searches on some bank step over
///   claim-free cycles just past the window the same way.
///
/// Then dense streams on 1 to 40 banks that leave a few claim-free cycles
/// per block of visits.
fn refresh_aligned(rng: &mut Lcg) -> Vec<Config> {
    let stream = |stride, phase, duty_num, duty_den| ContentionStream {
        stride,
        phase,
        duty_num,
        duty_den,
    };
    let streams = |streams: &[ContentionStream]| ContentionConfig {
        streams: streams.to_vec(),
    };
    let mut configs = vec![
        Config::new(2, 3, streams(&[stream(1, 1, 199, 200)])),
        Config::new(16, 24, streams(&[stream(1, 6, 24, 25)])),
        Config::new(16, 22, streams(&[stream(1, 6, 24, 25)])),
        Config::new(
            16,
            11,
            streams(&[stream(15, 598, 7, 7), stream(9, 102, 24, 25)]),
        ),
    ];
    for _ in 0..250 {
        let banks = [1u32, 2, 4, 5, 8, 10, 16, 20, 25, 40][rng.below(10) as usize];
        let mut contention = ContentionConfig::idle();
        for _ in 0..=rng.below(3) {
            let duty_den = (400 * (1 + rng.below(2)) / u64::from(banks)) as u32;
            let duty_num = duty_den.saturating_sub(rng.below(4) as u32);
            contention.streams.push(ContentionStream {
                stride: rng.below(2 * u64::from(banks)),
                phase: rng.below(1000),
                duty_num,
                duty_den,
            });
        }
        let mut config = Config::new(banks, 1 + rng.below(8), contention);
        config.machine.words = 4096;
        configs.push(config);
    }
    configs
}

/// Lockstep and mixed contention × N in 1..=15 × banks in 1..=64, each
/// with a bank busy time drawn from 1..=40 and refresh drawn on or off,
/// and the refresh-aligned streams of [`refresh_aligned`]: every
/// configuration `validate` accepts grants single accesses and two
/// streams from several start ticks without a panic, and a
/// refresh-aligned one grants every bank from start ticks across four
/// refresh periods. A refresh-aligned configuration `validate` rejects
/// has a search on the bank it names that never ends.
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
                let mut config = Config::new(banks, 1 + rng.below(40), contention);
                config.machine.refresh_enabled = rng.below(2) == 0;
                config.machine.words = 4096;
                if config.validate().is_err() {
                    rejected += 1;
                    continue;
                }
                accepted += 1;
                if catch_unwind(AssertUnwindSafe(|| exercise(&config))).is_err() {
                    failures.push(config);
                }
            }
        }
    }
    let (mut aligned_accepted, mut aligned_rejected) = (0u32, 0u32);
    let mut wrongly_rejected = Vec::new();
    for config in refresh_aligned(&mut rng) {
        if let Err(e) = config.validate() {
            aligned_rejected += 1;
            match e {
                MemConfigError::ContentionSaturatesBank { bank }
                    if some_search_runs_forever(&config, bank) => {}
                _ => wrongly_rejected.push(config),
            }
            continue;
        }
        aligned_accepted += 1;
        let run = || {
            exercise(&config);
            exercise_every_bank(&config);
        };
        if catch_unwind(AssertUnwindSafe(run)).is_err() {
            failures.push(config);
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} accepted configurations panicked, first {:?}",
        failures.len(),
        accepted + aligned_accepted,
        failures.first()
    );
    assert!(
        accepted > 500 && rejected > 500,
        "{accepted} accepted, {rejected} rejected"
    );
    assert!(
        wrongly_rejected.is_empty(),
        "{} of {aligned_rejected} rejected configurations grant everywhere, first {:?}",
        wrongly_rejected.len(),
        wrongly_rejected.first()
    );
    assert!(
        aligned_accepted > 100 && aligned_rejected > 50,
        "refresh-aligned: {aligned_accepted} accepted, {aligned_rejected} rejected"
    );
}
