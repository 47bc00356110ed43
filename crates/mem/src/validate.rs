//! Fallible validation of the memory side of a machine description.
//!
//! The sweep server accepts machine configurations from untrusted input
//! (newline-delimited JSON over stdin or a socket), so every constraint
//! that used to be an `assert!` in a constructor needs a typed,
//! recoverable form: [`validate`] returns a [`MemConfigError`] instead of
//! panicking.

use std::error::Error;
use std::fmt;

use c240_isa::MachineDescription;

use crate::contention::{ContentionConfig, ContentionStream};

/// Largest accepted bank count. The C-240 has 32; the cap exists so a
/// hostile sweep point cannot make the simulator allocate per-bank state
/// without bound.
pub const MAX_BANKS: u32 = 4096;

/// Largest accepted bank busy time in cycles. The C-240's banks recover
/// in 8. The simulator counts time in `i64` ticks (20 per cycle); the
/// cap keeps every wait a grant search can charge, and every clock a run
/// can reach within its instruction budget, far inside that range.
pub const MAX_BANK_BUSY: u64 = 1 << 20;

/// Largest accepted refresh period in cycles (400 on the C-240); the
/// refresh window is shorter than the period, so this bounds both in
/// ticks as [`MAX_BANK_BUSY`] bounds the bank busy time.
pub const MAX_REFRESH_PERIOD: u64 = 1 << 32;

/// Largest accepted number of background claims per contention pattern
/// period over all banks (`lockstep:15` on [`MAX_BANKS`] banks has
/// 692,224): the size of the memory system's claim table.
pub const MAX_CONTENTION_CLAIMS: u64 = 1 << 20;

/// Largest accepted data-space size in 8-byte words (1 GiB of data).
/// The C-240 configuration uses 1 Mi words (8 MiB).
pub const MAX_WORDS: usize = 1 << 27;

/// A constraint violation in the memory side of a machine description
/// (banks, refresh, data space, scalar cache) or in a
/// [`ContentionStream`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemConfigError {
    /// `banks == 0`: memory needs at least one bank.
    ZeroBanks,
    /// `banks` beyond [`MAX_BANKS`].
    TooManyBanks {
        /// The offending count.
        banks: u32,
    },
    /// `bank_busy == 0`: a bank must be busy for at least one cycle.
    ZeroBankBusy,
    /// `bank_busy` beyond [`MAX_BANK_BUSY`].
    BankBusyTooLong {
        /// The offending time in cycles.
        bank_busy: u64,
    },
    /// Refresh enabled with `refresh_period == 0`.
    ZeroRefreshPeriod,
    /// Refresh enabled with `refresh_period` beyond
    /// [`MAX_REFRESH_PERIOD`].
    RefreshPeriodTooLong {
        /// The offending period in cycles.
        period: u64,
    },
    /// Refresh enabled with a window at least as long as the period, so
    /// memory would never grant.
    RefreshLenExceedsPeriod {
        /// Window length in cycles.
        len: u64,
        /// Period in cycles.
        period: u64,
    },
    /// `words == 0`: no data space.
    ZeroWords,
    /// `words` beyond [`MAX_WORDS`].
    TooManyWords {
        /// The offending size.
        words: u64,
    },
    /// A contention stream with `duty_den == 0`.
    ZeroDutyDenominator,
    /// A contention stream claiming more than every visit
    /// (`duty_num > duty_den`).
    DutyAboveOne {
        /// Numerator of the duty fraction.
        num: u32,
        /// Denominator of the duty fraction.
        den: u32,
    },
    /// Background contention whose claim table would hold more than
    /// [`MAX_CONTENTION_CLAIMS`] claims, or whose pattern period exceeds
    /// `u32::MAX` cycles.
    ContentionTableTooLarge,
    /// Background contention that claims `bank` at every cycle a grant
    /// could start (refresh windows included), so a grant there could
    /// never be found.
    ContentionSaturatesBank {
        /// The first saturated bank.
        bank: u32,
    },
    /// `lines == 0` in the scalar cache.
    ZeroCacheLines,
    /// `line_words == 0` in the scalar cache.
    ZeroCacheLineWords,
    /// Any other variant, labeled with the name of the machine whose
    /// memory side it was found in: [`validate`] labels every error it
    /// returns this way (unless the name is empty), so sweep error rows
    /// name the offending machine.
    ForMachine {
        /// The machine label.
        machine: String,
        /// The underlying violation.
        error: Box<MemConfigError>,
    },
}

impl fmt::Display for MemConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemConfigError::ZeroBanks => write!(f, "memory must have at least one bank"),
            MemConfigError::TooManyBanks { banks } => {
                write!(f, "bank count {banks} exceeds the maximum of {MAX_BANKS}")
            }
            MemConfigError::ZeroBankBusy => {
                write!(f, "bank busy time must be at least one cycle")
            }
            MemConfigError::BankBusyTooLong { bank_busy } => write!(
                f,
                "bank busy time of {bank_busy} cycles exceeds the maximum of {MAX_BANK_BUSY}"
            ),
            MemConfigError::ZeroRefreshPeriod => {
                write!(f, "refresh is enabled but the refresh period is zero")
            }
            MemConfigError::RefreshPeriodTooLong { period } => write!(
                f,
                "refresh period of {period} cycles exceeds the maximum of {MAX_REFRESH_PERIOD}"
            ),
            MemConfigError::RefreshLenExceedsPeriod { len, period } => write!(
                f,
                "refresh window of {len} cycles covers the whole {period}-cycle \
                 period, so memory would never grant"
            ),
            MemConfigError::ZeroWords => write!(f, "data space must hold at least one word"),
            MemConfigError::TooManyWords { words } => {
                write!(
                    f,
                    "data space of {words} words exceeds the maximum of {MAX_WORDS}"
                )
            }
            MemConfigError::ContentionTableTooLarge => write!(
                f,
                "background contention needs over {MAX_CONTENTION_CLAIMS} claims, or 2^32 cycles, per period"
            ),
            MemConfigError::ZeroDutyDenominator => {
                write!(f, "contention duty denominator must be positive")
            }
            MemConfigError::DutyAboveOne { num, den } => {
                write!(f, "contention duty {num}/{den} must be a fraction <= 1")
            }
            MemConfigError::ContentionSaturatesBank { bank } => write!(
                f,
                "background contention claims bank {bank} on every cycle \
                 refresh leaves open, so memory would never grant there"
            ),
            MemConfigError::ZeroCacheLines => {
                write!(f, "scalar cache must have at least one line")
            }
            MemConfigError::ZeroCacheLineWords => {
                write!(f, "scalar cache lines must hold at least one word")
            }
            MemConfigError::ForMachine { machine, error } => {
                write!(f, "machine `{machine}`: {error}")
            }
        }
    }
}

impl Error for MemConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MemConfigError::ForMachine { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl MemConfigError {
    /// Wraps the error with a machine label (no-op on an empty label or
    /// an already-labeled error).
    pub fn for_machine(self, machine: &str) -> Self {
        if machine.is_empty() || matches!(self, MemConfigError::ForMachine { .. }) {
            return self;
        }
        MemConfigError::ForMachine {
            machine: machine.to_string(),
            error: Box::new(self),
        }
    }

    /// The underlying violation with any machine labels stripped — what
    /// tests and programmatic handlers match on.
    pub fn root(&self) -> &MemConfigError {
        match self {
            MemConfigError::ForMachine { error, .. } => error.root(),
            other => other,
        }
    }
}

impl ContentionStream {
    /// Checks that the duty is a fraction ≤ 1 with a positive
    /// denominator.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), MemConfigError> {
        if self.duty_den == 0 {
            return Err(MemConfigError::ZeroDutyDenominator);
        }
        if self.duty_num > self.duty_den {
            return Err(MemConfigError::DutyAboveOne {
                num: self.duty_num,
                den: self.duty_den,
            });
        }
        Ok(())
    }
}

impl ContentionConfig {
    /// Checks every configured stream (see [`ContentionStream::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), MemConfigError> {
        self.streams.iter().try_for_each(ContentionStream::validate)
    }
}

/// Checks every constraint a simulatable memory system and scalar cache
/// need, memory first, then the cache, and returns the first violation
/// labeled with `machine.name`. The memory checks include that the
/// background contention's claim table stays within
/// [`MAX_CONTENTION_CLAIMS`] and leaves every bank a free grant cycle.
/// The sweep server calls this (through the simulator's
/// `SimConfig::validate`) on untrusted configurations before a
/// [`crate::MemorySystem`] or [`crate::ScalarCache`] is built; their
/// `assert!`s remain as backstops for programmatic misuse.
///
/// # Errors
///
/// Returns the first violated constraint, wrapped in
/// [`MemConfigError::ForMachine`] unless `machine.name` is empty.
pub fn validate(
    machine: &MachineDescription,
    contention: &ContentionConfig,
) -> Result<(), MemConfigError> {
    check(machine, contention).map_err(|e| e.for_machine(&machine.name))
}

/// [`validate`]'s checks, unlabeled.
fn check(m: &MachineDescription, contention: &ContentionConfig) -> Result<(), MemConfigError> {
    if m.banks == 0 {
        return Err(MemConfigError::ZeroBanks);
    }
    if m.banks > MAX_BANKS {
        return Err(MemConfigError::TooManyBanks { banks: m.banks });
    }
    if m.bank_busy == 0 {
        return Err(MemConfigError::ZeroBankBusy);
    }
    if m.bank_busy > MAX_BANK_BUSY {
        return Err(MemConfigError::BankBusyTooLong {
            bank_busy: m.bank_busy,
        });
    }
    if m.refresh_enabled {
        if m.refresh_period == 0 {
            return Err(MemConfigError::ZeroRefreshPeriod);
        }
        if m.refresh_period > MAX_REFRESH_PERIOD {
            return Err(MemConfigError::RefreshPeriodTooLong {
                period: m.refresh_period,
            });
        }
        if m.refresh_len >= m.refresh_period {
            return Err(MemConfigError::RefreshLenExceedsPeriod {
                len: m.refresh_len,
                period: m.refresh_period,
            });
        }
    }
    if m.words == 0 {
        return Err(MemConfigError::ZeroWords);
    }
    if m.words > MAX_WORDS as u64 {
        return Err(MemConfigError::TooManyWords { words: m.words });
    }
    contention.validate()?;
    let busy = crate::cycle_ticks(m.bank_busy);
    if let Some(bank) = contention
        .claims(m.banks, busy)?
        .saturated_bank(m.modeled_refresh())
    {
        return Err(MemConfigError::ContentionSaturatesBank { bank });
    }
    if m.cache_lines == 0 {
        return Err(MemConfigError::ZeroCacheLines);
    }
    if m.cache_line_words == 0 {
        return Err(MemConfigError::ZeroCacheLineWords);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`validate`]'s verdict with the machine label stripped.
    fn verdict(
        m: &MachineDescription,
        contention: &ContentionConfig,
    ) -> Result<(), MemConfigError> {
        validate(m, contention).map_err(|e| e.root().clone())
    }

    /// The verdict on `m` with an idle machine.
    fn idle(m: &MachineDescription) -> Result<(), MemConfigError> {
        verdict(m, &ContentionConfig::idle())
    }

    #[test]
    fn c240_defaults_validate() {
        let c240 = MachineDescription::c240();
        assert_eq!(validate(&c240, &ContentionConfig::idle()), Ok(()));
        assert_eq!(validate(&c240, &ContentionConfig::lockstep(3)), Ok(()));
        assert_eq!(validate(&c240, &ContentionConfig::mixed(3)), Ok(()));
    }

    #[test]
    fn each_constraint_is_caught() {
        let base = MachineDescription::c240();
        let mut c = base.clone();
        c.banks = 0;
        assert_eq!(idle(&c), Err(MemConfigError::ZeroBanks));
        let mut c = base.clone();
        c.banks = MAX_BANKS + 1;
        assert!(matches!(idle(&c), Err(MemConfigError::TooManyBanks { .. })));
        c.banks = MAX_BANKS;
        assert_eq!(idle(&c), Ok(()));
        let mut c = base.clone();
        c.bank_busy = 0;
        assert_eq!(idle(&c), Err(MemConfigError::ZeroBankBusy));
        c.bank_busy = MAX_BANK_BUSY;
        assert_eq!(idle(&c), Ok(()));
        c.bank_busy = MAX_BANK_BUSY + 1;
        assert_eq!(
            idle(&c),
            Err(MemConfigError::BankBusyTooLong {
                bank_busy: MAX_BANK_BUSY + 1
            })
        );
        let mut c = base.clone();
        c.refresh_period = 0;
        assert_eq!(idle(&c), Err(MemConfigError::ZeroRefreshPeriod));
        c.refresh_period = MAX_REFRESH_PERIOD;
        assert_eq!(idle(&c), Ok(()));
        c.refresh_period = MAX_REFRESH_PERIOD + 1;
        assert_eq!(
            idle(&c),
            Err(MemConfigError::RefreshPeriodTooLong {
                period: MAX_REFRESH_PERIOD + 1
            })
        );
        let mut c = base.clone();
        c.refresh_len = c.refresh_period;
        assert!(matches!(
            idle(&c),
            Err(MemConfigError::RefreshLenExceedsPeriod { .. })
        ));
        let mut c = base.clone();
        c.words = 0;
        assert_eq!(idle(&c), Err(MemConfigError::ZeroWords));
        let mut c = base.clone();
        c.words = MAX_WORDS as u64 + 1;
        assert!(matches!(idle(&c), Err(MemConfigError::TooManyWords { .. })));
        // A disabled refresh makes the refresh fields unconstrained.
        let mut c = base.clone();
        c.refresh_enabled = false;
        c.refresh_period = 0;
        assert_eq!(idle(&c), Ok(()));
        // Memory is checked before the cache.
        let mut c = base.clone();
        c.banks = 0;
        c.cache_lines = 0;
        assert_eq!(idle(&c), Err(MemConfigError::ZeroBanks));
    }

    #[test]
    fn contention_streams_are_checked() {
        let duty = |duty_num, duty_den| ContentionStream {
            duty_num,
            duty_den,
            ..ContentionStream::unit(0)
        };
        assert_eq!(
            duty(2, 1).validate(),
            Err(MemConfigError::DutyAboveOne { num: 2, den: 1 })
        );
        assert_eq!(
            duty(1, 0).validate(),
            Err(MemConfigError::ZeroDutyDenominator)
        );
        let with = |streams| ContentionConfig { streams };
        assert_eq!(with(vec![ContentionStream::unit(3)]).validate(), Ok(()));
        // A hand-built stream list is checked stream by stream, and
        // `validate` checks it before building the claim table.
        let c240 = MachineDescription::c240();
        let above_one = with(vec![ContentionStream::unit(3), duty(5, 4)]);
        assert_eq!(
            above_one.validate(),
            Err(MemConfigError::DutyAboveOne { num: 5, den: 4 })
        );
        assert_eq!(
            verdict(&c240, &above_one),
            Err(MemConfigError::DutyAboveOne { num: 5, den: 4 })
        );
        assert_eq!(
            verdict(&c240, &with(vec![duty(1, 0)])),
            Err(MemConfigError::ZeroDutyDenominator)
        );
    }

    /// Saturation is judged on the grant search's own claim table: full
    /// lockstep sets leave some bank no free cycle, while mixed sets on
    /// as few as 8 banks (where `Σ duty · bank_busy` reaches the bank
    /// count) still leave every bank one. Bank 0 is free only in the
    /// first cycles, before any claim on it has started; the check reads
    /// the repeating pattern, so it names bank 0, not bank 1.
    #[test]
    fn saturating_contention_is_caught() {
        let banked = |banks| MachineDescription {
            banks,
            ..MachineDescription::c240()
        };
        for (contention, banks) in [
            (ContentionConfig::lockstep(8), 32),
            (ContentionConfig::lockstep(3), 8),
        ] {
            assert_eq!(
                verdict(&banked(banks), &contention),
                Err(MemConfigError::ContentionSaturatesBank { bank: 0 })
            );
        }
        for (contention, banks) in [
            (ContentionConfig::lockstep(3), 32),
            (ContentionConfig::mixed(3), 32),
            (ContentionConfig::mixed(3), 8),
            (ContentionConfig::idle(), 1),
        ] {
            assert_eq!(verdict(&banked(banks), &contention), Ok(()));
        }
        // Each of 2 banks is claim-free one cycle in 400, always inside a
        // refresh window: saturated with refresh, not without it.
        let nearly_full = ContentionConfig {
            streams: vec![ContentionStream {
                stride: 1,
                phase: 1,
                duty_num: 199,
                duty_den: 200,
            }],
        };
        let machine = MachineDescription {
            bank_busy: 3,
            ..banked(2)
        };
        assert!(matches!(
            verdict(&machine, &nearly_full),
            Err(MemConfigError::ContentionSaturatesBank { .. })
        ));
        let no_refresh = MachineDescription {
            refresh_enabled: false,
            ..machine
        };
        assert_eq!(verdict(&no_refresh, &nearly_full), Ok(()));
    }

    /// The claim table is bounded by its claims per pattern period, and
    /// a period too long for its offsets (or for `u64`) is an error, not
    /// a panic or a wrapped product.
    #[test]
    fn contention_table_size_is_bounded() {
        let most = MachineDescription {
            banks: MAX_BANKS,
            ..MachineDescription::c240()
        };
        let with = |contention| verdict(&most, &contention);
        assert_eq!(with(ContentionConfig::lockstep(15)), Ok(()));
        let too_large = Err(MemConfigError::ContentionTableTooLarge);
        assert_eq!(with(ContentionConfig::lockstep(30)), too_large);
        let thin = |duty_den| ContentionStream {
            duty_num: 1,
            duty_den,
            ..ContentionStream::unit(0)
        };
        let long = ContentionConfig {
            streams: vec![thin(u32::MAX)],
        };
        assert_eq!(with(long), too_large);
        let overflows = ContentionConfig {
            streams: vec![thin(u32::MAX), thin(u32::MAX - 1), thin(u32::MAX - 2)],
        };
        assert_eq!(overflows.pattern_period(MAX_BANKS), u64::MAX);
        assert_eq!(with(overflows), too_large);
    }

    #[test]
    fn cache_constraints_are_caught() {
        let mut c = MachineDescription::c240();
        c.cache_lines = 0;
        assert_eq!(idle(&c), Err(MemConfigError::ZeroCacheLines));
        let mut c = MachineDescription::c240();
        c.cache_line_words = 0;
        assert_eq!(idle(&c), Err(MemConfigError::ZeroCacheLineWords));
    }

    #[test]
    fn machine_labels_wrap_once_and_strip_cleanly() {
        let err = MemConfigError::ZeroBanks.for_machine("c240-64b");
        assert!(err.to_string().contains("machine `c240-64b`"));
        assert!(err.to_string().contains("at least one bank"));
        assert_eq!(err.root(), &MemConfigError::ZeroBanks);
        assert!(Error::source(&err).is_some());
        // Re-labeling and empty labels are no-ops.
        assert_eq!(err.clone().for_machine("other"), err);
        assert_eq!(
            MemConfigError::ZeroBanks.for_machine(""),
            MemConfigError::ZeroBanks
        );
        // `validate` labels with the description's name, once.
        let mut m = MachineDescription::c240_64banks();
        m.banks = 0;
        assert_eq!(validate(&m, &ContentionConfig::idle()), Err(err));
        m.name = String::new();
        assert_eq!(
            validate(&m, &ContentionConfig::idle()),
            Err(MemConfigError::ZeroBanks)
        );
    }

    #[test]
    fn errors_display_the_offending_value() {
        assert!(MemConfigError::TooManyBanks { banks: 9999 }
            .to_string()
            .contains("9999"));
        assert!(
            MemConfigError::RefreshLenExceedsPeriod { len: 8, period: 8 }
                .to_string()
                .contains("8-cycle")
        );
        assert!(MemConfigError::DutyAboveOne { num: 3, den: 2 }
            .to_string()
            .contains("3/2"));
    }
}
