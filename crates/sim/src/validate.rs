//! Fallible validation of a full [`SimConfig`].
//!
//! The sweep server builds configurations from untrusted wire input, so
//! every invariant the simulator used to protect with an `assert!` or a
//! debug assertion has a typed, recoverable form here: a [`ConfigError`]
//! names the violated constraint instead of tearing down the process.
//! Programmatic construction keeps the panicking builders
//! ([`SimConfig::with_cpus`] and friends), which check the same
//! constraints for the fields they set.

use std::error::Error;
use std::fmt;

use c240_isa::timing::{exact_ticks, TimingClass};
use c240_mem::MemConfigError;

use crate::config::SimConfig;

/// Largest accepted CPU count for a co-sim [`crate::Machine`]. The real
/// C-240 has four; the cap bounds the per-CPU data-space allocation a
/// hostile sweep point could request.
pub const MAX_CPUS: u32 = 16;

/// Largest accepted scalar or vector timing value, in cycles. The
/// C-240's longest is the 72-cycle divide latency `Y`; the cap keeps
/// every time the simulator derives from these values far inside its
/// `i64` tick range.
pub const MAX_TIMING_CYCLES: f64 = 1_048_576.0;

/// A constraint violation in a [`SimConfig`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `cpus == 0`: a machine needs at least one CPU.
    ZeroCpus,
    /// `cpus` beyond [`MAX_CPUS`].
    TooManyCpus {
        /// The offending count.
        cpus: u32,
    },
    /// `cpus` beyond the machine's memory-port count
    /// ([`c240_isa::MachineDescription::ports`]): the chassis has
    /// nowhere to attach the extra CPUs.
    MoreCpusThanPorts {
        /// The requested CPU count.
        cpus: u32,
        /// The machine's port count.
        ports: u32,
    },
    /// `max_instructions == 0`: the runaway-loop guard would reject
    /// every program immediately.
    ZeroMaxInstructions,
    /// A scalar-timing field that is NaN, infinite, negative, or above
    /// [`MAX_TIMING_CYCLES`].
    BadScalarTiming {
        /// Name of the offending [`c240_isa::ScalarTiming`] field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A vector-timing parameter (X/Y/Z/B) that is NaN, infinite,
    /// negative, or above [`MAX_TIMING_CYCLES`].
    BadVectorTiming {
        /// The timing class the parameter belongs to.
        class: TimingClass,
        /// Which of X/Y/Z/B is bad.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A scalar or vector timing value that is not a whole number of
    /// ticks (1/20 cycle), such as a reduction `Z` of 1.33. The simulator
    /// counts time in ticks and would run such a value rounded.
    OffGridTiming {
        /// The timing class, for a vector parameter; `None` for a
        /// scalar field.
        class: Option<TimingClass>,
        /// Name of the offending field or parameter.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A memory-side constraint (banks, refresh, data space, contention
    /// streams, scalar cache).
    Mem(MemConfigError),
    /// Any other variant, labeled with the machine it was found on.
    /// [`SimConfig::validate`] wraps every non-memory error this way
    /// when the configuration carries a machine name (memory errors are
    /// labeled inside [`MemConfigError`] instead), so sweep error rows
    /// name the offending machine.
    ForMachine {
        /// The machine label (the description's name).
        machine: String,
        /// The underlying violation.
        error: Box<ConfigError>,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCpus => write!(f, "a machine needs at least one CPU"),
            ConfigError::TooManyCpus { cpus } => {
                write!(f, "CPU count {cpus} exceeds the maximum of {MAX_CPUS}")
            }
            ConfigError::ZeroMaxInstructions => {
                write!(f, "the instruction limit must be positive")
            }
            ConfigError::BadScalarTiming { field, value } => {
                write!(
                    f,
                    "scalar timing field `{field}` is {value}; it must be finite, >= 0 \
                     and at most {MAX_TIMING_CYCLES}"
                )
            }
            ConfigError::BadVectorTiming {
                class,
                field,
                value,
            } => write!(
                f,
                "vector timing parameter {field} of class {class:?} is {value}; \
                 it must be finite, >= 0 and at most {MAX_TIMING_CYCLES}"
            ),
            ConfigError::OffGridTiming {
                class: Some(class),
                field,
                value,
            } => write!(
                f,
                "vector timing parameter {field} of class {class:?} is {value}, \
                 not a whole number of 1/20-cycle ticks"
            ),
            ConfigError::OffGridTiming {
                class: None,
                field,
                value,
            } => write!(
                f,
                "scalar timing field `{field}` is {value}, \
                 not a whole number of 1/20-cycle ticks"
            ),
            ConfigError::MoreCpusThanPorts { cpus, ports } => write!(
                f,
                "CPU count {cpus} exceeds the machine's {ports} memory ports"
            ),
            ConfigError::Mem(e) => write!(f, "memory configuration: {e}"),
            ConfigError::ForMachine { machine, error } => {
                write!(f, "machine `{machine}`: {error}")
            }
        }
    }
}

impl Error for ConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigError::Mem(e) => Some(e),
            ConfigError::ForMachine { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl ConfigError {
    /// Wraps the error with a machine label (no-op on an empty label or
    /// an already-labeled error).
    pub fn for_machine(self, machine: &str) -> Self {
        if machine.is_empty() || matches!(self, ConfigError::ForMachine { .. }) {
            return self;
        }
        ConfigError::ForMachine {
            machine: machine.to_string(),
            error: Box::new(self),
        }
    }

    /// The underlying violation with any machine labels stripped — what
    /// tests and programmatic handlers match on.
    pub fn root(&self) -> &ConfigError {
        match self {
            ConfigError::ForMachine { error, .. } => error.root(),
            other => other,
        }
    }
}

impl From<MemConfigError> for ConfigError {
    fn from(e: MemConfigError) -> Self {
        ConfigError::Mem(e)
    }
}

impl SimConfig {
    /// Checks every constraint a simulatable configuration needs. The
    /// sweep server calls this on every wire-supplied point before a
    /// [`crate::Cpu`] or [`crate::Machine`] is built; the constructors'
    /// internal `assert!`s remain as backstops for programmatic misuse.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`],
    /// labeled with the machine's name so the message (and any sweep
    /// error row built from it) names the offending machine.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.validate_inner()
            .map_err(|e| e.for_machine(&self.machine.name))?;
        Ok(c240_mem::validate(&self.machine, &self.contention)?)
    }

    /// The CPU-count constraints, shared with [`SimConfig::with_cpus`].
    pub(crate) fn check_cpus(&self) -> Result<(), ConfigError> {
        if self.cpus == 0 {
            return Err(ConfigError::ZeroCpus);
        }
        if self.cpus > MAX_CPUS {
            return Err(ConfigError::TooManyCpus { cpus: self.cpus });
        }
        if self.cpus > self.machine.ports {
            return Err(ConfigError::MoreCpusThanPorts {
                cpus: self.cpus,
                ports: self.machine.ports,
            });
        }
        Ok(())
    }

    /// The CPU-side constraints; `c240_mem::validate` checks the memory
    /// side, labeling its own errors.
    fn validate_inner(&self) -> Result<(), ConfigError> {
        self.check_cpus()?;
        if self.max_instructions == 0 {
            return Err(ConfigError::ZeroMaxInstructions);
        }
        let s = &self.machine.scalar;
        let scalar = [
            ("issue", s.issue),
            ("branch_taken_penalty", s.branch_taken_penalty),
            ("int_latency", s.int_latency),
            ("fp_add_latency", s.fp_add_latency),
            ("fp_mul_latency", s.fp_mul_latency),
            ("fp_div_latency", s.fp_div_latency),
        ];
        for (field, value) in scalar {
            if !in_range(value) {
                return Err(ConfigError::BadScalarTiming { field, value });
            }
            if exact_ticks(value).is_none() {
                return Err(ConfigError::OffGridTiming {
                    class: None,
                    field,
                    value,
                });
            }
        }
        for class in TimingClass::all() {
            let t = self.machine.timing.get(class);
            for (field, value) in [("X", t.x), ("Y", t.y), ("Z", t.z), ("B", t.b)] {
                if !in_range(value) {
                    return Err(ConfigError::BadVectorTiming {
                        class,
                        field,
                        value,
                    });
                }
                if exact_ticks(value).is_none() {
                    return Err(ConfigError::OffGridTiming {
                        class: Some(class),
                        field,
                        value,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Whether a timing value is finite and in `[0, MAX_TIMING_CYCLES]`.
fn in_range(value: f64) -> bool {
    (0.0..=MAX_TIMING_CYCLES).contains(&value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_isa::timing::VectorTiming;

    #[test]
    fn c240_default_validates() {
        assert_eq!(SimConfig::c240().validate(), Ok(()));
        assert_eq!(
            SimConfig::c240().with_cpus(4).validate(),
            Ok(()),
            "the real machine's four CPUs are valid"
        );
    }

    #[test]
    fn cpu_and_instruction_limits_are_checked() {
        let mut c = SimConfig::c240();
        c.cpus = 0;
        assert_eq!(c.validate().unwrap_err().root(), &ConfigError::ZeroCpus);
        c.cpus = MAX_CPUS + 1;
        assert_eq!(
            c.validate().unwrap_err().root(),
            &ConfigError::TooManyCpus { cpus: MAX_CPUS + 1 }
        );
        // More CPUs than the chassis has memory ports (the C-240 has 4).
        c.cpus = 5;
        let err = c.validate().unwrap_err();
        assert_eq!(
            err.root(),
            &ConfigError::MoreCpusThanPorts { cpus: 5, ports: 4 }
        );
        assert!(err.to_string().contains("4 memory ports"));
        // The panicking builder accepts what validation accepts.
        assert_eq!(SimConfig::c240().with_cpus(2).cpus, 2);
        let mut c = SimConfig::c240();
        c.max_instructions = 0;
        assert_eq!(
            c.validate().unwrap_err().root(),
            &ConfigError::ZeroMaxInstructions
        );
    }

    #[test]
    fn validation_errors_name_the_machine() {
        let mut c = SimConfig::c240();
        c.cpus = 0;
        let err = c.validate().unwrap_err();
        assert!(matches!(err, ConfigError::ForMachine { ref machine, .. } if machine == "c240"));
        assert!(err.to_string().contains("machine `c240`"));
        assert!(Error::source(&err).is_some());
        // Memory-side errors carry the label inside MemConfigError.
        let mut c = SimConfig::c240();
        c.machine.name = "dual-port".into();
        c.machine.banks = 0;
        let message = c.validate().unwrap_err().to_string();
        assert!(message.contains("machine `dual-port`"), "{message}");
        // An unlabeled config (programmatic construction) stays unwrapped.
        let mut c = SimConfig::c240();
        c.machine.name = String::new();
        c.cpus = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroCpus));
    }

    #[test]
    fn timing_fields_must_be_finite_and_nonnegative() {
        let mut c = SimConfig::c240();
        c.machine.scalar.fp_div_latency = f64::NAN;
        assert!(matches!(
            c.validate().unwrap_err().root(),
            ConfigError::BadScalarTiming {
                field: "fp_div_latency",
                ..
            }
        ));
        let mut c = SimConfig::c240();
        let mut t = c.machine.timing.get(TimingClass::Mul);
        t.z = -1.0;
        c.machine.timing.set(TimingClass::Mul, t);
        let err = c.validate().unwrap_err();
        assert!(matches!(
            err.root(),
            ConfigError::BadVectorTiming {
                class: TimingClass::Mul,
                field: "Z",
                ..
            }
        ));
        assert!(err.to_string().contains("Mul"));
        let mut c = SimConfig::c240();
        c.machine.timing.set(
            TimingClass::Load,
            VectorTiming {
                x: f64::INFINITY,
                y: 0.0,
                z: 1.0,
                b: 0.0,
            },
        );
        assert!(matches!(
            c.validate().unwrap_err().root(),
            ConfigError::BadVectorTiming { field: "X", .. }
        ));
    }

    #[test]
    fn timing_values_must_be_whole_ticks() {
        // Z = 1.35 is 27 ticks; 1.33 is 26.6 and would run as 1.35.
        let mut c = SimConfig::c240();
        let mut t = c.machine.timing.get(TimingClass::Reduction);
        t.z = 1.33;
        c.machine.timing.set(TimingClass::Reduction, t);
        let err = c.validate().unwrap_err();
        assert_eq!(
            err.root(),
            &ConfigError::OffGridTiming {
                class: Some(TimingClass::Reduction),
                field: "Z",
                value: 1.33
            }
        );
        assert!(err.to_string().contains("1/20-cycle"), "{err}");
        // The f64 sum 0.1 + 0.2 is near the 0.3-cycle grid point but is
        // not the value 6 ticks read out as.
        let mut c = SimConfig::c240();
        c.machine.scalar.issue = 0.1 + 0.2;
        assert!(matches!(
            c.validate().unwrap_err().root(),
            ConfigError::OffGridTiming {
                class: None,
                field: "issue",
                ..
            }
        ));
        // Past the range cap, a value is out of range, not off grid.
        let mut c = SimConfig::c240();
        c.machine.scalar.fp_div_latency = 2.0 * MAX_TIMING_CYCLES;
        assert!(matches!(
            c.validate().unwrap_err().root(),
            ConfigError::BadScalarTiming { .. }
        ));
        // Every preset under every ablation is on the grid.
        for machine in c240_isa::MachineDescription::presets() {
            let base = SimConfig::for_machine(&machine);
            for config in [
                base.clone(),
                base.clone().without_chaining(),
                base.clone().without_bubbles(),
                base.clone().without_refresh(),
                base.clone().without_pair_constraint(),
            ] {
                assert_eq!(config.validate(), Ok(()), "{}", machine.name);
            }
        }
    }

    #[test]
    fn memory_errors_are_wrapped_with_source() {
        let mut c = SimConfig::c240();
        c.machine.banks = 0;
        let err = c.validate().unwrap_err();
        match &err {
            ConfigError::Mem(m) => assert_eq!(m.root(), &MemConfigError::ZeroBanks),
            other => panic!("expected a Mem error, got {other:?}"),
        }
        assert!(Error::source(&err).is_some());
        let mut c = SimConfig::c240();
        c.machine.cache_lines = 0;
        match c.validate().unwrap_err() {
            ConfigError::Mem(m) => assert_eq!(m.root(), &MemConfigError::ZeroCacheLines),
            other => panic!("expected a Mem error, got {other:?}"),
        }
    }

    /// Every memory-side violation's full message, machine label
    /// included, byte for byte.
    #[test]
    fn memory_messages_are_pinned() {
        use c240_mem::{
            ContentionConfig, ContentionStream, MAX_BANKS, MAX_BANK_BUSY, MAX_REFRESH_PERIOD,
            MAX_WORDS,
        };
        let on = |machine: &str, edit: &dyn Fn(&mut SimConfig)| {
            let mut c = SimConfig::for_machine(
                &c240_isa::MachineDescription::preset(machine).expect("preset"),
            );
            edit(&mut c);
            c.validate().unwrap_err().to_string()
        };
        let c240 = |edit: &dyn Fn(&mut SimConfig)| on("c240", edit);
        let duty = |duty_num, duty_den| ContentionStream {
            duty_num,
            duty_den,
            ..ContentionStream::unit(0)
        };
        let cases = [
            (
                c240(&|c| c.machine.banks = 0),
                "memory configuration: machine `c240`: memory must have at least one bank",
            ),
            (
                c240(&|c| c.machine.banks = MAX_BANKS + 1),
                "memory configuration: machine `c240`: bank count 4097 exceeds the maximum of 4096",
            ),
            (
                c240(&|c| c.machine.bank_busy = 0),
                "memory configuration: machine `c240`: bank busy time must be at least one cycle",
            ),
            (
                c240(&|c| c.machine.bank_busy = MAX_BANK_BUSY + 1),
                "memory configuration: machine `c240`: bank busy time of 1048577 cycles exceeds the maximum of 1048576",
            ),
            (
                c240(&|c| c.machine.refresh_period = 0),
                "memory configuration: machine `c240`: refresh is enabled but the refresh period is zero",
            ),
            (
                c240(&|c| c.machine.refresh_period = MAX_REFRESH_PERIOD + 1),
                "memory configuration: machine `c240`: refresh period of 4294967297 cycles exceeds the maximum of 4294967296",
            ),
            (
                c240(&|c| c.machine.refresh_len = 400),
                "memory configuration: machine `c240`: refresh window of 400 cycles covers the whole 400-cycle period, so memory would never grant",
            ),
            (
                c240(&|c| c.machine.words = 0),
                "memory configuration: machine `c240`: data space must hold at least one word",
            ),
            (
                c240(&|c| c.machine.words = MAX_WORDS as u64 + 1),
                "memory configuration: machine `c240`: data space of 134217729 words exceeds the maximum of 134217728",
            ),
            (
                c240(&|c| {
                    c.machine.banks = MAX_BANKS;
                    c.contention = ContentionConfig::lockstep(30);
                }),
                "memory configuration: machine `c240`: background contention needs over 1048576 claims, or 2^32 cycles, per period",
            ),
            (
                c240(&|c| {
                    c.machine.banks = 8;
                    c.contention = ContentionConfig::lockstep(3);
                }),
                "memory configuration: machine `c240`: background contention claims bank 0 on every cycle refresh leaves open, so memory would never grant there",
            ),
            (
                c240(&|c| c.machine.cache_lines = 0),
                "memory configuration: machine `c240`: scalar cache must have at least one line",
            ),
            (
                c240(&|c| c.machine.cache_line_words = 0),
                "memory configuration: machine `c240`: scalar cache lines must hold at least one word",
            ),
            (
                on("dual-port", &|c| c.machine.refresh_len = 400),
                "memory configuration: machine `dual-port`: refresh window of 400 cycles covers the whole 400-cycle period, so memory would never grant",
            ),
            (
                c240(&|c| c.contention.streams = vec![duty(2, 1)]),
                "memory configuration: machine `c240`: contention duty 2/1 must be a fraction <= 1",
            ),
            (
                c240(&|c| c.contention.streams = vec![duty(1, 0)]),
                "memory configuration: machine `c240`: contention duty denominator must be positive",
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "with_cpus(5): CPU count 5 exceeds the machine's 4 memory ports")]
    fn with_cpus_panics_past_the_port_count() {
        let _ = SimConfig::c240().with_cpus(5);
    }
}
