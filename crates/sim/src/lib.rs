//! Cycle-level simulator of a Convex C-240 CPU.
//!
//! This crate is the *measurement substrate* of the MACS reproduction:
//! where the paper ran kernels on real hardware, we run their assembly on
//! a deterministic machine model with the paper's published parameters:
//!
//! * in-order single issue with hardware interlocks (§2),
//! * an Address/Scalar Unit with a data cache; scalar memory accesses
//!   share the CPU's single memory port with the vector stream and
//!   therefore split chimes (§3.3),
//! * a Vector Processor with three pipes (load/store, add, multiply),
//!   eight 128-element vector registers, flexible operand chaining, the
//!   register-pair read/write port limits, and the empirically calibrated
//!   tailgating bubble `B` (Table 1, Eq. 13),
//! * a 32-bank memory with 8-cycle bank busy time, refresh every 400
//!   cycles, and optional background contention (§4.2).
//!
//! A [`SimConfig`] is one [`c240_isa::MachineDescription`] plus the run
//! settings (background contention, instruction limit, fast-forward, CPU
//! count). Every model feature is ablated by editing that description
//! (chaining off, bubbles off, refresh off, pair constraint off), which
//! the bound model and the roofline ceilings read too.
//!
//! A run reports anything beyond its [`RunStats`] through one channel,
//! the [`Probe`] passed to [`Cpu::run_probed`]: [`CounterProbe`] charges
//! every cycle of every lane to a cause, and [`Trace`] records each
//! vector instruction's pipeline schedule (Figure 2). Steady-state
//! fast-forward stays on for a probe that is [`Probe::WARPABLE`] and
//! translates its counters with the timing state.
//!
//! # Example
//!
//! Reproduce the chained chime of §3.3 of the paper:
//!
//! ```
//! use c240_isa::ProgramBuilder;
//! use c240_sim::{Cpu, SimConfig};
//!
//! let mut b = ProgramBuilder::new();
//! b.set_vl_imm(128);
//! b.vload("a5", 0, "v0");
//! b.vadd("v0", "v1", "v2");
//! b.vmul("v2", "v3", "v5");
//! b.halt();
//! let program = b.build()?;
//!
//! let mut cpu = Cpu::new(SimConfig::c240().without_refresh());
//! let chained = cpu.run(&program)?.cycles;
//!
//! let mut cray2ish = Cpu::new(SimConfig::c240().without_refresh().without_chaining());
//! let unchained = cray2ish.run(&program)?.cycles;
//!
//! // Chaining: ~162 cycles; without: ~422 (§3.3).
//! assert!(chained < 170.0 && unchained > 400.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cpu;
mod error;
mod fastfwd;
mod machine;
mod row;
mod stats;
mod trace;
mod validate;

pub use config::SimConfig;
pub use cpu::Cpu;
pub use error::SimError;
pub use fastfwd::FfStats;
pub use machine::Machine;
pub use stats::{ClassCounts, RunStats, StallRollup};
pub use trace::{Trace, TraceEvent};
pub use validate::{ConfigError, MAX_CPUS, MAX_TIMING_CYCLES};

// Telemetry: drive [`Cpu::run_probed`] with a probe to get a per-lane
// cycle attribution (see the `c240-obs` crate for the taxonomy) or, with
// a [`Trace`], the pipeline trace.
pub use c240_obs::{CounterProbe, Lane, LaneAccount, NoProbe, Probe, StallCause, StallCounters};
