//! The MACS hierarchical performance model — the primary contribution of
//! *"Hierarchical Performance Modeling with MACS: A Case Study of the
//! Convex C-240"* (Boyd & Davidson, ISCA 1993).
//!
//! The model bounds the steady-state time of a vectorized inner loop at
//! three increasingly constrained levels:
//!
//! * **MA** — Machine + Application: operation counts of the high-level
//!   source under perfect compilation ([`macs_compiler::analyze_ma`]),
//! * **MAC** — + Compiler: operation counts of the generated assembly
//!   ([`MacWorkload`]),
//! * **MACS** — + Schedule: the chime structure of the actual instruction
//!   order, with tailgating bubbles and memory refresh
//!   ([`partition_chimes`], [`MacsBound`]),
//!
//! and complements them with **A/X measurements** ([`a_process`],
//! [`x_process`]): running the code with vector floating point (A) or
//! vector memory (X) instructions deleted to localize bottlenecks.
//! [`analyze_kernel`] runs the whole methodology on one simulator
//! configuration, deriving its chime model from the configuration's
//! machine description ([`ChimeConfig::for_machine`]), and [`diagnose`]
//! mechanizes the paper's §4.4 gap attribution. [`KernelBounds::compute`]
//! takes a [`ChimeConfig`] directly, for bounds without a simulation.
//!
//! # Example
//!
//! The paper's worked LFK1 example (§3.5) end to end:
//!
//! ```
//! use c240_isa::asm::assemble;
//! use macs_core::{ChimeConfig, KernelBounds};
//! use macs_compiler::MaWorkload;
//!
//! let program = assemble("L7:
//!     mov s0,vl
//!     ld.l 40120(a5),v0
//!     mul.d v0,s1,v1
//!     ld.l 40128(a5),v2
//!     mul.d v2,s3,v0
//!     add.d v1,v0,v3
//!     ld.l 32032(a5),v1
//!     mul.d v1,v3,v2
//!     add.d v2,s7,v0
//!     st.l v0,24024(a5)
//!     add.w #1024,a5
//!     sub.w #128,s0
//!     lt.w #0,s0
//!     jbrs.t L7
//!     halt")?;
//! let ma = MaWorkload { f_a: 2, f_m: 3, loads: 2, stores: 1 };
//! let bounds = KernelBounds::compute("LFK1", ma, &program, &ChimeConfig::c240());
//! assert_eq!(bounds.t_ma_cpf(), 0.600);                 // Table 4
//! assert_eq!(bounds.t_mac_cpf(), 0.800);
//! assert!((bounds.t_macs_cpf() - 0.840).abs() < 0.001);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advisor;
mod analysis;
mod ax;
mod bounds;
mod calibrate;
mod chime;
mod diagnose;
mod measure;
pub mod overhead;
pub mod pool;
mod report;
mod reschedule;
mod roofline;
mod runreport;
pub mod supervise;
pub mod sweep;
mod workload;

pub use advisor::{advise, Action, Advice};
pub use analysis::{analyze_kernel, KernelAnalysis};
pub use ax::{a_process, prime_registers, x_process};
pub use bounds::{hmean_mflops, KernelBounds, MacsBound};
pub use calibrate::{calibrate_all, calibrate_class, CalibrationRow};
pub use chime::{
    body_without_fp, body_without_memory, partition_chimes, BankModel, Chime, ChimeConfig,
    ChimePartition,
};
pub use diagnose::{diagnose, Finding};
pub use measure::{measure, Measurement};
pub use overhead::{analyze_overhead, segmented_macs_cpl, OverheadModel};
pub use pool::{parallel_map, threads};
pub use report::{hierarchy_figure, TextTable};
pub use reschedule::reschedule_for_chimes;
pub use roofline::{
    compiled_intensity, operational_intensity, BoundClass, MachineCeilings, Roofline,
    RooflinePoint, RooflineVerdict, ROOFLINE_SCHEMA,
};
pub use runreport::{RunReport, RUN_REPORT_SCHEMA};
pub use supervise::{
    supervise, supervise_observed, FailureKind, JitterRng, RetryPolicy, SuperviseEvent, Supervised,
};
pub use sweep::{
    parse_point, Contention, Fault, Journal, Overrides, ProtocolError, SweepPoint, JOURNAL_SCHEMA,
    SWEEP_ROW_SCHEMA,
};
pub use workload::MacWorkload;
