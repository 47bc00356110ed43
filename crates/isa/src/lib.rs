//! Convex C-240 style vector instruction set architecture.
//!
//! This crate defines the machine-level vocabulary shared by the whole
//! MACS reproduction:
//!
//! * [`Instruction`] — the vector/scalar instruction set of a Convex C-240
//!   style CPU (three vector pipes: load/store, add, multiply; eight
//!   128-element vector registers; scalar `s`/address `a` registers),
//! * [`Program`] — an assembled instruction sequence with labels,
//! * [`asm::assemble`] / [`Instruction`]'s `Display` — a textual assembly
//!   round-trip in the paper's `ld.l 40120(a5),v0` notation, the one way
//!   to write a program as text (curated kernels, the compiler's output,
//!   tests),
//! * [`timing::TimingTable`] — the `X + Y + Z·VL` instruction timing
//!   parameters and tailgating bubble `B` of Table 1 of the paper,
//! * [`machine::MachineDescription`] — the declarative machine
//!   description (function units, chaining, timing table, bank geometry,
//!   port count) every layer constructs its configuration from, with the
//!   `c240` preset and what-if variants,
//! * static classification queries (pipe assignment, register-pair port
//!   usage, floating point operation class) consumed by the MACS bound
//!   calculators and by the cycle-level simulator.
//!
//! # Example
//!
//! Assemble the inner-loop chime of §3.3 of the paper and inspect it:
//!
//! ```
//! use c240_isa::asm::assemble;
//! use c240_isa::{Pipe, VReg};
//!
//! let program = assemble(
//!     "L7: ld.l 0(a5),v0
//!          add.d v0,v1,v2
//!          mul.d v2,v3,v5
//!          jbr L7",
//! )
//! .expect("valid program");
//!
//! let load = &program.instructions()[0];
//! assert_eq!(load.pipe(), Some(Pipe::LoadStore));
//! assert!(load.is_vector_memory());
//! let mul = &program.instructions()[2];
//! assert_eq!(mul.vector_reads(), vec![VReg::new(2).unwrap(), VReg::new(3).unwrap()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod error;
mod instr;
pub mod machine;
mod program;
mod reg;
pub mod timing;
mod value;

pub use error::{AsmError, IsaError};
pub use instr::{
    CmpOp, FpOp, InstrClass, Instruction, IntOp, IntOperand, MemRef, Pipe, ScalarReg, Stride,
    VOperand,
};
pub use machine::{MachineDescription, ScalarTiming, PRESET_NAMES};
pub use program::{Loop, Program};
pub use reg::{AReg, RegPair, SReg, VReg};
pub use timing::{TimingClass, TimingTable, VectorTiming};
pub use value::ScalarValue;

/// Number of elements in each vector register (the C-240 hardware vector
/// length).
pub const MAX_VL: u32 = 128;

/// Number of vector registers (`v0` … `v7`).
pub const NUM_VREGS: usize = 8;

/// Number of scalar registers (`s0` … `s7`).
pub const NUM_SREGS: usize = 8;

/// Number of address registers (`a0` … `a7`).
pub const NUM_AREGS: usize = 8;

/// Bytes per memory word (the C-240 is a 64-bit word machine).
pub const WORD_BYTES: u64 = 8;

/// CPU clock rate in MHz (40 ns cycle).
pub const CLOCK_MHZ: f64 = 25.0;
