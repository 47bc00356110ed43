//! Benchmark harness for the MACS reproduction.
//!
//! The benches live in `benches/` (all `harness = false`, driven by the
//! in-tree [`timing`] module rather than an external framework, so they
//! build with no network access):
//!
//! * `tables` — one benchmark group per paper table/figure, each
//!   regenerating the artifact (the timed body is the full experiment);
//! * `ablations` — the machine-model design choices the paper calls out,
//!   toggled one at a time (bubbles, refresh, chaining, register-pair
//!   ports, contention, vector length, stride, bank count, schedule);
//! * `simulator` — raw simulator throughput.
//!
//! The `macs-bench` binary runs the perf-trajectory harness and writes
//! `BENCH_<date>.json` (per-kernel CPL, stall summaries, probe
//! overhead); see `src/bin/macs_bench.rs`.
//!
//! This library crate hosts the shared workloads and the timing harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinate;
pub mod lineio;
pub mod serve;
pub mod timing;
pub mod transport;

pub use coordinate::{ChaosSpec, CoordinateOptions, Coordinator};
pub use lineio::{sniff_http, BoundedLines, LineEvent, Sniff};
pub use macs_core::{parallel_map, pool::THREADS_ENV, threads};
pub use serve::{
    eval_point, eval_point_observed, serve, Evaluated, PointClass, ServeObs, ServeOptions,
};
pub use transport::Listen;

use c240_isa::{Program, ProgramBuilder};

/// Builds a strip loop of `chimes` one-load chimes over `strips` strips
/// at the given vector length — the standard ablation workload.
///
/// # Panics
///
/// Panics if `chimes == 0` or `chimes > 7`.
pub fn memory_loop(chimes: u32, strips: i64, vl: u32, stride: i64) -> Program {
    assert!(
        (1..=7).contains(&chimes),
        "1..=7 load chimes supported, got {chimes}"
    );
    let mut b = ProgramBuilder::new();
    b.set_vl_imm(vl);
    b.mov_int(strips, "s0");
    b.label("L");
    for c in 0..chimes {
        if stride == 1 {
            b.vload("a1", i64::from(c) * 8192, &format!("v{c}"));
        } else {
            b.vload_strided("a1", i64::from(c) * 8192, stride, &format!("v{c}"));
        }
    }
    b.int_op_imm("sub", 1, "s0");
    b.cmp_imm("lt", 0, "s0");
    b.branch_true("L");
    b.halt();
    b.build().expect("memory loop is valid")
}

/// A chained load/multiply/add/store loop — the standard compute-and-
/// memory ablation workload.
pub fn triad_loop(strips: i64, vl: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.set_vl_imm(vl);
    b.mov_int(strips, "s0");
    b.label("L");
    b.vload("a1", 0, "v0");
    b.vmul("v0", "s1", "v1");
    b.vload("a2", 0, "v2");
    b.vadd("v1", "v2", "v3");
    b.vstore("v3", "a3", 0);
    b.int_op_imm("add", 1024, "a1");
    b.int_op_imm("add", 1024, "a2");
    b.int_op_imm("add", 1024, "a3");
    b.int_op_imm("sub", 1, "s0");
    b.cmp_imm("lt", 0, "s0");
    b.branch_true("L");
    b.halt();
    b.build().expect("triad loop is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_sim::{Cpu, SimConfig};

    #[test]
    fn workloads_run() {
        let mut cpu = Cpu::new(SimConfig::c240());
        cpu.set_areg(1, 0);
        cpu.set_areg(2, 160000);
        cpu.set_areg(3, 320000);
        cpu.set_sreg_fp(1, 2.0);
        assert!(cpu.run(&memory_loop(3, 10, 128, 1)).unwrap().cycles > 0.0);
        assert!(cpu.run(&memory_loop(7, 2, 128, 1)).unwrap().cycles > 0.0);
        assert!(cpu.run(&triad_loop(10, 128)).unwrap().cycles > 0.0);
    }

    #[test]
    #[should_panic(expected = "load chimes")]
    fn zero_chimes_rejected() {
        let _ = memory_loop(0, 1, 128, 1);
    }

    #[test]
    #[should_panic(expected = "load chimes supported, got 8")]
    fn eight_chimes_rejected() {
        let _ = memory_loop(8, 1, 128, 1);
    }
}
