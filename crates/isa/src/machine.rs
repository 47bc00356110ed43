//! Declarative machine descriptions.
//!
//! The MACS methodology is not specific to the Convex C-240: §6 of the
//! paper argues the hierarchy transfers to any machine whose
//! performance-relevant properties — function units and issue width,
//! chaining rules, the `X + Y + Z·VL` timing table with tailgating
//! bubbles `B`, and the banked-memory geometry — can be written down.
//! A [`MachineDescription`] is that write-down for every property the
//! simulator parameterizes: a plain value type every layer of the
//! reproduction (timing, simulator and co-sim machine, memory banks,
//! bound calculators, sweep protocol) constructs itself from.
//!
//! [`MachineDescription::c240`] reproduces the paper's machine
//! bit-identically (asserted by the exactness matrix in
//! `tests/machine_presets.rs`); the other presets are controlled
//! hypotheticals for what-if studies:
//!
//! * [`MachineDescription::c240_64banks`] (`"c240-64b"`) — the same CPU
//!   in a chassis with 64 memory banks, so strided streams revisit a
//!   busy bank half as often;
//! * [`MachineDescription::dual_port`] (`"dual-port"`) — a two-port
//!   variant with half the banks, which shifts the multi-CPU contention
//!   bands.
//!
//! Presets are addressed by name on the sweep wire protocol
//! (`"machine": "c240-64b"`) and by `macs-report --machine`; the name is
//! folded into every sweep point's journal key so cached rows from
//! different machines never collide.

use crate::timing::TimingTable;
use crate::{Pipe, CLOCK_MHZ};

/// Scalar-side latencies (the Address/Scalar Unit of the C-240).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarTiming {
    /// Issue slot cost of any instruction, in cycles.
    pub issue: f64,
    /// Extra cycles on a taken branch (redirect penalty).
    pub branch_taken_penalty: f64,
    /// Latency of integer ops and moves.
    pub int_latency: f64,
    /// Latency of scalar floating point add/subtract.
    pub fp_add_latency: f64,
    /// Latency of scalar floating point multiply.
    pub fp_mul_latency: f64,
    /// Latency of scalar floating point divide.
    pub fp_div_latency: f64,
}

impl ScalarTiming {
    /// Plausible C-240 ASU latencies.
    pub fn c240() -> Self {
        ScalarTiming {
            issue: 1.0,
            branch_taken_penalty: 2.0,
            int_latency: 1.0,
            fp_add_latency: 2.0,
            fp_mul_latency: 3.0,
            fp_div_latency: 12.0,
        }
    }
}

impl Default for ScalarTiming {
    fn default() -> Self {
        ScalarTiming::c240()
    }
}

/// The performance-relevant properties of one modeled machine.
///
/// Every field but `name` (which labels rows and errors) is simulated:
/// `c240-sim` reads it, directly or through the memory and cache
/// configurations it builds from the description. The bound model
/// (`ChimeConfig::for_machine`) and the roofline ceilings read the same
/// fields, so an ablation written here reaches the simulator and the
/// bounds alike. What the simulator does not parameterize — three pipes,
/// the vector length [`crate::MAX_VL`], the clock [`CLOCK_MHZ`] — is a
/// constant, not a field.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineDescription {
    /// Preset name, e.g. `"c240"` — the identity used on the sweep wire
    /// protocol and folded into journal keys.
    pub name: String,
    /// Operand chaining between vector pipes (§3.3). Disabling it makes
    /// each vector instruction wait for its operands to be *completely*
    /// computed, as on the Cray-2.
    pub chaining: bool,
    /// The ≤2-read/≤1-write per register-pair port constraint (§3.3).
    pub pair_constraint: bool,
    /// Vector timing table: per-class `X`/`Y`/`Z` and bubble `B`
    /// (Table 1).
    pub timing: TimingTable,
    /// Scalar-side latencies.
    pub scalar: ScalarTiming,
    /// Number of interleaved memory banks.
    pub banks: u32,
    /// Bank cycle (recovery) time, in cycles.
    pub bank_busy: u64,
    /// Cycles between refresh windows.
    pub refresh_period: u64,
    /// Length of each refresh window, in cycles.
    pub refresh_len: u64,
    /// Whether memory refresh is modeled.
    pub refresh_enabled: bool,
    /// Data-space size, in 8-byte words.
    pub words: u64,
    /// Scalar-cache lines (direct-mapped).
    pub cache_lines: u32,
    /// Words per scalar-cache line.
    pub cache_line_words: u32,
    /// Scalar-cache hit latency, in cycles.
    pub cache_hit_latency: u64,
    /// Extra cycles a scalar-cache miss adds on top of the memory grant.
    pub cache_miss_penalty: u64,
    /// CPU ports on the shared memory banks — how many CPUs the chassis
    /// co-simulates at most (4 on the C-240).
    pub ports: u32,
}

/// Names of the built-in presets, in [`MachineDescription::preset`]
/// lookup order.
pub const PRESET_NAMES: [&str; 3] = ["c240", "c240-64b", "dual-port"];

impl MachineDescription {
    /// The paper's Convex C-240: Table 1 timing, 32 banks × 8-cycle
    /// busy time, 8-in-400-cycle refresh, four CPU ports.
    pub fn c240() -> Self {
        MachineDescription {
            name: "c240".to_string(),
            chaining: true,
            pair_constraint: true,
            timing: TimingTable::c240(),
            scalar: ScalarTiming::c240(),
            banks: 32,
            bank_busy: 8,
            refresh_period: 400,
            refresh_len: 8,
            refresh_enabled: true,
            words: 1 << 20,
            cache_lines: 256,
            cache_line_words: 4,
            cache_hit_latency: 2,
            cache_miss_penalty: 4,
            ports: 4,
        }
    }

    /// `"c240-64b"`: the C-240 CPU with 64 memory banks instead of 32.
    /// Twice the interleave halves how often a strided stream revisits a
    /// still-busy bank, so bank-busy waits strictly shrink (asserted in
    /// `tests/machine_presets.rs`); unit-stride kernels are barely
    /// affected.
    pub fn c240_64banks() -> Self {
        MachineDescription {
            name: "c240-64b".to_string(),
            banks: 64,
            ..MachineDescription::c240()
        }
    }

    /// `"dual-port"`: a hypothetical two-port chassis with half the
    /// banks. Fewer neighbors compete, but each of the 16 banks is
    /// revisited twice as often, which moves the multi-CPU contention
    /// bands away from the C-240's.
    pub fn dual_port() -> Self {
        MachineDescription {
            name: "dual-port".to_string(),
            banks: 16,
            ports: 2,
            ..MachineDescription::c240()
        }
    }

    /// Looks up a built-in preset by name (see [`PRESET_NAMES`]).
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "c240" => Some(MachineDescription::c240()),
            "c240-64b" => Some(MachineDescription::c240_64banks()),
            "dual-port" => Some(MachineDescription::dual_port()),
            _ => None,
        }
    }

    /// All built-in presets, in [`PRESET_NAMES`] order.
    pub fn presets() -> Vec<Self> {
        PRESET_NAMES
            .iter()
            .map(|name| MachineDescription::preset(name).expect("built-in preset"))
            .collect()
    }

    /// The refresh windows the machine models, as `(period, len)` in
    /// cycles: `None` when refresh is disabled or has no period. The
    /// memory system, the fast-forward key and [`Self::refresh_factor`]
    /// all decide through this one method whether refresh is modeled.
    pub fn modeled_refresh(&self) -> Option<(u64, u64)> {
        (self.refresh_enabled && self.refresh_period > 0)
            .then_some((self.refresh_period, self.refresh_len))
    }

    /// The analytic refresh penalty factor: memory is unavailable
    /// `refresh_len` out of every `refresh_period` cycles, so a
    /// memory-bound chime sequence stretches by
    /// `(period + len) / period` — the paper's 1.02 for 8-in-400.
    /// 1.0 when refresh is not modeled.
    pub fn refresh_factor(&self) -> f64 {
        self.modeled_refresh()
            .map_or(1.0, |(period, len)| (period + len) as f64 / period as f64)
    }

    // ------------------------------------------------------------------
    // Roofline ceilings (DESIGN.md §16).
    //
    // Every ceiling is a pure function of the description and the
    // simulator's fixed pipes and clock, so the same formulas hold for
    // every preset and for hand-built hypotheticals.

    /// Peak vector flop rate across `cpus` CPUs, in flops per cycle:
    /// every pipe but the load/store pipe (the simulator's 2 FP pipes)
    /// retiring one element per cycle.
    pub fn peak_flops_per_cycle(&self, cpus: u32) -> f64 {
        (Pipe::all().len() - 1) as f64 * f64::from(cpus)
    }

    /// Peak vector flop rate across `cpus` CPUs, in MFLOPS
    /// (`fp_pipes × cpus × CLOCK_MHZ`) — 50 for one C-240 CPU.
    pub fn peak_mflops(&self, cpus: u32) -> f64 {
        self.peak_flops_per_cycle(cpus) * CLOCK_MHZ
    }

    /// Bank-side sustained bandwidth in words per cycle:
    /// `banks / (bank_busy × refresh_factor)`. Each bank delivers one
    /// word per `bank_busy`-cycle recovery window, derated by refresh —
    /// ≈3.92 words/cycle for the 32-bank C-240 chassis.
    pub fn bank_bandwidth_words_per_cycle(&self) -> f64 {
        if self.bank_busy == 0 {
            return f64::from(self.banks);
        }
        f64::from(self.banks) / (self.bank_busy as f64 * self.refresh_factor())
    }

    /// Port-side bandwidth cap in words per cycle: each CPU streams at
    /// most one word per cycle through its single load/store pipe, and
    /// the chassis exposes `ports` CPU ports.
    pub fn port_bandwidth_words_per_cycle(&self, cpus: u32) -> f64 {
        f64::from(cpus.min(self.ports))
    }

    /// Sustained memory bandwidth across `cpus` CPUs, in words per
    /// cycle: the lesser of the port-side cap and the bank-side
    /// delivery rate. One C-240 CPU is port-limited (1 word/cycle);
    /// four are bank-limited (≈3.92).
    pub fn sustained_bandwidth_words_per_cycle(&self, cpus: u32) -> f64 {
        self.port_bandwidth_words_per_cycle(cpus)
            .min(self.bank_bandwidth_words_per_cycle())
    }

    /// The roof's ridge point in flops per word: the operational
    /// intensity at which the compute ceiling and the bandwidth slope
    /// intersect (`peak_flops_per_cycle / sustained_bandwidth`).
    /// Kernels with lower intensity are memory-bound, higher
    /// compute-bound. 2.0 for one C-240 CPU.
    pub fn ridge_intensity(&self, cpus: u32) -> f64 {
        let bw = self.sustained_bandwidth_words_per_cycle(cpus);
        if bw > 0.0 {
            self.peak_flops_per_cycle(cpus) / bw
        } else {
            f64::INFINITY
        }
    }
}

impl Default for MachineDescription {
    fn default() -> Self {
        MachineDescription::c240()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c240_matches_the_paper_constants() {
        let m = MachineDescription::c240();
        assert_eq!(m.name, "c240");
        assert_eq!((m.banks, m.bank_busy), (32, 8));
        assert_eq!((m.refresh_period, m.refresh_len), (400, 8));
        assert_eq!(m.ports, 4);
        assert_eq!(m.timing, TimingTable::c240());
        assert_eq!(m.refresh_factor(), 1.02);
    }

    #[test]
    fn presets_resolve_by_name_and_differ_where_advertised() {
        for name in PRESET_NAMES {
            let m = MachineDescription::preset(name).expect("known preset");
            assert_eq!(m.name, name);
        }
        assert_eq!(MachineDescription::preset("cray-2"), None);
        assert_eq!(MachineDescription::presets().len(), PRESET_NAMES.len());

        let banks64 = MachineDescription::c240_64banks();
        assert_eq!(banks64.banks, 64);
        assert_eq!(banks64.ports, 4);
        let dual = MachineDescription::dual_port();
        assert_eq!((dual.banks, dual.ports), (16, 2));
        // Everything not advertised as different stays the C-240.
        let c240 = MachineDescription::c240();
        assert_eq!(banks64.timing, c240.timing);
        assert_eq!(dual.bank_busy, c240.bank_busy);
        assert_eq!(dual.refresh_factor(), c240.refresh_factor());
    }

    #[test]
    fn c240_ceilings_match_hand_arithmetic() {
        let m = MachineDescription::c240();
        assert_eq!(m.peak_flops_per_cycle(1), 2.0);
        assert_eq!(m.peak_mflops(1), 50.0);
        assert_eq!(m.peak_mflops(4), 200.0);
        // 32 banks / (8-cycle busy × 1.02 refresh) ≈ 3.92 words/cycle.
        assert!((m.bank_bandwidth_words_per_cycle() - 32.0 / 8.16).abs() < 1e-12);
        // One CPU is port-limited at 1 word/cycle → ridge 2 flops/word.
        assert_eq!(m.sustained_bandwidth_words_per_cycle(1), 1.0);
        assert_eq!(m.ridge_intensity(1), 2.0);
        // Four CPUs are bank-limited: 8 flops/cycle over ≈3.92 w/c.
        assert!((m.sustained_bandwidth_words_per_cycle(4) - 32.0 / 8.16).abs() < 1e-12);
        assert!((m.ridge_intensity(4) - 8.0 * 8.16 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn preset_ceilings_differ_where_banks_and_ports_do() {
        let c240 = MachineDescription::c240();
        let wide = MachineDescription::c240_64banks();
        let dual = MachineDescription::dual_port();
        // Twice the banks, twice the bank-side bandwidth.
        assert!(
            (wide.bank_bandwidth_words_per_cycle() - 2.0 * c240.bank_bandwidth_words_per_cycle())
                .abs()
                < 1e-12
        );
        // At one CPU all presets are port-limited to the same roof.
        for m in [&c240, &wide, &dual] {
            assert_eq!(m.sustained_bandwidth_words_per_cycle(1), 1.0);
            assert_eq!(m.ridge_intensity(1), 2.0);
        }
        // The dual-port chassis caps at 2 CPU ports and 16 banks.
        assert_eq!(dual.port_bandwidth_words_per_cycle(4), 2.0);
        assert!((dual.bank_bandwidth_words_per_cycle() - 16.0 / 8.16).abs() < 1e-12);
        // 16/8.16 ≈ 1.96 < 2 ports: two dual-port CPUs are bank-limited.
        assert!((dual.sustained_bandwidth_words_per_cycle(2) - 16.0 / 8.16).abs() < 1e-12);
    }

    #[test]
    fn ceiling_degenerate_cases() {
        let mut m = MachineDescription::c240();
        m.bank_busy = 0;
        assert_eq!(m.bank_bandwidth_words_per_cycle(), 32.0);
        let mut m = MachineDescription::c240();
        m.banks = 0;
        assert_eq!(m.sustained_bandwidth_words_per_cycle(1), 0.0);
        assert_eq!(m.ridge_intensity(1), f64::INFINITY);
    }

    #[test]
    fn refresh_factor_degenerate_cases() {
        let mut m = MachineDescription::c240();
        m.refresh_enabled = false;
        assert_eq!(m.refresh_factor(), 1.0);
        assert_eq!(m.modeled_refresh(), None);
        let mut m = MachineDescription::c240();
        m.refresh_period = 0;
        assert_eq!(m.refresh_factor(), 1.0);
        assert_eq!(m.modeled_refresh(), None);
        assert_eq!(MachineDescription::c240().modeled_refresh(), Some((400, 8)));
    }
}
