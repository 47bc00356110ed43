//! Simulator configuration: machine timing plus model ablation switches.

use c240_isa::timing::TimingTable;
use c240_isa::MachineDescription;
use c240_mem::{CacheConfig, ContentionConfig, MemConfig};

// `ScalarTiming` lives with the machine descriptions in `c240-isa`;
// re-exported here because the simulator is where it has always been
// consumed from.
pub use c240_isa::ScalarTiming;

/// Full simulator configuration.
///
/// The default models the paper's Convex C-240; the switches ablate
/// individual machine features for the what-if studies.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Name of the machine this configuration was derived from (a
    /// [`MachineDescription`] preset name, `"c240"` by default). Purely
    /// a label: it names the machine in validation errors and sweep
    /// rows, and does not affect simulation.
    pub machine: String,
    /// Vector instruction timing (Table 1).
    pub timing: TimingTable,
    /// Memory system (banks, refresh, contention).
    pub mem: MemConfig,
    /// ASU scalar data cache.
    pub cache: CacheConfig,
    /// Scalar-side latencies.
    pub scalar: ScalarTiming,
    /// Operand chaining between vector pipes (§3.3). Disabling it makes
    /// each vector instruction wait for its operands to be *completely*
    /// computed, as on the Cray-2.
    pub chaining: bool,
    /// Enforce the ≤2-read/≤1-write per register pair constraint (§3.3).
    pub pair_constraint: bool,
    /// Abort after this many executed instructions (runaway-loop guard).
    pub max_instructions: u64,
    /// Steady-state fast-forward: when a loop's timing state is detected
    /// to be exactly periodic, skip ahead by whole periods instead of
    /// stepping every element (bit-exact; see DESIGN.md). Disabled
    /// automatically for a probe that is not [`Probe::WARPABLE`], such
    /// as a [`Trace`], which would miss the skipped iterations' events.
    /// Also disabled by the co-sim [`Machine`] when `cpus > 1`: one CPU's
    /// periodic state no longer determines the shared memory's future.
    ///
    /// [`Probe::WARPABLE`]: crate::Probe::WARPABLE
    /// [`Trace`]: crate::Trace
    ///
    /// [`Machine`]: crate::Machine
    pub fast_forward: bool,
    /// Number of CPUs a co-sim [`Machine`] builds from this
    /// configuration, each a full [`Cpu`] with private data space,
    /// sharing one set of memory banks (the C-240 has four). A plain
    /// [`Cpu::new`] ignores this field — it always models one port.
    ///
    /// [`Machine`]: crate::Machine
    /// [`Cpu`]: crate::Cpu
    /// [`Cpu::new`]: crate::Cpu::new
    pub cpus: u32,
    /// CPU ports the machine's memory banks expose — the upper bound a
    /// co-sim [`Machine`] accepts for [`SimConfig::cpus`] (4 on the
    /// C-240), checked by [`SimConfig::validate`].
    ///
    /// [`Machine`]: crate::Machine
    pub ports: u32,
}

impl SimConfig {
    /// The paper's Convex C-240.
    pub fn c240() -> Self {
        SimConfig::for_machine(&MachineDescription::c240())
    }

    /// Derives a configuration from a declarative machine description:
    /// the description supplies the machine half (timing tables, memory
    /// geometry, chaining rules, port count); the operational knobs
    /// (instruction limit, fast-forward, CPU count, background
    /// contention) take the same defaults [`SimConfig::c240`] has always
    /// used. `for_machine(&MachineDescription::c240())` *is* `c240()`,
    /// bit-identically (pinned by `tests/machine_presets.rs`).
    pub fn for_machine(machine: &MachineDescription) -> Self {
        SimConfig {
            machine: machine.name.clone(),
            timing: machine.timing.clone(),
            mem: MemConfig {
                banks: machine.banks,
                bank_busy: machine.bank_busy,
                refresh_period: machine.refresh_period,
                refresh_len: machine.refresh_len,
                refresh_enabled: machine.refresh_enabled,
                words: machine.words as usize,
                contention: ContentionConfig::idle(),
            },
            cache: CacheConfig {
                lines: machine.cache_lines as usize,
                line_words: machine.cache_line_words,
                hit_latency: machine.cache_hit_latency,
                miss_penalty: machine.cache_miss_penalty,
            },
            scalar: machine.scalar,
            chaining: machine.chaining,
            pair_constraint: machine.pair_constraint,
            max_instructions: 200_000_000,
            fast_forward: true,
            cpus: 1,
            ports: machine.ports,
        }
    }

    /// Same machine with `n` CPU ports sharing the memory banks (co-sim;
    /// see [`SimConfig::cpus`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, above [`crate::MAX_CPUS`], or above the
    /// machine's port count. Wire input is checked by
    /// [`SimConfig::validate`] instead.
    pub fn with_cpus(mut self, n: u32) -> Self {
        self.cpus = n;
        self.check_cpus().expect("a machine needs at least one CPU");
        self
    }

    /// Same machine with steady-state fast-forward disabled (every
    /// element stepped exactly). Results are identical either way — this
    /// switch exists for the equivalence tests and the CI timing smoke
    /// job that prove it.
    pub fn without_fast_forward(mut self) -> Self {
        self.fast_forward = false;
        self
    }

    /// Same machine with chaining disabled (Cray-2 style ablation).
    pub fn without_chaining(mut self) -> Self {
        self.chaining = false;
        self
    }

    /// Same machine with all tailgating bubbles `B` zeroed (Eq. 5 vs
    /// Eq. 13 ablation).
    pub fn without_bubbles(mut self) -> Self {
        self.timing = self.timing.without_bubbles();
        self
    }

    /// Same machine with memory refresh disabled.
    pub fn without_refresh(mut self) -> Self {
        self.mem = self.mem.without_refresh();
        self
    }

    /// Same machine without the register-pair port constraint.
    pub fn without_pair_constraint(mut self) -> Self {
        self.pair_constraint = false;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::c240()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_isa::timing::TimingClass;

    #[test]
    fn default_is_c240() {
        let c = SimConfig::default();
        assert!(c.chaining);
        assert!(c.pair_constraint);
        assert!(c.mem.refresh_enabled);
    }

    #[test]
    fn ablation_builders() {
        let c = SimConfig::c240()
            .without_chaining()
            .without_bubbles()
            .without_refresh()
            .without_pair_constraint();
        assert!(!c.chaining);
        assert!(!c.pair_constraint);
        assert!(!c.mem.refresh_enabled);
        assert_eq!(c.timing.get(TimingClass::Store).b, 0.0);
    }
}
