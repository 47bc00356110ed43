//! Simulator configuration: one machine description plus the run
//! settings.

use c240_isa::MachineDescription;
use c240_mem::ContentionConfig;

/// Full simulator configuration.
///
/// The default models the paper's Convex C-240; the switches ablate
/// individual machine features for the what-if studies by editing the
/// one [`MachineDescription`] every layer reads.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The machine simulated: timing tables, memory geometry, scalar
    /// cache, chaining and port rules. Its name labels validation errors
    /// and sweep rows, and the bound model
    /// (`macs_core::ChimeConfig::for_machine`) and the roofline ceilings
    /// are derived from it, so an ablation written here reaches all three.
    pub machine: MachineDescription,
    /// Background traffic from the other CPUs (§4.2).
    pub contention: ContentionConfig,
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
    /// sharing one set of memory banks; at most the machine's
    /// [`MachineDescription::ports`] (checked by
    /// [`SimConfig::validate`]). A plain [`Cpu::new`] ignores this
    /// field — it always models one port.
    ///
    /// [`Machine`]: crate::Machine
    /// [`Cpu`]: crate::Cpu
    /// [`Cpu::new`]: crate::Cpu::new
    pub cpus: u32,
}

impl SimConfig {
    /// The paper's Convex C-240.
    pub fn c240() -> Self {
        SimConfig::for_machine(&MachineDescription::c240())
    }

    /// A configuration of `machine` with the default run settings: an
    /// idle memory, one CPU, fast-forward on, and a 200M-instruction
    /// limit.
    pub fn for_machine(machine: &MachineDescription) -> Self {
        SimConfig {
            machine: machine.clone(),
            contention: ContentionConfig::idle(),
            max_instructions: 200_000_000,
            fast_forward: true,
            cpus: 1,
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
        if let Err(e) = self.check_cpus() {
            panic!("SimConfig::with_cpus({n}): {e}");
        }
        self
    }

    /// Same machine with steady-state fast-forward disabled (every
    /// element stepped exactly). Results are identical either way — this
    /// switch exists for the equivalence tests that prove it
    /// (`tests/fastforward.rs`) and for timing exact stepping.
    pub fn without_fast_forward(mut self) -> Self {
        self.fast_forward = false;
        self
    }

    /// Same machine with chaining disabled (Cray-2 style ablation).
    pub fn without_chaining(mut self) -> Self {
        self.machine.chaining = false;
        self
    }

    /// Same machine with all tailgating bubbles `B` zeroed (Eq. 5 vs
    /// Eq. 13 ablation).
    pub fn without_bubbles(mut self) -> Self {
        self.machine.timing = self.machine.timing.without_bubbles();
        self
    }

    /// Same machine with memory refresh disabled.
    pub fn without_refresh(mut self) -> Self {
        self.machine.refresh_enabled = false;
        self
    }

    /// Same machine without the register-pair port constraint.
    pub fn without_pair_constraint(mut self) -> Self {
        self.machine.pair_constraint = false;
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
        assert!(c.machine.chaining);
        assert!(c.machine.pair_constraint);
        assert!(c.machine.refresh_enabled);
    }

    #[test]
    fn ablation_builders() {
        let c = SimConfig::c240()
            .without_chaining()
            .without_bubbles()
            .without_refresh()
            .without_pair_constraint();
        assert!(!c.machine.chaining);
        assert!(!c.machine.pair_constraint);
        assert!(!c.machine.refresh_enabled);
        assert_eq!(c.machine.modeled_refresh(), None);
        assert_eq!(c.machine.timing.get(TimingClass::Store).b, 0.0);
    }
}
