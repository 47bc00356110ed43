//! Roofline classification: operational intensity against machine
//! ceilings (DESIGN.md §16).
//!
//! The MACS hierarchy attributes lost cycles to mechanisms; the Roofline
//! model answers the complementary first question — is this kernel
//! *compute-bound* or *memory-bound* on this machine? This module joins
//! the two: operational intensity comes from the MA workload (source
//! flops per memory word under perfect compilation), ceilings come from
//! [`MachineDescription`] (peak vector flop rate, sustained memory
//! bandwidth), and the resulting analytic [`BoundClass`] is
//! cross-checked against the measured stall taxonomy of a probed run
//! ([`StallRollup`]) to produce a typed [`RooflineVerdict`]. One
//! [`Roofline`] value holds the whole placement; served rows, the
//! roofline artifact and the agreement tests all build it through
//! [`Roofline::new`].
//!
//! Ceiling formulas (all pure functions of the machine description and
//! the simulator's fixed pipes and clock, so they hold for every
//! preset; `fp_pipes` = 2, every pipe but load/store, and `clock` =
//! [`CLOCK_MHZ`]):
//!
//! ```text
//! peak     = fp_pipes × cpus × clock                      [MFLOPS]
//! bw       = min(min(cpus, ports), banks/(busy × refresh)) [words/cycle]
//! ridge    = peak_flops_per_cycle / bw                     [flops/word]
//! attain   = min(peak, intensity × bw × clock)             [MFLOPS]
//! ```
//!
//! A kernel with intensity at or above the ridge is compute-bound: the
//! flat flop-rate roof binds before the bandwidth slope does.
//!
//! Two intensities matter, mirroring the MA→MAC distinction. The **MA
//! intensity** ([`operational_intensity`]) divides source flops by the
//! memory words a perfect compiler would move — where the kernel
//! *could* sit under the roof. The **compiled intensity**
//! ([`compiled_intensity`]) divides the same source flops by the words
//! the compiled loop actually moves (reloads included) — where the
//! kernel *does* sit, and therefore what [`BoundClass`] is judged on.
//! LFK7 is the canonical split: 4.0 flops/word at the MA level
//! (compute-bound on paper) but 1.6 compiled (memory-bound on the
//! machine), exactly the paper's compiler-inserted-reload story.

use std::fmt;

use c240_isa::{MachineDescription, CLOCK_MHZ};
use c240_obs::json::Json;
use c240_sim::{CounterProbe, StallRollup};
use macs_compiler::MaWorkload;

use crate::bounds::KernelBounds;
use crate::diagnose::Finding;

/// Schema identifier of roofline rows (JSON artifact and served sweep
/// row fields).
pub const ROOFLINE_SCHEMA: &str = "c240-roofline/v1";

/// Which roof binds a point: the bandwidth slope or the flop-rate
/// ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundClass {
    /// Intensity below the ridge: the bandwidth slope binds.
    Memory,
    /// Intensity at or above the ridge: the flop-rate ceiling binds.
    Compute,
}

impl BoundClass {
    /// Stable snake_case name used in JSON rows, CSV columns, and metric
    /// labels.
    pub fn key(self) -> &'static str {
        match self {
            BoundClass::Memory => "memory",
            BoundClass::Compute => "compute",
        }
    }
}

impl fmt::Display for BoundClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// The roofline ceilings of one machine at one CPU count.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineCeilings {
    /// CPU count the ceilings are scaled to.
    pub cpus: u32,
    /// Peak vector flop rate in MFLOPS (`fp_pipes × cpus × clock`).
    pub peak_mflops: f64,
    /// Sustained memory bandwidth in words per cycle
    /// (`min(min(cpus, ports), banks / (bank_busy × refresh_factor))`).
    pub bandwidth_words_per_cycle: f64,
    /// The ridge point in flops per word — where the two roofs meet.
    pub ridge: f64,
}

impl MachineCeilings {
    /// Reads the ceilings off a machine description at `cpus` CPUs.
    pub fn of(machine: &MachineDescription, cpus: u32) -> Self {
        MachineCeilings {
            cpus,
            peak_mflops: machine.peak_mflops(cpus),
            bandwidth_words_per_cycle: machine.sustained_bandwidth_words_per_cycle(cpus),
            ridge: machine.ridge_intensity(cpus),
        }
    }

    /// Sustained bandwidth in Mwords/s, at [`CLOCK_MHZ`].
    pub fn bandwidth_mwords(&self) -> f64 {
        self.bandwidth_words_per_cycle * CLOCK_MHZ
    }

    /// The roof height at `intensity`:
    /// `min(peak, intensity × bandwidth)`.
    pub fn attainable_mflops(&self, intensity: f64) -> f64 {
        self.peak_mflops.min(intensity * self.bandwidth_mwords())
    }

    /// Classifies an intensity against the ridge (at-the-ridge counts
    /// as compute-bound: the flop ceiling already binds there).
    pub fn classify(&self, intensity: f64) -> BoundClass {
        if intensity >= self.ridge {
            BoundClass::Compute
        } else {
            BoundClass::Memory
        }
    }

    /// Places a kernel with the given operational intensity under this
    /// roof.
    pub fn place(&self, intensity: f64) -> RooflinePoint {
        RooflinePoint {
            intensity,
            attainable_mflops: self.attainable_mflops(intensity),
            ceiling: self.peak_mflops,
            bound_class: self.classify(intensity),
        }
    }
}

/// Operational intensity of a kernel in source flops per memory word,
/// from its MA workload: `(f_a + f_m) / (loads + stores)` — perfect
/// compilation, perfect reuse. Infinite for a kernel that touches no
/// memory.
pub fn operational_intensity(ma: &MaWorkload) -> f64 {
    let words = ma.loads + ma.stores;
    if words == 0 {
        f64::INFINITY
    } else {
        f64::from(ma.f_a + ma.f_m) / f64::from(words)
    }
}

/// Operational intensity of the *compiled* loop: source flops (the CPF
/// numerator convention, `f_a + f_m` from the MA workload) per memory
/// word the generated code actually moves (`l' + s'` from the MAC
/// workload, compiler reloads included). This is the intensity
/// [`BoundClass`] should be judged on — the machine streams the
/// compiled traffic, not the ideal. Infinite for a loop with no vector
/// memory operations.
pub fn compiled_intensity(bounds: &KernelBounds) -> f64 {
    let words = bounds.mac.loads + bounds.mac.stores;
    if words == 0 {
        f64::INFINITY
    } else {
        f64::from(bounds.flops) / f64::from(words)
    }
}

/// One kernel placed under one machine's roof.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// Operational intensity in flops per word
    /// ([`operational_intensity`]).
    pub intensity: f64,
    /// The roof height at that intensity, in MFLOPS.
    pub attainable_mflops: f64,
    /// The flat compute ceiling, in MFLOPS (the roof far to the right).
    pub ceiling: f64,
    /// Which roof binds.
    pub bound_class: BoundClass,
}

/// Outcome of cross-checking the analytic classification against the
/// measured stall taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RooflineVerdict {
    /// Analytic and measured classifications agree.
    Agree {
        /// The shared classification.
        class: BoundClass,
    },
    /// The model and the measurement point at different roofs.
    Disagree {
        /// What the intensity-vs-ridge rule said.
        analytic: BoundClass,
        /// What the stall-taxonomy rollup said.
        measured: BoundClass,
    },
}

impl RooflineVerdict {
    /// Compares the analytic class against the measured one: which
    /// resource the probed run *occupied* longer.
    ///
    /// The rule deliberately weighs useful streaming time, not just
    /// stalls — a unit-stride memory-bound loop keeps the load/store pipe
    /// saturated with almost no attributed bank waits, so a stall-only
    /// rule would misread it. Memory side: load/store streaming plus
    /// bank/refresh/contention and scalar-memory waits. Compute side: the
    /// busier FP pipe's streaming plus FP-lane structural stalls
    /// (bubbles, pair conflicts, barriers, drains). Chain waits and
    /// scalar issue interlocks belong to neither side (see
    /// [`c240_sim::StallRollup`]). A tie reads as memory-bound: if the
    /// memory port is occupied as long as the busiest FP pipe, the
    /// bandwidth slope is already binding.
    fn check(analytic: BoundClass, rollup: &StallRollup) -> Self {
        let measured = if rollup.memory_occupancy() >= rollup.compute_occupancy() {
            BoundClass::Memory
        } else {
            BoundClass::Compute
        };
        if analytic == measured {
            RooflineVerdict::Agree { class: analytic }
        } else {
            RooflineVerdict::Disagree { analytic, measured }
        }
    }

    /// Stable snake_case name used in JSON rows and CSV columns.
    pub fn key(self) -> &'static str {
        match self {
            RooflineVerdict::Agree { .. } => "agree",
            RooflineVerdict::Disagree { .. } => "disagree",
        }
    }

    /// Whether the verdict is a disagreement.
    pub fn is_disagreement(self) -> bool {
        matches!(self, RooflineVerdict::Disagree { .. })
    }

    /// What the probed run's stall taxonomy said the kernel was bound
    /// by.
    pub fn measured(self) -> BoundClass {
        match self {
            RooflineVerdict::Agree { class } => class,
            RooflineVerdict::Disagree { measured, .. } => measured,
        }
    }
}

impl fmt::Display for RooflineVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One kernel's roofline placement: the roof at the run's CPU count,
/// both intensities, the classifying point, and its class checked
/// against the probed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Roofline {
    /// The roof: the machine's ceilings at the run's CPU count.
    pub ceilings: MachineCeilings,
    /// MA intensity ([`operational_intensity`]): where a perfectly
    /// compiled kernel could sit.
    pub intensity_ma: f64,
    /// The kernel placed at its compiled intensity
    /// ([`compiled_intensity`]): where the generated code does sit, and
    /// what the analytic class is judged on.
    pub point: RooflinePoint,
    /// The point's class checked against the run's stall taxonomy; it
    /// carries the measured class too ([`RooflineVerdict::measured`]).
    pub verdict: RooflineVerdict,
}

impl Roofline {
    /// Places the kernel of `bounds` under `machine`'s roof at `cpus`
    /// CPUs and checks its class against `probe`, the probes of all the
    /// run's CPUs combined ([`CounterProbe::roll_up`]).
    pub fn new(
        machine: &MachineDescription,
        cpus: u32,
        bounds: &KernelBounds,
        probe: &CounterProbe,
    ) -> Self {
        let ceilings = MachineCeilings::of(machine, cpus);
        let point = ceilings.place(compiled_intensity(bounds));
        let verdict = RooflineVerdict::check(point.bound_class, &StallRollup::of_probe(probe));
        Roofline {
            ceilings,
            intensity_ma: operational_intensity(&bounds.ma),
            point,
            verdict,
        }
    }

    /// The [`Finding`] a disagreement contributes to the diagnosis
    /// stream; `None` for an agreement.
    pub fn finding(&self) -> Option<Finding> {
        match self.verdict {
            RooflineVerdict::Disagree { analytic, measured } => Some(Finding::RooflineMismatch {
                analytic,
                measured,
                intensity: self.point.intensity,
                ridge: self.ceilings.ridge,
            }),
            RooflineVerdict::Agree { .. } => None,
        }
    }

    /// The `roofline` object of a served sweep row (schema
    /// [`ROOFLINE_SCHEMA`]), with a `finding` only on a disagreement.
    pub fn to_json(&self) -> Json {
        let c = &self.ceilings;
        let json = Json::obj()
            .field("schema", ROOFLINE_SCHEMA)
            .field("intensity_ma", self.intensity_ma)
            .field("intensity", self.point.intensity)
            .field("ridge", c.ridge)
            .field("peak_mflops", c.peak_mflops)
            .field("bandwidth_mwords", c.bandwidth_mwords())
            .field("attainable_mflops", self.point.attainable_mflops)
            .field("bound_class", self.point.bound_class.key())
            .field("verdict", self.verdict.key())
            .field("measured_class", self.verdict.measured().key());
        match self.finding() {
            Some(finding) => json.field("finding", finding.to_string()),
            None => json,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c240_ceilings() -> MachineCeilings {
        MachineCeilings::of(&MachineDescription::c240(), 1)
    }

    #[test]
    fn c240_roof_numbers() {
        let c = c240_ceilings();
        assert_eq!(c.cpus, 1);
        assert_eq!(c.peak_mflops, 50.0);
        assert_eq!(c.bandwidth_words_per_cycle, 1.0);
        assert_eq!(c.bandwidth_mwords(), 25.0);
        assert_eq!(c.ridge, 2.0);
        // Below the ridge the slope binds, above it the flat roof does.
        assert_eq!(c.attainable_mflops(1.0), 25.0);
        assert_eq!(c.attainable_mflops(4.0), 50.0);
        assert_eq!(c.classify(1.999), BoundClass::Memory);
        assert_eq!(c.classify(2.0), BoundClass::Compute);
    }

    #[test]
    fn lfk1_places_memory_bound() {
        // LFK1's MA workload: 5 flops over 3 memory words.
        let ma = MaWorkload {
            f_a: 2,
            f_m: 3,
            loads: 2,
            stores: 1,
        };
        let i = operational_intensity(&ma);
        assert!((i - 5.0 / 3.0).abs() < 1e-12);
        let p = c240_ceilings().place(i);
        assert_eq!(p.bound_class, BoundClass::Memory);
        assert!((p.attainable_mflops - 25.0 * 5.0 / 3.0).abs() < 1e-9);
        assert_eq!(p.ceiling, 50.0);
    }

    #[test]
    fn no_memory_is_infinitely_intense() {
        let ma = MaWorkload {
            f_a: 1,
            f_m: 0,
            loads: 0,
            stores: 0,
        };
        let i = operational_intensity(&ma);
        assert!(i.is_infinite());
        let p = c240_ceilings().place(i);
        assert_eq!(p.bound_class, BoundClass::Compute);
        assert_eq!(p.attainable_mflops, 50.0);
    }

    #[test]
    fn verdicts_and_findings() {
        let mem_rollup = StallRollup {
            ld_busy: 10.0,
            fp_busy: 4.0,
            memory_stalls: 1.0,
            compute_stalls: 2.0,
        };
        let v = RooflineVerdict::check(BoundClass::Memory, &mem_rollup);
        assert_eq!(
            v,
            RooflineVerdict::Agree {
                class: BoundClass::Memory
            }
        );
        assert!(!v.is_disagreement());
        assert_eq!(v.measured(), BoundClass::Memory);
        let mut roofline = Roofline {
            ceilings: c240_ceilings(),
            intensity_ma: 1.0,
            point: c240_ceilings().place(1.0),
            verdict: v,
        };
        assert!(roofline.finding().is_none());

        let v = RooflineVerdict::check(BoundClass::Compute, &mem_rollup);
        assert!(v.is_disagreement());
        assert_eq!(v.key(), "disagree");
        assert_eq!(v.measured(), BoundClass::Memory);
        roofline.verdict = v;
        let finding = roofline.finding().expect("disagreement finds");
        assert!(finding.to_string().contains("ridge 2.00"), "{finding}");
    }

    #[test]
    fn served_object_keys_in_order_with_a_finding_only_on_disagreement() {
        let mut roofline = Roofline {
            ceilings: c240_ceilings(),
            intensity_ma: 5.0 / 3.0,
            point: c240_ceilings().place(1.25),
            verdict: RooflineVerdict::Agree {
                class: BoundClass::Memory,
            },
        };
        let keys = |json: &Json| match json {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other}"),
        };
        let agree = roofline.to_json();
        assert_eq!(
            keys(&agree),
            [
                "schema",
                "intensity_ma",
                "intensity",
                "ridge",
                "peak_mflops",
                "bandwidth_mwords",
                "attainable_mflops",
                "bound_class",
                "verdict",
                "measured_class",
            ]
        );
        assert_eq!(
            agree.get("attainable_mflops").and_then(Json::as_f64),
            Some(31.25)
        );
        roofline.verdict = RooflineVerdict::Disagree {
            analytic: BoundClass::Memory,
            measured: BoundClass::Compute,
        };
        let disagree = roofline.to_json();
        assert_eq!(keys(&disagree).last().map(String::as_str), Some("finding"));
        assert_eq!(
            disagree.get("measured_class").and_then(Json::as_str),
            Some("compute")
        );
    }

    #[test]
    fn keys_are_stable() {
        assert_eq!(BoundClass::Memory.key(), "memory");
        assert_eq!(BoundClass::Compute.key(), "compute");
        let agree = RooflineVerdict::Agree {
            class: BoundClass::Memory,
        };
        assert_eq!(agree.key(), "agree");
        assert_eq!(ROOFLINE_SCHEMA, "c240-roofline/v1");
    }
}
