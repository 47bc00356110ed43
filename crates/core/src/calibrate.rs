//! Calibration loops: deriving the machine's `X`/`Y`/`Z`/`B` parameters
//! empirically (§3.2–§3.3 of the paper, regenerating Table 1).
//!
//! The paper verified Convex's specifications with "simple test loops
//! constructed specifically for evaluating such parameters"; we do the
//! same against the simulator:
//!
//! * **Z** — the slope of standalone instruction time over a VL sweep,
//! * **Y** — the intercept (minus the specified issue overhead `X`),
//! * **B** — the excess of the steady-state tailgating period over
//!   `Z·VL`, measured by differencing two loop lengths so startup
//!   cancels.

use std::fmt;

use c240_isa::timing::{TimingClass, VectorTiming};
use c240_isa::{Program, ProgramBuilder};
use c240_sim::{Cpu, SimConfig, SimError};

/// One calibrated row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationRow {
    /// Instruction class.
    pub class: TimingClass,
    /// Issue overhead, taken from the machine specification (the
    /// calibration loops cannot separate `X` from `Y`; neither could
    /// the paper's).
    pub x: f64,
    /// Fitted first-result latency.
    pub y: f64,
    /// Fitted per-element slope.
    pub z: f64,
    /// Fitted tailgating bubble.
    pub b: f64,
    /// The specification the machine claims (for comparison).
    pub spec: VectorTiming,
}

impl CalibrationRow {
    /// Whether the fit agrees with the specification within `tol` cycles
    /// on Y and B and `tol/100` on Z.
    pub fn matches_spec(&self, tol: f64) -> bool {
        (self.y - self.spec.y).abs() <= tol
            && (self.b - self.spec.b).abs() <= tol
            && (self.z - self.spec.z).abs() <= tol / 100.0
    }
}

impl fmt::Display for CalibrationRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<17} X={:<4.1} Y={:<6.2} Z={:<5.2} B={:<6.2} (spec Y={} Z={} B={})",
            self.class.to_string(),
            self.x,
            self.y,
            self.z,
            self.b,
            self.spec.y,
            self.spec.z,
            self.spec.b
        )
    }
}

/// Builds a standalone single-instruction program at the given VL.
fn standalone(class: TimingClass, vl: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.set_vl_imm(vl);
    push_instr(&mut b, class);
    b.halt();
    b.build().expect("calibration program is valid")
}

/// Builds a tailgating loop repeating the instruction `iters` times.
fn tailgating_loop(class: TimingClass, vl: u32, iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.set_vl_imm(vl);
    b.mov_int(iters, "s0");
    b.label("L");
    push_instr(&mut b, class);
    b.int_op_imm("sub", 1, "s0");
    b.cmp_imm("lt", 0, "s0");
    b.branch_true("L");
    b.halt();
    b.build().expect("calibration program is valid")
}

fn push_instr(b: &mut ProgramBuilder, class: TimingClass) {
    match class {
        TimingClass::Load => {
            b.vload("a1", 0, "v0");
        }
        TimingClass::Store => {
            b.vstore("v0", "a1", 0);
        }
        TimingClass::Add => {
            b.vadd("v0", "v1", "v2");
        }
        TimingClass::Sub => {
            b.vsub("v0", "v1", "v2");
        }
        TimingClass::Mul => {
            b.vmul("v0", "v1", "v2");
        }
        TimingClass::Div => {
            b.vdiv("v0", "v1", "v2");
        }
        TimingClass::Reduction => {
            b.vsum("v0", "s2");
        }
        TimingClass::Neg => {
            b.vneg("v0", "v1");
        }
    }
}

fn prepared_cpu(config: &SimConfig) -> Cpu {
    let mut cpu = Cpu::new(config.clone());
    // Benign operand values (avoid 0/0 in divide calibration).
    for i in 0..8 {
        cpu.set_vreg_fill(i, 3.0 + f64::from(i));
        cpu.set_sreg_fp(i, 1.0);
    }
    cpu.set_areg(1, 8 * 1024);
    cpu
}

/// Least-squares line fit returning `(slope, intercept)`.
fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    (slope, intercept)
}

/// Calibrates one instruction class against the simulator.
///
/// # Errors
///
/// Propagates simulator errors (which indicate a harness bug).
pub fn calibrate_class(class: TimingClass, config: &SimConfig) -> Result<CalibrationRow, SimError> {
    // Refresh would perturb the fits (the paper's calibration loops were
    // also chosen to avoid it); keep the machine otherwise identical.
    let quiet = config.clone().without_refresh();
    let spec = quiet.machine.timing.get(class);

    // Z and X+Y from a VL sweep of standalone instructions. The measured
    // completion is issue + X + Z·(VL-1) + Y, so the line over VL has
    // slope Z and intercept issue + X + Y - Z.
    let mut points = Vec::new();
    for vl in [16u32, 32, 48, 64, 96, 128] {
        let mut cpu = prepared_cpu(&quiet);
        let stats = cpu.run(&standalone(class, vl))?;
        points.push((f64::from(vl), stats.cycles));
    }
    let (z, intercept) = fit_line(&points);
    let issue_overhead = 1.0; // the set-vl instruction
    let x = spec.x;
    let y = intercept - issue_overhead - x + z;

    // B from the steady-state tailgating period: run two loop lengths
    // and difference so startup cancels; the period is Z·VL + B.
    let vl = 128u32;
    let n1 = 20i64;
    let n2 = 60i64;
    let mut cpu1 = prepared_cpu(&quiet);
    let t1 = cpu1.run(&tailgating_loop(class, vl, n1))?.cycles;
    let mut cpu2 = prepared_cpu(&quiet);
    let t2 = cpu2.run(&tailgating_loop(class, vl, n2))?.cycles;
    let period = (t2 - t1) / (n2 - n1) as f64;
    let b = period - z * f64::from(vl);

    Ok(CalibrationRow {
        class,
        x,
        y,
        z,
        b,
        spec,
    })
}

/// Calibrates every instruction class — the regeneration of Table 1.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn calibrate_all(config: &SimConfig) -> Result<Vec<CalibrationRow>, SimError> {
    TimingClass::all()
        .into_iter()
        .map(|c| calibrate_class(c, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_calibration_recovers_table1() {
        let row = calibrate_class(TimingClass::Load, &SimConfig::c240()).unwrap();
        assert!((row.z - 1.0).abs() < 0.01, "Z = {}", row.z);
        assert!((row.y - 10.0).abs() < 0.5, "Y = {}", row.y);
        assert!((row.b - 2.0).abs() < 0.5, "B = {}", row.b);
        assert!(row.matches_spec(0.5));
    }

    #[test]
    fn store_and_mul_calibration() {
        let st = calibrate_class(TimingClass::Store, &SimConfig::c240()).unwrap();
        assert!((st.b - 4.0).abs() < 0.5, "store B = {}", st.b);
        let mul = calibrate_class(TimingClass::Mul, &SimConfig::c240()).unwrap();
        assert!((mul.y - 12.0).abs() < 0.5, "mul Y = {}", mul.y);
        assert!((mul.b - 1.0).abs() < 0.5, "mul B = {}", mul.b);
    }

    #[test]
    fn divide_calibration() {
        let div = calibrate_class(TimingClass::Div, &SimConfig::c240()).unwrap();
        assert!((div.z - 4.0).abs() < 0.05, "div Z = {}", div.z);
        assert!((div.b - 21.0).abs() < 1.0, "div B = {}", div.b);
    }

    #[test]
    fn reduction_calibration_shows_z_slope() {
        let red = calibrate_class(TimingClass::Reduction, &SimConfig::c240()).unwrap();
        // The paper's calibration measured Z between 1.39 and 1.43 and
        // modeled 1.35; ours recovers the modeled slope. B absorbs the
        // scalar-delivery serialization (the paper instead set B = 0 and
        // noted the equivalence "Z = 1, B = 45").
        assert!((red.z - 1.35).abs() < 0.02, "reduction Z = {}", red.z);
        assert!(red.b > 5.0, "reduction B = {}", red.b);
    }

    #[test]
    fn fit_line_exact() {
        let (m, c) = fit_line(&[(1.0, 3.0), (2.0, 5.0), (3.0, 7.0)]);
        assert!((m - 2.0).abs() < 1e-9);
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn calibrate_all_covers_every_class() {
        let rows = calibrate_all(&SimConfig::c240()).unwrap();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(!row.to_string().is_empty());
            assert!(row.z > 0.9, "{:?} Z = {}", row.class, row.z);
        }
    }
}
