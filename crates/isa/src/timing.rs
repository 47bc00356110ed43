//! Vector instruction timing parameters (Table 1 of the paper).
//!
//! A single independent vector instruction takes `X + Y + Z·VL` cycles
//! (Eq. 5): `X` cycles of initial overhead, `Y` further cycles until the
//! first element result is available, and `Z` cycles per element. When
//! instructions tailgate in a pipe, a *bubble* of `B` cycles separates them
//! (§3.3, Eq. 13); `B` is the paper's empirically calibrated parameter.

use std::fmt;

/// Timing classes of vector instructions, indexing [`TimingTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimingClass {
    /// `ld.l` vector load.
    Load,
    /// `st.l` vector store.
    Store,
    /// `add.d` vector add.
    Add,
    /// `sub.d` vector subtract.
    Sub,
    /// `mul.d` vector multiply.
    Mul,
    /// `div.d` vector divide.
    Div,
    /// `sum.d`/`radd.d`/`rsub.d` vector reductions.
    Reduction,
    /// `neg.d` vector negation.
    Neg,
}

impl TimingClass {
    /// All timing classes, in Table 1 order.
    pub fn all() -> [TimingClass; 8] {
        [
            TimingClass::Load,
            TimingClass::Store,
            TimingClass::Add,
            TimingClass::Mul,
            TimingClass::Sub,
            TimingClass::Div,
            TimingClass::Reduction,
            TimingClass::Neg,
        ]
    }

    /// Table 1's instruction-format column for this class.
    pub fn example_format(self) -> &'static str {
        match self {
            TimingClass::Load => "ld.l (a5),v0",
            TimingClass::Store => "st.l v0,(a5)",
            TimingClass::Add => "add.d v0,v1,v2",
            TimingClass::Mul => "mul.d v0,v1,v2",
            TimingClass::Sub => "sub.d v0,v1,v2",
            TimingClass::Div => "div.d v0,v1,v2",
            TimingClass::Reduction => "sum.d v0,s0",
            TimingClass::Neg => "neg.d v0,v1",
        }
    }
}

impl fmt::Display for TimingClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TimingClass::Load => "vector load",
            TimingClass::Store => "vector store",
            TimingClass::Add => "vector add",
            TimingClass::Mul => "vector multiply",
            TimingClass::Sub => "vector subtract",
            TimingClass::Div => "vector divide",
            TimingClass::Reduction => "vector reduction",
            TimingClass::Neg => "vector negation",
        };
        f.write_str(name)
    }
}

/// The machine's timing quantum: ticks per cycle.
///
/// Every timing parameter of the modeled C-240 — integer latencies,
/// half-cycle issue effects, and the 1.35-cycle reduction element rate —
/// is a multiple of 1/20 cycle. The simulator therefore keeps every
/// simulated time as an exact integer count of these *ticks*: sums never
/// drift, two states equal in exact arithmetic are equal as integers, and
/// the steady-state fast-forward translates timing state by integer
/// deltas (see `c240-sim`).
pub const TICKS_PER_CYCLE: i64 = 20;

/// The nearest tick count to `cycles` (saturating at the `i64` range;
/// NaN maps to 0). Exact for every value on the 1/20-cycle grid; see
/// [`exact_ticks`] for the check that a value is on it.
///
/// ```
/// use c240_isa::timing::ticks;
/// assert_eq!(ticks(1.35), 27);
/// assert_eq!(ticks(0.1 + 0.2), 6);
/// ```
#[inline]
pub fn ticks(cycles: f64) -> i64 {
    (cycles * TICKS_PER_CYCLE as f64).round() as i64
}

/// The tick count of `cycles` when `cycles` is exactly the `f64`
/// [`cycles`] returns for it — a value on the 1/20-cycle grid, written
/// the way the simulator reads its times out — and `None` otherwise.
///
/// ```
/// use c240_isa::timing::exact_ticks;
/// assert_eq!(exact_ticks(1.35), Some(27));
/// assert_eq!(exact_ticks(1.33), None);
/// assert_eq!(exact_ticks(0.1 + 0.2), None); // 0.30000000000000004
/// ```
pub fn exact_ticks(value: f64) -> Option<i64> {
    let t = ticks(value);
    (cycles(t).to_bits() == value.to_bits()).then_some(t)
}

/// Ticks as cycles: the one conversion every public read-out of a
/// simulated time goes through.
///
/// ```
/// use c240_isa::timing::cycles;
/// assert_eq!(cycles(27), 1.35);
/// assert_eq!(cycles(3456), 128.0 * 1.35);
/// ```
#[inline]
pub fn cycles(ticks: i64) -> f64 {
    ticks as f64 / TICKS_PER_CYCLE as f64
}

/// The `X`/`Y`/`Z`/`B` timing of one vector instruction class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorTiming {
    /// Initial overhead cycles before the instruction enters its pipe.
    pub x: f64,
    /// Additional cycles until the first element result is available.
    pub y: f64,
    /// Cycles per vector element.
    pub z: f64,
    /// Tailgating bubble: extra cycles charged when this instruction
    /// follows another one through a pipe (Eq. 13).
    pub b: f64,
}

impl VectorTiming {
    /// Time in cycles for one *independent* instruction (Eq. 5):
    /// `X + Y + Z·VL`.
    ///
    /// ```
    /// use c240_isa::timing::{TimingClass, TimingTable};
    /// let t = TimingTable::c240();
    /// // Table 1: a VL=128 vector multiply takes 2 + 12 + 128 cycles.
    /// assert_eq!(t.get(TimingClass::Mul).standalone_cycles(128), 142.0);
    /// ```
    pub fn standalone_cycles(&self, vl: u32) -> f64 {
        self.x + self.y + self.z * f64::from(vl)
    }

    /// The same timing in ticks, each parameter rounded to the nearest
    /// tick ([`ticks`]).
    pub fn ticks(&self) -> VectorTicks {
        VectorTicks {
            x: ticks(self.x),
            y: ticks(self.y),
            z: ticks(self.z),
            b: ticks(self.b),
        }
    }
}

/// A [`VectorTiming`] in ticks ([`TICKS_PER_CYCLE`] per cycle), the form
/// the simulator computes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VectorTicks {
    /// Initial overhead `X`.
    pub x: i64,
    /// Further latency `Y` to the first result.
    pub y: i64,
    /// Per-element time `Z`.
    pub z: i64,
    /// Tailgating bubble `B`.
    pub b: i64,
}

/// The machine's vector timing table (Table 1 of the paper), mapping each
/// [`TimingClass`] to its [`VectorTiming`].
///
/// [`TimingTable::c240`] gives the paper's calibrated Convex C-240 values;
/// setters allow what-if machines (used by the ablation benches).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingTable {
    entries: [VectorTiming; 8],
}

fn slot(class: TimingClass) -> usize {
    match class {
        TimingClass::Load => 0,
        TimingClass::Store => 1,
        TimingClass::Add => 2,
        TimingClass::Sub => 3,
        TimingClass::Mul => 4,
        TimingClass::Div => 5,
        TimingClass::Reduction => 6,
        TimingClass::Neg => 7,
    }
}

impl TimingTable {
    /// The calibrated Convex C-240 timing of Table 1 (VL = 128 column).
    pub fn c240() -> Self {
        let mut t = TimingTable {
            entries: [VectorTiming {
                x: 2.0,
                y: 10.0,
                z: 1.0,
                b: 1.0,
            }; 8],
        };
        t.set(
            TimingClass::Load,
            VectorTiming {
                x: 2.0,
                y: 10.0,
                z: 1.0,
                b: 2.0,
            },
        );
        t.set(
            TimingClass::Store,
            VectorTiming {
                x: 2.0,
                y: 10.0,
                z: 1.0,
                b: 4.0,
            },
        );
        t.set(
            TimingClass::Add,
            VectorTiming {
                x: 2.0,
                y: 10.0,
                z: 1.0,
                b: 1.0,
            },
        );
        t.set(
            TimingClass::Sub,
            VectorTiming {
                x: 2.0,
                y: 10.0,
                z: 1.0,
                b: 1.0,
            },
        );
        t.set(
            TimingClass::Mul,
            VectorTiming {
                x: 2.0,
                y: 12.0,
                z: 1.0,
                b: 1.0,
            },
        );
        t.set(
            TimingClass::Div,
            VectorTiming {
                x: 2.0,
                y: 72.0,
                z: 4.0,
                b: 21.0,
            },
        );
        // Footnote b of Table 1: Z between 1.39 and 1.43 in calibration;
        // set conservatively to 1.35 with B = 0.
        t.set(
            TimingClass::Reduction,
            VectorTiming {
                x: 2.0,
                y: 10.0,
                z: 1.35,
                b: 0.0,
            },
        );
        t.set(
            TimingClass::Neg,
            VectorTiming {
                x: 2.0,
                y: 10.0,
                z: 1.0,
                b: 1.0,
            },
        );
        t
    }

    /// The timing of one class.
    pub fn get(&self, class: TimingClass) -> VectorTiming {
        self.entries[slot(class)]
    }

    /// Replaces the timing of one class.
    pub fn set(&mut self, class: TimingClass, timing: VectorTiming) {
        self.entries[slot(class)] = timing;
    }

    /// A copy with every bubble `B` zeroed — the idealized Eq. 5 machine,
    /// used by the bubble ablation.
    pub fn without_bubbles(&self) -> Self {
        let mut t = self.clone();
        for class in TimingClass::all() {
            let mut v = t.get(class);
            v.b = 0.0;
            t.set(class, v);
        }
        t
    }
}

impl Default for TimingTable {
    fn default() -> Self {
        TimingTable::c240()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let t = TimingTable::c240();
        let ld = t.get(TimingClass::Load);
        assert_eq!((ld.x, ld.y, ld.z, ld.b), (2.0, 10.0, 1.0, 2.0));
        let st = t.get(TimingClass::Store);
        assert_eq!((st.x, st.y, st.z, st.b), (2.0, 10.0, 1.0, 4.0));
        let mul = t.get(TimingClass::Mul);
        assert_eq!((mul.x, mul.y, mul.z, mul.b), (2.0, 12.0, 1.0, 1.0));
        let div = t.get(TimingClass::Div);
        assert_eq!((div.x, div.y, div.z, div.b), (2.0, 72.0, 4.0, 21.0));
        let red = t.get(TimingClass::Reduction);
        assert_eq!((red.x, red.y, red.z, red.b), (2.0, 10.0, 1.35, 0.0));
    }

    #[test]
    fn standalone_times_match_paper_example() {
        // §3.3: without chaining, ld and add take 2+10+VL and mul takes
        // 2+12+VL; the three together 422 cycles at VL = 128.
        let t = TimingTable::c240();
        let total = t.get(TimingClass::Load).standalone_cycles(128)
            + t.get(TimingClass::Add).standalone_cycles(128)
            + t.get(TimingClass::Mul).standalone_cycles(128);
        assert_eq!(total, 422.0);
    }

    #[test]
    fn without_bubbles_zeroes_b_only() {
        let t = TimingTable::c240().without_bubbles();
        for class in TimingClass::all() {
            assert_eq!(t.get(class).b, 0.0);
        }
        assert_eq!(t.get(TimingClass::Mul).y, 12.0);
    }

    #[test]
    fn default_is_c240() {
        assert_eq!(TimingTable::default(), TimingTable::c240());
    }

    #[test]
    fn all_classes_distinct_slots() {
        let mut seen = std::collections::HashSet::new();
        for c in TimingClass::all() {
            assert!(seen.insert(super::slot(c)));
        }
        assert_eq!(seen.len(), 8);
    }
}
