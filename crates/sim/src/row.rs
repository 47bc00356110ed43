//! A vector register's timing rows and their exact summaries.
//!
//! Each vector register carries two rows of element ticks: when each
//! element's value is ready, and until when an instruction in flight
//! still reads it. In the paper's steady state elements stream `Z`
//! apart, so a row is almost always one straight line. A [`Line`] says
//! so exactly: the row's first `len` ticks are `t0 + e·slope`, and no
//! later tick exceeds `ceil`. The dense row stays the source of truth
//! (fast-forward snapshots and translates it); the summary only lets the
//! simulator prove, in constant time, that a row lies below a candidate
//! line of entries, so a vector instruction's elements can be timed in
//! closed form. Every writer keeps the summary exact, or weakens it to a
//! bare ceiling, never approximate.

use c240_isa::MAX_VL;

/// Elements per vector register.
pub(crate) const VLEN: usize = MAX_VL as usize;

/// The summary of a [`TimingRow`]: `ticks[e] == t0 + e·slope` for every
/// `e < len`, and `ticks[e] <= ceil` for every `e >= len` (`ceil` is
/// `i64::MIN` when `len` covers the row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    t0: i64,
    slope: i64,
    len: usize,
    ceil: i64,
}

impl Line {
    fn at(&self, e: usize) -> i64 {
        self.t0 + e as i64 * self.slope
    }

    /// A summary with no line, only a ceiling over the whole row.
    fn ceiling(ceil: i64) -> Line {
        Line {
            t0: 0,
            slope: 0,
            len: 0,
            ceil,
        }
    }

    /// The largest of the first `n` ticks, when the line covers them.
    fn max_of(&self, n: usize) -> Option<i64> {
        (1..=self.len)
            .contains(&n)
            .then(|| self.at(0).max(self.at(n - 1)))
    }

    /// A bound on every tick from element `n` on.
    fn bound_from(&self, n: usize) -> i64 {
        if n < self.len {
            self.ceil.max(self.at(n)).max(self.at(self.len - 1))
        } else {
            self.ceil
        }
    }

    /// Whether each of the first `n` ticks is at most `t0 + e·slope`.
    /// Two lines are ordered over an interval when they are ordered at
    /// both of its ends, and an affine function is least over an
    /// interval at one of its ends.
    fn below(&self, n: usize, t0: i64, slope: i64) -> bool {
        let new = |e: usize| t0 + e as i64 * slope;
        let m = n.min(self.len);
        (m == 0 || self.at(0) <= new(0) && self.at(m - 1) <= new(m - 1))
            && (n <= self.len || self.ceil <= new(self.len).min(new(n - 1)))
    }

    /// The summary of `ticks` read off the row itself: its longest
    /// straight prefix, and the largest tick after it.
    fn of(ticks: &[i64; VLEN]) -> Line {
        let (t0, slope) = (ticks[0], ticks[1] - ticks[0]);
        let len = (0..VLEN)
            .find(|&e| ticks[e] != t0 + e as i64 * slope)
            .unwrap_or(VLEN);
        let ceil = ticks[len..].iter().copied().max().unwrap_or(i64::MIN);
        Line {
            t0,
            slope,
            len,
            ceil,
        }
    }
}

/// One row of element ticks and its exact [`Line`]. Every write goes
/// through a method that keeps the two in step.
#[derive(Debug, Clone)]
pub(crate) struct TimingRow {
    /// The ticks themselves; code that writes them directly (a memory
    /// stream's sink) reports what it wrote through
    /// [`TimingRow::wrote_line`], [`TimingRow::wrote_below`] or
    /// [`TimingRow::raised`].
    pub(crate) ticks: [i64; VLEN],
    line: Line,
}

impl TimingRow {
    /// A row of zeros, the state [`crate::Cpu::reset_timing`] leaves.
    pub(crate) const ZERO: TimingRow = TimingRow {
        ticks: [0; VLEN],
        line: Line {
            t0: 0,
            slope: 0,
            len: VLEN,
            ceil: i64::MIN,
        },
    };

    /// Whether the summary proves each of the first `n` ticks at most
    /// `t0 + e·slope`. `false` says only that it cannot.
    pub(crate) fn below(&self, n: usize, t0: i64, slope: i64) -> bool {
        self.line.below(n, t0, slope)
    }

    /// The largest of the first `n` ticks (`i64::MIN` for none).
    pub(crate) fn max(&self, n: usize) -> i64 {
        self.line
            .max_of(n)
            .unwrap_or_else(|| self.ticks[..n].iter().copied().max().unwrap_or(i64::MIN))
    }

    /// Sets the first `n` ticks to `t0 + e·slope`.
    pub(crate) fn fill(&mut self, n: usize, t0: i64, slope: i64) {
        let mut tick = t0;
        for t in &mut self.ticks[..n] {
            *t = tick;
            tick += slope;
        }
        self.wrote_line(n, t0, slope);
    }

    /// Raises each of the first `n` ticks to at least `t0 + e·slope`. A
    /// row the summary proves below the line becomes the line without a
    /// comparison.
    pub(crate) fn raise(&mut self, n: usize, t0: i64, slope: i64) {
        if self.line.below(n, t0, slope) {
            return self.fill(n, t0, slope);
        }
        let mut new = t0;
        for t in &mut self.ticks[..n] {
            *t = (*t).max(new);
            new += slope;
        }
        self.raised(t0.max(t0 + (n as i64 - 1) * slope));
    }

    /// Raises each of the first `entries.len()` ticks to at least its
    /// entry.
    pub(crate) fn raise_to(&mut self, entries: &[i64]) {
        let mut high = i64::MIN;
        for (t, &entry) in self.ticks.iter_mut().zip(entries) {
            high = high.max(entry);
            *t = (*t).max(entry);
        }
        self.raised(high);
    }

    /// Sets each of the first `entries.len()` ticks to its entry plus `y`.
    pub(crate) fn write(&mut self, entries: &[i64], y: i64) {
        let mut high = i64::MIN;
        for (t, &entry) in self.ticks.iter_mut().zip(entries) {
            *t = entry + y;
            high = high.max(*t);
        }
        self.wrote_below(entries.len(), high);
    }

    /// Records that the first `n` ticks were just set to `t0 + e·slope`.
    pub(crate) fn wrote_line(&mut self, n: usize, t0: i64, slope: i64) {
        self.line = Line {
            t0,
            slope,
            len: n,
            ceil: self.line.bound_from(n),
        };
    }

    /// Records that the first `n` ticks were just set to values none of
    /// which exceeds `high`.
    pub(crate) fn wrote_below(&mut self, n: usize, high: i64) {
        self.line = Line::ceiling(self.line.bound_from(n).max(high));
    }

    /// Records that some ticks were just raised to values none of which
    /// exceeds `high`.
    pub(crate) fn raised(&mut self, high: i64) {
        let old = self.line.max_of(self.line.len).unwrap_or(i64::MIN);
        self.line = Line::ceiling(old.max(self.line.ceil).max(high));
    }

    /// Reads the summary off the ticks again, after something other than
    /// these methods (fast-forward's translation) moved them.
    pub(crate) fn resummarize(&mut self) {
        self.line = Line::of(&self.ticks);
    }

    /// Whether the summary is exact: the line matches its ticks and no
    /// later tick exceeds the ceiling.
    #[cfg(test)]
    pub(crate) fn summary_holds(&self) -> bool {
        let (line, rest) = self.ticks.split_at(self.line.len);
        let mut want = self.line.t0;
        let mut holds = true;
        for &t in line {
            holds &= t == want;
            want += self.line.slope;
        }
        for &t in rest {
            holds &= t <= self.line.ceil;
        }
        holds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterProbe, Machine, SimConfig};
    use c240_isa::asm::assemble;
    use c240_isa::MachineDescription;
    use c240_mem::ContentionConfig;
    use lfk_suite::LfkKernel;

    /// A row of `ticks` with its summary read off it.
    fn row(ticks: impl Fn(usize) -> i64) -> TimingRow {
        let mut r = TimingRow::ZERO;
        for (e, t) in r.ticks.iter_mut().enumerate() {
            *t = ticks(e);
        }
        r.resummarize();
        r
    }

    /// Every writer against the dense reference, on rows that are lines,
    /// short lines under a ceiling, and broken rows, each summarized as
    /// well as its ticks allow and by a bare ceiling.
    #[test]
    fn writers_keep_the_summary_exact() {
        let rows = [
            row(|_| 0),
            row(|e| 100 + 20 * e as i64),
            row(|e| if e < 40 { 500 + 27 * e as i64 } else { 90 }),
            row(|e| if e < 40 { 20 * e as i64 } else { 5000 }),
            row(|e| (e as i64 * 37) % 101),
            row(|e| 3000 - 20 * e as i64),
        ];
        let bare = rows.iter().map(|r| {
            let mut bare = r.clone();
            bare.raised(i64::MIN);
            bare
        });
        for start in &rows.iter().cloned().chain(bare).collect::<Vec<_>>() {
            assert!(start.summary_holds());
            for n in [1, 2, 39, 40, 41, 64, VLEN] {
                for (t0, slope) in [(0, 0), (100, 20), (700, 20), (-50, 27), (4000, -20)] {
                    let new = |e: usize| t0 + e as i64 * slope;
                    let mut r = start.clone();
                    r.raise(n, t0, slope);
                    assert!(r.summary_holds(), "raise {n} {t0} {slope}: {r:?}");
                    for e in 0..VLEN {
                        let want = if e < n {
                            start.ticks[e].max(new(e))
                        } else {
                            start.ticks[e]
                        };
                        assert_eq!(r.ticks[e], want, "raise {n} {t0} {slope} at {e}");
                    }
                    let proved = start.below(n, t0, slope);
                    assert!(!proved || (0..n).all(|e| start.ticks[e] <= new(e)));
                    let mut r = start.clone();
                    r.fill(n, t0, slope);
                    assert!(r.summary_holds() && r.max(n) == (0..n).map(new).max().unwrap());
                    let entries: Vec<i64> = (0..n).map(|e| new(e) + (e as i64 % 3)).collect();
                    let mut r = start.clone();
                    r.raise_to(&entries);
                    assert!(r.summary_holds());
                    let mut r = start.clone();
                    r.write(&entries, 7);
                    assert!(r.summary_holds() && r.ticks[n - 1] == entries[n - 1] + 7);
                }
                assert_eq!(start.max(n), *start.ticks[..n].iter().max().unwrap());
            }
        }
        // The summary proves the common cases without the ticks.
        assert!(rows[0].below(VLEN, 0, 20));
        assert!(rows[2].below(VLEN, 1600, 27));
        assert!(!rows[3].below(VLEN, 0, 20));
    }

    /// An LFK kernel's state after its setup: its data words and its A
    /// and S registers. The suite sets up the library build of this
    /// crate, so the state is read back from a run of `halt` there and
    /// applied to CPUs here.
    struct SetupImage {
        data: Vec<f64>,
        a: [i64; 8],
        s: [f64; 8],
    }

    impl SetupImage {
        fn of(kernel: &dyn LfkKernel) -> SetupImage {
            let halt = assemble("halt").expect("a lone halt");
            let (_, machine) = macs_core::measure(
                &Default::default(),
                |cpu| kernel.setup(cpu),
                &halt,
                1,
                1,
                &mut [c240_obs::NoProbe],
            )
            .expect("halt runs");
            let cpu = machine.cpu(0);
            let mut data = vec![0.0; kernel.footprint_words() as usize];
            assert!(cpu.mem().read_run(0, &mut data));
            SetupImage {
                data,
                a: std::array::from_fn(|i| cpu.areg(i as u8)),
                s: std::array::from_fn(|i| cpu.sreg_fp(i as u8)),
            }
        }

        fn apply(&self, cpu: &mut crate::Cpu) {
            cpu.mem_mut().store_run(0, &self.data);
            for i in 0..8 {
                cpu.set_areg(i, self.a[usize::from(i)]);
                cpu.set_sreg_fp(i, self.s[usize::from(i)]);
            }
        }
    }

    /// Runs every LFK kernel under each configuration, each CPU set up
    /// from its image, and returns how many runs there were, how many
    /// warps they made and how many long lines they left in CPU 0's ready
    /// rows. `Cpu::step_one` checks every row summary after each step
    /// that can move the rows.
    fn run_suite(configs: &[SimConfig]) -> (usize, u64, usize) {
        let kernels = lfk_suite::all();
        let images: Vec<SetupImage> = kernels.iter().map(|k| SetupImage::of(k.as_ref())).collect();
        let (mut runs, mut warps, mut long_lines) = (0, 0, 0);
        for cfg in configs {
            cfg.validate().expect("a valid configuration");
            for (kernel, image) in kernels.iter().zip(&images) {
                let mut machine = Machine::new(cfg.clone());
                for i in 0..machine.cpus() {
                    image.apply(machine.cpu_mut(i));
                }
                let passes = if cfg.cpus > 1 { 1 } else { kernel.passes() };
                let program = kernel.program_with_passes(passes);
                let mut probes = vec![CounterProbe::new(); machine.cpus()];
                machine
                    .run_probed(&vec![&program; machine.cpus()], &mut probes)
                    .expect("the kernel runs");
                let cpu = machine.cpu(0);
                runs += 1;
                warps += cpu.ff_stats().warps;
                long_lines += cpu.ready_rows().iter().filter(|r| r.line.len >= 64).count();
            }
        }
        (runs, warps, long_lines)
    }

    /// The five ablations of the standard grid applied to `machine`.
    fn ablated(machine: &MachineDescription) -> Vec<SimConfig> {
        (0..5)
            .map(|ablation| {
                let mut m = machine.clone();
                match ablation {
                    1 => m.chaining = false,
                    2 => m.timing = m.timing.without_bubbles(),
                    3 => m.refresh_enabled = false,
                    4 => m.pair_constraint = false,
                    _ => {}
                }
                SimConfig::for_machine(&m)
            })
            .collect()
    }

    /// Every row summary matches its ticks after every step for the LFK
    /// suite on every preset under each ablation, fast-forward on. The
    /// runs must warp and leave long lines behind, so the check is not
    /// vacuous.
    #[test]
    fn summaries_match_their_rows_on_every_preset() {
        let configs: Vec<SimConfig> = MachineDescription::presets()
            .iter()
            .flat_map(ablated)
            .collect();
        let (runs, warps, long_lines) = run_suite(&configs);
        assert!(
            runs == 150 && warps > 100 && long_lines > runs,
            "{runs} runs, {warps} warps, {long_lines} long lines"
        );
    }

    /// The same on the C-240 under `mixed:3` contention and on two
    /// co-simulated CPUs, each ablated.
    #[test]
    fn summaries_match_their_rows_under_contention_and_cosim() {
        let configs: Vec<SimConfig> = ablated(&MachineDescription::c240())
            .into_iter()
            .flat_map(|idle| {
                let mixed = SimConfig {
                    contention: ContentionConfig::mixed(3),
                    ..idle.clone()
                };
                [mixed, idle.with_cpus(2)]
            })
            .collect();
        let (runs, _, long_lines) = run_suite(&configs);
        assert!(
            runs == 100 && long_lines > runs,
            "{runs} runs, {long_lines} long lines"
        );
    }
}
