//! Background memory traffic from the other three CPUs (and the I/O port).
//!
//! The paper's rules of thumb (§4.2): four *different* programs running
//! simultaneously cost ~20% through memory contention; four processes of
//! the *same* executable fall into lockstep and cost only 5–10%; an
//! otherwise idle machine approaches the 40 ns/access peak.
//!
//! We model each background processor as a deterministic
//! [`ContentionStream`]: a strided reference stream that claims each bank
//! it touches for one bank-cycle. The measured CPU's accesses must find a
//! grant slot that no stream claims. Streams are deterministic so
//! simulations are exactly reproducible, and their joint claims repeat
//! with the [pattern period](ContentionConfig::pattern_period): the
//! memory system lists them once, bank by bank, in a [`ClaimTable`] that
//! both the grant search and the saturation check read.

use c240_isa::timing::TICKS_PER_CYCLE;

use crate::{gcd, period_offset, rotation, MemConfigError, MAX_CONTENTION_CLAIMS};

/// One background processor's memory reference stream.
///
/// At cycle `c` the stream touches bank `(phase + c·stride) mod banks`.
/// The `duty` fraction thins the stream: counting from cycle 0, its
/// `k`-th visit to any one bank claims that bank for the bank busy time
/// when `k mod duty_den < duty_num`. Any stride works; one sharing a
/// factor with `banks` visits fewer banks, each more often.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionStream {
    /// Word stride of the background stream.
    pub stride: u64,
    /// Starting phase in cycles.
    pub phase: u64,
    /// Numerator of the active-duty fraction.
    pub duty_num: u32,
    /// Denominator of the active-duty fraction.
    pub duty_den: u32,
}

impl ContentionStream {
    /// A full-rate unit-stride stream at the given phase — what a
    /// well-vectorized neighbor process generates.
    pub fn unit(phase: u64) -> Self {
        ContentionStream {
            stride: 1,
            phase,
            duty_num: 1,
            duty_den: 1,
        }
    }
}

/// A set of background streams — the machine's load situation. Plain
/// data: [`ContentionConfig::validate`] checks a hand-built stream list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContentionConfig {
    /// The background reference streams.
    pub streams: Vec<ContentionStream>,
}

impl ContentionConfig {
    /// An idle machine: the other CPUs make no memory references.
    pub fn idle() -> Self {
        ContentionConfig::default()
    }

    /// `n` copies of the same executable running beside us (the paper's
    /// 5–10% case): unit-stride streams at staggered phases fall into
    /// lockstep with a unit-stride measured stream and cost nothing; a
    /// single slowly-rotating desync stream models the occasional drift
    /// (branches, strip boundaries) that keeps real processes from
    /// perfect alignment. Calibrated to ≈ 1.08× per access.
    pub fn lockstep(n: usize) -> Self {
        if n == 0 {
            return ContentionConfig::idle();
        }
        let mut streams: Vec<ContentionStream> = (0..n.saturating_sub(1) as u64)
            .map(|i| ContentionStream::unit(9 + 8 * i))
            .collect();
        streams.push(ContentionStream {
            stride: 3,
            phase: 4,
            duty_num: 1,
            duty_den: 12,
        });
        ContentionConfig { streams }
    }

    /// `n` unrelated programs running beside us (the paper's ~20% case):
    /// incommensurate odd strides collide irregularly with any measured
    /// stream. Duty 1/3 — real neighbors also compute between references.
    /// Calibrated to ≈ 1.5× per access, matching the paper's observation
    /// that typical contention stretches an access from 40 ns to
    /// 56–64 ns (§4.2).
    pub fn mixed(n: usize) -> Self {
        let strides = [3u64, 7, 11, 13, 5, 9];
        ContentionConfig {
            streams: (0..n)
                .map(|i| ContentionStream {
                    stride: strides[i % strides.len()],
                    phase: 5 * (i as u64 + 1),
                    duty_num: 1,
                    duty_den: 3,
                })
                .collect(),
        }
    }

    /// Whether any stream is configured.
    pub fn is_idle(&self) -> bool {
        self.streams.is_empty()
    }

    /// The period, in cycles, after which the joint claim pattern of all
    /// streams repeats: each stream's bank sequence repeats within
    /// `banks` cycles and its duty gate every `duty_den` visits, so the
    /// combined pattern is periodic in `lcm(banks · duty_den)`. Returns 1
    /// for an idle machine, and saturates at `u64::MAX`, far past any
    /// valid configuration. Used by the simulator's fast-forward detector
    /// to require matching contention phase between periodic states.
    pub fn pattern_period(&self, banks: u32) -> u64 {
        self.streams.iter().fold(1u64, |acc, s| {
            let p = u64::from(banks) * u64::from(s.duty_den);
            (acc / gcd(acc, p)).saturating_mul(p)
        })
    }

    /// The [`ClaimTable`] of these streams on `banks` banks, each claim
    /// `len` ticks long. A stream visits each of its banks once per
    /// rotation, so its bank sequence is stepped cycle by cycle over one
    /// rotation, and each bank's later visits pass the duty gate.
    ///
    /// # Errors
    ///
    /// [`MemConfigError::ContentionTableTooLarge`] past
    /// [`MAX_CONTENTION_CLAIMS`] claims, or 2^32 cycles, per period.
    pub(crate) fn claims(&self, banks: u32, len: i64) -> Result<ClaimTable, MemConfigError> {
        let period = self.pattern_period(banks);
        let per_period =
            |s: &ContentionStream| period / u64::from(s.duty_den) * u64::from(s.duty_num);
        if period > u64::from(u32::MAX)
            || self.streams.iter().map(per_period).sum::<u64>() > MAX_CONTENTION_CLAIMS
        {
            return Err(MemConfigError::ContentionTableTooLarge);
        }
        let m = u64::from(banks);
        // An idle machine's table has no rows, so every look-up ends at once.
        let mut rows = vec![Vec::new(); if self.is_idle() { 0 } else { banks as usize }];
        for s in self.streams.iter().filter(|s| s.duty_num > 0) {
            let rotation = rotation(s.stride, banks);
            for c in 0..rotation {
                let bank = (s.phase % m + c * (s.stride % m)) % m;
                for first in (0..period / rotation).step_by(s.duty_den as usize) {
                    let visits = first..first + u64::from(s.duty_num);
                    rows[bank as usize].extend(visits.map(|k| (c + k * rotation) as u32));
                }
            }
        }
        rows.iter_mut().for_each(|row| row.sort_unstable());
        let period = period as i64 * TICKS_PER_CYCLE;
        Ok(ClaimTable { period, len, rows })
    }
}

/// Every background claim of one pattern period, bank by bank: the one
/// statement of where the streams claim. Claims repeat with the period,
/// never start before tick 0, and all last the bank busy time.
#[derive(Debug, Clone)]
pub(crate) struct ClaimTable {
    /// The pattern period and the claim length, in ticks; both are
    /// whole cycles.
    period: i64,
    len: i64,
    /// Each bank's claim start cycles within the period, sorted.
    rows: Vec<Vec<u32>>,
}

impl ClaimTable {
    /// Whether the table holds any bank's claims (none on an idle
    /// machine).
    pub(crate) fn has_rows(&self) -> bool {
        !self.rows.is_empty()
    }

    /// The end tick of the claim blocking a grant to `bank` during the
    /// cycle from tick `t` (not negative), if any: the claim with the
    /// latest start by that cycle's last tick, if it still runs at `t`.
    /// No earlier claim ends later. `start` is the caller's cursor into
    /// the period (see [`period_offset`]; 0 is always a valid start).
    #[inline]
    pub(crate) fn blocking_end(&self, bank: usize, t: i64, start: &mut i64) -> Option<i64> {
        let row = self.rows.get(bank)?;
        let into = period_offset(t + TICKS_PER_CYCLE - 1, self.period, start);
        let v = match row.partition_point(|&c| i64::from(c) * TICKS_PER_CYCLE <= into) {
            0 => *start - self.period + i64::from(*row.last()?) * TICKS_PER_CYCLE,
            i => *start + i64::from(row[i - 1]) * TICKS_PER_CYCLE,
        };
        let end = v + self.len;
        (v >= 0 && end > t).then_some(end)
    }

    /// The first bank on which a grant search can run forever once the
    /// pattern repeats, with refresh windows of `len` cycles every
    /// `period` cycles when `refresh` is `Some((period, len))`.
    ///
    /// A search blocked by a claim moves to the claim's end, which steps
    /// over no claim-free cycle. A search blocked by refresh waits a
    /// whole window from where it was blocked (§3.2), which can step over
    /// a claim-free cycle fewer than `2·len − 1` cycles into a refresh
    /// period. So a bank with a claim-free cycle past that point is not
    /// saturated, which the row's cyclic gaps show; any other bank is
    /// decided by following the searches ([`ClaimTable::search_loops`]).
    pub(crate) fn saturated_bank(&self, refresh: Option<(u64, u64)>) -> Option<u32> {
        let period = self.period / TICKS_PER_CYCLE;
        let busy = self.len / TICKS_PER_CYCLE;
        let (rp, rl) = refresh.map_or((1, 0), |(p, len)| (p as i64, len as i64));
        // The first refresh offset no refresh wait steps over. A
        // claim-free run of `n` cycles from cycle `a` recurs every pattern
        // period at each refresh offset congruent to `a` modulo `g`, and
        // the largest of them decides whether the run reaches it.
        let lo = 2 * rl - 1;
        let g = gcd(period as u64, rp as u64) as i64;
        let reaches = |a: i64, n: i64| lo < rp && rp - g + a % g + n > lo;
        let saturated = |bank: usize| {
            let row = &self.rows[bank];
            let next = row.iter().skip(1).map(|&c| i64::from(c));
            let wrap = row.first().map(|&c| i64::from(c) + period);
            let mut runs = row.iter().zip(next.chain(wrap)).map(|(&c, next)| {
                let free = i64::from(c) + busy;
                (free, next - free)
            });
            !row.is_empty()
                && !runs.any(|(a, n)| n > 0 && reaches(a, n))
                && self.search_loops(bank, rp, rl)
        };
        (0..self.rows.len())
            .find(|&bank| saturated(bank))
            .map(|bank| bank as u32)
    }

    /// Whether a grant search on `bank`, with refresh windows of `rl`
    /// cycles every `rp` cycles, can run forever. After its first move a
    /// search is at a claim end; from there it waits out any refresh
    /// window, then grants at a claim-free cycle or moves to the end of
    /// the claim blocking it. Over one period of both patterns that is a
    /// map from claim ends to claim ends, and a search runs forever
    /// exactly when the map has a cycle. Past [`MAX_CONTENTION_CLAIMS`]
    /// claim ends the answer is yes, unexamined.
    fn search_loops(&self, bank: usize, rp: i64, rl: i64) -> bool {
        let period = self.period / TICKS_PER_CYCLE;
        let reps = rp / gcd(period as u64, rp as u64) as i64;
        let row = &self.rows[bank];
        if (row.len() as u64).saturating_mul(reps as u64) > MAX_CONTENTION_CLAIMS {
            return true;
        }
        let (span, busy) = (period * reps, self.len / TICKS_PER_CYCLE);
        let mut ends: Vec<i64> = (0..reps)
            .flat_map(|j| {
                row.iter()
                    .map(move |&c| (i64::from(c) + busy + j * period) % span)
            })
            .collect();
        ends.sort_unstable();
        ends.dedup();
        // The claim end a search at cycle `x` moves to, unless it grants,
        // asked one span on, where every claim has started.
        let step = |x: i64| {
            let mut x = x + span;
            while x % rp < rl {
                x += rl;
            }
            let end = self.blocking_end(bank, x * TICKS_PER_CYCLE, &mut 0)?;
            let end = end / TICKS_PER_CYCLE % span;
            Some(
                ends.binary_search(&end)
                    .expect("a claim ends at a claim end"),
            )
        };
        // Walk from each end not yet seen, marking the ends with the walk
        // that reached them first: meeting this walk's own mark again is
        // a cycle, and an earlier walk's mark leads on to a grant.
        let mut mark = vec![0; ends.len()];
        for first in 0..ends.len() {
            let mut i = first;
            while mark[i] == 0 {
                mark[i] = first + 1;
                match step(ends[i]) {
                    Some(j) if mark[j] == first + 1 => return true,
                    Some(j) => i = j,
                    None => break,
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    const T: i64 = TICKS_PER_CYCLE;

    fn table(cfg: &ContentionConfig, banks: u32, bank_busy: i64) -> ClaimTable {
        cfg.claims(banks, bank_busy * T).expect("table fits")
    }

    /// The table's verdict for a grant at `t`, asked with a fresh cursor.
    fn end(table: &ClaimTable, bank: usize, t: i64) -> Option<i64> {
        table.blocking_end(bank, t, &mut 0)
    }

    #[test]
    fn unit_stream_claims_each_bank_once_per_rotation() {
        let cfg = ContentionConfig {
            streams: vec![ContentionStream::unit(0)],
        };
        let s = table(&cfg, 32, 8);
        // Bank 5 is visited at cycles 5, 37, 69, ... each claim lasting 8.
        assert_eq!(end(&s, 5, 5 * T), Some(13 * T));
        assert_eq!(end(&s, 5, 13 * T - 2), Some(13 * T));
        assert_eq!(end(&s, 5, 13 * T), None);
        assert_eq!(end(&s, 5, 37 * T), Some(45 * T));
        // Just before the claim the window [t, t+1) does not yet overlap.
        assert_eq!(end(&s, 5, 4 * T - 2), None);
        assert_eq!(end(&s, 5, 4 * T + 10), Some(13 * T));
    }

    #[test]
    fn duty_thins_claims() {
        let half = ContentionStream {
            duty_num: 1,
            duty_den: 2,
            ..ContentionStream::unit(0)
        };
        let cfg = ContentionConfig {
            streams: vec![half],
        };
        let s = table(&cfg, 32, 8);
        // Visits to bank 0 at cycles 0, 32, 64, ...; only even visit
        // indices claim.
        assert!(end(&s, 0, 0).is_some());
        assert!(end(&s, 0, 32 * T).is_none());
        assert!(end(&s, 0, 64 * T).is_some());
    }

    #[test]
    fn presets() {
        assert!(ContentionConfig::idle().is_idle());
        assert_eq!(ContentionConfig::lockstep(3).streams.len(), 3);
        assert_eq!(ContentionConfig::mixed(3).streams.len(), 3);
        for s in ContentionConfig::mixed(6).streams {
            assert_eq!(s.stride % 2, 1);
        }
        let idle = ContentionConfig::idle().claims(32, 8 * T).unwrap();
        assert!(idle.rows.is_empty() && end(&idle, 0, 0).is_none());
        // The largest wire configuration, `lockstep:15` on the most banks.
        let largest = table(&ContentionConfig::lockstep(15), crate::MAX_BANKS, 8);
        assert_eq!(largest.rows.iter().map(Vec::len).sum::<usize>(), 692_224);
    }

    #[test]
    fn config_blocking_takes_max() {
        let cfg = ContentionConfig {
            streams: vec![ContentionStream::unit(0), ContentionStream::unit(1)],
        };
        // Bank 5: stream A claims [5,13), stream B claims [4,12).
        assert_eq!(end(&table(&cfg, 32, 8), 5, 5 * T), Some(13 * T));
    }

    /// Every claim start of `cfg` before cycle `cycles`, bank by bank, in
    /// cycles: the model's definition stepped from cycle 0, with no
    /// rotation, period or table.
    fn enumerate(cfg: &ContentionConfig, banks: u32, cycles: u64) -> Vec<Vec<i64>> {
        let m = u64::from(banks);
        let mut claims = vec![Vec::new(); banks as usize];
        for s in &cfg.streams {
            let mut visits = vec![0u64; banks as usize];
            for c in 0..cycles {
                let bank = ((s.phase % m + c % m * (s.stride % m)) % m) as usize;
                if visits[bank] % u64::from(s.duty_den) < u64::from(s.duty_num) {
                    claims[bank].push(c as i64);
                }
                visits[bank] += 1;
            }
        }
        for row in &mut claims {
            row.sort_unstable();
        }
        claims
    }

    /// The latest end of any claim overlapping the grant cycle
    /// `[t, t + 1 cycle)`.
    fn brute_end(claims: &[i64], t: i64, len: i64) -> Option<i64> {
        let started = claims.iter().map(|&c| c * T).take_while(|&v| v < t + T);
        let overlapping = started.filter(|&v| v + len > t);
        overlapping.map(|v| v + len).max()
    }

    /// Whether the claims, each `busy` cycles long, cover every cycle of
    /// `[from, from + period)`.
    fn brute_covered(claims: &[i64], from: i64, period: i64, busy: i64) -> bool {
        let mut covered_to = from;
        for &c in claims {
            if c > covered_to {
                break;
            }
            covered_to = covered_to.max(c + busy);
        }
        covered_to >= from + period
    }

    /// The table agrees with brute-force claim enumeration from tick 0 on
    /// every bank count 1..=64 and bank busy time 1..=16, for the lockstep
    /// and mixed presets and hand-built streams with even and zero
    /// strides, huge phases and strides, and thinned duties (zero
    /// included): at ticks on and off the cycle grid around rotation and
    /// period boundaries, asked with a fresh cursor and with one cursor
    /// carried up and down the ticks, and in which bank, if any, it calls
    /// saturated.
    #[test]
    fn table_matches_brute_force_enumeration() {
        let stream = |stride, phase, duty_num, duty_den| ContentionStream {
            stride,
            phase,
            duty_num,
            duty_den,
        };
        let custom = |streams: &[ContentionStream]| ContentionConfig {
            streams: streams.to_vec(),
        };
        let configs = [
            ContentionConfig::lockstep(1),
            ContentionConfig::lockstep(3),
            ContentionConfig::mixed(1),
            ContentionConfig::mixed(3),
            custom(&[stream(2, 1, 1, 1), stream(6, 0, 1, 2)]),
            custom(&[stream(0, 3, 1, 4), stream(4, 2, 2, 3)]),
            custom(&[
                stream(5, u64::MAX - 6, 2, 3),
                stream(u64::MAX, u64::MAX, 1, 2),
            ]),
            custom(&[stream(1, 2, 3, 7), stream(9, 11, 0, 2), stream(3, 0, 2, 2)]),
        ];
        let (mut queries, mut blocked, mut saturated) = (0u64, 0u64, 0u64);
        for banks in 1..=64u32 {
            for cfg in &configs {
                let period = cfg.pattern_period(banks) as i64;
                let steady = period * (16 / period + 1);
                let limit = (steady + period).max(3 * period + i64::from(banks) + 2);
                let claims = enumerate(cfg, banks, limit as u64);
                let b = i64::from(banks);
                let mut ticks: Vec<i64> = [0, 1, b - 1, b, b + 1, 2 * b, 3 * b - 1]
                    .into_iter()
                    .chain((1..=3).flat_map(|k| [k * period - 1, k * period, k * period + 1]))
                    .flat_map(|c| [0, 1, T / 2, T - 1].map(|o| c * T + o))
                    .filter(|&t| t >= 0)
                    .collect();
                ticks.sort_unstable();
                for busy in 1..=16i64 {
                    let table = table(cfg, banks, busy);
                    for bank in [0, banks / 2, banks - 1].map(|b| b as usize) {
                        let wants: Vec<_> = ticks
                            .iter()
                            .map(|&t| brute_end(&claims[bank], t, busy * T))
                            .collect();
                        let mut cursor = 0;
                        let rising = ticks.iter().zip(&wants).map(|(&t, &want)| (t, want));
                        for (t, want) in rising.clone().chain(rising.rev()) {
                            let case =
                                || format!("{cfg:?} banks {banks} busy {busy} bank {bank} t {t}");
                            assert_eq!(end(&table, bank, t), want, "{}", case());
                            let carried = table.blocking_end(bank, t, &mut cursor);
                            assert_eq!(carried, want, "{}", case());
                            queries += 1;
                            blocked += u64::from(want.is_some());
                        }
                    }
                    let want = (0..banks)
                        .find(|&bank| brute_covered(&claims[bank as usize], steady, period, busy));
                    assert_eq!(
                        table.saturated_bank(None),
                        want,
                        "{cfg:?} banks {banks} busy {busy}"
                    );
                    saturated += u64::from(want.is_some());
                }
            }
        }
        assert!(
            blocked > queries / 4 && blocked < queries * 3 / 4 && saturated > 1000,
            "{queries} queries, {blocked} blocked, {saturated} saturated"
        );
    }
}
