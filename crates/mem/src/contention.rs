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
//! simulations are exactly reproducible.

use crate::TICKS_PER_CYCLE;

/// One background processor's memory reference stream.
///
/// At cycle `c` the stream (when active) touches bank
/// `(phase + c·stride) mod banks`, claiming it for the bank busy time.
/// `stride` must be odd so the stream visits every bank (and so claim
/// windows are computable in closed form). The `duty` fraction thins the
/// stream: only `duty_num` of every `duty_den` visits to a bank are
/// claimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionStream {
    /// Word stride of the background stream (must be odd).
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

    /// A thinned stream claiming `num/den` of its bank visits.
    ///
    /// # Panics
    ///
    /// Panics on fractions above 1 or a zero denominator (see
    /// [`ContentionStream::validate`]).
    pub fn with_duty(mut self, num: u32, den: u32) -> Self {
        self.duty_num = num;
        self.duty_den = den;
        self.validate().expect("duty must be a fraction <= 1");
        self
    }

    /// If this stream claims bank `bank` at any point during the
    /// one-cycle grant window starting at tick `t`, returns the end tick
    /// of the blocking claim.
    ///
    /// Claims start at cycles `c` with `(phase + c·stride) ≡ bank (mod
    /// banks)`, each lasting `claim_len` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is even — an even stride misses half the banks
    /// and breaks the closed-form claim solver, so it is rejected in
    /// release builds too (not just `debug_assert`), matching the check
    /// in [`ContentionConfig::with_stream`].
    pub fn blocking_claim_end(&self, bank: u32, banks: u32, t: i64, claim_len: i64) -> Option<i64> {
        assert!(self.stride % 2 == 1, "contention stride must be odd");
        let m = u64::from(banks);
        // Solve phase + c*stride ≡ bank (mod m) for c.
        let inv = mod_inverse(self.stride % m, m)?;
        let target = (u64::from(bank) + m - self.phase % m) % m;
        let c0 = (target * inv) % m;
        // Visits to `bank` start at cycles c0, c0+m, c0+2m, ...; in ticks:
        let (c0, m) = (c0 as i64 * TICKS_PER_CYCLE, m as i64 * TICKS_PER_CYCLE);
        // Any claim window [v, v+claim_len) intersecting the grant cycle
        // [t, t+1) blocks; only the visits around t can.
        let tt = t.max(0);
        let k = (tt - c0).div_euclid(m);
        for kk in [k - 1, k, k + 1] {
            if kk < 0 || !self.visit_active(kk as u64) {
                continue;
            }
            let v = c0 + kk * m;
            if v < tt + TICKS_PER_CYCLE && tt < v + claim_len {
                return Some(v + claim_len);
            }
        }
        None
    }

    fn visit_active(&self, visit_index: u64) -> bool {
        visit_index % u64::from(self.duty_den) < u64::from(self.duty_num)
    }
}

fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    // Extended Euclid; returns a^-1 mod m when gcd(a, m) == 1.
    let (mut old_r, mut r) = (a as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    if old_r != 1 {
        return None;
    }
    Some(old_s.rem_euclid(m as i128) as u64)
}

/// A set of background streams — the machine's load situation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContentionConfig {
    streams: Vec<ContentionStream>,
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

    /// Adds a custom stream.
    ///
    /// # Panics
    ///
    /// Panics on a stream [`ContentionStream::validate`] rejects, such
    /// as one with an even stride.
    pub fn with_stream(mut self, stream: ContentionStream) -> Self {
        stream.validate().expect("contention stride must be odd");
        self.streams.push(stream);
        self
    }

    /// The configured streams.
    pub fn streams(&self) -> &[ContentionStream] {
        &self.streams
    }

    /// Whether any stream is configured.
    pub fn is_idle(&self) -> bool {
        self.streams.is_empty()
    }

    /// The period, in cycles, after which the joint claim pattern of all
    /// streams repeats: each stream visits a given bank once per `banks`
    /// cycles and its duty gate repeats every `duty_den` visits, so the
    /// combined pattern is periodic in `lcm(banks · duty_den)`. Returns 1
    /// for an idle machine. Used by the simulator's fast-forward detector
    /// to require matching contention phase between periodic states.
    pub fn pattern_period(&self, banks: u32) -> u64 {
        self.streams.iter().fold(1u64, |acc, s| {
            let p = u64::from(banks) * u64::from(s.duty_den);
            acc / crate::gcd(acc, p) * p
        })
    }

    /// The end tick of the latest claim blocking a grant to `bank` at
    /// tick `t`, if any stream blocks it.
    #[inline]
    pub fn blocking_claim_end(&self, bank: u32, banks: u32, t: i64, claim_len: i64) -> Option<i64> {
        self.streams
            .iter()
            .filter_map(|s| s.blocking_claim_end(bank, banks, t, claim_len))
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    const T: i64 = TICKS_PER_CYCLE;

    #[test]
    fn mod_inverse_works() {
        assert_eq!(mod_inverse(3, 32), Some(11)); // 3*11 = 33 ≡ 1
        assert_eq!(mod_inverse(1, 32), Some(1));
        assert_eq!(mod_inverse(2, 32), None);
    }

    #[test]
    fn unit_stream_claims_each_bank_once_per_rotation() {
        let s = ContentionStream::unit(0);
        // Bank 5 is visited at cycles 5, 37, 69, ... each claim lasting 8.
        assert_eq!(s.blocking_claim_end(5, 32, 5 * T, 8 * T), Some(13 * T));
        assert_eq!(s.blocking_claim_end(5, 32, 13 * T - 2, 8 * T), Some(13 * T));
        assert_eq!(s.blocking_claim_end(5, 32, 13 * T, 8 * T), None);
        assert_eq!(s.blocking_claim_end(5, 32, 37 * T, 8 * T), Some(45 * T));
        // Just before the claim the window [t, t+1) does not yet overlap.
        assert_eq!(s.blocking_claim_end(5, 32, 4 * T - 2, 8 * T), None);
        assert_eq!(s.blocking_claim_end(5, 32, 4 * T + 10, 8 * T), Some(13 * T));
    }

    #[test]
    fn duty_thins_claims() {
        let s = ContentionStream::unit(0).with_duty(1, 2);
        // Visits to bank 0 at cycles 0, 32, 64, ...; only even visit
        // indices claim.
        assert!(s.blocking_claim_end(0, 32, 0, 8 * T).is_some());
        assert!(s.blocking_claim_end(0, 32, 32 * T, 8 * T).is_none());
        assert!(s.blocking_claim_end(0, 32, 64 * T, 8 * T).is_some());
    }

    #[test]
    fn presets() {
        assert!(ContentionConfig::idle().is_idle());
        assert_eq!(ContentionConfig::lockstep(3).streams().len(), 3);
        assert_eq!(ContentionConfig::mixed(3).streams().len(), 3);
        for s in ContentionConfig::mixed(6).streams() {
            assert_eq!(s.stride % 2, 1);
        }
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn bad_duty_rejected() {
        let _ = ContentionStream::unit(0).with_duty(5, 4);
    }

    #[test]
    #[should_panic(expected = "stride must be odd")]
    fn even_stride_rejected_by_config() {
        let _ = ContentionConfig::idle().with_stream(ContentionStream {
            stride: 2,
            phase: 0,
            duty_num: 1,
            duty_den: 1,
        });
    }

    #[test]
    #[should_panic(expected = "stride must be odd")]
    fn even_stride_rejected_at_claim_time_in_release_too() {
        // A hand-built (not `with_stream`-validated) stream must still be
        // rejected by the claim solver itself — as a hard assert, so
        // release builds cannot silently compute wrong claim windows.
        let s = ContentionStream {
            stride: 4,
            phase: 0,
            duty_num: 1,
            duty_den: 1,
        };
        let _ = s.blocking_claim_end(0, 32, 0, 8 * T);
    }

    #[test]
    fn config_blocking_takes_max() {
        let cfg = ContentionConfig::idle()
            .with_stream(ContentionStream::unit(0))
            .with_stream(ContentionStream::unit(1));
        // Bank 5: stream A claims [5,13), stream B claims [4,12).
        let end = cfg.blocking_claim_end(5, 32, 5 * T, 8 * T).unwrap();
        assert_eq!(end, 13 * T);
    }
}
