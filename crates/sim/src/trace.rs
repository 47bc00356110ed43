//! Pipeline traces: per-instruction element timing, and the ASCII
//! timeline used to regenerate Figure 2 of the paper. A [`Trace`] is a
//! [`Probe`]: pass it to [`crate::Cpu::run_probed`].

use std::fmt;

use c240_isa::{timing, Pipe};
use c240_obs::{Lane, Probe};

/// One vector instruction's schedule in a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Instruction index in the program.
    pub pc: usize,
    /// Disassembled text.
    pub text: String,
    /// Pipe the instruction executed on.
    pub pipe: Pipe,
    /// Cycle the instruction began issuing.
    pub issue_start: f64,
    /// Cycle its first element entered the pipe.
    pub first_entry: f64,
    /// Cycle its last element entered the pipe.
    pub last_entry: f64,
    /// Cycle its first element result was available.
    pub first_result: f64,
    /// Cycle its last element result was available.
    pub last_result: f64,
    /// Vector length used.
    pub vl: u32,
}

impl TraceEvent {
    /// Total occupancy of the instruction, issue to last result.
    pub fn span(&self) -> f64 {
        self.last_result - self.issue_start
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>9.2} .. {:>9.2}] {:<10} issue@{:<9.2} enter@{:<9.2} {} (VL={})",
            self.first_entry,
            self.last_result,
            self.pipe,
            self.issue_start,
            self.first_entry,
            self.text,
            self.vl
        )
    }
}

/// A recorded pipeline trace: the probe that keeps every retired vector
/// instruction's schedule.
///
/// The trace stores at most `cap` events; later events are *counted* but
/// not stored, so tracing a long run costs bounded memory while
/// [`Trace::dropped`] reveals how much of the run the stored prefix
/// covers. It is not [`Probe::WARPABLE`]: a traced run is stepped
/// exactly, so no iteration's events are skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
    origin_ns: u64,
}

/// Events a default trace keeps. Each event stores the disassembled
/// text plus five timestamps, so the cap bounds a trace at a few MiB.
const DEFAULT_CAP: usize = 65_536;

impl Default for Trace {
    /// An empty trace capped at 65 536 events.
    fn default() -> Self {
        Trace::with_cap(DEFAULT_CAP)
    }
}

impl Trace {
    /// An empty trace that will keep at most `cap` events. Storage for
    /// the capped number of events is reserved up front (bounded at the
    /// default cap) so a traced hot loop never reallocates mid-run. Pass
    /// `usize::MAX` for an exhaustive trace of a long run, at the
    /// corresponding memory cost.
    pub fn with_cap(cap: usize) -> Self {
        Trace {
            events: Vec::with_capacity(cap.min(DEFAULT_CAP)),
            cap,
            dropped: 0,
            origin_ns: c240_obs::monotonic_ns(),
        }
    }

    /// The wall-clock anchor of this trace: nanoseconds on the process's
    /// shared monotonic clock (`c240_obs::monotonic_ns`) when the trace
    /// was created. Trace timestamps are in simulated cycles; this anchor
    /// lets a consumer place the run on the same timeline as the
    /// observability plane's wall-clock spans.
    pub fn origin_ns(&self) -> u64 {
        self.origin_ns
    }

    /// The recorded events, in issue order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that occurred past the cap and were not stored.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders an ASCII Gantt chart of the first `limit` events —
    /// the reproduction of Figure 2.
    ///
    /// Each row is one vector instruction; `#` marks cycles during which
    /// elements of the instruction are entering its pipe, `-` the latency
    /// tail until its last result. `scale` is cycles per character.
    pub fn gantt(&self, limit: usize, scale: f64) -> String {
        assert!(scale > 0.0, "scale must be positive");
        let mut out = String::new();
        let events = &self.events[..self.events.len().min(limit)];
        if events.is_empty() {
            return "(empty trace)\n".to_string();
        }
        let t0 = events
            .iter()
            .map(|e| e.issue_start)
            .fold(f64::INFINITY, f64::min);
        let t1 = events.iter().map(|e| e.last_result).fold(0.0, f64::max);
        let width = (((t1 - t0) / scale).ceil() as usize + 1).min(300);
        let col = |t: f64| (((t - t0) / scale) as usize).min(width - 1);
        out.push_str(&format!(
            "cycles {:.0}..{:.0}, {} cycles/char\n",
            t0, t1, scale
        ));
        for e in events {
            let mut row = vec![b' '; width];
            let entry_a = col(e.first_entry);
            let entry_b = col(e.last_entry);
            let result_b = col(e.last_result);
            for c in &mut row[entry_a..=entry_b] {
                *c = b'#';
            }
            for c in &mut row[entry_b + 1..=result_b.max(entry_b + 1).min(width - 1)] {
                *c = b'-';
            }
            let issue = col(e.issue_start);
            if row[issue] == b' ' {
                row[issue] = b'i';
            }
            out.push_str(&format!(
                "{:<22} |{}| {:>7.0}..{:<7.0}\n",
                truncate(&e.text, 22),
                String::from_utf8(row).expect("ascii row"),
                e.first_entry,
                e.last_result,
            ));
        }
        out
    }
}

impl Probe for Trace {
    fn vector(&mut self, pc: usize, lane: Lane, text: &dyn fmt::Display, vl: u32, ticks: [i64; 5]) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let [issue_start, first_entry, last_entry, first_result, last_result] =
            ticks.map(timing::cycles);
        self.events.push(TraceEvent {
            pc,
            text: text.to_string(),
            pipe: match lane {
                Lane::Ld => Pipe::LoadStore,
                Lane::Add => Pipe::Add,
                Lane::Mul => Pipe::Multiply,
                Lane::Scalar | Lane::ScalarMem => unreachable!("vector instruction on {lane}"),
            },
            issue_start,
            first_entry,
            last_entry,
            first_result,
            last_result,
            vl,
        });
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: i64 = timing::TICKS_PER_CYCLE;

    fn event(t: f64) -> TraceEvent {
        TraceEvent {
            pc: 0,
            text: "ld.l 0(a5),v0".into(),
            pipe: Pipe::LoadStore,
            issue_start: t,
            first_entry: t + 2.0,
            last_entry: t + 129.0,
            first_result: t + 12.0,
            last_result: t + 139.0,
            vl: 128,
        }
    }

    /// Retires [`event`]`(cycle)` through the probe hook.
    fn retire(trace: &mut Trace, cycle: i64) {
        let ticks = [0, 2, 129, 12, 139].map(|c| (cycle + c) * T);
        trace.vector(0, Lane::Ld, &"ld.l 0(a5),v0", 128, ticks);
    }

    #[test]
    fn span() {
        let e = event(0.0);
        assert_eq!(e.span(), 139.0);
    }

    #[test]
    fn gantt_renders() {
        let mut t = Trace::default();
        retire(&mut t, 0);
        retire(&mut t, 130);
        assert_eq!(t.events(), [event(0.0), event(130.0)]);
        let g = t.gantt(10, 4.0);
        assert!(g.contains("ld.l"));
        assert!(g.contains('#'));
        assert_eq!(g.lines().count(), 3);
    }

    #[test]
    fn empty_trace_gantt() {
        let t = Trace::default();
        assert!(t.gantt(10, 1.0).contains("empty"));
        assert!(t.is_empty());
    }

    #[test]
    fn cap_bounds_storage_and_counts_drops() {
        let mut t = Trace::with_cap(2);
        for i in 0..5 {
            retire(&mut t, i * 10);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.events()[0].issue_start, 0.0);
    }

    #[test]
    fn display_event() {
        let text = event(5.0).to_string();
        assert!(text.contains("ld.l"));
        assert!(text.contains("VL=128"));
    }
}
