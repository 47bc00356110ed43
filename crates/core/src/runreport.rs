//! Structured run reports: the machine-readable artifact bundling one
//! kernel's measured statistics, stall attribution, pipe utilization,
//! and MACS bounds/gaps.
//!
//! The JSON layout is versioned by [`RUN_REPORT_SCHEMA`]; tooling that
//! compares runs across commits parses these reports, so field names
//! are stable — additions bump the schema suffix.

use c240_obs::json::Json;
use c240_sim::{Lane, StallCause};

use crate::analysis::KernelAnalysis;

/// Version tag embedded in every report.
pub const RUN_REPORT_SCHEMA: &str = "c240-run-report/v1";

/// One kernel's analysis packaged for serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Kernel number (0 for ad-hoc programs).
    pub id: u32,
    /// The full analysis the report serializes.
    pub analysis: KernelAnalysis,
}

impl RunReport {
    /// Packages `analysis` under kernel number `id`.
    pub fn new(id: u32, analysis: KernelAnalysis) -> Self {
        RunReport { id, analysis }
    }

    /// The complete report as a JSON value (see [`RUN_REPORT_SCHEMA`]).
    pub fn to_json(&self) -> Json {
        let a = &self.analysis;
        let stats = &a.measured.stats;
        let iters = a.measured.iterations;

        let counts = &stats.instructions;
        let instructions = Json::obj()
            .field("vector_mem", counts.vector_mem)
            .field("vector_fp", counts.vector_fp)
            .field("scalar_mem", counts.scalar_mem)
            .field("scalar", counts.scalar)
            .field("control", counts.control)
            .field("total", counts.total());

        let waits = stats.memory_waits;
        let memory = Json::obj()
            .field("accesses", stats.memory_accesses)
            .field("wait_cycles", stats.memory_wait_cycles)
            .field(
                "waits",
                Json::obj()
                    .field("bank_busy", waits.bank_busy)
                    .field("refresh", waits.refresh)
                    .field("contention", waits.contention),
            )
            .field("cache_hits", stats.cache_hits)
            .field("cache_misses", stats.cache_misses);

        let bounds = Json::obj()
            .field("t_ma_cpl", a.bounds.t_ma_cpl())
            .field("t_mac_cpl", a.bounds.t_mac_cpl())
            .field("t_macs_cpl", a.bounds.t_macs_cpl())
            .field("t_ma_cpf", a.bounds.t_ma_cpf())
            .field("t_mac_cpf", a.bounds.t_mac_cpf())
            .field("t_macs_cpf", a.bounds.t_macs_cpf())
            .field("pct_ma", a.pct_ma())
            .field("pct_mac", a.pct_mac())
            .field("pct_macs", a.pct_macs());

        let ax = Json::obj()
            .field("t_a_cpl", a.t_a_cpl())
            .field("t_x_cpl", a.t_x_cpl())
            .field("t_p_cpl", a.t_p_cpl())
            .field("overlap", a.ax_overlap());

        let mut lanes = Json::obj();
        for (lane, acct) in a.telemetry.lanes() {
            let mut stalls = Json::obj();
            for cause in StallCause::ALL {
                stalls = stalls.field(cause.key(), acct.stalls.get(cause));
            }
            lanes = lanes.field(
                lane.key(),
                Json::obj()
                    .field("busy", acct.busy)
                    .field("stalled", acct.stalls.total())
                    .field("idle", acct.idle)
                    .field("utilization", acct.utilization())
                    .field("stalls", stalls),
            );
        }

        let totals = a.telemetry.totals();
        let mut stall_totals = Json::obj();
        for cause in StallCause::ALL {
            stall_totals = stall_totals.field(cause.key(), totals.get(cause));
        }

        let hottest: Vec<Json> = a
            .telemetry
            .hottest_pcs(8)
            .into_iter()
            .map(|(pc, cycles)| Json::obj().field("pc", pc).field("stall_cycles", cycles))
            .collect();

        let findings: Vec<Json> = a
            .findings()
            .iter()
            .map(|f| Json::from(f.to_string()))
            .collect();

        Json::obj()
            .field("schema", RUN_REPORT_SCHEMA)
            .field(
                "kernel",
                Json::obj()
                    .field("id", self.id)
                    .field("name", a.bounds.name.as_str()),
            )
            .field(
                "run",
                Json::obj()
                    .field("cycles", stats.cycles)
                    .field("iterations", iters)
                    .field("cpl", a.t_p_cpl())
                    .field("cpf", a.t_p_cpf())
                    .field("mflops", a.measured.mflops())
                    .field("flops", stats.flops)
                    .field("branches_taken", stats.branches_taken)
                    .field("instructions", instructions),
            )
            .field("memory", memory)
            .field("bounds", bounds)
            .field("ax", ax)
            .field("lanes", lanes)
            .field("stall_totals", stall_totals)
            .field("stall_total_cycles", totals.total())
            .field("hottest_pcs", Json::Arr(hottest))
            .field("findings", Json::Arr(findings))
    }

    /// The lane accounts as CSV: one row per lane, a `busy`/`idle`
    /// column pair, then one column per stall cause.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("lane,busy,idle");
        for cause in StallCause::ALL {
            out.push(',');
            out.push_str(cause.key());
        }
        out.push('\n');
        for lane in Lane::ALL {
            let acct = self.analysis.telemetry.lane(lane);
            out.push_str(lane.key());
            out.push_str(&format!(",{},{}", acct.busy, acct.idle));
            for cause in StallCause::ALL {
                out.push_str(&format!(",{}", acct.stalls.get(cause)));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_kernel;
    use crate::chime::ChimeConfig;
    use c240_isa::asm::assemble;
    use c240_sim::SimConfig;
    use macs_compiler::MaWorkload;

    fn sample_report() -> RunReport {
        let p = assemble(
            "   mov #1280,s0
            L:
                mov s0,vl
                ld.l 0(a1),v0
                mul.d v0,s1,v1
                st.l v1,0(a2)
                add.w #1024,a1
                add.w #1024,a2
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L
                halt",
        )
        .unwrap();
        let analysis = analyze_kernel(
            "sample",
            MaWorkload {
                f_a: 0,
                f_m: 1,
                loads: 1,
                stores: 1,
            },
            &p,
            1280,
            &|cpu| {
                cpu.set_sreg_fp(1, 2.0);
                cpu.set_areg(2, 80000);
            },
            &SimConfig::c240(),
            &ChimeConfig::c240(),
        )
        .unwrap();
        RunReport::new(0, analysis)
    }

    #[test]
    fn json_has_schema_and_core_sections() {
        let report = sample_report();
        let json = report.to_json();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some(RUN_REPORT_SCHEMA)
        );
        for section in [
            "kernel",
            "run",
            "memory",
            "bounds",
            "ax",
            "lanes",
            "stall_totals",
            "hottest_pcs",
            "findings",
        ] {
            assert!(json.get(section).is_some(), "missing section {section}");
        }
        // Every lane and every cause key is present.
        let lanes = json.get("lanes").unwrap();
        for lane in Lane::ALL {
            let entry = lanes
                .get(lane.key())
                .unwrap_or_else(|| panic!("lane {lane}"));
            let stalls = entry.get("stalls").unwrap();
            for cause in StallCause::ALL {
                assert!(stalls.get(cause.key()).is_some(), "missing {cause}");
            }
        }
    }

    #[test]
    fn json_stall_sum_invariant() {
        let report = sample_report();
        let json = report.to_json();
        let cycles = json
            .get("run")
            .and_then(|r| r.get("cycles"))
            .and_then(Json::as_f64)
            .unwrap();
        // Per lane: busy + stalled + idle == cycles.
        let lanes = json.get("lanes").unwrap();
        for lane in Lane::ALL {
            let entry = lanes.get(lane.key()).unwrap();
            let busy = entry.get("busy").and_then(Json::as_f64).unwrap();
            let stalled = entry.get("stalled").and_then(Json::as_f64).unwrap();
            let idle = entry.get("idle").and_then(Json::as_f64).unwrap();
            assert!(
                (busy + stalled + idle - cycles).abs() < 1e-6 * cycles,
                "lane {lane}: {busy} + {stalled} + {idle} != {cycles}"
            );
        }
    }

    #[test]
    fn csv_has_header_and_all_lanes() {
        let report = sample_report();
        let csv = report.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("lane,busy,idle,bank_busy"));
        assert_eq!(lines.count(), Lane::COUNT);
    }
}
