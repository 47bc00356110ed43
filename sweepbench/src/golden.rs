//! The golden reference: the simulated fields of every point the
//! workloads send, computed once in-process by `eval_point` with
//! fast-forward off and kept in `golden.txt` beside the benchmark.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use c240_obs::json::Json;
use c240_sim::SimConfig;
use macs_bench::{eval_point, PointClass};
use macs_core::supervise::RetryPolicy;

use crate::workload::{all_specs, Spec};

/// The row fields compared against the reference, in file order.
pub const FIELDS: [&str; 4] = ["cycles", "instructions", "cpl", "memory_wait_cpl"];

const GOLDEN_TXT: &str = include_str!("../golden.txt");

pub struct Golden(BTreeMap<String, [f64; 4]>);

impl Golden {
    /// The reference compiled into the benchmark.
    pub fn load() -> Golden {
        let mut rows = BTreeMap::new();
        for line in GOLDEN_TXT.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            let name = parts.next().expect("golden line has a name");
            let mut values = [0.0; 4];
            for v in &mut values {
                *v = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .expect("golden line has four numbers");
            }
            rows.insert(name.to_string(), values);
        }
        Golden(rows)
    }

    /// Checks a row's simulated fields against the reference of `spec`,
    /// bit for bit.
    pub fn check(&self, spec: &Spec, row: &Json) -> Result<(), String> {
        let name = spec.name();
        let want = self
            .0
            .get(&name)
            .ok_or_else(|| format!("{name}: no golden row"))?;
        if row.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("{name}: expected an ok row, got {row}"));
        }
        for (field, want) in FIELDS.iter().zip(want) {
            let got = row.get(field).and_then(Json::as_f64);
            if got.map(f64::to_bits) != Some(want.to_bits()) {
                return Err(format!("{name}: {field} is {got:?}, golden {want:?}"));
            }
        }
        Ok(())
    }
}

/// Recomputes the reference of every spec with fast-forward off and
/// renders the file.
pub fn regenerate() -> Result<String, String> {
    let mut specs: BTreeMap<String, Spec> = BTreeMap::new();
    for spec in all_specs() {
        specs.entry(spec.name()).or_insert(spec);
    }
    let specs: Vec<(String, Spec)> = specs.into_iter().collect();
    let rows = macs_core::parallel_map(specs, |(name, spec)| {
        let mut point = spec.point("golden");
        point.overrides.fast_forward = Some(false);
        let evaluated = eval_point(&point, &SimConfig::c240(), None, &RetryPolicy::default());
        if evaluated.class != PointClass::Ok {
            return Err(format!("{name}: {}", evaluated.row));
        }
        let mut line = name;
        for field in FIELDS {
            let v = evaluated.row.get(field).and_then(Json::as_f64);
            write!(line, " {:?}", v.ok_or(format!("row lacks {field}"))?)
                .expect("writing to a String cannot fail");
        }
        Ok(line)
    });
    let mut out = format!(
        "# name {} (exact simulation, fast-forward off)\n",
        FIELDS.join(" ")
    );
    for row in rows {
        out.push_str(&row?);
        out.push('\n');
    }
    Ok(out)
}
