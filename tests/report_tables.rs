//! The regenerated tables and figures themselves: structure, spot
//! values, and CSV well-formedness.

use std::sync::OnceLock;

use c240_sim::SimConfig;
use macs_experiments::{figures, tables, worked_example, Suite};

fn suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(Suite::run)
}

#[test]
fn table1_matches_spec_rows() {
    let t = tables::table1(&SimConfig::c240());
    assert_eq!(t.len(), 8);
    let text = t.render();
    for needle in ["vector load", "2.00", "4.00", "21.00", "1.35", "12.00"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn table2_shows_mac_deltas_only_where_they_differ() {
    let t = tables::table2(suite());
    assert_eq!(t.len(), 10);
    let csv = tables::table2(suite()).to_csv();
    let lfk3_row: Vec<&str> = csv
        .lines()
        .find(|l| l.starts_with("3,"))
        .expect("LFK3 row")
        .split(',')
        .collect();
    // LFK3 has no MAC inflation: every delta column is a dash.
    assert_eq!(&lfk3_row[5..9], &["-", "-", "-", "-"]);
    let lfk1_row: Vec<&str> = csv
        .lines()
        .find(|l| l.starts_with("1,"))
        .expect("LFK1 row")
        .split(',')
        .collect();
    assert_eq!(lfk1_row[7], "3"); // l' = 3 where l = 2
}

#[test]
fn table3_contains_the_paper_bound_grid() {
    let text = tables::table3(suite()).render();
    for needle in ["10.50", "11.55", "20.95", "6.26", "4.20"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn table4_footer_has_avg_and_mflops() {
    let t = tables::table4(suite());
    assert_eq!(t.len(), 12); // 10 kernels + AVG + MFLOPS
    let text = t.render();
    assert!(text.contains("AVG"));
    assert!(text.contains("MFLOPS"));
    assert!(text.contains("0.840"));
}

#[test]
fn table5_has_overlap_column() {
    let text = tables::table5(suite()).render();
    assert!(text.contains("overlap"));
    assert!(text.contains("t^f_MACS"));
}

#[test]
fn csv_outputs_are_rectangular() {
    for t in [
        tables::table1(&SimConfig::c240()),
        tables::table2(suite()),
        tables::table3(suite()),
        tables::table4(suite()),
        tables::table5(suite()),
    ] {
        let csv = t.to_csv();
        // Quote-aware field count (Table 1's format column contains
        // commas inside quoted cells).
        let fields = |line: &str| {
            let mut n = 1;
            let mut quoted = false;
            for c in line.chars() {
                match c {
                    '"' => quoted = !quoted,
                    ',' if !quoted => n += 1,
                    _ => {}
                }
            }
            n
        };
        let widths: Vec<usize> = csv.lines().map(fields).collect();
        assert!(!widths.is_empty());
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "ragged CSV for {}: {widths:?}",
            t.title()
        );
    }
}

#[test]
fn fig1_renders_every_kernel() {
    let text = figures::fig1(suite());
    for id in lfk_suite::IDS {
        assert!(text.contains(&format!("LFK{id}")), "missing LFK{id}");
    }
    assert!(text.contains("MERGE"));
    assert!(text.contains("MAX"));
}

#[test]
fn fig3_bars_render() {
    let bars = figures::fig3_bars(suite());
    assert!(bars.contains("LFK1"));
    assert!(bars.contains("CPF"));
}

#[test]
fn worked_example_text_is_complete() {
    let w = worked_example(&SimConfig::c240());
    let text = w.to_string();
    for needle in ["chime 1", "chime 4", "527", "537.54", "4.200", "0.840"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}
