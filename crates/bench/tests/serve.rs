//! Process-level tests of `macs-bench --serve`: the wire protocol, the
//! supervision behavior, checkpoint/resume across a `kill -9`, and the
//! bit-identity of served rows against the in-process evaluation path.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

use c240_obs::json::Json;
use c240_sim::SimConfig;
use macs_bench::eval_point;
use macs_core::supervise::RetryPolicy;
use macs_core::sweep::parse_point;

fn serve_cmd(extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_macs-bench"));
    cmd.arg("--serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    cmd
}

/// Runs the server over `input` and returns (parsed rows, summary).
fn serve_once(input: &str, extra: &[&str]) -> (Vec<Json>, Json) {
    let mut child = serve_cmd(extra).spawn().expect("server spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("requests written");
    let out = child.wait_with_output().expect("server exits");
    assert!(
        out.status.success(),
        "server must exit 0, got {:?}",
        out.status
    );
    let mut rows: Vec<Json> = String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad output line {l:?}: {e}")))
        .collect();
    let summary = rows.pop().expect("summary row present");
    assert_eq!(
        summary.get("schema").and_then(Json::as_str),
        Some("c240-sweep-summary/v1"),
        "last line is the summary"
    );
    (rows, summary)
}

fn field_str<'a>(row: &'a Json, key: &str) -> Option<&'a str> {
    row.get(key).and_then(Json::as_str)
}

fn field_num(row: &Json, key: &str) -> Option<f64> {
    row.get(key).and_then(Json::as_f64)
}

fn row_by_id<'a>(rows: &'a [Json], id: &str) -> &'a Json {
    rows.iter()
        .find(|r| field_str(r, "id") == Some(id))
        .unwrap_or_else(|| panic!("no row with id {id}"))
}

#[test]
fn empty_input_produces_only_the_summary() {
    let (rows, summary) = serve_once("", &[]);
    assert!(rows.is_empty());
    assert_eq!(field_num(&summary, "points"), Some(0.0));
}

#[test]
fn hostile_streams_become_error_rows_never_a_dead_server() {
    let input = concat!(
        "{\"id\":\"ok1\",\"kernel\":12}\n",
        "garbage that is not json\n",
        "{\"kernel\":1,\"surprise\":true}\n",
        "{\"id\":\"badcfg\",\"kernel\":1,\"config\":{\"banks\":0}}\n",
        "{\"id\":\"nokern\",\"kernel\":11}\n",
        "{\"id\":\"badpass\",\"kernel\":1,\"passes\":-3}\n",
        "[1,2,3]\n",
        "{\"id\":\"deep\",\"kernel\":1,\"config\":{\"cpus\":999}}\n",
    );
    let (rows, summary) = serve_once(input, &[]);
    assert_eq!(rows.len(), 8, "every line is answered");
    assert_eq!(field_num(&summary, "ok"), Some(1.0));
    assert_eq!(field_num(&summary, "invalid"), Some(7.0));
    assert_eq!(
        field_str(row_by_id(&rows, "badcfg"), "error_kind"),
        Some("invalid_config")
    );
    assert_eq!(
        field_str(row_by_id(&rows, "nokern"), "error_kind"),
        Some("unknown_kernel")
    );
    assert_eq!(
        field_str(row_by_id(&rows, "badpass"), "error_kind"),
        Some("invalid_passes")
    );
    assert_eq!(
        field_str(row_by_id(&rows, "deep"), "error_kind"),
        Some("invalid_config")
    );
    let protocol_rows = rows
        .iter()
        .filter(|r| field_str(r, "error_kind") == Some("protocol"))
        .count();
    assert_eq!(protocol_rows, 3, "garbage, unknown field, non-object");
}

#[test]
fn data_space_smaller_than_the_kernel_is_rejected_before_any_attempt() {
    let input = "{\"id\":\"tiny\",\"kernel\":1,\"config\":{\"words\":1024}}\n\
                 {\"id\":\"fits\",\"kernel\":1,\"config\":{\"words\":6529}}\n";
    let (rows, summary) = serve_once(input, &["--max-attempts", "3", "--backoff-ms", "1"]);
    let tiny = row_by_id(&rows, "tiny");
    assert_eq!(field_str(tiny, "error_kind"), Some("invalid_config"));
    assert_eq!(field_num(tiny, "attempts"), Some(0.0));
    assert_eq!(tiny.get("poisoned"), Some(&Json::Bool(false)));
    let message = field_str(tiny, "message").expect("error message");
    assert!(message.contains("6529 words"), "{message}");
    assert_eq!(field_str(row_by_id(&rows, "fits"), "status"), Some("ok"));
    assert_eq!(field_num(&summary, "invalid"), Some(1.0));
    assert_eq!(field_num(&summary, "panicked"), Some(0.0));
    assert_eq!(field_num(&summary, "retried"), Some(0.0));
}

#[test]
fn served_rows_are_bit_identical_to_in_process_evaluation() {
    let lines = [
        "{\"id\":\"base\",\"kernel\":1}",
        "{\"id\":\"nochain\",\"kernel\":1,\"config\":{\"chaining\":false}}",
        "{\"id\":\"k8\",\"kernel\":8,\"config\":{\"refresh\":false}}",
    ];
    let (rows, _) = serve_once(&(lines.join("\n") + "\n"), &[]);
    let base = SimConfig::c240();
    for line in lines {
        let point = parse_point(line).expect("test lines are valid");
        let direct = eval_point(&point, &base, None, &RetryPolicy::default());
        let served = row_by_id(&rows, &point.id);
        assert_eq!(
            served.to_string(),
            direct.row.to_string(),
            "transport must add nothing for {}",
            point.id
        );
    }
}

#[test]
fn served_cpl_matches_the_suite_analysis_path() {
    let (rows, _) = serve_once("{\"id\":\"lfk1\",\"kernel\":1}\n", &[]);
    let suite =
        macs_experiments::Suite::run_with(&SimConfig::c240(), &macs_core::ChimeConfig::c240());
    let t_p = suite.row(1).expect("LFK1 in suite").analysis.t_p_cpl();
    let served = field_num(row_by_id(&rows, "lfk1"), "cpl").expect("cpl present");
    assert_eq!(
        served, t_p,
        "server CPL must equal the in-process suite CPL"
    );
}

#[test]
fn panicking_point_is_retried_then_poisoned() {
    let input = "{\"id\":\"boom\",\"kernel\":1,\"inject\":\"panic\"}\n\
                 {\"id\":\"fine\",\"kernel\":12}\n";
    let (rows, summary) = serve_once(input, &["--max-attempts", "3", "--backoff-ms", "1"]);
    let boom = row_by_id(&rows, "boom");
    assert_eq!(field_str(boom, "error_kind"), Some("panic"));
    assert_eq!(field_num(boom, "attempts"), Some(3.0));
    assert_eq!(boom.get("poisoned"), Some(&Json::Bool(true)));
    let backoffs = boom
        .get("backoff_ms")
        .and_then(Json::as_arr)
        .expect("backoff metadata");
    assert_eq!(backoffs.len(), 2, "two failed retries → two backoffs");
    assert_eq!(field_str(row_by_id(&rows, "fine"), "status"), Some("ok"));
    assert_eq!(field_num(&summary, "panicked"), Some(1.0));
    assert_eq!(field_num(&summary, "retried"), Some(1.0));
}

#[test]
fn deadline_blows_become_timeout_rows() {
    let input =
        "{\"id\":\"slow\",\"kernel\":1,\"inject\":{\"sleep_ms\":5000},\"deadline_ms\":50}\n\
                 {\"id\":\"fast\",\"kernel\":12}\n";
    let (rows, summary) = serve_once(input, &["--max-attempts", "1"]);
    let slow = row_by_id(&rows, "slow");
    assert_eq!(field_str(slow, "error_kind"), Some("timeout"));
    assert_eq!(slow.get("poisoned"), Some(&Json::Bool(true)));
    assert_eq!(field_str(row_by_id(&rows, "fast"), "status"), Some("ok"));
    assert_eq!(field_num(&summary, "timed_out"), Some(1.0));
}

/// The headline robustness property: `kill -9` mid-sweep, then
/// `--resume` completes the grid with every valid point computed exactly
/// once and the already-computed rows re-emitted verbatim.
#[test]
fn kill_nine_mid_sweep_then_resume_completes_exactly_once() {
    let dir = std::env::temp_dir().join(format!("macs-serve-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("journal.ndjson");
    let journal_arg = journal.to_str().expect("utf-8 temp path");

    // A grid big enough that the kill lands mid-sweep.
    let grid: Vec<String> = lfk_suite::IDS
        .iter()
        .flat_map(|k| {
            [
                format!("{{\"id\":\"lfk{k}-base\",\"kernel\":{k}}}"),
                format!("{{\"id\":\"lfk{k}-nochain\",\"kernel\":{k},\"config\":{{\"chaining\":false}}}}"),
            ]
        })
        .collect();
    let input = grid.join("\n") + "\n";

    // Phase 1: serve on one worker (so rows complete serially), kill -9
    // after the second completed row.
    let mut child: Child = serve_cmd(&["--journal", journal_arg, "--workers", "1"])
        .spawn()
        .expect("server spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(input.as_bytes()).expect("grid written");
    // Keep stdin open: the kill must interrupt a *running* sweep.
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut completed = 0;
    for line in stdout.lines() {
        let line = line.expect("readable output");
        if !line.is_empty() {
            completed += 1;
        }
        if completed == 2 {
            break;
        }
    }
    child.kill().expect("kill -9");
    child.wait().expect("reaped");
    drop(stdin);

    let checkpointed = macs_core::sweep::Journal::load(&journal).expect("journal readable");
    assert!(
        !checkpointed.is_empty(),
        "some points were checkpointed before the kill"
    );
    assert!(
        checkpointed.len() < grid.len(),
        "the kill landed mid-sweep ({} of {} done)",
        checkpointed.len(),
        grid.len()
    );

    // Phase 2: resume over the same grid.
    let (rows, summary) = serve_once(&input, &["--journal", journal_arg, "--resume", journal_arg]);
    assert_eq!(rows.len(), grid.len(), "every point answered");
    assert_eq!(
        field_num(&summary, "ok").unwrap() + field_num(&summary, "resumed").unwrap(),
        grid.len() as f64,
        "all points ok or resumed: {summary}"
    );
    assert_eq!(
        field_num(&summary, "resumed"),
        Some(checkpointed.len() as f64),
        "exactly the checkpointed points were skipped"
    );
    // Resumed rows are the journaled rows verbatim.
    for (key, row) in &checkpointed {
        let emitted = rows
            .iter()
            .find(|r| field_str(r, "key") == Some(key))
            .expect("checkpointed row re-emitted");
        assert_eq!(emitted.to_string(), row.to_string());
    }
    // The final journal holds every point exactly once (dedupe check).
    let final_journal = macs_core::sweep::Journal::load(&journal).expect("journal readable");
    assert_eq!(final_journal.len(), grid.len());

    std::fs::remove_dir_all(&dir).ok();
}

/// A deterministic fuzz sweep: pseudo-random lines (valid points, hostile
/// configs, fault injections, garbage) must each produce exactly one row,
/// and the server must exit cleanly.
#[test]
fn fuzzed_streams_answer_every_line_and_exit_zero() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |bound: u64| {
        // xorshift64* — deterministic across runs and platforms.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
    };
    let mut lines: Vec<String> = Vec::new();
    for i in 0..40 {
        let line = match next(8) {
            0 => format!("{{\"id\":\"f{i}\",\"kernel\":{}}}", [1, 3, 12][next(3) as usize]),
            1 => format!("{{\"id\":\"f{i}\",\"kernel\":{}}}", next(20)),
            2 => format!(
                "{{\"id\":\"f{i}\",\"kernel\":12,\"config\":{{\"cpus\":{},\"banks\":{}}}}}",
                next(40),
                next(40)
            ),
            3 => format!("{{\"id\":\"f{i}\",\"kernel\":12,\"passes\":{}}}", next(7) as i64 - 3),
            4 => format!("{{\"id\":\"f{i}\",\"kernel\":1,\"inject\":\"panic\"}}"),
            5 => format!(
                "{{\"id\":\"f{i}\",\"kernel\":1,\"inject\":{{\"sleep_ms\":2000}},\"deadline_ms\":20}}"
            ),
            6 => format!("{{\"id\":\"f{i}\",\"nonsense\":{}}}", next(100)),
            _ => format!("f{i}: not even json {{"),
        };
        lines.push(line);
    }
    let input = lines.join("\n") + "\n";
    let (rows, summary) = serve_once(&input, &["--max-attempts", "1", "--deadline-ms", "3000"]);
    // Duplicates collapse identical semantic points, so rows count must
    // still equal the line count (duplicate rows are rows too).
    assert_eq!(rows.len(), lines.len(), "one row per input line");
    assert_eq!(field_num(&summary, "points"), Some(lines.len() as f64));
    for row in &rows {
        let status = field_str(row, "status").expect("every row has a status");
        assert!(
            matches!(status, "ok" | "error"),
            "unexpected status {status}"
        );
    }
}

#[test]
fn machine_presets_serve_with_distinct_keys_and_labels() {
    let input = concat!(
        "{\"id\":\"base\",\"kernel\":1}\n",
        "{\"id\":\"wide\",\"kernel\":1,\"machine\":\"c240-64b\"}\n",
        "{\"id\":\"dual\",\"kernel\":1,\"machine\":\"dual-port\"}\n",
        "{\"id\":\"ghost\",\"kernel\":1,\"machine\":\"c241\"}\n",
    );
    let (rows, summary) = serve_once(input, &[]);
    assert_eq!(rows.len(), 4, "every line is answered");
    assert_eq!(field_num(&summary, "ok"), Some(3.0));
    // Evaluated rows are labeled with the machine they ran on.
    assert_eq!(field_str(row_by_id(&rows, "base"), "machine"), Some("c240"));
    assert_eq!(
        field_str(row_by_id(&rows, "wide"), "machine"),
        Some("c240-64b")
    );
    assert_eq!(
        field_str(row_by_id(&rows, "dual"), "machine"),
        Some("dual-port")
    );
    // An unknown preset is a structured error row, never a dead server,
    // and the message names both the stranger and the known presets.
    let ghost = row_by_id(&rows, "ghost");
    assert_eq!(field_str(ghost, "status"), Some("error"));
    assert_eq!(field_str(ghost, "error_kind"), Some("unknown_machine"));
    let message = field_str(ghost, "message").expect("error rows carry a message");
    assert!(message.contains("c241") && message.contains("c240-64b"));
    // The valid preset names ride along as a structured field, so a
    // client can self-correct without parsing prose.
    let known: Vec<&str> = ghost
        .get("known_machines")
        .and_then(Json::as_arr)
        .expect("unknown_machine rows list the valid presets")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(known, c240_isa::PRESET_NAMES);
    // Same kernel on three machines: three distinct journal keys, so
    // per-machine results coexist in one journal without collisions.
    let keys: std::collections::HashSet<&str> = rows
        .iter()
        .filter(|r| field_str(r, "status") == Some("ok"))
        .map(|r| field_str(r, "key").expect("ok rows carry a key"))
        .collect();
    assert_eq!(keys.len(), 3, "machine name is part of the point key");
    // The 64-bank chassis runs the same kernel in fewer (or equal)
    // cycles than the stock C-240 — the machine field actually changes
    // the evaluated machine, not just the label.
    let base_cycles = field_num(row_by_id(&rows, "base"), "cycles").unwrap();
    let wide_cycles = field_num(row_by_id(&rows, "wide"), "cycles").unwrap();
    assert!(wide_cycles <= base_cycles, "{wide_cycles} vs {base_cycles}");
}

#[test]
fn roofline_flag_annotates_rows_and_its_absence_changes_nothing() {
    let input = concat!(
        "{\"id\":\"one\",\"kernel\":1}\n",
        "{\"id\":\"four\",\"kernel\":1,\"config\":{\"cpus\":4}}\n",
    );
    let (rows, _) = serve_once(input, &["--roofline"]);
    // A probed 1-CPU row carries the full provenance: analytic class,
    // measured stall-taxonomy class, and a cross-check verdict.
    let rf = row_by_id(&rows, "one")
        .get("roofline")
        .expect("--roofline annotates ok rows");
    assert_eq!(
        rf.get("schema").and_then(Json::as_str),
        Some(macs_core::ROOFLINE_SCHEMA)
    );
    assert_eq!(rf.get("verdict").and_then(Json::as_str), Some("agree"));
    assert_eq!(
        rf.get("bound_class").and_then(Json::as_str),
        rf.get("measured_class").and_then(Json::as_str),
        "agree means the two classifications match"
    );
    for key in ["intensity", "ridge", "peak_mflops", "attainable_mflops"] {
        assert!(
            rf.get(key).and_then(Json::as_f64).is_some(),
            "missing {key}"
        );
    }
    // Multi-CPU co-sim rows are not probed, so the verdict is honest
    // about it rather than inventing a measured class.
    let rf4 = row_by_id(&rows, "four")
        .get("roofline")
        .expect("co-sim rows are annotated too");
    assert_eq!(rf4.get("verdict").and_then(Json::as_str), Some("unchecked"));
    assert!(rf4.get("measured_class").is_none());
    // Without the flag the field is absent and rows stay bit-identical
    // to the in-process evaluation path (no opt-out drift).
    let (plain, _) = serve_once(input, &[]);
    for row in &plain {
        assert!(row.get("roofline").is_none(), "flagless rows are unchanged");
    }
    let point = parse_point("{\"id\":\"one\",\"kernel\":1}").expect("valid line");
    let direct = eval_point(&point, &SimConfig::c240(), None, &RetryPolicy::default());
    assert_eq!(row_by_id(&plain, "one").to_string(), direct.row.to_string());
}

/// Roofline annotations are pure functions of simulated quantities, so a
/// journaled row written with `--roofline` resumes verbatim — the
/// annotation never breaks checkpoint/resume bit-identity.
#[test]
fn roofline_rows_resume_verbatim_from_the_journal() {
    let dir = std::env::temp_dir().join(format!("macs-serve-roofline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("journal.ndjson");
    let journal_arg = journal.to_str().expect("utf-8 temp path");

    let input = "{\"id\":\"p\",\"kernel\":7}\n";
    let (first, _) = serve_once(input, &["--roofline", "--journal", journal_arg]);
    let (second, summary) = serve_once(
        input,
        &[
            "--roofline",
            "--journal",
            journal_arg,
            "--resume",
            journal_arg,
        ],
    );
    assert_eq!(field_num(&summary, "resumed"), Some(1.0));
    assert_eq!(
        row_by_id(&first, "p").to_string(),
        row_by_id(&second, "p").to_string(),
        "resumed roofline rows are byte-for-byte the journaled ones"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_machine_flag_sets_the_base_machine() {
    let input = "{\"id\":\"p\",\"kernel\":1}\n";
    let (rows, _) = serve_once(input, &["--machine", "c240-64b"]);
    assert_eq!(
        field_str(row_by_id(&rows, "p"), "machine"),
        Some("c240-64b")
    );
    // A bad preset name fails flag parsing up front (exit nonzero).
    let out = serve_cmd(&["--machine", "c241"])
        .spawn()
        .expect("server spawns")
        .wait_with_output()
        .expect("server exits");
    assert!(!out.status.success(), "unknown preset must not serve");
}
