//! End-to-end acceptance of the observability plane: a 12-point grid
//! through [`macs_bench::serve`] with [`macs_bench::ServeObs`] attached
//! must produce (a) a valid Chrome trace whose span tree is well-nested
//! with per-phase durations summing to ≤ their point, (b) Prometheus
//! counters that reconcile *exactly* with the end-of-stream
//! [`SweepOutcomes`] summary, (c) a `trace` provenance object on every
//! ok and error row, and (d) metrics snapshot rows in the journal.

use std::collections::BTreeMap;
use std::path::PathBuf;

use c240_obs::json::Json;
use c240_obs::METRICS_SCHEMA;
use macs_bench::{serve, ServeObs, ServeOptions};
use macs_core::supervise::RetryPolicy;

/// The smoke grid: nine healthy kernels (small pass counts for debug
/// builds), one invalid config, one unknown kernel, one slow point whose
/// watchdog fires long before its sleep ends (the sleeping attempt
/// thread outlives the sweep, so its span is never recorded — recorded
/// trees stay well-nested).
fn grid() -> String {
    let mut lines = String::new();
    for id in [1u32, 2, 3, 4, 6, 7, 8, 9, 10] {
        lines.push_str(&format!(
            "{{\"id\":\"k{id}\",\"kernel\":{id},\"passes\":4}}\n"
        ));
    }
    lines.push_str("{\"id\":\"badcfg\",\"kernel\":1,\"config\":{\"cpus\":0}}\n");
    lines.push_str("{\"id\":\"nokern\",\"kernel\":5}\n");
    lines.push_str(
        "{\"id\":\"slow\",\"kernel\":1,\"inject\":{\"sleep_ms\":60000},\"deadline_ms\":50}\n",
    );
    lines
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("macs-obs-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct SpanRow {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    dur_ns: u64,
}

fn parse_spans(ndjson: &str) -> Vec<SpanRow> {
    ndjson
        .lines()
        .map(|line| {
            let j = Json::parse(line).expect("span line is JSON");
            assert_eq!(
                j.get("schema").and_then(Json::as_str),
                Some(c240_obs::SPAN_SCHEMA)
            );
            let u = |k: &str| j.get(k).and_then(Json::as_u64).unwrap();
            SpanRow {
                id: u("id"),
                parent: u("parent"),
                name: j.get("name").and_then(Json::as_str).unwrap().to_string(),
                start_ns: u("start_ns"),
                dur_ns: u("dur_ns"),
            }
        })
        .collect()
}

/// `name value` sample lookup in a Prometheus text exposition.
fn sample(prom: &str, name: &str) -> Option<u64> {
    prom.lines()
        .find(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
}

#[test]
fn observed_sweep_produces_trace_metrics_and_provenance() {
    let dir = temp_dir("sweep");
    let trace_out = dir.join("trace.json");
    let spans_out = dir.join("spans.ndjson");
    let journal = dir.join("journal.ndjson");
    let obs = ServeObs {
        snapshot_every: 4,
        trace_out: Some(trace_out.clone()),
        spans_out: Some(spans_out.clone()),
        ..ServeObs::default()
    };
    let opts = ServeOptions {
        workers: 2,
        retry: RetryPolicy::once(),
        journal: Some(journal.clone()),
        obs: Some(obs.clone()),
        ..ServeOptions::default()
    };

    let mut out = Vec::new();
    let outcomes = serve(grid().as_bytes(), &mut out, &opts).expect("serve succeeds");
    assert_eq!(outcomes.ok, 9);
    assert_eq!(outcomes.invalid, 2);
    assert_eq!(outcomes.timed_out, 1);

    // (c) Every keyed row — ok and error alike — carries provenance:
    // a span id, phase durations, and for ok rows the ff stats.
    let rows: Vec<Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    let keyed: Vec<&Json> = rows.iter().filter(|r| r.get("key").is_some()).collect();
    assert_eq!(keyed.len(), 12);
    for row in &keyed {
        let id = row.get("id").and_then(Json::as_str).unwrap();
        let trace = row
            .get("trace")
            .unwrap_or_else(|| panic!("row {id} lacks trace provenance"));
        assert!(trace.get("span").and_then(Json::as_u64).unwrap() > 0);
        assert!(trace.get("validate_ns").and_then(Json::as_u64).is_some());
        assert!(trace.get("attempts").and_then(Json::as_u64).is_some());
        if row.get("status").and_then(Json::as_str) == Some("ok") {
            let ff = trace
                .get("ff")
                .unwrap_or_else(|| panic!("row {id} lacks ff stats"));
            assert!(ff.get("probes").and_then(Json::as_u64).is_some());
            assert!(trace.get("simulate_ns").and_then(Json::as_u64).is_some());
            assert!(trace.get("schedule_ns").and_then(Json::as_u64).is_some());
        }
    }

    // (b) Prometheus counters reconcile exactly with the summary.
    let prom = obs.metrics.render_prometheus();
    let outcome = |o: &str| sample(&prom, &format!("macs_points_total{{outcome=\"{o}\"}}"));
    assert_eq!(outcome("ok"), Some(outcomes.ok));
    assert_eq!(outcome("invalid"), Some(outcomes.invalid));
    assert_eq!(outcome("timed_out"), Some(outcomes.timed_out));
    assert_eq!(outcome("panicked"), None, "no panics, never registered");
    assert_eq!(
        sample(&prom, "macs_watchdog_fires_total"),
        Some(1),
        "the slow point's single attempt fired the watchdog once"
    );
    assert_eq!(sample(&prom, "macs_point_duration_ns_count"), Some(12));
    assert!(sample(&prom, "macs_ff_probes_total").unwrap_or(0) > 0);
    assert!(sample(&prom, "macs_busy_ticks_total").unwrap_or(0) > 0);
    assert!(prom.contains("# TYPE macs_points_total counter"));
    assert!(prom.contains("macs_point_duration_ns_bucket{le=\"+Inf\"} 12"));
    // Queue drained, no worker left busy.
    assert_eq!(sample(&prom, "macs_queue_depth"), Some(0));
    assert_eq!(sample(&prom, "macs_workers_busy"), Some(0));

    // (a) The span tree: one sweep root; every point under it; phases
    // under points, intervals nested, phase durations summing ≤ point.
    let spans = parse_spans(&std::fs::read_to_string(&spans_out).unwrap());
    let by_id: BTreeMap<u64, &SpanRow> = spans.iter().map(|s| (s.id, s)).collect();
    let sweep: Vec<&&SpanRow> = by_id.values().filter(|s| s.name == "sweep").collect();
    assert_eq!(sweep.len(), 1);
    let sweep_id = sweep[0].id;
    let points: Vec<&&SpanRow> = by_id.values().filter(|s| s.name == "point").collect();
    assert_eq!(points.len(), 12);
    let mut child_sum: BTreeMap<u64, u64> = BTreeMap::new();
    for span in &spans {
        match span.name.as_str() {
            "sweep" => assert_eq!(span.parent, 0),
            "point" | "parse" | "report" => assert_eq!(span.parent, sweep_id),
            "validate" | "schedule" | "simulate" => {
                let parent = by_id[&span.parent];
                assert_eq!(parent.name, "point");
                *child_sum.entry(parent.id).or_default() += span.dur_ns;
            }
            "attempt" => assert_eq!(by_id[&span.parent].name, "simulate"),
            other => panic!("unexpected span name {other:?}"),
        }
        if span.parent != 0 {
            let parent = by_id[&span.parent];
            assert!(
                span.start_ns >= parent.start_ns,
                "{} starts early",
                span.name
            );
            assert!(
                span.start_ns + span.dur_ns <= parent.start_ns + parent.dur_ns,
                "{} (id {}) ends after its parent {}",
                span.name,
                span.id,
                parent.name
            );
        }
    }
    for (point_id, sum) in &child_sum {
        assert!(
            *sum <= by_id[point_id].dur_ns,
            "phase durations exceed their point span"
        );
    }

    // The Chrome export is valid JSON with one complete event per span.
    let chrome = Json::parse(&std::fs::read_to_string(&trace_out).unwrap())
        .expect("chrome trace is valid JSON");
    let events = chrome.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), spans.len());
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(1));
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("dur").and_then(Json::as_f64).is_some());
        assert!(e.get("name").and_then(Json::as_str).is_some());
    }

    // (d) The journal interleaves metrics snapshots (12 rows at
    // snapshot_every=4 → at least 3 mid-stream + 1 final) that the
    // loader skips: a resume still sees exactly the 12 point rows.
    let journal_text = std::fs::read_to_string(&journal).unwrap();
    let snapshots = journal_text
        .lines()
        .filter(|l| {
            Json::parse(l)
                .ok()
                .and_then(|j| j.get("schema").and_then(Json::as_str).map(String::from))
                .as_deref()
                == Some(METRICS_SCHEMA)
        })
        .count();
    assert!(snapshots >= 4, "expected >= 4 snapshots, got {snapshots}");
    let loaded = macs_core::sweep::Journal::load(&journal).unwrap();
    assert_eq!(loaded.len(), 12);

    std::fs::remove_dir_all(&dir).ok();
}

/// With both planes on, the roofline annotations surface on the metrics
/// registry: a bound-class counter that reconciles with the served rows
/// and per-(machine, cpus) ceiling gauges.
#[test]
fn roofline_sweep_registers_bound_class_counter_and_ceiling_gauges() {
    let obs = ServeObs::default();
    let opts = ServeOptions {
        workers: 2,
        roofline: true,
        obs: Some(obs.clone()),
        ..ServeOptions::default()
    };
    let input = "{\"id\":\"k1\",\"kernel\":1,\"passes\":4}\n\
                 {\"id\":\"k7\",\"kernel\":7,\"passes\":4}\n";
    let mut out = Vec::new();
    serve(input.as_bytes(), &mut out, &opts).expect("serve succeeds");

    let rows: Vec<Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    let classes: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.get("roofline"))
        .map(|rf| rf.get("bound_class").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(classes.len(), 2, "both ok rows are annotated");

    let prom = obs.metrics.render_prometheus();
    let by_class = |c: &str| {
        sample(
            &prom,
            &format!("macs_points_by_bound_class{{class=\"{c}\"}}"),
        )
    };
    let counted = by_class("memory").unwrap_or(0) + by_class("compute").unwrap_or(0);
    assert_eq!(counted, 2, "the counter reconciles with the served rows");
    assert_eq!(
        sample(
            &prom,
            "macs_roofline_peak_mflops{machine=\"c240\",cpus=\"1\"}"
        ),
        Some(50),
        "the 1-CPU peak gauge carries the machine's 50 MFLOPS roof"
    );
    assert!(
        prom.contains("macs_roofline_bandwidth_milliwords_per_cycle{machine=\"c240\",cpus=\"1\"}"),
        "the bandwidth gauge is registered"
    );
}

/// The default (obs-less) path must not change: rows carry no `trace`
/// field and are bit-identical to the pre-observability wire format.
#[test]
fn rows_without_obs_carry_no_provenance() {
    let opts = ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    };
    let mut out = Vec::new();
    serve(
        "{\"id\":\"k12\",\"kernel\":12}\n".as_bytes(),
        &mut out,
        &opts,
    )
    .unwrap();
    let row = Json::parse(String::from_utf8(out).unwrap().lines().next().unwrap()).unwrap();
    assert_eq!(row.get("status").and_then(Json::as_str), Some("ok"));
    assert!(row.get("trace").is_none(), "no obs, no trace field");
}

/// A co-sim point is probed under `--metrics` like a 1-CPU point: its
/// CPUs' stall and busy ticks reach the registry.
#[test]
fn cosim_point_feeds_stall_counters() {
    let obs = ServeObs::default();
    let opts = ServeOptions {
        workers: 1,
        obs: Some(obs.clone()),
        ..ServeOptions::default()
    };
    let input = "{\"id\":\"k1x2\",\"kernel\":1,\"passes\":4,\"config\":{\"cpus\":2}}\n";
    let mut out = Vec::new();
    let outcomes = serve(input.as_bytes(), &mut out, &opts).expect("serve succeeds");
    assert_eq!(outcomes.ok, 1);

    let prom = obs.metrics.render_prometheus();
    let stall_ticks: u64 = prom
        .lines()
        .filter(|l| l.starts_with("macs_stall_ticks_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(stall_ticks > 0, "a 2-CPU point adds stall ticks:\n{prom}");
    assert!(sample(&prom, "macs_busy_ticks_total").unwrap_or(0) > 0);
}
