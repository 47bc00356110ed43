//! End-to-end tests of the multi-tenant coordinator: bit-identity with
//! a lone server, cache hits, journal warm starts, exactly-once under
//! chaos kills, and graceful overload.

use std::io::Cursor;
use std::path::PathBuf;
use std::time::Duration;

use c240_obs::json::Json;
use macs_bench::{eval_point, ChaosSpec, CoordinateOptions, Coordinator, ServeObs, ServeOptions};
use macs_core::sweep::parse_point;
use macs_core::RetryPolicy;

/// The real `macs-bench` binary, which the coordinator spawns as its
/// workers.
fn worker_program() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_macs-bench"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "macs-coordinate-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn base_opts() -> CoordinateOptions {
    CoordinateOptions {
        fleet: 2,
        worker_program: Some(worker_program()),
        worker_args: vec!["--workers".into(), "2".into()],
        lease: Duration::from_secs(20),
        obs: Some(ServeObs::default()),
        ..CoordinateOptions::default()
    }
}

/// A grid of `n` unique, cheap points: the huge `deadline_ms` varies
/// the content-addressed key without changing the (never-hit) deadline
/// semantics or the simulated work.
fn grid(n: usize) -> String {
    (0..n)
        .map(|i| {
            format!(
                "{{\"id\":\"u{i}\",\"kernel\":12,\"passes\":1,\"deadline_ms\":{}}}\n",
                1_000_000 + i
            )
        })
        .collect()
}

fn run_client(coordinator: &Coordinator, input: &str) -> (Vec<Json>, c240_obs::SweepOutcomes) {
    let mut out = Vec::new();
    let outcomes = coordinator
        .client(Cursor::new(input.to_string()), &mut out)
        .expect("client stream succeeds");
    let rows = String::from_utf8(out)
        .expect("output is UTF-8")
        .lines()
        .map(|l| Json::parse(l).expect("every output line is JSON"))
        .collect();
    (rows, outcomes)
}

fn keyed_rows(rows: &[Json]) -> Vec<&Json> {
    rows.iter().filter(|r| r.get("key").is_some()).collect()
}

#[test]
fn coordinated_rows_are_bit_identical_to_direct_eval_and_cache_dedups() {
    let dir = temp_dir("cache");
    let mut opts = base_opts();
    opts.journal = Some(dir.join("cache.ndjson"));
    let input = grid(6);
    let coordinator = Coordinator::start(&opts).expect("coordinator starts");

    // First client: all misses, computed by the fleet.
    let (rows, outcomes) = run_client(&coordinator, &input);
    assert_eq!(outcomes.ok, 6, "{outcomes}");
    assert_eq!(keyed_rows(&rows).len(), 6);
    let serve_defaults = ServeOptions::default();
    for line in input.lines() {
        let point = parse_point(line).expect("grid lines parse");
        let deadline = point.deadline_ms.map(Duration::from_millis);
        let direct = eval_point(
            &point,
            &serve_defaults.base,
            deadline,
            &serve_defaults.retry,
        );
        let got = rows
            .iter()
            .find(|r| r.get("key").and_then(Json::as_str) == Some(point.key().as_str()))
            .expect("a row per point");
        assert_eq!(
            got, &direct.row,
            "coordinated row must be bit-identical to a direct eval"
        );
    }

    // Second client, same grid: answered from the cache, nothing
    // re-simulated.
    let (rows2, outcomes2) = run_client(&coordinator, &input);
    assert_eq!(outcomes2.cached, 6, "{outcomes2}");
    assert_eq!(outcomes2.ok, 0);
    for row in keyed_rows(&rows) {
        assert!(rows2.contains(row), "cached row must re-emit verbatim");
    }
    let metrics = &opts.obs.as_ref().unwrap().metrics;
    assert!(metrics.counter("macs_cache_hits_total", &[]).get() >= 6);
    assert_eq!(metrics.counter("macs_cache_misses_total", &[]).get(), 6);
    coordinator.shutdown().expect("clean shutdown");

    // A fresh coordinator on the same journal warm-starts: the whole
    // grid resumes without any worker computing anything.
    let coordinator = Coordinator::start(&opts).expect("warm restart");
    let (rows3, outcomes3) = run_client(&coordinator, &input);
    assert_eq!(outcomes3.resumed, 6, "{outcomes3}");
    for row in keyed_rows(&rows) {
        assert!(rows3.contains(row), "journaled row must re-emit verbatim");
    }
    coordinator.shutdown().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_kills_still_answer_every_point_exactly_once() {
    let dir = temp_dir("chaos");
    let mut opts = base_opts();
    opts.fleet = 3;
    opts.journal = Some(dir.join("chaos.ndjson"));
    opts.chaos = Some(ChaosSpec {
        kill_every: 13,
        hang_every: 0,
        corrupt_every: 7,
    });
    opts.jitter_seed = Some(42);
    opts.lease = Duration::from_secs(15);
    opts.restart_backoff = RetryPolicy {
        max_attempts: u32::MAX,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(50),
        jitter_seed: None,
    };
    let n = 80;
    let input = grid(n);
    let coordinator = Coordinator::start(&opts).expect("coordinator starts");
    let (rows, outcomes) = run_client(&coordinator, &input);

    // Exactly one row per point, every one of them healthy.
    assert_eq!(outcomes.ok, n as u64, "{outcomes}");
    let keyed = keyed_rows(&rows);
    assert_eq!(keyed.len(), n);
    let mut keys: Vec<&str> = keyed
        .iter()
        .filter_map(|r| r.get("key").and_then(Json::as_str))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), n, "no key may be answered twice");

    // The chaos actually fired and the fleet actually recovered.
    let metrics = &opts.obs.as_ref().unwrap().metrics;
    let killed = metrics
        .counter("macs_chaos_injected_total", &[("action", "kill")])
        .get();
    assert!(killed >= 2, "expected multiple kills, got {killed}");
    assert!(
        metrics.counter("macs_redispatch_total", &[]).get() > 0
            || metrics.counter("macs_worker_deaths_total", &[]).get() > 0,
        "kills must surface as deaths/redispatches"
    );
    assert!(metrics.counter("macs_worker_restarts_total", &[]).get() > 0);
    coordinator.shutdown().expect("clean shutdown");

    // The journal holds exactly one record per point — the
    // exactly-once guarantee survives the crashes.
    let journal = macs_core::sweep::Journal::load(&opts.journal.clone().unwrap())
        .expect("chaos journal loads");
    assert_eq!(journal.len(), n, "one journal record per point");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_full_queue_degrades_to_structured_overload_rows() {
    let mut opts = base_opts();
    opts.fleet = 1;
    opts.queue_max = 2;
    opts.worker_inflight_max = 1;
    opts.worker_args = vec![
        "--workers".into(),
        "1".into(),
        "--max-attempts".into(),
        "1".into(),
    ];
    let n = 30;
    // Each point sleeps 30ms against a 10ms deadline: fast, deadline-
    // classed rows that still occupy the lone worker long enough for
    // the 2-deep queue to fill.
    let input: String = (0..n)
        .map(|i| {
            format!(
                "{{\"id\":\"s{i}\",\"kernel\":12,\"passes\":1,\
                 \"inject\":{{\"sleep_ms\":30}},\"deadline_ms\":{}}}\n",
                10 + i
            )
        })
        .collect();
    let coordinator = Coordinator::start(&opts).expect("coordinator starts");
    let (rows, outcomes) = run_client(&coordinator, &input);
    assert_eq!(outcomes.points(), n as u64, "one outcome per line");
    assert!(
        outcomes.overloaded > 0,
        "queue_max=2 with a saturated single worker must shed load: {outcomes}"
    );
    assert!(
        outcomes.timed_out > 0,
        "admitted points complete: {outcomes}"
    );
    let shed = rows
        .iter()
        .find(|r| r.get("error_kind").and_then(Json::as_str) == Some("overloaded"))
        .expect("overloaded rows are emitted");
    assert!(shed
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("admission queue is full (2 points)"));
    let metrics = &opts.obs.as_ref().unwrap().metrics;
    assert_eq!(
        metrics.counter("macs_overloaded_total", &[]).get(),
        outcomes.overloaded
    );
    coordinator.shutdown().expect("clean shutdown");
}

#[test]
fn concurrent_clients_share_one_computation_per_key() {
    let mut opts = base_opts();
    opts.fleet = 2;
    let input = grid(5);
    let coordinator = Coordinator::start(&opts).expect("coordinator starts");
    let (a, b) = std::thread::scope(|scope| {
        let ra = scope.spawn(|| run_client(&coordinator, &input));
        let rb = scope.spawn(|| run_client(&coordinator, &input));
        (ra.join().expect("client a"), rb.join().expect("client b"))
    });
    let (rows_a, out_a) = a;
    let (rows_b, out_b) = b;
    // Between the two clients: 5 computations total, the rest deduped
    // against the cache or the in-flight set — and both see all 5 rows.
    assert_eq!(out_a.ok + out_b.ok, 5, "a: {out_a} / b: {out_b}");
    assert_eq!(out_a.cached + out_b.cached, 5);
    assert_eq!(keyed_rows(&rows_a).len(), 5);
    assert_eq!(keyed_rows(&rows_b).len(), 5);
    for row in keyed_rows(&rows_a) {
        assert!(rows_b.contains(row), "both clients see identical rows");
    }
    let metrics = &opts.obs.as_ref().unwrap().metrics;
    assert_eq!(metrics.counter("macs_cache_misses_total", &[]).get(), 5);
    coordinator.shutdown().expect("clean shutdown");
}

#[test]
fn a_malformed_line_yields_the_same_row_from_serve_and_the_coordinator() {
    let input = "this is not json\n";
    let mut served = Vec::new();
    macs_bench::serve(input.as_bytes(), &mut served, &ServeOptions::default())
        .expect("serve succeeds");
    let served: Vec<Json> = String::from_utf8(served)
        .expect("output is UTF-8")
        .lines()
        .map(|l| Json::parse(l).expect("every output line is JSON"))
        .collect();
    let coordinator = Coordinator::start(&base_opts()).expect("coordinator starts");
    let (coordinated, outcomes) = run_client(&coordinator, input);
    coordinator.shutdown().expect("clean shutdown");
    assert_eq!(outcomes.invalid, 1, "{outcomes}");
    assert_eq!(coordinated, served, "row and summary alike");
    assert_eq!(
        coordinated[0].get("line").and_then(Json::as_str),
        Some("this is not json"),
        "protocol rows echo the offending line"
    );
}

#[test]
fn a_retried_worker_row_counts_as_retried_for_its_creating_client_only() {
    let mut opts = base_opts();
    opts.worker_args = vec![
        "--workers".into(),
        "1".into(),
        "--max-attempts".into(),
        "2".into(),
        "--backoff-ms".into(),
        "1".into(),
    ];
    let input = concat!(
        "{\"id\":\"boom\",\"kernel\":12,\"passes\":1,\"inject\":\"panic\"}\n",
        "{\"id\":\"fine\",\"kernel\":12,\"passes\":1}\n",
    );
    let coordinator = Coordinator::start(&opts).expect("coordinator starts");
    let (rows, first) = run_client(&coordinator, input);
    let boom = rows
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some("boom"))
        .expect("the panicking point is answered");
    assert_eq!(boom.get("attempts").and_then(Json::as_f64), Some(2.0));
    assert_eq!(
        (first.panicked, first.ok, first.retried),
        (1, 1, 1),
        "{first}"
    );
    // The same points again are cache hits: not retried.
    let (_, second) = run_client(&coordinator, input);
    assert_eq!((second.cached, second.retried), (2, 0), "{second}");
    coordinator.shutdown().expect("clean shutdown");
}
