//! Socket-level tests of the listener shared by `macs-bench --serve` and
//! `--coordinate`: the same point stream over TCP and a Unix socket
//! yields the rows it yields over stdin, `GET /metrics` is answered off
//! the sweep listener, a stalled peer gets a structured row, and
//! `--unix` never deletes a file that is not a socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use c240_obs::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_macs-bench");

/// A small stream: two cheap points, one malformed line, one unknown
/// kernel.
const POINTS: &str = concat!(
    "{\"id\":\"a\",\"kernel\":12,\"passes\":1}\n",
    "not json at all\n",
    "{\"id\":\"b\",\"kernel\":3,\"passes\":1}\n",
    "{\"id\":\"c\",\"kernel\":5}\n",
);

/// The mode flag plus the flags that keep a run small.
fn mode_args(mode: &str) -> Vec<String> {
    let args: &[&str] = match mode {
        "serve" => &["--serve", "--workers", "1"],
        _ => &["--coordinate", "--fleet", "1", "--", "--workers", "1"],
    };
    args.iter().map(|s| s.to_string()).collect()
}

/// `mode_args` with `extra` inserted before any forwarded worker flags.
fn args_with(mode: &str, extra: &[&str]) -> Vec<String> {
    let mut args = mode_args(mode);
    let at = args.iter().position(|a| a == "--").unwrap_or(args.len());
    for (i, flag) in extra.iter().enumerate() {
        args.insert(at + i, flag.to_string());
    }
    args
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("macs-listen-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A listening `macs-bench` process, killed on drop.
struct Listener {
    child: Child,
    addr: Addr,
}

enum Addr {
    Tcp(String),
    Unix(PathBuf),
}

impl Drop for Listener {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Either socket kind, so one test body drives both.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn send(&mut self, bytes: &[u8]) {
        match self {
            Conn::Tcp(s) => s.write_all(bytes),
            Conn::Unix(s) => s.write_all(bytes),
        }
        .expect("request written");
    }

    fn half_close(&self) {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Write),
            Conn::Unix(s) => s.shutdown(Shutdown::Write),
        }
        .expect("half close");
    }

    fn read_all(self) -> String {
        let mut out = String::new();
        match self {
            Conn::Tcp(mut s) => s.read_to_string(&mut out),
            Conn::Unix(mut s) => s.read_to_string(&mut out),
        }
        .expect("response read");
        out
    }
}

impl Listener {
    /// Starts `args` plus `--listen 127.0.0.1:0` (or `--unix PATH` when
    /// `unix` is given) and waits for the banner naming the bound
    /// address.
    fn start(args: &[String], unix: Option<&Path>) -> Listener {
        let mut args = args.to_vec();
        let at = args.iter().position(|a| a == "--").unwrap_or(args.len());
        let bind: Vec<String> = match unix {
            Some(path) => vec!["--unix".into(), path.display().to_string()],
            None => vec!["--listen".into(), "127.0.0.1:0".into()],
        };
        args.splice(at..at, bind);
        let mut child = Command::new(BIN)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("listener spawns");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line).expect("stderr readable") == 0 {
                let _ = child.kill();
                panic!("listener exited before its banner");
            }
            if let Some((_, at)) = line.split_once(" on tcp ") {
                break Addr::Tcp(at.trim().to_string());
            }
            if let Some((_, at)) = line.split_once(" on unix socket ") {
                break Addr::Unix(PathBuf::from(at.trim()));
            }
        };
        // Keep draining stderr so per-connection log lines never block
        // the listener on a full pipe.
        std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
        Listener { child, addr }
    }

    fn connect(&self) -> Conn {
        match &self.addr {
            Addr::Tcp(a) => Conn::Tcp(TcpStream::connect(a).expect("tcp connect")),
            Addr::Unix(p) => Conn::Unix(UnixStream::connect(p).expect("unix connect")),
        }
    }

    /// Sends `input`, half-closes, and returns every response line.
    fn exchange(&self, input: &str) -> Vec<String> {
        let mut conn = self.connect();
        conn.send(input.as_bytes());
        conn.half_close();
        conn.read_all().lines().map(str::to_string).collect()
    }
}

/// Runs `args` over stdin and returns every stdout line.
fn over_stdin(args: &[String], input: &str) -> Vec<String> {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("stdin run spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("input written");
    let out = child.wait_with_output().expect("stdin run exits");
    assert!(out.status.success(), "stdin run must exit 0");
    String::from_utf8(out.stdout)
        .expect("utf-8 rows")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Rows arrive in completion order; compare them as a sorted multiset.
fn sorted(mut rows: Vec<String>) -> Vec<String> {
    rows.sort();
    rows
}

fn field<'a>(row: &'a Json, key: &str) -> Option<&'a str> {
    row.get(key).and_then(Json::as_str)
}

fn rows_match_stdin(mode: &str, unix: bool) {
    let dir = temp_dir(&format!("rows-{mode}-{unix}"));
    let socket = dir.join("sweep.sock");
    let args = mode_args(mode);
    let listener = Listener::start(&args, unix.then_some(socket.as_path()));
    let got = listener.exchange(POINTS);
    let want = over_stdin(&args, POINTS);
    assert_eq!(got.len(), 5, "four rows plus the summary: {got:?}");
    assert_eq!(
        sorted(got),
        sorted(want),
        "{mode} over {} must answer exactly as over stdin",
        if unix { "a unix socket" } else { "tcp" }
    );
    drop(listener);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_over_tcp_matches_stdin() {
    rows_match_stdin("serve", false);
}

#[test]
fn serve_over_unix_matches_stdin() {
    rows_match_stdin("serve", true);
}

#[test]
fn coordinate_over_tcp_matches_stdin() {
    rows_match_stdin("coordinate", false);
}

#[test]
fn coordinate_over_unix_matches_stdin() {
    rows_match_stdin("coordinate", true);
}

fn scrape(listener: &Listener) -> String {
    let mut conn = listener.connect();
    conn.send(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n");
    conn.read_all()
}

fn metrics_endpoint(mode: &str, unix: bool) {
    let dir = temp_dir(&format!("metrics-{mode}-{unix}"));
    let socket = dir.join("sweep.sock");
    let socket = unix.then_some(socket.as_path());

    let with = Listener::start(&args_with(mode, &["--metrics"]), socket);
    // One sweep first, so the registry has samples to render.
    with.exchange(POINTS);
    let response = scrape(&with);
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(response.contains("# TYPE "), "{response}");
    drop(with);

    let without = Listener::start(&mode_args(mode), socket);
    let response = scrape(&without);
    assert!(
        response.starts_with("HTTP/1.0 404 Not Found\r\n"),
        "{response}"
    );
    assert!(response.contains("--metrics"), "{response}");
    drop(without);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_metrics_answers_200_with_the_flag_and_404_without() {
    metrics_endpoint("serve", false);
}

#[test]
fn coordinate_metrics_answers_200_with_the_flag_and_404_without() {
    metrics_endpoint("coordinate", true);
}

fn stalled_peer(mode: &str, unix: bool) {
    let dir = temp_dir(&format!("stall-{mode}-{unix}"));
    let socket = dir.join("sweep.sock");
    let listener = Listener::start(
        &args_with(mode, &["--read-timeout-ms", "300"]),
        unix.then_some(socket.as_path()),
    );
    let mut conn = listener.connect();
    let t0 = Instant::now();
    // Half a request line, then silence (the write side stays open).
    conn.send(b"{\"id\":\"half\",\"kern");
    let reply = conn.read_all();
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "the stalled stream must close"
    );
    let rows: Vec<Json> = reply
        .lines()
        .map(|l| Json::parse(l).expect("rows are JSON"))
        .collect();
    assert_eq!(rows.len(), 2, "a stalled row plus the summary: {reply}");
    assert_eq!(field(&rows[0], "error_kind"), Some("stalled"));
    assert_eq!(
        field(&rows[1], "schema"),
        Some("c240-sweep-summary/v1"),
        "{reply}"
    );
    assert_eq!(rows[1].get("invalid").and_then(Json::as_f64), Some(1.0));
    drop(listener);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_answers_a_stalled_peer_with_a_row_and_a_summary() {
    stalled_peer("serve", false);
}

#[test]
fn coordinate_answers_a_stalled_peer_with_a_row_and_a_summary() {
    stalled_peer("coordinate", true);
}

fn unix_path_that_is_a_regular_file_survives(mode: &str) {
    let dir = temp_dir(&format!("regular-{mode}"));
    let precious = dir.join("journal.ndjson");
    std::fs::write(&precious, "precious bytes\n").expect("file written");
    let mut args = mode_args(mode);
    let at = args.iter().position(|a| a == "--").unwrap_or(args.len());
    args.splice(
        at..at,
        ["--unix".to_string(), precious.display().to_string()],
    );
    let mut child = Command::new(BIN)
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("command runs");
    // A listener that bound anyway would serve forever; give it a few
    // seconds to fail instead.
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status") {
            break status;
        }
        if t0.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{mode} bound its socket over a regular file");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr readable");
    assert!(!status.success(), "binding over a regular file must fail");
    assert!(stderr.contains("not a socket"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&precious).expect("file still there"),
        "precious bytes\n"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_refuses_to_replace_a_regular_file_with_its_socket() {
    unix_path_that_is_a_regular_file_survives("serve");
}

#[test]
fn coordinate_refuses_to_replace_a_regular_file_with_its_socket() {
    unix_path_that_is_a_regular_file_survives("coordinate");
}
