//! The transport shared by `macs-bench --serve` and `--coordinate`.
//!
//! Both modes are a per-stream handler on top of this layer (DESIGN.md
//! §13). [`Service::run`] serves one stream from stdin, or binds a
//! [`Listen`] address and accepts connections until accepting fails.
//! Each connection gets the read timeout and is sniffed: an HTTP
//! `GET /metrics` is answered from the metrics registry, and anything
//! else is handed to the handler as an NDJSON request stream. Inside a
//! handler, `Requests` turns bounded line events into parsed points or
//! ready-made rejection rows, and `Reply::deliver` writes every row and
//! counts its `Outcome` in the stream's [`SweepOutcomes`] summary.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use c240_obs::json::Json;
use c240_obs::metrics::Counter;
use c240_obs::{Metrics, SweepOutcomes, Tracer};
use macs_core::sweep::{parse_point, SweepPoint, SWEEP_ROW_SCHEMA};

use crate::lineio::{sniff_http, BoundedLines, LineEvent, Sniff};
use crate::serve::{PointClass, ServeObs};

/// Default per-line byte ceiling on request streams.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Default socket read timeout for request streams.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Where a service accepts connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address; port 0 binds a free port (the banner names it).
    Tcp(String),
    /// A Unix socket path. A stale socket there is replaced; any other
    /// file is left alone and binding fails.
    Unix(PathBuf),
}

/// A mode's per-stream handler: request lines in, rows out, the
/// stream's tally back.
pub type Handler<'h> =
    dyn Fn(&mut (dyn BufRead + Send), &mut dyn Write) -> io::Result<SweepOutcomes> + Sync + 'h;

/// What the shared transport needs from a mode besides its handler.
#[derive(Debug, Clone, Copy)]
pub struct Service<'a> {
    /// The banner verb: `macs-bench: {verb} on tcp ADDR`.
    pub verb: &'static str,
    /// Hard per-line byte ceiling on request lines and HTTP headers. A
    /// longer request line is answered with a structured `oversized` row
    /// and drained to its newline instead of growing an unbounded buffer.
    pub max_line_bytes: usize,
    /// Socket read timeout. A peer that stalls mid-line past this long
    /// (slowloris) gets a structured `stalled` row plus the summary, then
    /// the stream closes instead of pinning a thread. `None` or zero
    /// disables it; stdin is never timed out.
    pub read_timeout: Option<Duration>,
    /// The registry `GET /metrics` renders; without one it answers 404.
    pub obs: Option<&'a ServeObs>,
}

impl Service<'_> {
    /// Runs `stream` once on stdin → stdout and returns its tally, or,
    /// given `listen`, binds it and runs `stream` on every connection
    /// (each on its own thread) until accepting fails.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound, if accepting fails, or if
    /// the stdin stream fails.
    pub fn run(
        &self,
        listen: Option<&Listen>,
        stream: &Handler,
    ) -> io::Result<Option<SweepOutcomes>> {
        let verb = self.verb;
        match listen {
            // StdinLock is not Send (handlers read on their own thread),
            // so buffer the Stdin handle directly.
            None => stream(&mut BufReader::new(io::stdin()), &mut io::stdout().lock()).map(Some),
            Some(Listen::Tcp(addr)) => {
                let listener = TcpListener::bind(addr)?;
                eprintln!("macs-bench: {verb} on tcp {}", listener.local_addr()?);
                self.accept_loop(
                    || listener.accept().map(|(s, peer)| (s, format!("{peer}: "))),
                    stream,
                )
            }
            #[cfg(unix)]
            Some(Listen::Unix(path)) => {
                let listener = bind_unix(path)?;
                eprintln!("macs-bench: {verb} on unix socket {}", path.display());
                self.accept_loop(
                    || listener.accept().map(|(s, _)| (s, String::new())),
                    stream,
                )
            }
            #[cfg(not(unix))]
            Some(Listen::Unix(_)) => Err(io::Error::new(
                ErrorKind::Unsupported,
                "Unix sockets need a Unix platform",
            )),
        }
    }

    /// Accepts connections until `accept` fails, serving each on its own
    /// thread.
    fn accept_loop<S: Socket>(
        &self,
        mut accept: impl FnMut() -> io::Result<(S, String)>,
        stream: &Handler,
    ) -> io::Result<Option<SweepOutcomes>> {
        // A zero-duration timeout is invalid at the socket layer; treat
        // it as "no timeout" rather than failing every connection.
        let timeout = self.read_timeout.filter(|t| !t.is_zero());
        std::thread::scope(|scope| loop {
            let (socket, peer) = accept()?;
            scope.spawn(move || {
                let served = socket
                    .reader(timeout)
                    .and_then(|reader| self.connection(reader, socket, stream));
                match served {
                    Ok(Some(outcomes)) => eprintln!("macs-bench: {peer}{outcomes}"),
                    Ok(None) => {}
                    Err(e) => eprintln!("macs-bench: {peer}connection failed: {e}"),
                }
            });
        })
    }

    /// One accepted connection: a bounded, timeout-aware sniff tells a
    /// metrics scrape from a request stream. Scrapes never reach the
    /// handler, so they are answered even while a handler holds a lock.
    /// A peer that stalls or never sends a newline mid-sniff still
    /// reaches the request loop and gets its structured row.
    fn connection(
        &self,
        reader: impl Read + Send,
        mut writer: impl Write,
        stream: &Handler,
    ) -> io::Result<Option<SweepOutcomes>> {
        let mut reader = BufReader::new(reader);
        match sniff_http(&mut reader, self.max_line_bytes)? {
            Sniff::Empty => Ok(None),
            Sniff::Http(request_line) => {
                Requests::new(reader, self.max_line_bytes, None, None).skip_http_headers();
                self.answer_http(&request_line, writer).map(|()| None)
            }
            Sniff::Stream(seen) => {
                stream(&mut io::Cursor::new(seen).chain(reader), &mut writer).map(Some)
            }
        }
    }

    /// Answers a sniffed HTTP request. Only `GET /metrics` is served
    /// (the Prometheus text exposition, `version=0.0.4`); anything else
    /// is a 404.
    fn answer_http(&self, request_line: &str, mut writer: impl Write) -> io::Result<()> {
        let path = request_line.split_whitespace().nth(1).unwrap_or("");
        let (status, body) = match (path, self.obs) {
            ("/metrics", Some(o)) => ("200 OK", o.metrics.render_prometheus()),
            ("/metrics", None) => (
                "404 Not Found",
                "metrics disabled: start the server with --metrics\n".to_string(),
            ),
            _ => (
                "404 Not Found",
                "only /metrics is served here\n".to_string(),
            ),
        };
        write!(
            writer,
            "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )?;
        writer.flush()
    }
}

/// A connected socket the accept loop splits into a read half (with the
/// read timeout set) and a write half.
trait Socket: Read + Write + Send + Sized {
    fn reader(&self, timeout: Option<Duration>) -> io::Result<Self>;
}

impl Socket for TcpStream {
    fn reader(&self, timeout: Option<Duration>) -> io::Result<Self> {
        self.set_read_timeout(timeout)?;
        self.try_clone()
    }
}

#[cfg(unix)]
impl Socket for std::os::unix::net::UnixStream {
    fn reader(&self, timeout: Option<Duration>) -> io::Result<Self> {
        self.set_read_timeout(timeout)?;
        self.try_clone()
    }
}

/// Binds a Unix socket at `path`, replacing a stale socket there. Any
/// other file at `path` (a mistyped journal path, say) is left alone and
/// binding fails.
#[cfg(unix)]
fn bind_unix(path: &std::path::Path) -> io::Result<std::os::unix::net::UnixListener> {
    use std::os::unix::fs::FileTypeExt;
    match std::fs::symlink_metadata(path) {
        Ok(meta) if meta.file_type().is_socket() => std::fs::remove_file(path)?,
        Ok(_) => {
            return Err(io::Error::new(
                ErrorKind::AlreadyExists,
                format!("{} exists and is not a socket", path.display()),
            ))
        }
        Err(e) if e.kind() == ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::os::unix::net::UnixListener::bind(path)
}

/// The request loop both modes run: bounded line events in, parsed
/// points out, or the ready-made row rejecting a line or the stream
/// (`protocol`, `oversized`, `stalled`; each tallies as invalid). Blank
/// lines are skipped; a stalled peer gets one `stalled` row and ends the
/// stream, so a slowloris costs one row, not a pinned thread.
pub(crate) struct Requests<R: Read> {
    lines: BoundedLines<R>,
    max_line_bytes: usize,
    /// `macs_lines_oversized_total` and `macs_streams_stalled_total`.
    abuse: Option<(Counter, Counter)>,
    /// Each parse is timed as a `parse` span under this span.
    parse_spans: Option<(Tracer, u64)>,
    done: bool,
}

impl<R: Read> Requests<R> {
    /// Reads `input` with a `max_line_bytes` ceiling per line, counting
    /// abuse in `obs` and tracing parses under `parse_parent` when both
    /// are given.
    pub(crate) fn new(
        input: R,
        max_line_bytes: usize,
        obs: Option<&ServeObs>,
        parse_parent: Option<u64>,
    ) -> Self {
        Requests {
            lines: BoundedLines::new(input, max_line_bytes),
            max_line_bytes,
            abuse: obs.map(|o| {
                (
                    o.metrics.counter("macs_lines_oversized_total", &[]),
                    o.metrics.counter("macs_streams_stalled_total", &[]),
                )
            }),
            parse_spans: obs.zip(parse_parent).map(|(o, p)| (o.tracer.clone(), p)),
            done: false,
        }
    }

    /// Drains an HTTP header block: up to its blank line, at most 64
    /// lines, each under the line ceiling, so an endless header costs a
    /// bounded buffer rather than unbounded memory.
    fn skip_http_headers(mut self) {
        for _ in 0..64 {
            match self.lines.next_event() {
                Ok(LineEvent::Line(header)) if !header.trim().is_empty() => {}
                Ok(LineEvent::Oversized { .. }) => {}
                _ => break,
            }
        }
    }
}

impl<R: Read> Iterator for Requests<R> {
    type Item = Result<SweepPoint, Json>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            let line = match self.lines.next_event() {
                Err(_) | Ok(LineEvent::Eof) => break,
                Ok(LineEvent::Stalled) => {
                    self.done = true;
                    if let Some((_, stalled)) = &self.abuse {
                        stalled.inc();
                    }
                    return Some(Err(stream_error_row(
                        "stalled",
                        "no complete request line within the read timeout; closing the stream",
                    )));
                }
                Ok(LineEvent::Oversized { length }) => {
                    if let Some((oversized, _)) = &self.abuse {
                        oversized.inc();
                    }
                    return Some(Err(stream_error_row(
                        "oversized",
                        &format!(
                            "request line of {length}+ bytes exceeds the {}-byte limit",
                            self.max_line_bytes
                        ),
                    )));
                }
                Ok(LineEvent::Line(line)) => line,
            };
            if line.trim().is_empty() {
                continue;
            }
            let span = self
                .parse_spans
                .as_ref()
                .map(|(tracer, parent)| tracer.span_under("parse", *parent));
            let parsed = parse_point(&line);
            drop(span);
            return Some(parsed.map_err(|e| {
                // Echo the line so a client reading rows in completion
                // order can tell which input failed.
                let mut shown: String = line.chars().take(200).collect();
                if shown.len() < line.len() {
                    shown.push('…');
                }
                stream_error_row("protocol", &e.to_string()).field("line", shown)
            }));
        }
        self.done = true;
        None
    }
}

/// The identity every point row starts with.
pub(crate) fn base_row(point: &SweepPoint, key: &str) -> Json {
    Json::obj()
        .field("schema", SWEEP_ROW_SCHEMA)
        .field("id", point.id.as_str())
        .field("key", key)
        .field("kernel", point.kernel)
}

/// An error row for `point`: its identity, then the error kind and
/// message. Evaluated points append their attempt accounting.
pub(crate) fn error_row(point: &SweepPoint, key: &str, kind: &str, message: &str) -> Json {
    base_row(point, key)
        .field("status", "error")
        .field("error_kind", kind)
        .field("message", message)
}

/// An error row about the stream rather than a point, so it carries no
/// `id` or `key`.
fn stream_error_row(kind: &str, message: &str) -> Json {
    Json::obj()
        .field("schema", SWEEP_ROW_SCHEMA)
        .field("status", "error")
        .field("error_kind", kind)
        .field("message", message)
}

/// How one emitted row counts in its stream's [`SweepOutcomes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    Ok,
    Invalid,
    TimedOut,
    Panicked,
    Resumed,
    Duplicate,
    Cached,
    Overloaded,
}

impl Outcome {
    /// The outcome of an evaluated point.
    pub(crate) fn of(class: PointClass) -> Outcome {
        match class {
            PointClass::Ok => Outcome::Ok,
            PointClass::Invalid => Outcome::Invalid,
            PointClass::TimedOut => Outcome::TimedOut,
            PointClass::Panicked => Outcome::Panicked,
        }
    }

    /// The `outcome` label of `macs_points_total`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Invalid => "invalid",
            Outcome::TimedOut => "timed_out",
            Outcome::Panicked => "panicked",
            Outcome::Resumed => "resumed",
            Outcome::Duplicate => "duplicate",
            Outcome::Cached => "cached",
            Outcome::Overloaded => "overloaded",
        }
    }
}

/// One row headed to a client and how it counts in that client's
/// summary.
pub(crate) struct Reply {
    pub(crate) row: Json,
    pub(crate) outcome: Outcome,
    /// Whether the point took more than one attempt.
    pub(crate) retried: bool,
}

impl Reply {
    /// A row answered without evaluating anything, so never retried.
    pub(crate) fn answered(row: Json, outcome: Outcome) -> Reply {
        Reply {
            row,
            outcome,
            retried: false,
        }
    }

    /// A row a `--serve` worker evaluated, counted exactly as that worker
    /// counted it.
    pub(crate) fn evaluated(row: Json) -> Reply {
        let outcome = match (
            row.get("status").and_then(Json::as_str),
            row.get("error_kind").and_then(Json::as_str),
        ) {
            (Some("ok"), _) => Outcome::Ok,
            (_, Some("timeout")) => Outcome::TimedOut,
            (_, Some("panic")) => Outcome::Panicked,
            _ => Outcome::Invalid,
        };
        let attempts = row.get("attempts").and_then(Json::as_f64).unwrap_or(0.0);
        Reply {
            row,
            outcome,
            retried: attempts > 1.0,
        }
    }

    /// Writes the row to `output` and counts it in `outcomes` and, given
    /// a registry, in `macs_points_total{outcome}` and
    /// `macs_points_retried_total`, increment for increment, so the
    /// metrics reconcile exactly with the summary row.
    pub(crate) fn deliver(
        &self,
        output: &mut impl Write,
        outcomes: &mut SweepOutcomes,
        metrics: Option<&Metrics>,
    ) -> io::Result<()> {
        writeln!(output, "{}", self.row)?;
        output.flush()?;
        *match self.outcome {
            Outcome::Ok => &mut outcomes.ok,
            Outcome::Invalid => &mut outcomes.invalid,
            Outcome::TimedOut => &mut outcomes.timed_out,
            Outcome::Panicked => &mut outcomes.panicked,
            Outcome::Resumed => &mut outcomes.resumed,
            Outcome::Duplicate => &mut outcomes.duplicate,
            Outcome::Cached => &mut outcomes.cached,
            Outcome::Overloaded => &mut outcomes.overloaded,
        } += 1;
        outcomes.retried += u64::from(self.retried);
        if let Some(m) = metrics {
            m.counter("macs_points_total", &[("outcome", self.outcome.label())])
                .inc();
            if self.retried {
                m.counter("macs_points_retried_total", &[]).inc();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn service(obs: Option<&ServeObs>) -> Service<'_> {
        Service {
            verb: "testing",
            max_line_bytes: 1024,
            read_timeout: None,
            obs,
        }
    }

    fn unreachable_stream(
        _: &mut (dyn BufRead + Send),
        _: &mut dyn Write,
    ) -> io::Result<SweepOutcomes> {
        panic!("an HTTP request must not reach the stream handler")
    }

    #[test]
    fn a_multi_mib_header_is_drained_in_bounded_memory_and_answered() {
        let mut request = b"GET /metrics HTTP/1.0\r\nX-Junk: ".to_vec();
        request.extend(std::iter::repeat_n(b'a', 8 << 20));
        request.extend_from_slice(b"\r\nHost: x\r\n\r\n");
        let obs = ServeObs::default();
        obs.metrics
            .counter("macs_points_total", &[("outcome", "ok")])
            .inc();
        let mut response = Vec::new();
        let t0 = Instant::now();
        let served = service(Some(&obs))
            .connection(&request[..], &mut response, &unreachable_stream)
            .expect("answered");
        assert!(served.is_none(), "a scrape is not a sweep stream");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "drain returns promptly"
        );
        let response = String::from_utf8(response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("macs_points_total{outcome=\"ok\"} 1"));
    }

    #[test]
    fn scrapes_are_answered_200_or_404_and_streams_reach_the_handler() {
        let scrape = |obs: Option<&ServeObs>, request: &[u8]| {
            let mut response = Vec::new();
            service(obs)
                .connection(request, &mut response, &unreachable_stream)
                .expect("answered");
            String::from_utf8(response).unwrap()
        };
        let obs = ServeObs::default();
        let get = b"GET /metrics HTTP/1.0\r\n\r\n";
        assert!(scrape(Some(&obs), get).starts_with("HTTP/1.0 200 OK"));
        assert!(scrape(None, get).contains("start the server with --metrics"));
        assert!(scrape(Some(&obs), b"GET /other HTTP/1.0\r\n\r\n").contains("only /metrics"));

        let mut out = Vec::new();
        let echoed = service(None)
            .connection(&b"{\"id\":1}\nmore\n"[..], &mut out, &|input, output| {
                let mut all = String::new();
                input.read_to_string(&mut all)?;
                output.write_all(all.as_bytes())?;
                Ok(SweepOutcomes::new())
            })
            .expect("streamed");
        assert!(echoed.is_some());
        assert_eq!(out, b"{\"id\":1}\nmore\n", "sniffed bytes are replayed");
    }

    #[test]
    fn requests_parse_reject_and_skip_blank_lines() {
        let input = "{\"id\":\"p\",\"kernel\":1}\n\n   \nnot json\n";
        let got: Vec<_> = Requests::new(input.as_bytes(), 1024, None, None).collect();
        assert_eq!(got.len(), 2);
        assert!(matches!(&got[0], Ok(p) if p.id == "p"));
        let rejected = got[1].as_ref().expect_err("malformed line parsed");
        assert_eq!(
            rejected.get("error_kind").and_then(Json::as_str),
            Some("protocol")
        );
        assert_eq!(
            rejected.get("line").and_then(Json::as_str),
            Some("not json")
        );
    }

    #[test]
    fn a_long_malformed_line_is_echoed_truncated() {
        let line = "x".repeat(500);
        let got: Vec<_> = Requests::new(line.as_bytes(), 1024, None, None).collect();
        let rejected = got[0].as_ref().expect_err("malformed line parsed");
        let shown = rejected.get("line").and_then(Json::as_str).unwrap();
        assert_eq!(shown.chars().count(), 201);
        assert!(shown.ends_with('…'));
    }

    #[test]
    fn deliveries_reconcile_with_the_metrics() {
        let metrics = Metrics::new();
        let mut outcomes = SweepOutcomes::new();
        let mut out = Vec::new();
        let ok = Reply {
            retried: true,
            ..Reply::answered(Json::obj(), Outcome::Ok)
        };
        for (reply, metrics) in [
            (ok, Some(&metrics)),
            (
                Reply::answered(Json::obj(), Outcome::Overloaded),
                Some(&metrics),
            ),
            (Reply::answered(Json::obj(), Outcome::Cached), None),
        ] {
            reply.deliver(&mut out, &mut outcomes, metrics).unwrap();
        }
        assert_eq!(out, b"{}\n{}\n{}\n");
        assert_eq!(
            (outcomes.ok, outcomes.overloaded, outcomes.cached),
            (1, 1, 1)
        );
        assert_eq!(outcomes.retried, 1);
        let count = |o: &str| {
            metrics
                .counter("macs_points_total", &[("outcome", o)])
                .get()
        };
        assert_eq!(
            (count("ok"), count("overloaded"), count("cached")),
            (1, 1, 0)
        );
        assert_eq!(metrics.counter("macs_points_retried_total", &[]).get(), 1);
    }

    #[test]
    fn worker_rows_read_back_their_outcome_and_retries() {
        let reply = |status: &str, kind: &str, attempts: u32| {
            let row = Json::obj()
                .field("status", status)
                .field("error_kind", kind)
                .field("attempts", attempts);
            let reply = Reply::evaluated(row);
            (reply.outcome, reply.retried)
        };
        assert_eq!(reply("ok", "", 2), (Outcome::Ok, true));
        assert_eq!(reply("error", "timeout", 1), (Outcome::TimedOut, false));
        assert_eq!(reply("error", "panic", 3), (Outcome::Panicked, true));
        assert_eq!(reply("error", "sim", 1), (Outcome::Invalid, false));
    }
}
