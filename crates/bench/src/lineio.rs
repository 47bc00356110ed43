//! A bounded, timeout-aware line reader for hostile byte streams.
//!
//! The sweep listeners accept lines from arbitrary network peers, which
//! makes the naive `BufRead::lines` loop two separate denial-of-service
//! vectors: a peer can stream an unterminated line forever (unbounded
//! memory), or dribble one byte per minute and pin a connection thread
//! indefinitely (slowloris). [`BoundedLines`] reads newline-delimited
//! text with a hard per-line byte ceiling and surfaces socket read
//! timeouts as first-class events, so the server can answer both abuses
//! with a structured protocol-error row instead of degrading.

use std::io::{self, ErrorKind, Read};

/// What one [`BoundedLines::next_event`] call produced.
#[derive(Debug, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete line (terminator stripped, invalid UTF-8 replaced).
    Line(String),
    /// A line exceeded the byte ceiling. The overlong tail has been
    /// drained up to (and including) its newline so the stream is
    /// re-synchronized; `length` is the bytes seen before draining
    /// stopped counting (at least the ceiling).
    Oversized {
        /// Bytes observed in the oversized line before the reader
        /// stopped counting.
        length: usize,
    },
    /// The underlying read timed out (the peer is stalling). The bytes
    /// of any partial line are kept; a later call resumes accumulating.
    Stalled,
    /// End of stream. Any unterminated final line is returned as a
    /// [`LineEvent::Line`] first; the next call then reports `Eof`.
    Eof,
}

/// How a freshly accepted connection opened.
#[derive(Debug, PartialEq, Eq)]
pub enum Sniff {
    /// An HTTP `GET`/`HEAD` request line (terminator stripped).
    Http(String),
    /// An NDJSON sweep stream; the sniffed bytes must be replayed ahead
    /// of the remaining stream.
    Stream(Vec<u8>),
    /// The peer closed without sending anything.
    Empty,
}

/// Reads just enough of a fresh connection to tell an HTTP metrics
/// scrape (`GET `/`HEAD `) from an NDJSON sweep stream, without ever
/// issuing an unbounded or indefinitely blocking line read: the verb
/// needs at most 5 bytes, the HTTP request line is capped at
/// `max_line_bytes`, and a read timeout or over-long line mid-sniff
/// degrades to [`Sniff::Stream`] so the bounded line reader downstream
/// answers with its structured `stalled`/`protocol` row instead of the
/// connection dying silently.
///
/// # Errors
///
/// Propagates I/O errors other than the timeout kinds, which degrade to
/// `Stream` as described above.
pub fn sniff_http(source: &mut impl Read, max_line_bytes: usize) -> io::Result<Sniff> {
    let verbs: [&[u8]; 2] = [b"GET ", b"HEAD "];
    let mut seen: Vec<u8> = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let http = verbs.iter().any(|v| seen.starts_with(v));
        if http && seen.last() == Some(&b'\n') {
            while matches!(seen.last(), Some(b'\n' | b'\r')) {
                seen.pop();
            }
            return Ok(Sniff::Http(String::from_utf8_lossy(&seen).into_owned()));
        }
        if !http && !verbs.iter().any(|v| v.starts_with(&seen)) {
            return Ok(Sniff::Stream(seen));
        }
        if seen.len() > max_line_bytes.max(64) {
            return Ok(Sniff::Stream(seen));
        }
        match source.read(&mut byte) {
            Ok(0) if seen.is_empty() => return Ok(Sniff::Empty),
            Ok(0) => return Ok(Sniff::Stream(seen)),
            Ok(_) => seen.push(byte[0]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(Sniff::Stream(seen));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// A line reader with a per-line byte ceiling and timeout passthrough.
pub struct BoundedLines<R: Read> {
    source: R,
    max_line_bytes: usize,
    buf: Vec<u8>,
    /// Bytes of the current oversized line already discarded (None when
    /// the current line is within bounds).
    oversized: Option<usize>,
    eof: bool,
}

impl<R: Read> BoundedLines<R> {
    /// Wraps `source`, capping complete lines at `max_line_bytes` bytes
    /// (terminator excluded). A ceiling of 0 is treated as 1.
    pub fn new(source: R, max_line_bytes: usize) -> Self {
        BoundedLines {
            source,
            max_line_bytes: max_line_bytes.max(1),
            buf: Vec::new(),
            oversized: None,
            eof: false,
        }
    }

    /// Reads until one of: a complete line, the byte ceiling, a read
    /// timeout, or end of stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the timeout kinds
    /// (`WouldBlock`/`TimedOut`), which map to [`LineEvent::Stalled`].
    pub fn next_event(&mut self) -> io::Result<LineEvent> {
        loop {
            // Deliver a complete line already buffered before touching
            // the socket again.
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the \n
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                if let Some(seen) = self.oversized.take() {
                    // This newline ends a line we already condemned.
                    return Ok(LineEvent::Oversized { length: seen });
                }
                if line.len() > self.max_line_bytes {
                    // The whole line arrived in one read, ahead of the
                    // incremental ceiling check.
                    return Ok(LineEvent::Oversized { length: line.len() });
                }
                return Ok(LineEvent::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            if self.oversized.is_none() && self.buf.len() > self.max_line_bytes {
                // Condemn the line; keep draining until its newline but
                // stop accumulating.
                self.oversized = Some(self.buf.len());
                self.buf.clear();
            }
            if self.eof {
                if let Some(seen) = self.oversized.take() {
                    return Ok(LineEvent::Oversized { length: seen });
                }
                if self.buf.is_empty() {
                    return Ok(LineEvent::Eof);
                }
                let line = std::mem::take(&mut self.buf);
                if line.len() > self.max_line_bytes {
                    return Ok(LineEvent::Oversized { length: line.len() });
                }
                return Ok(LineEvent::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            let mut chunk = [0u8; 4096];
            match self.source.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    if let Some(seen) = self.oversized.as_mut() {
                        // Drain mode: count, look for the newline, keep
                        // only what follows it.
                        *seen += n;
                        if let Some(pos) = chunk[..n].iter().position(|&b| b == b'\n') {
                            self.buf.extend_from_slice(&chunk[pos + 1..n]);
                            *seen -= n - pos;
                            return Ok(LineEvent::Oversized {
                                length: self.oversized.take().unwrap_or(0),
                            });
                        }
                    } else {
                        self.buf.extend_from_slice(&chunk[..n]);
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(LineEvent::Stalled);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &[u8], cap: usize) -> Vec<LineEvent> {
        let mut reader = BoundedLines::new(input, cap);
        let mut out = Vec::new();
        loop {
            let event = reader.next_event().expect("in-memory reads don't fail");
            let done = event == LineEvent::Eof;
            out.push(event);
            if done {
                return out;
            }
        }
    }

    #[test]
    fn splits_lines_and_strips_terminators() {
        assert_eq!(
            events(b"alpha\nbeta\r\ngamma", 64),
            vec![
                LineEvent::Line("alpha".into()),
                LineEvent::Line("beta".into()),
                LineEvent::Line("gamma".into()),
                LineEvent::Eof,
            ]
        );
    }

    #[test]
    fn oversized_line_is_reported_and_stream_resynchronizes() {
        let long = vec![b'x'; 100];
        let mut input = long.clone();
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let got = events(&input, 10);
        assert!(
            matches!(got[0], LineEvent::Oversized { length } if length >= 10),
            "first event should be Oversized, got {:?}",
            got[0]
        );
        assert_eq!(got[1], LineEvent::Line("ok".into()));
        assert_eq!(got[2], LineEvent::Eof);
    }

    #[test]
    fn oversized_line_at_eof_is_still_reported() {
        let got = events(&[b'y'; 50], 10);
        assert!(matches!(got[0], LineEvent::Oversized { .. }));
        assert_eq!(got[1], LineEvent::Eof);
    }

    #[test]
    fn invalid_utf8_is_replaced_not_fatal() {
        let got = events(b"a\xff\xfeb\n", 64);
        match &got[0] {
            LineEvent::Line(s) => {
                assert!(s.starts_with('a') && s.ends_with('b'));
                assert!(s.contains('\u{fffd}'));
            }
            other => panic!("expected a line, got {other:?}"),
        }
    }

    #[test]
    fn timeout_surfaces_as_stalled_and_partial_line_survives() {
        struct Dribble {
            feed: Vec<&'static [u8]>,
        }
        impl Read for Dribble {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.feed.pop() {
                    Some([]) => Err(io::Error::new(ErrorKind::WouldBlock, "stall")),
                    Some(chunk) => {
                        buf[..chunk.len()].copy_from_slice(chunk);
                        Ok(chunk.len())
                    }
                    None => Ok(0),
                }
            }
        }
        // Feed is popped from the back: "par", stall, "tial\n", EOF.
        let mut reader = BoundedLines::new(
            Dribble {
                feed: vec![b"tial\n", b"", b"par"],
            },
            64,
        );
        assert_eq!(reader.next_event().unwrap(), LineEvent::Stalled);
        assert_eq!(
            reader.next_event().unwrap(),
            LineEvent::Line("partial".into())
        );
        assert_eq!(reader.next_event().unwrap(), LineEvent::Eof);
    }

    #[test]
    fn sniff_tells_http_from_ndjson_and_never_blocks_on_a_stall() {
        let mut get = &b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n"[..];
        assert_eq!(
            sniff_http(&mut get, 8192).unwrap(),
            Sniff::Http("GET /metrics HTTP/1.0".into())
        );

        let mut ndjson = &b"{\"id\":\"p\",\"kernel\":1}\n"[..];
        match sniff_http(&mut ndjson, 8192).unwrap() {
            // One sniffed byte suffices: '{' is no HTTP verb prefix.
            Sniff::Stream(seen) => assert_eq!(seen, b"{"),
            other => panic!("expected Stream, got {other:?}"),
        }

        // "GE" then EOF: the partial verb is handed back for replay.
        let mut partial = &b"GE"[..];
        assert_eq!(
            sniff_http(&mut partial, 8192).unwrap(),
            Sniff::Stream(b"GE".to_vec())
        );

        let mut empty = &b""[..];
        assert_eq!(sniff_http(&mut empty, 8192).unwrap(), Sniff::Empty);

        // A stall before any byte degrades to an (empty) stream — the
        // caller's bounded reader then reports Stalled — instead of
        // hanging or erroring the connection.
        struct Stall;
        impl Read for Stall {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(ErrorKind::WouldBlock, "stall"))
            }
        }
        assert_eq!(
            sniff_http(&mut Stall, 8192).unwrap(),
            Sniff::Stream(Vec::new())
        );
    }

    #[test]
    fn sniff_caps_a_runaway_http_request_line() {
        let mut hostile: Vec<u8> = b"GET /".to_vec();
        hostile.extend(std::iter::repeat_n(b'a', 100_000));
        let mut source = &hostile[..];
        match sniff_http(&mut source, 1024).unwrap() {
            Sniff::Stream(seen) => assert!(seen.len() <= 1024 + 2),
            other => panic!("expected the capped line as Stream, got {other:?}"),
        }
    }

    #[test]
    fn empty_lines_pass_through() {
        assert_eq!(
            events(b"\n\nx\n", 8),
            vec![
                LineEvent::Line(String::new()),
                LineEvent::Line(String::new()),
                LineEvent::Line("x".into()),
                LineEvent::Eof,
            ]
        );
    }
}
