//! The sweep wire protocol and checkpoint journal.
//!
//! A sweep point is one (kernel × [`SimConfig`]) evaluation request,
//! carried as a single line of JSON (NDJSON) over stdin or a socket:
//!
//! ```text
//! {"id":"lfk1-nochain","kernel":1,"config":{"chaining":false}}
//! {"kernel":12,"passes":10,"deadline_ms":500}
//! {"kernel":1,"config":{"cpus":4,"contention":"mixed:3"}}
//! {"kernel":3,"machine":"c240-64b"}
//! ```
//!
//! The optional top-level `machine` field names a
//! [`MachineDescription`] preset the point is evaluated on instead of
//! the server's base machine (the server's *operational* knobs —
//! instruction limit, fast-forward, CPU count, background contention —
//! still apply, and `config` overrides still win). The
//! name is part of the canonical rendering, so rows computed on
//! different machines get different journal keys and never collide in a
//! shared checkpoint file. An unknown preset is not a protocol error —
//! the shape is valid — but config resolution fails with
//! [`UnknownMachine`], which the server turns into a structured
//! `unknown_machine` error row.
//!
//! Parsing is *strict*: unknown fields — top-level or inside `config` —
//! are protocol errors, so a typo like `"chainning"` yields an error row
//! instead of silently sweeping the wrong machine. Every semantic field
//! (everything except `id`) is folded into a canonical rendering whose
//! FNV-1a hash is the point's **key**; the key names the computation in
//! the append-only checkpoint [`Journal`] (schema
//! `c240-sweep-journal/v1`), which is what makes `--resume` skip
//! already-computed points after a crash.
//!
//! This module is deliberately kernel-agnostic (it validates shapes and
//! ranges, not kernel ids — the registry lives in `lfk-suite`, which the
//! server consults) so notebook-side grid generators and the server share
//! one definition of the protocol.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, LineWriter, Write};
use std::path::Path;

use c240_isa::{MachineDescription, PRESET_NAMES};
use c240_obs::json::{Json, JsonError};
use c240_sim::SimConfig;

/// Schema identifier of result rows (ok and error alike).
pub const SWEEP_ROW_SCHEMA: &str = "c240-sweep-row/v1";

/// Schema identifier of the checkpoint journal's header line.
pub const JOURNAL_SCHEMA: &str = "c240-sweep-journal/v1";

/// A deliberate fault injected into a point's evaluation — the testing
/// hook the supervision machinery (and its CI smoke) is exercised with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic instead of evaluating.
    Panic,
    /// Sleep this long before evaluating (trips tight deadlines).
    SleepMs(u64),
}

/// A background-contention override, by the calibrated presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contention {
    /// No background traffic.
    Idle,
    /// `n` lockstep copies of the same executable (§4.2's 5–10% case).
    Lockstep(u32),
    /// `n` unrelated programs (§4.2's ~20% case).
    Mixed(u32),
}

/// The machine-configuration overrides a point may carry. Every field is
/// optional; unset fields keep the server's base configuration (the
/// paper's C-240 unless the server was started with ablations).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Overrides {
    /// Operand chaining between vector pipes.
    pub chaining: Option<bool>,
    /// The register-pair port constraint.
    pub pair_constraint: Option<bool>,
    /// Memory refresh.
    pub refresh: Option<bool>,
    /// Tailgating bubbles (`false` zeroes every B).
    pub bubbles: Option<bool>,
    /// Steady-state fast-forward.
    pub fast_forward: Option<bool>,
    /// Co-sim CPU count.
    pub cpus: Option<u32>,
    /// Memory bank count.
    pub banks: Option<u32>,
    /// Bank busy time in cycles.
    pub bank_busy: Option<u64>,
    /// Data-space size in words.
    pub words: Option<u64>,
    /// Runaway-loop instruction limit.
    pub max_instructions: Option<u64>,
    /// Background contention preset.
    pub contention: Option<Contention>,
}

/// One parsed sweep request.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Display identity of the point. Not part of the key; defaults to
    /// `p-<key prefix>` when the request carries none.
    pub id: String,
    /// LFK kernel number.
    pub kernel: u32,
    /// Machine preset to evaluate on ([`MachineDescription::preset`])
    /// instead of the server's base machine. Part of the journal key.
    pub machine: Option<String>,
    /// Outer-loop pass count override.
    pub passes: Option<i64>,
    /// Per-point deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Fault injection for supervision testing.
    pub inject: Option<Fault>,
    /// Machine-configuration overrides.
    pub overrides: Overrides,
}

/// A violation of the wire protocol.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The line is not valid JSON.
    Parse(JsonError),
    /// The line is valid JSON but not an object.
    NotAnObject,
    /// The required `kernel` field is missing.
    MissingKernel,
    /// A field this protocol version does not know.
    UnknownField {
        /// The offending key (prefixed `config.` for nested fields).
        field: String,
    },
    /// A known field with a value of the wrong type or range.
    BadField {
        /// The offending key.
        field: &'static str,
        /// What the field accepts.
        expected: &'static str,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Parse(e) => write!(f, "malformed JSON: {e}"),
            ProtocolError::NotAnObject => write!(f, "a sweep point must be a JSON object"),
            ProtocolError::MissingKernel => write!(f, "missing required field `kernel`"),
            ProtocolError::UnknownField { field } => {
                write!(f, "unknown field `{field}` (this protocol is strict)")
            }
            ProtocolError::BadField { field, expected } => {
                write!(f, "field `{field}` must be {expected}")
            }
        }
    }
}

impl Error for ProtocolError {}

/// An integer-valued number within `[0, 2^53]` (exactly representable).
fn as_integer(value: &Json) -> Option<i64> {
    let n = value.as_f64()?;
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if n.is_finite() && n.fract() == 0.0 && (-EXACT..=EXACT).contains(&n) {
        Some(n as i64)
    } else {
        None
    }
}

fn field_u64(value: &Json, field: &'static str) -> Result<u64, ProtocolError> {
    as_integer(value)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or(ProtocolError::BadField {
            field,
            expected: "a non-negative integer",
        })
}

fn field_u32(value: &Json, field: &'static str) -> Result<u32, ProtocolError> {
    as_integer(value)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or(ProtocolError::BadField {
            field,
            expected: "a non-negative 32-bit integer",
        })
}

fn field_bool(value: &Json, field: &'static str) -> Result<bool, ProtocolError> {
    match value {
        Json::Bool(b) => Ok(*b),
        _ => Err(ProtocolError::BadField {
            field,
            expected: "a boolean",
        }),
    }
}

fn parse_contention(value: &Json) -> Result<Contention, ProtocolError> {
    const ERR: ProtocolError = ProtocolError::BadField {
        field: "config.contention",
        expected: "\"idle\", \"lockstep:N\", or \"mixed:N\" with N at most 15",
    };
    let text = value.as_str().ok_or(ERR)?;
    if text == "idle" {
        return Ok(Contention::Idle);
    }
    let (preset, n) = text.split_once(':').ok_or(ERR)?;
    // N counts the *other* CPUs of the machine.
    let n: u32 = n
        .parse()
        .ok()
        .filter(|&n| n < c240_sim::MAX_CPUS)
        .ok_or(ERR)?;
    match preset {
        "lockstep" => Ok(Contention::Lockstep(n)),
        "mixed" => Ok(Contention::Mixed(n)),
        _ => Err(ERR),
    }
}

fn parse_inject(value: &Json) -> Result<Fault, ProtocolError> {
    const ERR: ProtocolError = ProtocolError::BadField {
        field: "inject",
        expected: "\"panic\" or {\"sleep_ms\": N}",
    };
    match value {
        Json::Str(s) if s == "panic" => Ok(Fault::Panic),
        Json::Obj(pairs) => {
            if pairs.len() != 1 || pairs[0].0 != "sleep_ms" {
                return Err(ERR);
            }
            Ok(Fault::SleepMs(field_u64(&pairs[0].1, "inject.sleep_ms")?))
        }
        _ => Err(ERR),
    }
}

fn parse_overrides(value: &Json) -> Result<Overrides, ProtocolError> {
    let Json::Obj(pairs) = value else {
        return Err(ProtocolError::BadField {
            field: "config",
            expected: "an object of override fields",
        });
    };
    let mut o = Overrides::default();
    for (key, v) in pairs {
        match key.as_str() {
            "chaining" => o.chaining = Some(field_bool(v, "config.chaining")?),
            "pair_constraint" => o.pair_constraint = Some(field_bool(v, "config.pair_constraint")?),
            "refresh" => o.refresh = Some(field_bool(v, "config.refresh")?),
            "bubbles" => o.bubbles = Some(field_bool(v, "config.bubbles")?),
            "fast_forward" => o.fast_forward = Some(field_bool(v, "config.fast_forward")?),
            "cpus" => o.cpus = Some(field_u32(v, "config.cpus")?),
            "banks" => o.banks = Some(field_u32(v, "config.banks")?),
            "bank_busy" => o.bank_busy = Some(field_u64(v, "config.bank_busy")?),
            "words" => o.words = Some(field_u64(v, "config.words")?),
            "max_instructions" => {
                o.max_instructions = Some(field_u64(v, "config.max_instructions")?)
            }
            "contention" => o.contention = Some(parse_contention(v)?),
            other => {
                return Err(ProtocolError::UnknownField {
                    field: format!("config.{other}"),
                })
            }
        }
    }
    Ok(o)
}

/// Parses one request line. Strict: unknown fields are errors.
///
/// # Errors
///
/// Returns the first [`ProtocolError`] encountered.
pub fn parse_point(line: &str) -> Result<SweepPoint, ProtocolError> {
    let doc = Json::parse(line).map_err(ProtocolError::Parse)?;
    let Json::Obj(pairs) = &doc else {
        return Err(ProtocolError::NotAnObject);
    };
    let mut id: Option<String> = None;
    let mut kernel: Option<u32> = None;
    let mut machine: Option<String> = None;
    let mut passes: Option<i64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut inject: Option<Fault> = None;
    let mut overrides = Overrides::default();
    for (key, v) in pairs {
        match key.as_str() {
            "id" => {
                id = Some(
                    v.as_str()
                        .ok_or(ProtocolError::BadField {
                            field: "id",
                            expected: "a string",
                        })?
                        .to_string(),
                )
            }
            "kernel" => kernel = Some(field_u32(v, "kernel")?),
            "machine" => {
                machine = Some(
                    v.as_str()
                        .ok_or(ProtocolError::BadField {
                            field: "machine",
                            expected: "a machine preset name (a string)",
                        })?
                        .to_string(),
                )
            }
            "passes" => {
                passes = Some(as_integer(v).ok_or(ProtocolError::BadField {
                    field: "passes",
                    expected: "an integer",
                })?)
            }
            "deadline_ms" => deadline_ms = Some(field_u64(v, "deadline_ms")?),
            "inject" => inject = Some(parse_inject(v)?),
            "config" => overrides = parse_overrides(v)?,
            other => {
                return Err(ProtocolError::UnknownField {
                    field: other.to_string(),
                })
            }
        }
    }
    let kernel = kernel.ok_or(ProtocolError::MissingKernel)?;
    let mut point = SweepPoint {
        id: String::new(),
        kernel,
        machine,
        passes,
        deadline_ms,
        inject,
        overrides,
    };
    point.id = id.unwrap_or_else(|| format!("p-{}", &point.key()[..12]));
    Ok(point)
}

/// FNV-1a over the canonical rendering — the journal key.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl SweepPoint {
    /// The canonical rendering of the point's *semantic* fields (`id`
    /// excluded): fixed key order, unset fields omitted. Two requests
    /// with the same canonical form are the same computation.
    pub fn canonical(&self) -> Json {
        let mut c = Json::obj().field("kernel", self.kernel);
        if let Some(m) = &self.machine {
            c = c.field("machine", m.as_str());
        }
        if let Some(p) = self.passes {
            c = c.field("passes", p as f64);
        }
        if let Some(d) = self.deadline_ms {
            c = c.field("deadline_ms", d);
        }
        match self.inject {
            Some(Fault::Panic) => c = c.field("inject", "panic"),
            Some(Fault::SleepMs(ms)) => c = c.field("inject", Json::obj().field("sleep_ms", ms)),
            None => {}
        }
        let o = &self.overrides;
        let mut cfg = Json::obj();
        for (key, v) in [
            ("chaining", o.chaining),
            ("pair_constraint", o.pair_constraint),
            ("refresh", o.refresh),
            ("bubbles", o.bubbles),
            ("fast_forward", o.fast_forward),
        ] {
            if let Some(b) = v {
                cfg = cfg.field(key, b);
            }
        }
        if let Some(n) = o.cpus {
            cfg = cfg.field("cpus", n);
        }
        if let Some(n) = o.banks {
            cfg = cfg.field("banks", n);
        }
        if let Some(n) = o.bank_busy {
            cfg = cfg.field("bank_busy", n);
        }
        if let Some(n) = o.words {
            cfg = cfg.field("words", n);
        }
        if let Some(n) = o.max_instructions {
            cfg = cfg.field("max_instructions", n);
        }
        match o.contention {
            Some(Contention::Idle) => cfg = cfg.field("contention", "idle"),
            Some(Contention::Lockstep(n)) => cfg = cfg.field("contention", format!("lockstep:{n}")),
            Some(Contention::Mixed(n)) => cfg = cfg.field("contention", format!("mixed:{n}")),
            None => {}
        }
        if !matches!(&cfg, Json::Obj(p) if p.is_empty()) {
            c = c.field("config", cfg);
        }
        c
    }

    /// The point's journal key: FNV-1a of the canonical rendering, as
    /// 16 hex digits.
    pub fn key(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().to_string().as_bytes()))
    }

    /// The request line for this point (a valid protocol line, `id`
    /// included) — what grid generators emit.
    pub fn request_line(&self) -> String {
        let Json::Obj(fields) = self.canonical() else {
            unreachable!("canonical() builds an object");
        };
        let mut line = Json::obj().field("id", self.id.as_str());
        for (key, value) in fields {
            line = line.field(&key, value);
        }
        line.to_string()
    }

    /// Resolves the point's configuration: the machine comes from the
    /// point's `machine` preset (or the base when none is named), the
    /// base's run settings (instruction limit, fast-forward, CPU count,
    /// background contention) carry over, and the overrides apply last.
    /// Panic-free by construction: override fields are set raw and the
    /// *caller* runs [`SimConfig::validate`] on the result, so an
    /// out-of-range override becomes a typed error row rather than a
    /// panic.
    ///
    /// # Errors
    ///
    /// [`UnknownMachine`] when the point names a preset
    /// [`MachineDescription::preset`] does not know.
    pub fn config(&self, base: &SimConfig) -> Result<SimConfig, UnknownMachine> {
        let mut cfg = base.clone();
        if let Some(name) = &self.machine {
            cfg.machine = MachineDescription::preset(name)
                .ok_or_else(|| UnknownMachine { name: name.clone() })?;
        }
        let o = &self.overrides;
        let m = &mut cfg.machine;
        if let Some(b) = o.chaining {
            m.chaining = b;
        }
        if let Some(b) = o.pair_constraint {
            m.pair_constraint = b;
        }
        if let Some(b) = o.refresh {
            m.refresh_enabled = b;
        }
        if o.bubbles == Some(false) {
            m.timing = m.timing.without_bubbles();
        }
        if let Some(n) = o.banks {
            m.banks = n;
        }
        if let Some(n) = o.bank_busy {
            m.bank_busy = n;
        }
        if let Some(n) = o.words {
            m.words = n;
        }
        if let Some(b) = o.fast_forward {
            cfg.fast_forward = b;
        }
        if let Some(n) = o.cpus {
            cfg.cpus = n;
        }
        if let Some(n) = o.max_instructions {
            cfg.max_instructions = n;
        }
        match o.contention {
            Some(Contention::Idle) => {
                cfg.contention = c240_mem::ContentionConfig::idle();
            }
            Some(Contention::Lockstep(n)) => {
                cfg.contention = c240_mem::ContentionConfig::lockstep(n as usize);
            }
            Some(Contention::Mixed(n)) => {
                cfg.contention = c240_mem::ContentionConfig::mixed(n as usize);
            }
            None => {}
        }
        Ok(cfg)
    }
}

/// A sweep point named a machine preset the registry does not know.
///
/// Deliberately *not* a [`ProtocolError`]: the request's shape is valid,
/// the name just fails to resolve — analogous to an unknown kernel
/// number — so the server reports it as a structured `unknown_machine`
/// error row instead of a protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMachine {
    /// The unresolvable preset name.
    pub name: String,
}

impl fmt::Display for UnknownMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown machine preset `{}` (known presets: {})",
            self.name,
            PRESET_NAMES.join(", ")
        )
    }
}

impl Error for UnknownMachine {}

/// The append-only checkpoint journal (schema [`JOURNAL_SCHEMA`]).
///
/// Line 1 is a header object; every further line is either a checkpoint
/// record `{"key":"<16 hex>","row":{…},"sum":"<16 hex>"}` (the `sum` is
/// FNV-1a over `key:row`, so in-place damage to either field is detected
/// rather than resumed as a silently wrong row) or a self-describing metadata
/// row (an object carrying its own `schema` field, e.g. the periodic
/// `c240-metrics/v1` snapshots) appended with [`Journal::meta`]. Records
/// are flushed line-by-line, so a `kill -9` loses at most the rows of
/// in-flight points; a torn final line (the write the crash interrupted)
/// is tolerated by the loader, which also skips metadata rows — resume
/// semantics depend only on checkpoint records.
pub struct Journal {
    writer: LineWriter<File>,
    bytes: u64,
}

impl Journal {
    /// Opens (or creates) a journal for appending, writing the header if
    /// the file is new or empty.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_append(path: &Path) -> io::Result<Journal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let existing = file.metadata()?.len();
        let mut journal = Journal {
            writer: LineWriter::new(file),
            bytes: existing,
        };
        if existing == 0 {
            journal.write_line(&Json::obj().field("schema", JOURNAL_SCHEMA))?;
        }
        Ok(journal)
    }

    fn write_line(&mut self, value: &Json) -> io::Result<()> {
        let line = value.to_string();
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.bytes += line.len() as u64 + 1;
        Ok(())
    }

    /// Total bytes this journal file holds (pre-existing content plus
    /// everything appended through this handle) — the `journal_bytes`
    /// gauge the metrics plane reports.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Appends one completed point and flushes it to the OS. The record
    /// carries a `sum` field — FNV-1a over `key:row` (the key *and* the
    /// row's canonical rendering, so a flipped byte in either is caught)
    /// — letting the loader tell a *corrupted* record (bytes damaged in
    /// place, which must fail loudly) from a *torn* one (the final line a
    /// `kill -9` interrupted, which is tolerated).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn record(&mut self, key: &str, row: &Json) -> io::Result<()> {
        let sum = format!("{:016x}", fnv1a64(format!("{key}:{row}").as_bytes()));
        self.write_line(
            &Json::obj()
                .field("key", key)
                .field("row", row.clone())
                .field("sum", sum),
        )
    }

    /// Appends a self-describing metadata row (it must carry a `schema`
    /// field so the loader can tell it from a torn checkpoint record).
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` if `row` has no `schema` field; propagates
    /// filesystem errors.
    pub fn meta(&mut self, row: &Json) -> io::Result<()> {
        if row.get("schema").and_then(Json::as_str).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a journal metadata row must carry a schema field",
            ));
        }
        self.write_line(row)
    }

    /// Loads a journal into a key → row map (later records win, though a
    /// well-formed journal never repeats a key). A torn *final* line is
    /// skipped — that is the record a `kill -9` interrupted; corruption
    /// anywhere else is an error.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors, a missing or foreign header, or a
    /// malformed non-final record.
    pub fn load(path: &Path) -> io::Result<BTreeMap<String, Json>> {
        let bad = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
        let reader = BufReader::new(File::open(path)?);
        let mut lines = reader.lines();
        let header = lines
            .next()
            .ok_or_else(|| bad("journal is empty (missing header)".into()))??;
        let schema = Json::parse(&header)
            .ok()
            .and_then(|h| h.get("schema").and_then(Json::as_str).map(str::to_string));
        if schema.as_deref() != Some(JOURNAL_SCHEMA) {
            return Err(bad(format!(
                "journal header is not {JOURNAL_SCHEMA}: {header}"
            )));
        }
        let mut rows = BTreeMap::new();
        let mut pending: Option<(String, usize)> = None;
        for (lineno, line) in lines.enumerate() {
            let line = line?;
            if let Some((torn, at)) = pending.take() {
                // A malformed line followed by another line is real
                // corruption, not a torn tail.
                return Err(bad(format!("malformed journal record {at}: {torn}")));
            }
            if line.trim().is_empty() {
                continue;
            }
            match Json::parse(&line).ok() {
                Some(record) => {
                    let checkpoint = record.get("key").and_then(Json::as_str).and_then(|key| {
                        record.get("row").map(|row| (key.to_string(), row.clone()))
                    });
                    if let Some((key, row)) = checkpoint {
                        // Verify the integrity checksum when the record
                        // carries one (pre-checksum journals do not). A
                        // mismatch is damage inside an otherwise
                        // well-formed line — tolerated only as the torn
                        // final line, fatal anywhere else, and never
                        // silently resumed as a wrong row.
                        let sum = record.get("sum").and_then(Json::as_str);
                        let expect = format!("{:016x}", fnv1a64(format!("{key}:{row}").as_bytes()));
                        if sum.is_some() && sum != Some(expect.as_str()) {
                            pending = Some((line, lineno + 2));
                        } else {
                            rows.insert(key, row);
                        }
                    } else if record.get("schema").and_then(Json::as_str).is_some() {
                        // A metadata row (metrics snapshot, …): valid
                        // journal content, irrelevant to resume.
                    } else {
                        pending = Some((line, lineno + 2));
                    }
                }
                None => pending = Some((line, lineno + 2)),
            }
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let p = parse_point(
            r#"{"id":"x","kernel":12,"passes":3,"deadline_ms":250,
                "config":{"chaining":false,"cpus":2,"contention":"mixed:3","banks":16}}"#,
        )
        .unwrap();
        assert_eq!(p.id, "x");
        assert_eq!(p.kernel, 12);
        assert_eq!(p.passes, Some(3));
        assert_eq!(p.deadline_ms, Some(250));
        assert_eq!(p.overrides.chaining, Some(false));
        assert_eq!(p.overrides.cpus, Some(2));
        assert_eq!(p.overrides.banks, Some(16));
        assert_eq!(p.overrides.contention, Some(Contention::Mixed(3)));
    }

    #[test]
    fn strictness_and_shapes() {
        assert!(matches!(
            parse_point("not json"),
            Err(ProtocolError::Parse(_))
        ));
        assert_eq!(parse_point("[1,2]"), Err(ProtocolError::NotAnObject));
        assert_eq!(
            parse_point(r#"{"id":"a"}"#),
            Err(ProtocolError::MissingKernel)
        );
        assert_eq!(
            parse_point(r#"{"kernel":1,"chainning":true}"#),
            Err(ProtocolError::UnknownField {
                field: "chainning".into()
            })
        );
        assert_eq!(
            parse_point(r#"{"kernel":1,"config":{"chainning":true}}"#),
            Err(ProtocolError::UnknownField {
                field: "config.chainning".into()
            })
        );
        assert!(matches!(
            parse_point(r#"{"kernel":1.5}"#),
            Err(ProtocolError::BadField {
                field: "kernel",
                ..
            })
        ));
        assert!(matches!(
            parse_point(r#"{"kernel":1,"config":{"cpus":-2}}"#),
            Err(ProtocolError::BadField {
                field: "config.cpus",
                ..
            })
        ));
        assert!(matches!(
            parse_point(r#"{"kernel":1,"config":{"chaining":"yes"}}"#),
            Err(ProtocolError::BadField {
                field: "config.chaining",
                ..
            })
        ));
        assert!(matches!(
            parse_point(r#"{"kernel":1,"config":{"contention":"heavy"}}"#),
            Err(ProtocolError::BadField {
                field: "config.contention",
                ..
            })
        ));
        assert!(matches!(
            parse_point(r#"{"kernel":1,"inject":"explode"}"#),
            Err(ProtocolError::BadField {
                field: "inject",
                ..
            })
        ));
        assert_eq!(
            parse_point(r#"{"kernel":1,"inject":"panic"}"#)
                .unwrap()
                .inject,
            Some(Fault::Panic)
        );
        assert_eq!(
            parse_point(r#"{"kernel":1,"inject":{"sleep_ms":40}}"#)
                .unwrap()
                .inject,
            Some(Fault::SleepMs(40))
        );
    }

    #[test]
    fn key_ignores_id_and_field_order_but_not_semantics() {
        let a = parse_point(r#"{"id":"a","kernel":1,"config":{"chaining":false}}"#).unwrap();
        let b = parse_point(r#"{"config":{"chaining":false},"kernel":1,"id":"b"}"#).unwrap();
        let c = parse_point(r#"{"id":"a","kernel":1,"config":{"chaining":true}}"#).unwrap();
        let d = parse_point(r#"{"id":"a","kernel":2,"config":{"chaining":false}}"#).unwrap();
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_ne!(a.key(), d.key());
        assert_eq!(a.key().len(), 16);
    }

    #[test]
    fn default_id_derives_from_the_key() {
        let p = parse_point(r#"{"kernel":7}"#).unwrap();
        assert_eq!(p.id, format!("p-{}", &p.key()[..12]));
    }

    #[test]
    fn request_lines_round_trip() {
        let p = parse_point(
            r#"{"id":"rt","kernel":9,"passes":2,"inject":{"sleep_ms":5},
               "config":{"refresh":false,"cpus":4,"contention":"lockstep:2"}}"#,
        )
        .unwrap();
        let again = parse_point(&p.request_line()).unwrap();
        assert_eq!(again, p);
        assert_eq!(again.key(), p.key());
    }

    #[test]
    fn overrides_apply_to_the_base_config() {
        let p = parse_point(
            r#"{"kernel":1,"config":{"chaining":false,"refresh":false,"bubbles":false,
               "cpus":2,"banks":16,"bank_busy":4,"words":1024,"max_instructions":99,
               "fast_forward":false,"pair_constraint":false,"contention":"mixed:2"}}"#,
        )
        .unwrap();
        let cfg = p.config(&SimConfig::c240()).unwrap();
        let m = &cfg.machine;
        assert!(!m.chaining && !m.pair_constraint && !cfg.fast_forward);
        assert!(!m.refresh_enabled);
        assert_eq!(cfg.cpus, 2);
        assert_eq!(m.banks, 16);
        assert_eq!(m.bank_busy, 4);
        assert_eq!(m.words, 1024);
        assert_eq!(cfg.max_instructions, 99);
        assert!(!cfg.contention.is_idle());
        assert_eq!(m.timing.get(c240_isa::timing::TimingClass::Store).b, 0.0);
        assert_eq!(cfg.validate(), Ok(()));
        // Out-of-range overrides apply raw and fail validation instead
        // of panicking.
        let p = parse_point(r#"{"kernel":1,"config":{"cpus":0}}"#).unwrap();
        assert!(p.config(&SimConfig::c240()).unwrap().validate().is_err());
    }

    #[test]
    fn machine_presets_resolve_and_separate_keys() {
        let base = parse_point(r#"{"kernel":1}"#).unwrap();
        let banks64 = parse_point(r#"{"kernel":1,"machine":"c240-64b"}"#).unwrap();
        let dual = parse_point(r#"{"kernel":1,"machine":"dual-port"}"#).unwrap();
        let explicit = parse_point(r#"{"kernel":1,"machine":"c240"}"#).unwrap();
        assert_eq!(banks64.machine.as_deref(), Some("c240-64b"));
        // Same kernel, same config — the machine alone separates keys.
        assert_ne!(base.key(), banks64.key());
        assert_ne!(banks64.key(), dual.key());
        assert_ne!(base.key(), explicit.key(), "naming c240 is semantic too");
        // The resolved configurations reflect the named machine.
        let cfg = banks64.config(&SimConfig::c240()).unwrap();
        assert_eq!(cfg.machine, MachineDescription::c240_64banks());
        let cfg = dual.config(&SimConfig::c240()).unwrap();
        assert_eq!((cfg.machine.ports, cfg.machine.banks), (2, 16));
        assert_eq!(cfg.validate(), Ok(()));
        // Request lines round-trip the machine field.
        let again = parse_point(&banks64.request_line()).unwrap();
        assert_eq!(again, banks64);
        assert_eq!(again.key(), banks64.key());
    }

    #[test]
    fn machine_presets_keep_operational_knobs_and_apply_overrides() {
        let mut base = SimConfig::c240();
        base.fast_forward = false;
        base.max_instructions = 12_345;
        base.cpus = 2;
        base.contention = c240_mem::ContentionConfig::mixed(3);
        let p = parse_point(r#"{"kernel":1,"machine":"c240-64b","config":{"chaining":false}}"#)
            .unwrap();
        let cfg = p.config(&base).unwrap();
        // Machine half from the preset…
        assert_eq!(cfg.machine.banks, 64);
        assert!(!cfg.machine.chaining, "overrides still apply on top");
        // …operational knobs from the base.
        assert!(!cfg.fast_forward);
        assert_eq!(cfg.max_instructions, 12_345);
        assert_eq!(cfg.cpus, 2);
        assert!(!cfg.contention.is_idle());
    }

    #[test]
    fn unknown_machine_is_a_typed_resolution_error() {
        let p = parse_point(r#"{"kernel":1,"machine":"cray-2"}"#).unwrap();
        let err = p.config(&SimConfig::c240()).unwrap_err();
        assert_eq!(err.name, "cray-2");
        let message = err.to_string();
        assert!(
            message.contains("cray-2") && message.contains("c240-64b"),
            "{message}"
        );
        // A non-string machine field is a protocol error, though.
        assert!(matches!(
            parse_point(r#"{"kernel":1,"machine":7}"#),
            Err(ProtocolError::BadField {
                field: "machine",
                ..
            })
        ));
    }

    #[test]
    fn journal_appends_resumes_and_tolerates_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "macs-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.ndjson");
        let row1 = Json::obj().field("id", "a").field("cycles", 10.0);
        let row2 = Json::obj().field("id", "b").field("cycles", 20.0);
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.record("00000000000000aa", &row1).unwrap();
        }
        {
            // Re-open appends (no second header).
            let mut j = Journal::open_append(&path).unwrap();
            j.record("00000000000000bb", &row2).unwrap();
        }
        let rows = Journal::load(&path).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows["00000000000000aa"], row1);
        assert_eq!(rows["00000000000000bb"], row2);
        // Simulate a kill -9 mid-write: a torn trailing record.
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("{\"key\":\"00000000000000cc\",\"row\":{\"trunc");
        std::fs::write(&path, &contents).unwrap();
        let rows = Journal::load(&path).unwrap();
        assert_eq!(rows.len(), 2, "torn tail is dropped, not fatal");
        // Corruption in the middle is fatal.
        let corrupt = contents.replace(
            "{\"key\":\"00000000000000bb\"",
            "{\"key\":00000000000000bb\"",
        );
        std::fs::write(&path, &corrupt).unwrap();
        assert!(Journal::load(&path).is_err());
        // A foreign header is rejected.
        std::fs::write(&path, "{\"schema\":\"other/v9\"}\n").unwrap();
        assert!(Journal::load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_metadata_rows_are_skipped_on_load_and_tolerate_torn_tails() {
        let dir = std::env::temp_dir().join(format!(
            "macs-journal-meta-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.ndjson");
        let row = Json::obj().field("id", "a").field("cycles", 10.0);
        let snapshot = Json::obj()
            .field("schema", "c240-metrics/v1")
            .field("counters", Json::obj().field("macs_points_total", 1.0));
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.record("00000000000000aa", &row).unwrap();
            j.meta(&snapshot).unwrap();
            j.record("00000000000000bb", &row).unwrap();
            j.meta(&snapshot).unwrap();
            // Byte accounting matches the file exactly.
            assert_eq!(
                j.bytes_written(),
                std::fs::metadata(&path).unwrap().len(),
                "bytes_written diverged from the file"
            );
            // A schema-less metadata row is rejected (the loader could
            // not tell it from a torn checkpoint record).
            assert!(j.meta(&Json::obj().field("x", 1.0)).is_err());
        }
        // Metadata rows are invisible to resume.
        let rows = Journal::load(&path).unwrap();
        assert_eq!(rows.len(), 2);
        // Re-opening resumes byte accounting from the existing length.
        {
            let j = Journal::open_append(&path).unwrap();
            assert_eq!(j.bytes_written(), std::fs::metadata(&path).unwrap().len());
        }
        // A kill -9 can tear a metrics snapshot mid-write exactly like a
        // checkpoint record; a torn *final* metadata row is tolerated…
        let contents = std::fs::read_to_string(&path).unwrap();
        let torn = format!("{contents}{{\"schema\":\"c240-metrics/v1\",\"counters\":{{\"mac");
        std::fs::write(&path, &torn).unwrap();
        let rows = Journal::load(&path).unwrap();
        assert_eq!(rows.len(), 2, "torn metadata tail is dropped, not fatal");
        // …but a torn metadata row in the middle is corruption.
        let torn_mid = contents.replacen(
            "{\"key\":\"00000000000000aa\"",
            "{\"schema\":\"c240-metrics/v1\",\"coun\n{\"key\":\"00000000000000aa\"",
            1,
        );
        std::fs::write(&path, &torn_mid).unwrap();
        assert!(Journal::load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
