//! The `qaec serve` subcommand: a long-running batch query layer over
//! [`qaec::Service`].
//!
//! Requests are line-delimited JSON objects
//! (`{"v": 1, "id": 7, "op": "check", ...}`), answered one JSON line
//! per request — the normative wire format lives in `docs/PROTOCOL.md`.
//! Three transports share the same request/response shapes:
//!
//! * **stdin (default)** — the whole stream is read, requests landing
//!   on the same circuit pair are grouped onto one cached session and
//!   distinct pairs run concurrently ([`qaec::Service::handle_batch`]);
//!   responses come back in input order, a stats footer goes to stderr;
//! * **`--listen host:port`** — a TCP listener, one thread per
//!   connection, each connection a request/response stream (answered
//!   line by line, so a client can keep the connection open);
//! * **`--unix path`** — the same, on a unix-domain socket.
//!
//! Malformed lines are answered with a structured
//! `{"ok": false, "error": ...}` object — a bad request never takes the
//! service down. Lines are read as bytes: one that is not UTF-8, or
//! longer than [`MAX_LINE_BYTES`], is answered with an error like any
//! other bad line, and reading goes on with the next. The embedded
//! result payloads are built by the same row constructors as
//! `check --json` / `sweep --json`, so the fields mean exactly the same
//! thing in one-shot and serving mode.
//!
//! The JSON reader below is deliberately minimal (objects, arrays,
//! strings with escapes, numbers, booleans, null — no comments): enough
//! for the protocol, no serde dependency, mirroring the hand-rolled
//! writer in `qaec_bench::json`. It recurses once per nesting level and
//! refuses values nested deeper than [`MAX_JSON_DEPTH`], so a hostile
//! line (say 400k `[`) gets a structured error instead of overflowing
//! the stack.

use crate::{check_json, epsilon_point_json, load, noise_point_json, CliOptions};
use qaec::{
    AlgorithmChoice, Service, ServiceConfig, ServiceQuery, ServiceReply, ServiceRequest,
    ServiceResponse, ServiceStats, SharedTableMode, StoreReclaimMode,
};
use qaec_bench::json;
use qaec_circuit::qasm;
use qaec_tensornet::Strategy;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;

/// Parsed `qaec serve` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeArgs {
    /// Checker options every cached session is compiled with;
    /// `threads` doubles as the stdin batch's concurrency.
    pub options: CliOptions,
    /// Warm-store byte budget for the session cache (`--cache-bytes`,
    /// `k`/`m`/`g` suffixes); `None` caches without bound.
    pub cache_bytes: Option<usize>,
    /// Serve on a TCP socket instead of stdin (`--listen host:port`).
    pub listen: Option<String>,
    /// Serve on a unix-domain socket instead of stdin (`--unix path`).
    pub unix: Option<String>,
}

/// Parses a byte count with optional binary `k`/`m`/`g` suffix
/// (`"512"`, `"64k"`, `"256m"`, `"2g"`).
///
/// # Errors
///
/// A human-readable message on malformed input.
pub fn parse_byte_size(text: &str) -> Result<usize, String> {
    let trimmed = text.trim();
    let (digits, shift) = match trimmed.char_indices().last() {
        Some((i, 'k') | (i, 'K')) => (&trimmed[..i], 10),
        Some((i, 'm') | (i, 'M')) => (&trimmed[..i], 20),
        Some((i, 'g') | (i, 'G')) => (&trimmed[..i], 30),
        _ => (trimmed, 0),
    };
    let base = digits
        .parse::<usize>()
        .map_err(|_| format!("bad byte size `{text}` (expected e.g. 512, 64k, 256m, 2g)"))?;
    base.checked_mul(1usize << shift)
        .ok_or_else(|| format!("byte size `{text}` overflows"))
}

/// Parses the arguments after `qaec serve`. Accepts the shared checker
/// options (minus `--timeout`, `--samples`/`--seed` and `--json`, which
/// have no serving meaning) plus the serve-specific
/// `--cache-bytes`/`--listen`/`--unix`.
///
/// # Errors
///
/// A human-readable message on malformed input.
pub fn parse_serve_args(rest: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        options: CliOptions::default(),
        cache_bytes: None,
        listen: None,
        unix: None,
    };
    let mut k = 0;
    while k < rest.len() {
        let raw = rest[k].as_str();
        let (flag, inline) = match raw.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (raw, None),
        };
        let value = |k: &mut usize| -> Result<&str, String> {
            if let Some(v) = inline {
                return Ok(v);
            }
            *k += 1;
            rest.get(*k)
                .map(|s| s.as_str())
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag {
            "--cache-bytes" => args.cache_bytes = Some(parse_byte_size(value(&mut k)?)?),
            "--listen" => args.listen = Some(value(&mut k)?.to_string()),
            "--unix" => args.unix = Some(value(&mut k)?.to_string()),
            "--algorithm" => {
                args.options.algorithm = match value(&mut k)? {
                    "auto" => AlgorithmChoice::Auto,
                    "1" | "I" | "i" => AlgorithmChoice::AlgorithmI,
                    "2" | "II" | "ii" => AlgorithmChoice::AlgorithmII,
                    "mpo" | "3" | "III" | "iii" => AlgorithmChoice::Mpo,
                    other => return Err(format!("serve: unknown algorithm `{other}`")),
                };
            }
            "--svd-threshold" => {
                args.options.svd_threshold = value(&mut k)?
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| "bad --svd-threshold value".to_string())?;
            }
            "--max-bond" => {
                args.options.max_bond = value(&mut k)?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "bad --max-bond value".to_string())?;
            }
            "--strategy" => {
                args.options.strategy = match value(&mut k)? {
                    "sequential" => Strategy::Sequential,
                    "greedy" => Strategy::GreedySize,
                    "min-degree" => Strategy::MinDegree,
                    "min-fill" => Strategy::MinFill,
                    other => return Err(format!("serve: unknown strategy `{other}`")),
                };
            }
            "--threads" => {
                args.options.threads = value(&mut k)?
                    .parse::<usize>()
                    .map_err(|_| "bad --threads value".to_string())?;
            }
            "--lanes" => {
                args.options.sweep_lanes = value(&mut k)?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "bad --lanes value".to_string())?;
            }
            "--shared-table" => {
                args.options.shared_table = match value(&mut k)? {
                    "on" => SharedTableMode::On,
                    "off" => SharedTableMode::Off,
                    "auto" => SharedTableMode::Auto,
                    other => return Err(format!("serve: unknown shared-table mode `{other}`")),
                };
            }
            "--store-reclaim" => {
                args.options.store_reclaim = match value(&mut k)? {
                    "on" => StoreReclaimMode::On,
                    "off" => StoreReclaimMode::Off,
                    "auto" => StoreReclaimMode::Auto,
                    other => return Err(format!("serve: unknown store-reclaim mode `{other}`")),
                };
            }
            "--seed-cache" => {
                args.options.seed_cache = match value(&mut k)? {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("serve: unknown seed-cache mode `{other}`")),
                };
            }
            "--optimize" => match inline {
                None => args.options.optimize = true,
                Some(v) => return Err(format!("--optimize takes no value (got `{v}`)")),
            },
            other => return Err(format!("serve: unknown flag `{other}`")),
        }
        k += 1;
    }
    if args.listen.is_some() && args.unix.is_some() {
        return Err("serve: --listen and --unix are exclusive".to_string());
    }
    Ok(args)
}

// ---------------------------------------------------------------------
// Minimal JSON reader.
// ---------------------------------------------------------------------

/// A parsed JSON value — just enough structure for the request shapes.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks a key up in an object (first occurrence).
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// The deepest array/object nesting a request line may use — protocol
/// requests nest two levels; the cap only stops hostile input.
pub const MAX_JSON_DEPTH: usize = 128;

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current array/object nesting (see [`MAX_JSON_DEPTH`]).
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Parses one array or object with `inner`, refusing to nest deeper
    /// than [`MAX_JSON_DEPTH`].
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(format!(
                "value nested deeper than {MAX_JSON_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected `{}` at byte {}, found {:?}",
                byte as char,
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` in object, found {:?} at byte {}",
                        other.map(|b| b as char),
                        self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` in array, found {:?} at byte {}",
                        other.map(|b| b as char),
                        self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| "bad \\u escape".to_string())?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "bad \\u code point".to_string())?,
                            );
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Copy a full UTF-8 scalar, not a byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Parses one complete JSON value with nothing but whitespace after it.
fn parse_json(text: &str) -> Result<Json, String> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(format!("trailing garbage at byte {}", reader.pos));
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// Request extraction.
// ---------------------------------------------------------------------

/// A decoded request line: the echo fields plus what to run.
struct Parsed {
    /// The request's `id`, re-rendered for the response echo.
    id: Option<String>,
    /// The `op` string (already validated).
    op: &'static str,
    /// The service request; `None` for `op: "stats"`.
    request: Option<ServiceRequest>,
}

/// A request that could not be decoded — still answered, with whatever
/// echo fields were recovered before the failure.
struct BadRequest {
    id: Option<String>,
    op: Option<String>,
    message: String,
}

/// Renders a scalar `id` back out (numbers as numbers, strings
/// sanitised like every other string field).
fn render_id(value: &Json) -> Option<String> {
    match value {
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Some(format!("{}", *n as i64)),
        Json::Num(n) => Some(format!("{n}")),
        Json::Str(s) => Some(format!("\"{}\"", json::sanitize(s))),
        _ => None,
    }
}

fn number_field(value: &Json, key: &str) -> Result<f64, String> {
    match value.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        Some(_) => Err(format!("`{key}` must be a number")),
        None => Err(format!("missing `{key}`")),
    }
}

fn number_array_field(value: &Json, key: &str) -> Result<Vec<f64>, String> {
    match value.get(key) {
        Some(Json::Arr(items)) if !items.is_empty() => items
            .iter()
            .map(|item| match item {
                Json::Num(n) => Ok(*n),
                _ => Err(format!("`{key}` must be an array of numbers")),
            })
            .collect(),
        Some(Json::Arr(_)) => Err(format!("`{key}` must not be empty")),
        Some(_) => Err(format!("`{key}` must be an array of numbers")),
        None => Err(format!("missing `{key}`")),
    }
}

/// Loads one of the request's two circuits: inline QASM text under
/// `key`, or a server-side path under `<key>_file` — exactly one.
fn circuit_field(value: &Json, key: &str) -> Result<qaec_circuit::Circuit, String> {
    let file_key = format!("{key}_file");
    match (value.get(key), value.get(&file_key)) {
        (Some(_), Some(_)) => Err(format!("`{key}` and `{file_key}` are exclusive")),
        (Some(Json::Str(text)), None) => qasm::parse(text).map_err(|e| format!("`{key}`: {e}")),
        (Some(_), None) => Err(format!("`{key}` must be a QASM string")),
        (None, Some(Json::Str(path))) => load(path),
        (None, Some(_)) => Err(format!("`{file_key}` must be a path string")),
        (None, None) => Err(format!("missing `{key}` (or `{file_key}`)")),
    }
}

/// Decodes one request line. Unknown fields are ignored (the protocol's
/// forward-compatibility rule); a missing `v` means version 1.
fn parse_request(line: &str) -> Result<Parsed, BadRequest> {
    let fail = |id: &Option<String>, op: Option<String>, message: String| BadRequest {
        id: id.clone(),
        op,
        message,
    };
    let value = parse_json(line).map_err(|e| fail(&None, None, format!("bad JSON: {e}")))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(fail(&None, None, "request must be a JSON object".into()));
    }
    let id = value.get("id").and_then(render_id);
    // A missing `v` means version 1; anything but 1 is rejected.
    if let Some(v) = value.get("v") {
        if *v != Json::Num(1.0) {
            return Err(fail(
                &id,
                None,
                format!("unsupported protocol version {v:?} (this server speaks v 1)"),
            ));
        }
    }
    let op_name = match value.get("op") {
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return Err(fail(&id, None, "`op` must be a string".into())),
        None => return Err(fail(&id, None, "missing `op`".into())),
    };
    if op_name == "stats" {
        return Ok(Parsed {
            id,
            op: "stats",
            request: None,
        });
    }
    let (op, query) = match op_name.as_str() {
        "check" => {
            let epsilon =
                number_field(&value, "epsilon").map_err(|e| fail(&id, Some(op_name.clone()), e))?;
            ("check", ServiceQuery::Check { epsilon })
        }
        "sweep_epsilon" => {
            let epsilons = number_array_field(&value, "epsilons")
                .map_err(|e| fail(&id, Some(op_name.clone()), e))?;
            ("sweep_epsilon", ServiceQuery::SweepEpsilon { epsilons })
        }
        "sweep_noise" => {
            let epsilon =
                number_field(&value, "epsilon").map_err(|e| fail(&id, Some(op_name.clone()), e))?;
            let strengths = number_array_field(&value, "noise")
                .map_err(|e| fail(&id, Some(op_name.clone()), e))?;
            (
                "sweep_noise",
                ServiceQuery::SweepNoise { epsilon, strengths },
            )
        }
        other => {
            return Err(fail(
                &id,
                None,
                format!("unknown op `{other}` (check | sweep_epsilon | sweep_noise | stats)"),
            ))
        }
    };
    let ideal = circuit_field(&value, "ideal").map_err(|e| fail(&id, Some(op_name.clone()), e))?;
    let noisy = circuit_field(&value, "noisy").map_err(|e| fail(&id, Some(op_name.clone()), e))?;
    // Optional per-request algorithm override (v1-additive; absent means
    // the server's configured options decide).
    let algorithm = match value.get("algorithm") {
        None => None,
        Some(Json::Str(name)) => Some(match name.as_str() {
            "auto" => AlgorithmChoice::Auto,
            "1" => AlgorithmChoice::AlgorithmI,
            "2" => AlgorithmChoice::AlgorithmII,
            "mpo" => AlgorithmChoice::Mpo,
            other => {
                return Err(fail(
                    &id,
                    Some(op_name.clone()),
                    format!("unknown algorithm `{other}` (auto | 1 | 2 | mpo)"),
                ))
            }
        }),
        Some(_) => {
            return Err(fail(
                &id,
                Some(op_name.clone()),
                "`algorithm` must be a string".into(),
            ))
        }
    };
    Ok(Parsed {
        id,
        op,
        request: Some(ServiceRequest {
            ideal,
            noisy,
            query,
            algorithm,
        }),
    })
}

// ---------------------------------------------------------------------
// Response rendering.
// ---------------------------------------------------------------------

/// The common response prefix: `v`, the echoed `id`/`op`, and `ok`.
fn envelope(id: &Option<String>, op: Option<&str>, ok: bool) -> json::Object {
    let mut object = json::Object::new().int("v", 1);
    if let Some(id) = id {
        object = object.raw("id", id.clone());
    }
    if let Some(op) = op {
        object = object.string("op", op);
    }
    object.boolean("ok", ok)
}

/// Renders an error line (`{"v": 1, ..., "ok": false, "error": ...}`).
fn render_error(id: &Option<String>, op: Option<&str>, message: &str) -> String {
    envelope(id, op, false).string("error", message).render()
}

/// Renders the response to a decoded circuit request.
fn render_response(parsed: &Parsed, response: &ServiceResponse) -> String {
    let base = || {
        envelope(&parsed.id, Some(parsed.op), true)
            .string("key", &format!("{:016x}", response.key))
            .string("cache", response.cache.as_str())
    };
    match &response.result {
        Err(error) => render_error(&parsed.id, Some(parsed.op), &error.to_string()),
        Ok(ServiceReply::Check(report)) => base().extend(check_json(report)).render(),
        Ok(ServiceReply::SweepEpsilon(points)) => {
            let rows: Vec<json::Object> = points.iter().map(epsilon_point_json).collect();
            base().raw("points", json::array_inline(&rows)).render()
        }
        Ok(ServiceReply::SweepNoise(points)) => {
            let strengths = match parsed.request.as_ref().map(|r| &r.query) {
                Some(ServiceQuery::SweepNoise { strengths, .. }) => strengths.as_slice(),
                _ => &[],
            };
            let rows: Vec<json::Object> = strengths
                .iter()
                .zip(points)
                .map(|(&p, point)| noise_point_json(p, point))
                .collect();
            base().raw("points", json::array_inline(&rows)).render()
        }
    }
}

/// Renders the `op: "stats"` response from the service counters.
fn render_stats(id: &Option<String>, stats: &ServiceStats) -> String {
    envelope(id, Some("stats"), true)
        .int("hits", stats.hits)
        .int("misses", stats.misses)
        .int("compiles", stats.compiles)
        .int("evictions", stats.evictions)
        .int("sessions", stats.sessions as u64)
        .int("store_bytes", stats.store_bytes)
        .int("peak_store_bytes", stats.peak_store_bytes)
        .render()
}

// ---------------------------------------------------------------------
// Serving loops.
// ---------------------------------------------------------------------

/// The longest request line `serve` accepts, in bytes, not counting the
/// newline. A longer line is answered with an error and skipped without
/// being held in memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads the next line of a request stream into `buf`, without its
/// `\n` or `\r\n`; `None` at the end of the stream. A line that is not
/// UTF-8 or is longer than [`MAX_LINE_BYTES`] comes back as the error to
/// answer it with, and the stream stays positioned after it.
fn read_line<'b>(
    input: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> std::io::Result<Option<Result<&'b str, BadRequest>>> {
    buf.clear();
    let (mut len, mut started) = (0usize, false);
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            if !started {
                return Ok(None);
            }
            break;
        }
        started = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let piece = &chunk[..newline.unwrap_or(chunk.len())];
        len += piece.len();
        if len <= MAX_LINE_BYTES {
            buf.extend_from_slice(piece);
        }
        let used = newline.map_or(chunk.len(), |at| at + 1);
        input.consume(used);
        if newline.is_some() {
            break;
        }
    }
    let bad = |message: String| BadRequest {
        id: None,
        op: None,
        message,
    };
    if len > MAX_LINE_BYTES {
        return Ok(Some(Err(bad(format!(
            "request line is {len} bytes, over the {MAX_LINE_BYTES}-byte limit"
        )))));
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|e| {
        bad(format!("request line is not valid UTF-8 ({e})"))
    })))
}

/// Reads and decodes the next non-blank request line; `None` at the end
/// of the stream.
fn next_request(
    input: &mut impl BufRead,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<Result<Parsed, BadRequest>>> {
    while let Some(line) = read_line(input, buf)? {
        match line {
            Ok(text) if text.trim().is_empty() => continue,
            line => return Ok(Some(line.and_then(parse_request))),
        }
    }
    Ok(None)
}

/// Serves a complete request stream in batch mode (the stdin
/// transport): every line is decoded, runs of circuit requests between
/// `stats` barriers go through [`qaec::Service::handle_batch`] (repeats
/// hit the session cache, distinct pairs run concurrently on
/// `options.threads` workers), and responses are written in input
/// order — error lines for the requests that failed to decode.
///
/// # Errors
///
/// Only I/O failures on `input`/`out`; request-level problems are
/// answered in-band.
pub fn serve_batch(
    service: &Service,
    mut input: impl BufRead,
    out: &mut impl Write,
) -> Result<(), String> {
    enum Item {
        Bad(BadRequest),
        Stats(Parsed),
        Request(Parsed),
    }
    let mut items: Vec<Item> = Vec::new();
    let mut buf = Vec::new();
    while let Some(request) =
        next_request(&mut input, &mut buf).map_err(|e| format!("reading requests: {e}"))?
    {
        items.push(match request {
            Err(bad) => Item::Bad(bad),
            Ok(parsed) if parsed.request.is_none() => Item::Stats(parsed),
            Ok(parsed) => Item::Request(parsed),
        });
    }

    let mut lines: Vec<Option<String>> = items.iter().map(|_| None).collect();
    // `stats` is a barrier: it reports the counters after every request
    // before it in the stream, so flush the accumulated batch first.
    let mut pending: Vec<usize> = Vec::new();
    let flush = |pending: &mut Vec<usize>, lines: &mut Vec<Option<String>>| {
        if pending.is_empty() {
            return;
        }
        let requests: Vec<ServiceRequest> = pending
            .iter()
            .map(|&index| match &items[index] {
                Item::Request(parsed) => parsed.request.clone().expect("request items carry one"),
                _ => unreachable!("only requests are pending"),
            })
            .collect();
        let responses = service.handle_batch(&requests);
        for (&index, response) in pending.iter().zip(&responses) {
            let Item::Request(parsed) = &items[index] else {
                unreachable!("only requests are pending")
            };
            lines[index] = Some(render_response(parsed, response));
        }
        pending.clear();
    };
    for index in 0..items.len() {
        match &items[index] {
            Item::Bad(bad) => {
                lines[index] = Some(render_error(&bad.id, bad.op.as_deref(), &bad.message));
            }
            Item::Request(_) => pending.push(index),
            Item::Stats(parsed) => {
                flush(&mut pending, &mut lines);
                lines[index] = Some(render_stats(&parsed.id, &service.stats()));
            }
        }
    }
    flush(&mut pending, &mut lines);
    for line in lines {
        writeln!(out, "{}", line.expect("every item answered")).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Serves one open connection line by line: each request is answered
/// (and flushed) before the next is read, so interactive clients see
/// responses immediately.
fn serve_connection(service: &Service, mut input: impl BufRead, mut out: impl Write) {
    let mut buf = Vec::new();
    while let Ok(Some(request)) = next_request(&mut input, &mut buf) {
        let rendered = match request {
            Err(bad) => render_error(&bad.id, bad.op.as_deref(), &bad.message),
            Ok(parsed) => match &parsed.request {
                None => render_stats(&parsed.id, &service.stats()),
                Some(request) => render_response(&parsed, &service.handle(request)),
            },
        };
        if writeln!(out, "{rendered}")
            .and_then(|()| out.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Accept loop for the TCP transport: one thread per connection, all
/// connections sharing one [`Service`] (and therefore one session
/// cache). `max_connections` bounds the loop for tests; pass `None` to
/// serve forever.
///
/// # Errors
///
/// Propagates listener accept failures.
pub fn serve_tcp(
    service: Arc<Service>,
    listener: TcpListener,
    max_connections: Option<usize>,
) -> Result<(), String> {
    for (accepted, stream) in listener.incoming().enumerate() {
        let stream = stream.map_err(|e| format!("accept: {e}"))?;
        let service = Arc::clone(&service);
        let reader = stream.try_clone().map_err(|e| format!("connection: {e}"))?;
        std::thread::spawn(move || {
            serve_connection(&service, BufReader::new(reader), stream);
        });
        if max_connections.is_some_and(|max| accepted + 1 >= max) {
            return Ok(());
        }
    }
    Ok(())
}

/// Accept loop for the unix-socket transport — same per-connection
/// behaviour as [`serve_tcp`].
///
/// # Errors
///
/// Propagates listener accept failures.
#[cfg(unix)]
pub fn serve_unix(
    service: Arc<Service>,
    listener: std::os::unix::net::UnixListener,
    max_connections: Option<usize>,
) -> Result<(), String> {
    for (accepted, stream) in listener.incoming().enumerate() {
        let stream = stream.map_err(|e| format!("accept: {e}"))?;
        let service = Arc::clone(&service);
        let reader = stream.try_clone().map_err(|e| format!("connection: {e}"))?;
        std::thread::spawn(move || {
            serve_connection(&service, BufReader::new(reader), stream);
        });
        if max_connections.is_some_and(|max| accepted + 1 >= max) {
            return Ok(());
        }
    }
    Ok(())
}

/// Runs the `serve` subcommand: builds the [`Service`] from the parsed
/// arguments and enters the selected transport's loop. The stdin
/// transport returns once the stream is exhausted (stats footer on
/// stderr); the socket transports serve until killed.
///
/// # Errors
///
/// Transport setup and I/O failures (a bad *request* is answered
/// in-band, never an error here).
pub fn run_serve(args: &ServeArgs, out: &mut impl Write) -> Result<i32, String> {
    let service = Service::new(ServiceConfig {
        options: args.options.to_check_options(),
        cache_bytes: args.cache_bytes,
    });
    if let Some(addr) = &args.listen {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("serve: cannot listen on {addr}: {e}"))?;
        eprintln!(
            "qaec serve: listening on {}",
            listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.clone())
        );
        serve_tcp(Arc::new(service), listener, None)?;
        return Ok(0);
    }
    #[cfg(unix)]
    if let Some(path) = &args.unix {
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| format!("serve: cannot listen on {path}: {e}"))?;
        eprintln!("qaec serve: listening on {path}");
        serve_unix(Arc::new(service), listener, None)?;
        return Ok(0);
    }
    #[cfg(not(unix))]
    if args.unix.is_some() {
        return Err("serve: --unix is not supported on this platform".to_string());
    }
    let stdin = std::io::stdin();
    serve_batch(&service, stdin.lock(), out)?;
    eprintln!("qaec serve: {}", service.stats());
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    const IDEAL: &str = "OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\ncx q[0], q[1];\\n";
    const NOISY: &str = "OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\n\
                         // qaec.noise: depolarizing(0.999) q[0];\\ncx q[0], q[1];\\n";

    fn service() -> Service {
        Service::new(ServiceConfig::default())
    }

    fn batch(service: &Service, input: &str) -> Vec<String> {
        let mut out = Vec::new();
        serve_batch(service, input.as_bytes(), &mut out).expect("serve_batch");
        String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn json_reader_round_trips_request_shapes() {
        let value = parse_json(
            r#"{"v": 1, "id": 7, "op": "check", "epsilon": 0.05, "noise": [0.999, 0.99],
                "note": "a\tbA\n", "flag": true, "none": null}"#,
        )
        .expect("parse");
        assert_eq!(value.get("v"), Some(&Json::Num(1.0)));
        assert_eq!(value.get("op"), Some(&Json::Str("check".into())));
        assert_eq!(
            value.get("noise"),
            Some(&Json::Arr(vec![Json::Num(0.999), Json::Num(0.99)]))
        );
        assert_eq!(value.get("note"), Some(&Json::Str("a\tbA\n".into())));
        assert_eq!(value.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(value.get("none"), Some(&Json::Null));
        assert_eq!(parse_json("[]").expect("empty array"), Json::Arr(vec![]));
        assert_eq!(parse_json("{}").expect("empty object"), Json::Obj(vec![]));

        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "{\"a\": 1e}",
            "nul",
        ] {
            assert!(parse_json(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn deeply_nested_input_is_answered_in_band() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&nested(MAX_JSON_DEPTH + 1))
            .unwrap_err()
            .contains("nested deeper"));

        // A 400k-bracket line, then a QASM parameter nested 100k deep,
        // then a good request: the first two get structured errors and
        // the third is still answered.
        let deep_qasm = format!(
            "OPENQASM 2.0;\\nqreg q[1];\\nrz({}pi{}) q[0];\\n",
            "(".repeat(100_000),
            ")".repeat(100_000)
        );
        let input = format!(
            concat!(
                "{}\n",
                "{{\"id\": 1, \"op\": \"check\", \"ideal\": \"{q}\", ",
                "\"noisy\": \"{q}\", \"epsilon\": 0.05}}\n",
                "{{\"id\": 2, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05}}\n",
            ),
            "[".repeat(400_000),
            q = deep_qasm,
            i = IDEAL,
            n = NOISY,
        );
        let lines = batch(&service(), &input);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ok\": false"), "{}", lines[0]);
        assert!(lines[0].contains("nested deeper"), "{}", lines[0]);
        assert!(lines[1].contains("\"ok\": false"), "{}", lines[1]);
        assert!(lines[1].contains("nested deeper"), "{}", lines[1]);
        assert!(lines[2].contains("\"ok\": true"), "{}", lines[2]);
        assert!(lines[2].contains("\"id\": 2"), "{}", lines[2]);
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("512").unwrap(), 512);
        assert_eq!(parse_byte_size("64k").unwrap(), 64 << 10);
        assert_eq!(parse_byte_size("256M").unwrap(), 256 << 20);
        assert_eq!(parse_byte_size("2g").unwrap(), 2 << 30);
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("k").is_err());
        assert!(parse_byte_size("12x").is_err());
        assert!(parse_byte_size("-1").is_err());
    }

    #[test]
    fn serve_args_parse_and_reject() {
        let args = parse_serve_args(&[
            "--cache-bytes".into(),
            "64m".into(),
            "--threads=4".into(),
            "--algorithm".into(),
            "2".into(),
            "--shared-table=on".into(),
        ])
        .expect("parse");
        assert_eq!(args.cache_bytes, Some(64 << 20));
        assert_eq!(args.options.threads, 4);
        assert_eq!(args.options.algorithm, AlgorithmChoice::AlgorithmII);
        assert_eq!(args.options.shared_table, SharedTableMode::On);
        assert_eq!(args.listen, None);

        // Algorithm III and its knobs parse like the one-shot frontend.
        let mpo = parse_serve_args(&[
            "--algorithm=mpo".into(),
            "--svd-threshold=1e-6".into(),
            "--max-bond".into(),
            "32".into(),
        ])
        .expect("parse mpo");
        assert_eq!(mpo.options.algorithm, AlgorithmChoice::Mpo);
        assert_eq!(mpo.options.svd_threshold, 1e-6);
        assert_eq!(mpo.options.max_bond, 32);

        // Flags that have no serving meaning are rejected, not ignored.
        for bad in ["--timeout", "--json", "--samples", "--epsilon"] {
            assert!(
                parse_serve_args(&[bad.to_string(), "1".to_string()]).is_err(),
                "{bad} must be rejected"
            );
        }
        assert!(parse_serve_args(&[
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--unix".into(),
            "/tmp/x".into()
        ])
        .is_err());
    }

    #[test]
    fn batch_answers_check_sweeps_stats_and_errors_in_order() {
        let service = service();
        let input = format!(
            concat!(
                "{{\"v\": 1, \"id\": 1, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05}}\n",
                "this is not json\n",
                "{{\"v\": 1, \"id\": 2, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05}}\n",
                "{{\"id\": 3, \"op\": \"sweep_epsilon\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilons\": [0.2, 0.01, 0.0001]}}\n",
                "{{\"id\": 4, \"op\": \"sweep_noise\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.01, \"noise\": [0.999, 0.9]}}\n",
                "{{\"id\": 5, \"op\": \"stats\"}}\n",
            ),
            i = IDEAL,
            n = NOISY,
        );
        let lines = batch(&service, &input);
        assert_eq!(lines.len(), 6);

        // Line 1: cold check.
        assert!(lines[0].contains("\"id\": 1"), "{}", lines[0]);
        assert!(lines[0].contains("\"ok\": true"), "{}", lines[0]);
        assert!(lines[0].contains("\"cache\": \"miss\""), "{}", lines[0]);
        assert!(
            lines[0].contains("\"verdict\": \"equivalent\""),
            "{}",
            lines[0]
        );
        // Line 2: the malformed line is answered in place, not fatal.
        assert!(lines[1].contains("\"ok\": false"), "{}", lines[1]);
        assert!(lines[1].contains("\"error\""), "{}", lines[1]);
        // Line 3: the repeated pair is a cache hit with identical bounds.
        assert!(lines[2].contains("\"cache\": \"hit\""), "{}", lines[2]);
        let bound = |line: &str| {
            line.split("\"fidelity_lower\": ")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .map(str::to_string)
                .expect("fidelity_lower present")
        };
        assert_eq!(bound(&lines[0]), bound(&lines[2]));
        // Line 4: an ε sweep carries one row per threshold.
        assert!(
            lines[3].contains("\"op\": \"sweep_epsilon\""),
            "{}",
            lines[3]
        );
        assert_eq!(lines[3].matches("\"epsilon\":").count(), 3, "{}", lines[3]);
        // Line 5: a noise sweep echoes the strengths.
        assert!(lines[4].contains("\"noise\": 0.999000"), "{}", lines[4]);
        assert_eq!(lines[4].matches("\"fidelity\":").count(), 2, "{}", lines[4]);
        // Line 6: the stats barrier reflects the four circuit requests
        // (one distinct pair: 1 miss + 3 hits, 1 compile).
        assert!(lines[5].contains("\"op\": \"stats\""), "{}", lines[5]);
        assert!(lines[5].contains("\"hits\": 3"), "{}", lines[5]);
        assert!(lines[5].contains("\"misses\": 1"), "{}", lines[5]);
        assert!(lines[5].contains("\"compiles\": 1"), "{}", lines[5]);

        // Each response line is itself valid JSON for our reader.
        for line in &lines {
            assert!(parse_json(line).is_ok(), "unparseable response `{line}`");
        }
    }

    #[test]
    fn per_request_algorithm_overrides_key_separately() {
        let service = service();
        let input = format!(
            concat!(
                "{{\"id\": 1, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05}}\n",
                "{{\"id\": 2, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05, \"algorithm\": \"mpo\"}}\n",
                "{{\"id\": 3, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05, \"algorithm\": \"2\"}}\n",
                "{{\"id\": 4, \"op\": \"check\", \"ideal\": \"{i}\", ",
                "\"noisy\": \"{n}\", \"epsilon\": 0.05, \"algorithm\": \"warp\"}}\n",
            ),
            i = IDEAL,
            n = NOISY,
        );
        let lines = batch(&service, &input);
        assert_eq!(lines.len(), 4);
        let key = |line: &str| {
            line.split("\"key\": \"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .map(str::to_string)
                .expect("key present")
        };
        // Three distinct sessions: default, mpo override, exact override.
        assert!(lines[0].contains("\"cache\": \"miss\""), "{}", lines[0]);
        assert!(lines[1].contains("\"cache\": \"miss\""), "{}", lines[1]);
        assert!(lines[2].contains("\"cache\": \"miss\""), "{}", lines[2]);
        assert_ne!(key(&lines[0]), key(&lines[1]));
        assert_ne!(key(&lines[0]), key(&lines[2]));
        assert_ne!(key(&lines[1]), key(&lines[2]));
        // The MPO response reports its method and interval metadata; the
        // exact ones say so too, without the MPO-only fields.
        assert!(lines[1].contains("\"method\": \"mpo\""), "{}", lines[1]);
        assert!(lines[1].contains("\"trunc_error\":"), "{}", lines[1]);
        assert!(lines[1].contains("\"bond_max\":"), "{}", lines[1]);
        assert!(lines[2].contains("\"method\": \"2\""), "{}", lines[2]);
        assert!(!lines[2].contains("\"trunc_error\""), "{}", lines[2]);
        // All three backends agree on this easy pair.
        for line in &lines[..3] {
            assert!(line.contains("\"verdict\": \"equivalent\""), "{line}");
        }
        // An unknown override is a structured error, not a crash.
        assert!(lines[3].contains("\"ok\": false"), "{}", lines[3]);
        assert!(lines[3].contains("unknown algorithm"), "{}", lines[3]);
    }

    #[test]
    fn request_level_failures_are_structured_errors() {
        let service = service();
        let cases: Vec<(String, &str)> = vec![
            // Unknown op.
            (r#"{"id": 1, "op": "frobnicate"}"#.to_string(), "unknown op"),
            // Wrong protocol version.
            (r#"{"v": 2, "id": 2, "op": "stats"}"#.to_string(), "version"),
            // Missing epsilon.
            (
                format!(r#"{{"id": 3, "op": "check", "ideal": "{IDEAL}", "noisy": "{NOISY}"}}"#),
                "missing `epsilon`",
            ),
            // Missing circuits.
            (
                r#"{"id": 4, "op": "check", "epsilon": 0.1}"#.to_string(),
                "missing `ideal`",
            ),
            // Both inline and file.
            (
                format!(
                    "{{\"id\": 5, \"op\": \"check\", \"epsilon\": 0.1, \"ideal\": \"{IDEAL}\", \
                     \"ideal_file\": \"/tmp/x.qasm\", \"noisy\": \"{NOISY}\"}}"
                ),
                "exclusive",
            ),
            // QASM that does not parse.
            (
                format!(
                    "{{\"id\": 6, \"op\": \"check\", \"epsilon\": 0.1, \"ideal\": \"garbage\", \
                     \"noisy\": \"{NOISY}\"}}"
                ),
                "`ideal`",
            ),
            // Bad epsilons array.
            (
                format!(
                    "{{\"id\": 7, \"op\": \"sweep_epsilon\", \"ideal\": \"{IDEAL}\", \
                     \"noisy\": \"{NOISY}\", \"epsilons\": []}}"
                ),
                "must not be empty",
            ),
        ];
        for (line, needle) in cases {
            let lines = batch(&service, &format!("{line}\n"));
            assert_eq!(lines.len(), 1, "{line}");
            assert!(lines[0].contains("\"ok\": false"), "{}", lines[0]);
            assert!(
                lines[0].contains(needle),
                "`{}` should mention `{needle}`",
                lines[0]
            );
        }
        // Nothing was cached by any of those.
        assert_eq!(service.stats().sessions, 0);

        // A checker-level error (ε out of range) reports in-band too —
        // and still caches the compiled pair for later valid queries.
        let line = format!(
            r#"{{"id": 8, "op": "check", "epsilon": 1.5, "ideal": "{IDEAL}", "noisy": "{NOISY}"}}"#
        );
        let lines = batch(&service, &format!("{line}\n"));
        assert!(lines[0].contains("\"ok\": false"), "{}", lines[0]);
        assert!(lines[0].contains("epsilon"), "{}", lines[0]);
        assert_eq!(service.stats().sessions, 1);
    }

    /// A check request for the test pair, newline-terminated.
    fn check_line(id: u32) -> String {
        format!(
            "{{\"id\": {id}, \"op\": \"check\", \"ideal\": \"{IDEAL}\", \
             \"noisy\": \"{NOISY}\", \"epsilon\": 0.05}}\n"
        )
    }

    /// Request 1, a non-UTF-8 line, an over-long line, request 2 with a
    /// CRLF ending, then request 3 padded to exactly `MAX_LINE_BYTES`.
    fn hostile_stream() -> Vec<u8> {
        let mut input = check_line(1).into_bytes();
        input.extend_from_slice(b"\xff\xfe\n");
        input.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 1));
        input.push(b'\n');
        input.extend_from_slice(check_line(2).replace('\n', "\r\n").as_bytes());
        let last = check_line(3);
        input.extend(std::iter::repeat_n(b' ', MAX_LINE_BYTES + 1 - last.len()));
        input.extend_from_slice(last.as_bytes());
        input
    }

    /// The responses to [`hostile_stream`]: one per line, in order.
    fn assert_hostile_answers(lines: &[String]) {
        assert_eq!(lines.len(), 5, "{lines:?}");
        for (line, id) in [(&lines[0], 1), (&lines[3], 2), (&lines[4], 3)] {
            assert!(line.contains("\"ok\": true"), "{line}");
            assert!(line.contains(&format!("\"id\": {id},")), "{line}");
        }
        assert!(lines[1].contains("\"ok\": false"), "{}", lines[1]);
        assert!(lines[1].contains("not valid UTF-8"), "{}", lines[1]);
        assert!(lines[2].contains("\"ok\": false"), "{}", lines[2]);
        assert!(lines[2].contains("byte limit"), "{}", lines[2]);
    }

    #[test]
    fn batch_answers_past_bad_bytes_and_over_long_lines() {
        let mut out = Vec::new();
        serve_batch(&service(), hostile_stream().as_slice(), &mut out).expect("serve_batch");
        let lines: Vec<String> = String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(str::to_string)
            .collect();
        assert_hostile_answers(&lines);
    }

    #[cfg(unix)]
    #[test]
    fn unix_transport_answers_past_bad_bytes_and_over_long_lines() {
        use std::os::unix::net::{UnixListener, UnixStream};
        let path = std::env::temp_dir().join(format!("qaec-serve-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let server = std::thread::spawn(move || serve_unix(Arc::new(service()), listener, Some(1)));
        let mut stream = UnixStream::connect(&path).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        // The server answers line by line while the long line streams in.
        stream.write_all(&hostile_stream()).expect("write");
        stream.flush().expect("flush");
        let lines: Vec<String> = (0..5)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("read");
                line.trim_end().to_string()
            })
            .collect();
        assert_hostile_answers(&lines);
        drop(stream);
        server.join().expect("join").expect("serve_unix");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tcp_transport_streams_responses() {
        let service = Arc::new(service());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve_tcp(service, listener, Some(1)))
        };
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let request = format!(
            "{{\"v\": 1, \"id\": 9, \"op\": \"check\", \"ideal\": \"{IDEAL}\", \
             \"noisy\": \"{NOISY}\", \"epsilon\": 0.05}}\n"
        );
        // Two requests written separately: the second must be answered
        // from the session the first compiled.
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for expected in ["\"cache\": \"miss\"", "\"cache\": \"hit\""] {
            stream.write_all(request.as_bytes()).expect("write");
            stream.flush().expect("flush");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert!(line.contains("\"ok\": true"), "{line}");
            assert!(line.contains(expected), "{line}");
        }
        drop(stream);
        server.join().expect("join").expect("serve_tcp");
        assert_eq!(service.stats().compiles, 1);
    }
}
