//! `qaec serve` as the benchmark drives it: a child process on a unix
//! socket, line-by-line clients, and the checks that compare each reply
//! with the same pair's one-shot answer.

use crate::json::{self, Value};
use crate::layers::{OP_DEADLINE, SERVE_FLAGS};
use qaec::{EpsilonPoint, EquivalenceReport, SweepPoint};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// First argument that makes the benchmark binary run the `qaec` CLI
/// itself (`qaec_cli::parse_args` + `qaec_cli::run`, exactly what the
/// `qaec` binary's `main` does) — how the benchmark starts `qaec serve`
/// from the same build.
pub const QAEC_ENTRY: &str = "--run-qaec";

/// The `qaec` binary's entry point.
pub fn run_qaec(args: &[String]) -> i32 {
    let mut stdout = std::io::stdout();
    match qaec_cli::parse_args(args) {
        Ok(command) => qaec_cli::run(command, &mut stdout),
        Err(message) => {
            eprintln!("error: {message}");
            2
        }
    }
}

/// A running `qaec serve --unix` child; dropping it stops the process
/// and waits for it.
pub struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    /// Starts the server and waits until it accepts connections.
    pub fn start(socket: PathBuf, cache_bytes: usize) -> Result<Server, String> {
        if let Some(dir) = socket.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let _ = std::fs::remove_file(&socket);
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let child = Command::new(exe)
            .arg(QAEC_ENTRY)
            .arg("serve")
            .arg("--unix")
            .arg(&socket)
            .arg("--cache-bytes")
            .arg(cache_bytes.to_string())
            .args(SERVE_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting qaec serve: {e}"))?;
        let mut server = Server { child, socket };
        let give_up = Instant::now() + Duration::from_secs(10);
        loop {
            if UnixStream::connect(&server.socket).is_ok() {
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("qaec serve exited at start-up: {status}"));
            }
            if Instant::now() > give_up {
                return Err("qaec serve did not start listening within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn connect(&self) -> Result<Client, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(OP_DEADLINE))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// The server's peak resident memory, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::report::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One connection, used closed-loop: a request, then its reply.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Sends one newline-terminated request line and reads the reply
    /// line. Fails on I/O errors and when no reply comes within the
    /// per-operation deadline.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }
}

/// The reply fields a one-shot answer fixes: every field but the
/// timings, rendered as the server renders them.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    Check(Vec<(&'static str, String)>),
    Points(Vec<Vec<(&'static str, String)>>),
}

fn optional<T>(value: Option<T>, render: impl Fn(T) -> String) -> String {
    value.map_or_else(|| "null".into(), render)
}

pub fn expect_check(report: &EquivalenceReport) -> Expected {
    Expected::Check(vec![
        ("verdict", json::quote(&report.verdict.to_string())),
        (
            "fidelity_lower",
            format!("{:.12}", report.fidelity_bounds.0),
        ),
        (
            "fidelity_upper",
            format!("{:.12}", report.fidelity_bounds.1),
        ),
        ("epsilon", format!("{:.12}", report.epsilon)),
        ("method", json::quote(report.algorithm.wire_name())),
        ("terms_computed", report.terms_computed.to_string()),
        ("total_terms", report.total_terms.to_string()),
        ("max_nodes", report.max_nodes.to_string()),
        (
            "trunc_error",
            optional(report.trunc_error, |e| format!("{e:.15}")),
        ),
        ("bond_max", optional(report.bond_max, |b| b.to_string())),
        (
            "cross_check",
            optional(report.cross_check, |c| c.to_string()),
        ),
    ])
}

pub fn expect_sweep_noise(strengths: &[f64], points: &[SweepPoint]) -> Expected {
    Expected::Points(
        strengths
            .iter()
            .zip(points)
            .map(|(strength, point)| {
                vec![
                    ("noise", format!("{strength:.6}")),
                    ("fidelity", format!("{:.12}", point.fidelity)),
                    ("verdict", json::quote(&point.verdict.to_string())),
                    ("max_nodes", point.max_nodes.to_string()),
                ]
            })
            .collect(),
    )
}

pub fn expect_sweep_epsilon(points: &[EpsilonPoint]) -> Expected {
    Expected::Points(
        points
            .iter()
            .map(|point| {
                vec![
                    ("epsilon", format!("{:.12}", point.epsilon)),
                    ("fidelity_lower", format!("{:.12}", point.fidelity_bounds.0)),
                    ("fidelity_upper", format!("{:.12}", point.fidelity_bounds.1)),
                    ("verdict", json::quote(&point.verdict.to_string())),
                ]
            })
            .collect(),
    )
}

fn compare_fields(reply: &Value, fields: &[(&'static str, String)]) -> Result<(), String> {
    for (key, want) in fields {
        let got = Value::text(reply.get(key));
        if &got != want {
            return Err(format!("`{key}` is {got}, the one-shot answer {want}"));
        }
    }
    Ok(())
}

/// Compares a parsed reply with the one-shot answer, field for field.
pub fn compare(reply: &Value, expected: &Expected) -> Result<(), String> {
    if reply.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("error reply: {}", Value::text(reply.get("error"))));
    }
    match expected {
        Expected::Check(fields) => compare_fields(reply, fields),
        Expected::Points(points) => {
            let Some(Value::Arr(got)) = reply.get("points") else {
                return Err("reply has no points".into());
            };
            if got.len() != points.len() {
                return Err(format!("{} points, expected {}", got.len(), points.len()));
            }
            got.iter()
                .zip(points)
                .try_for_each(|(point, fields)| compare_fields(point, fields))
        }
    }
}

/// Client-side reply times of the serve layer, split by what the server
/// did for them.
#[derive(Default)]
pub struct ServeTimes {
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    /// Round trip minus the server-reported work of that request.
    pub overhead_ms: Vec<f64>,
    /// The last `wall_ms` each cache key reported: a hit answered from
    /// cached bounds echoes its key's earlier `wall_ms`, so only a
    /// changed value is work done for this request.
    last_wall: HashMap<String, String>,
}

impl ServeTimes {
    pub fn add(&mut self, reply: &Value, rtt_ms: f64) {
        let key = Value::text(reply.get("key"));
        match reply.get("cache") {
            Some(Value::Str(c)) if c == "hit" => self.hit_ms.push(rtt_ms),
            Some(Value::Str(_)) => self.miss_ms.push(rtt_ms),
            _ => return,
        }
        if let Some(wall) = reply.get("wall_ms") {
            let text = Value::text(Some(wall));
            let fresh = self.last_wall.get(&key) != Some(&text);
            let work = if fresh {
                wall.as_f64().unwrap_or(0.0)
            } else {
                0.0
            };
            self.overhead_ms.push(rtt_ms - work);
            self.last_wall.insert(key, text);
        }
    }
}

/// The service counters from a `stats` reply.
pub struct ServiceCounters {
    pub hits: f64,
    pub misses: f64,
    pub compiles: f64,
    pub evictions: f64,
    pub store_bytes: f64,
}

pub fn service_counters(client: &mut Client) -> Result<ServiceCounters, String> {
    let reply = json::parse(&client.call("{\"v\": 1, \"id\": 0, \"op\": \"stats\"}\n")?)?;
    let field = |key: &str| {
        reply
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("stats reply lacks `{key}`"))
    };
    Ok(ServiceCounters {
        hits: field("hits")?,
        misses: field("misses")?,
        compiles: field("compiles")?,
        evictions: field("evictions")?,
        store_bytes: field("store_bytes")?,
    })
}
