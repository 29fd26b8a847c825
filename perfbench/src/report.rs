//! The metric registry and the result a run prints.

use crate::stats;
use std::collections::BTreeMap;

/// A reported metric: its name and unit.
pub type Metric = (&'static str, &'static str);

/// What a user of the checker sees, per workload; the untraced run
/// prints these. "Latency" and "throughput" are of the workload's
/// operation: a one-shot check, an 8-point noise sweep call (throughput
/// in sweep points), or a `qaec serve` request.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("throughput_per_s", "1/s"),
];

/// What each layer does; the traced run prints these.
pub const PER_LAYER: &[Metric] = &[
    ("circuit.parse_ms.p50", "ms"),
    ("session.compile_ms.p50", "ms"),
    ("session.compile_frac", "frac"),
    ("session.query_ms.p50", "ms"),
    ("session.query_ms.p90", "ms"),
    ("tensornet.plans_built", "count"),
    ("tdd.cont_calls", "count"),
    ("tdd.cont_hit_ratio", "frac"),
    ("tdd.add_calls", "count"),
    ("tdd.add_hit_ratio", "frac"),
    ("tdd.nodes_created", "count"),
    ("tdd.unique_hit_ratio", "frac"),
    ("tdd.max_nodes", "count"),
    ("tdd.peak_store_mb", "MB"),
    ("alg1.term_ratio", "frac"),
    ("backend.alg1_share", "frac"),
    ("backend.alg2_share", "frac"),
    ("backend.mpo_share", "frac"),
    ("mpo.query_ms.p50", "ms"),
    ("mpo.bond_max", "count"),
    ("mpo.trunc_error", "fidelity"),
    ("mpo.escalations", "count"),
    ("service.hit_ratio", "frac"),
    ("service.compiles", "count"),
    ("service.evictions", "count"),
    ("service.store_mb", "MB"),
    ("serve.hit_ms.p50", "ms"),
    ("serve.miss_ms.p99", "ms"),
    ("serve.overhead_ms.p50", "ms"),
    ("trace.latency_ms.p50", "ms"),
    ("trace.throughput_per_s", "1/s"),
    ("trace.spans_per_op", "count"),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A run's result: operation counts, wrong answers, and metric values.
#[derive(Default)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that errored, timed out or answered wrongly.
    pub failed: u64,
    /// Why anything failed: failed operations, and wrong answers found
    /// outside the timed region.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
    /// Lines printed before the metrics, for the reader only.
    info: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a percentile metric under the benchmark's percentile rule,
    /// noting which percentile was read from how many samples.
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], requested: f64) {
        match stats::percentile(samples, requested) {
            Some(p) => {
                self.values.insert(name, p.value);
                self.notes
                    .insert(name, format!("p{} of {} samples", p.percentile, p.samples));
            }
            None => {
                self.values.insert(name, 0.0);
                self.notes.insert(name, "no samples".into());
            }
        }
    }

    /// A line printed with the metrics, outside the result line.
    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `operations` timed operations answered wrongly or not at all.
    pub fn fail(&mut self, operations: u64, why: String) {
        self.failed += operations;
        self.problems.push(why);
    }

    /// A wrong answer found outside the timed region.
    pub fn wrong(&mut self, why: String) {
        self.problems.push(why);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn line(&self, (name, unit): &Metric) -> String {
        let value = self.values.get(name).copied().unwrap_or(f64::NAN);
        match self.notes.get(name) {
            Some(note) => format!("{name} = {value} {unit} ({note})"),
            None => format!("{name} = {value} {unit}"),
        }
    }

    /// Prints the human-readable lines, then the result line: a JSON
    /// object with the metrics of `metrics` (each must be set and
    /// finite).
    pub fn print(&self, metrics: &[Metric], also: &[Metric]) -> Result<(), String> {
        for problem in &self.problems {
            eprintln!("perfbench: {problem}");
        }
        println!(
            "attempted = {}, failed = {} (failed_frac = {})",
            self.attempted,
            self.failed,
            stats::ratio(self.failed as f64, self.attempted as f64)
        );
        for line in &self.info {
            println!("  {line}");
        }
        for metric in also {
            println!("  {}", self.line(metric));
        }
        for metric in metrics {
            println!("{}", self.line(metric));
        }
        let mut fields = Vec::with_capacity(metrics.len());
        for (name, unit) in metrics {
            let value = self
                .values
                .get(name)
                .copied()
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        Ok(())
    }
}

/// Peak resident memory (`VmHWM`) from a `/proc/<pid>/status` file, in
/// MB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name `{name}`");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "metric names repeat");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(!valid_name("a b") && !valid_name("_x") && !valid_name(""));
        assert!(valid_name("tdd.cont_hit_ratio") && valid_name("latency_ms.p99"));
    }

    #[test]
    fn the_benchmark_definition_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let definition = crate::json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(crate::json::Value::Arr(items)) = definition.get(key) else {
                panic!("BENCHMARK.json lacks `{key}`");
            };
            items
                .iter()
                .map(|item| {
                    let field = |k: &str| match item.get(k) {
                        Some(crate::json::Value::Str(s)) => s.clone(),
                        other => panic!("`{key}` item field `{k}`: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |metrics: &[Metric]| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn an_outcome_prints_only_measured_finite_metrics() {
        let mut out = Outcome::default();
        out.set("setup_s", 0.5);
        assert!(out.print(&[("setup_s", "s")], &[]).is_ok());
        assert!(out.print(&[("peak_rss_mb", "MB")], &[]).is_err());
        out.set("peak_rss_mb", f64::NAN);
        assert!(out.print(&[("peak_rss_mb", "MB")], &[]).is_err());
        out.fail(1, "boom".into());
        assert!(!out.correct());
    }
}
