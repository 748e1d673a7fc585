//! Metric collection and the result document.
//!
//! Every workload fills one [`Report`]: named metrics with a unit and
//! the number of samples behind them, plus the attempted / failed
//! operation counts. [`Report::finish`] prints a human-readable table
//! (one `metric` line per value, with its sample count), a provenance
//! line, and — as the last line of standard output — the JSON result
//! object: the end-to-end metrics for an untraced run, the per-layer
//! metrics for a traced one.

use flashfuser::core::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// The benchmark's declaration, embedded at build time. The metric
/// names and units a run reports are read from it, so the result line
/// and `BENCHMARK.json` cannot drift apart.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric `BENCHMARK.json` lists under
/// `section` (`end_to_end` or `per_layer`), in its order.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = json::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
    let field = |metric: &JsonValue, key: &str| {
        metric
            .get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("a {section} metric of BENCHMARK.json lacks {key}"))
            .to_string()
    };
    doc.get(section)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|metric| (field(metric, "name"), field(metric, "unit")))
        .collect()
}

/// One measured value.
#[derive(Debug, Clone)]
struct Metric {
    value: f64,
    unit: &'static str,
    /// Samples the value was computed from (1 for a single figure).
    samples: usize,
}

/// The run's metrics, operation counts and provenance.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
    provenance: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Records a provenance field (printed once, before the result).
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Counts one attempted operation or correctness check, failed when
    /// `outcome` is an error.
    pub fn outcome(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// Prints the table and the result line; returns `true` when every
    /// operation and check succeeded.
    pub fn finish(mut self, traced: bool) -> bool {
        let peak = peak_rss_mb();
        self.set("peak_rss_mb", peak, "MB", 1);
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        for (name, m) in &self.metrics {
            println!("metric {name} = {} {} (n={})", m.value, m.unit, m.samples);
        }
        println!(
            "metric error_rate = {} ratio (n={})",
            error_rate, self.attempted
        );
        for why in &self.failures {
            println!("FAILED {why}");
        }
        let mut prov = String::from("{");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(prov, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
        }
        prov.push('}');
        println!("provenance {prov}");

        let wanted = declared(if traced { "per_layer" } else { "end_to_end" });
        let mut metrics = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(m) => {
                    assert_eq!(m.unit, unit, "unit of {name}");
                    m.value
                }
                // Per-layer only: this workload never reaches the layer.
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        let correct = self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The mean time of each input over the run's passes. The host's speed
/// drifts by several percent within seconds; averaging each input over
/// passes that lie seconds apart smooths that out before quantiles are
/// taken across inputs.
pub fn per_input_means(per_input: &[Vec<f64>]) -> Vec<f64> {
    per_input
        .iter()
        .filter(|times| !times.is_empty())
        .map(|times| mean(times))
        .collect()
}

/// Geometric mean of positive `samples`; 0 when empty. The typical time
/// over distinct inputs: unlike the median, which is whichever input
/// happens to sit in the middle, it averages every input's noise down.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let logs: f64 = samples.iter().map(|x| x.ln()).sum();
    (logs / samples.len() as f64).exp()
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the base is 0.
pub fn share(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where `/proc` is
/// unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number: every digit Rust's shortest round-trip form keeps;
/// non-finite values (never expected) become 0 with a warning.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("warning: non-finite metric value {v} reported as 0");
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
