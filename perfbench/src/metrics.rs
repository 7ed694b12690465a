//! The metric catalog, one run's report, and its rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit, exactly as `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics, measured with tracing off, on every workload.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("rounds_per_s", "1/s"),
    def("round_p50_ms", "ms"),
    def("peak_heap_mib", "MiB"),
    def("wire_bytes_per_round", "B"),
    def("admitted_share", "1"),
];

/// Per-layer metrics, from the traced run. A layer a workload does not
/// reach reads 0 with 0 calls.
pub const PER_LAYER: &[Def] = &[
    def("sim.step_ns", "ns"),
    def("agent.select_ns", "ns"),
    def("agent.replay_push_ns", "ns"),
    def("nn.sgd_us", "us"),
    def("nn.sgd_per_round", "count"),
    def("client.train_ms", "ms"),
    def("client.upload_us", "us"),
    def("client.download_us", "us"),
    def("transport.upload_us", "us"),
    def("transport.broadcast_us", "us"),
    def("transport.calls_per_round", "count"),
    def("federation.upload_us", "us"),
    def("federation.commit_us", "us"),
    def("federation.broadcast_us", "us"),
    def("engine.admit_ratio", "1"),
    def("engine.retries_per_round", "count"),
    def("engine.rejected_per_round", "count"),
    def("engine.stale_per_round", "count"),
    def("fleet.materialize_us", "us"),
    def("fleet.shard_ms", "ms"),
    def("fleet.worker_idle_share", "1"),
    def("fleet.root_ms", "ms"),
    def("fleet.broadcast_ms", "ms"),
    def("fleet.events_per_round", "count"),
    def("fleet.join_ms", "ms"),
    def("netserver.recv_lag_us", "us"),
    def("netserver.commit_us", "us"),
    def("netserver.broadcast_us", "us"),
    def("netserver.deliver_lag_us", "us"),
    def("netserver.frames_per_round", "count"),
    def("netserver.bytes_per_round", "B"),
    def("netserver.join_ms", "ms"),
    def("trace.overhead_share", "1"),
    def("trace.unaccounted_share", "1"),
];

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The value, in the metric's unit.
    pub value: f64,
    /// How many samples (rounds, calls, set-ups) it was computed from.
    pub samples: u64,
    /// A remark printed next to the value.
    pub note: Option<String>,
}

/// One run's result: its values, attempt counts and failed checks.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Value>,
    /// Timed rounds attempted.
    pub attempted: u64,
    /// Failed output checks (a round failing its accounting counts once).
    pub failed: u64,
    /// What each failed check was.
    pub problems: Vec<String>,
}

impl Report {
    /// Records `value` for metric `name` over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.insert(
            name,
            Value {
                value,
                samples,
                note: None,
            },
        );
    }

    /// Records a value with a remark.
    pub fn set_noted(&mut self, name: &'static str, value: f64, samples: u64, note: String) {
        self.values.insert(
            name,
            Value {
                value,
                samples,
                note: Some(note),
            },
        );
    }

    /// Records the median of `values`, when there are any.
    pub fn set_median(&mut self, name: &'static str, values: &[f64]) {
        if let Some(m) = crate::stats::median(values) {
            self.set(name, m, values.len() as u64);
        }
    }

    /// Counts a failed check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// A human-readable table of `defs`: value, unit and sample count.
    pub fn table(&self, defs: &[Def]) -> String {
        let mut out = String::new();
        for d in defs {
            let (value, samples, note) = match self.values.get(d.name) {
                Some(v) => (v.value, v.samples, v.note.as_deref().unwrap_or("")),
                None => (0.0, 0, "not reached"),
            };
            let _ = writeln!(
                out,
                "  {:<28} {:>16.6} {:<6} n={:<9} {}",
                d.name, value, d.unit, samples, note
            );
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `defs` (a metric never recorded reads
    /// 0). Non-finite values are failed checks and read 0.
    pub fn json(&mut self, defs: &[Def]) -> String {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let mut value = self.values.get(d.name).map_or(0.0, |v| v.value);
            if !value.is_finite() {
                self.check(false, || format!("{} is not finite", d.name));
                value = 0.0;
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(value),
                d.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form carries.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in `BENCHMARK.json`'s
    /// `end_to_end` or `per_layer` list, parsed by hand (no JSON crate).
    fn listed(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let end = body.find(']').expect("the section is a list");
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = rest[open..].find('"').expect("closed string") + open;
            rest[open..close].to_string()
        };
        body[..end]
            .split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn as_pairs(defs: &[Def]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn every_printed_name_is_in_benchmark_json() {
        assert_eq!(listed("end_to_end"), as_pairs(END_TO_END));
        assert_eq!(listed("per_layer"), as_pairs(PER_LAYER));
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
        }
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn json_line_has_exactly_the_listed_metrics() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.set("setup_s", 0.25, 3);
        let line = report.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", d.name)));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());

        report.set("round_p50_ms", f64::NAN, 1);
        let line = report.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"round_p50_ms\": {\"value\": 0.0,"));
    }
}
