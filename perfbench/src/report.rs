//! The metric registry and the result line.
//!
//! The metric names and units here are the ones `BENCHMARK.json` declares;
//! a test keeps the two lists identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Distribution;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
///
/// Host times here are CPU times at the reference kernel's speed. The
/// unscaled and wall-clock figures and the cell latency tail are measured
/// too, but they go on the info line: on the shared 2-core reference host
/// they move too much between runs of the same code for any bound to hold.
pub const END_TO_END: [(&str, &str); 3] = [
    ("sim_mbc_per_s", "Mbc/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("workloads.build_us", "us"),
    ("vm.new_us", "us"),
    ("vm.run_ns_per_bytecode", "ns/bc"),
    ("vm.rir_share", "share"),
    ("vm.bytecodes", "count"),
    ("vm.calls", "count"),
    ("vm.allocations", "count"),
    ("vm.classes_loaded", "count"),
    ("vm.compiles_opt", "count"),
    ("vm.compiles_baseline", "count"),
    ("vm.compiles_jit", "count"),
    ("heap.collections", "count"),
    ("heap.increments", "count"),
    ("heap.pause_cycles", "cycles"),
    ("heap.copied_bytes", "bytes"),
    ("heap.marked_objects", "count"),
    ("heap.swept_objects", "count"),
    ("heap.barrier_stores", "count"),
    ("power.daq_samples", "count"),
    ("power.samples_per_mbc", "1/Mbc"),
    ("power.sim_s", "sim-s"),
    ("power.gc_time_share", "share"),
    ("power.cl_time_share", "share"),
    ("power.compiler_time_share", "share"),
    ("platform.instructions", "count"),
    ("sweep.cell_p50_ms", "ms"),
    ("sweep.cell_tail_ms", "ms"),
    ("sweep.busy_share", "share"),
    ("sweep.tail_s", "s"),
    ("cache.lookup_p50_us", "us"),
    ("cache.lookup_tail_us", "us"),
    ("cache.store_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.corrupt", "count"),
    ("cache.entry_bytes", "bytes"),
    ("serve.requests", "count"),
    ("serve.queued_max", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cells_executed", "count"),
    ("serve.results_delivered", "count"),
    ("serve.round_trip_p50_us", "us"),
    ("serve.round_trip_tail_us", "us"),
    ("serve.cold_round_trip_us", "us"),
    ("figures.render_us", "us"),
    ("trace.overhead_share", "share"),
    ("error_rate", "share"),
];

/// Why the benchmark will not report: a coverage gate failed or the
/// program could not be driven at all.
#[derive(Debug)]
pub struct Refusal(pub String);

/// Output checks: one per checked operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Metric values of one run, by registered name, and the facts printed
/// next to them.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<String, String>,
}

fn registered(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .copied()
}

impl Metrics {
    /// Set a registered metric.
    ///
    /// # Panics
    ///
    /// On a name neither list registers: a typo here is a bug in the
    /// benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = registered(name).unwrap_or_else(|| panic!("unregistered metric {name}"));
        self.values.insert(name, value);
    }

    /// Set a median metric from a distribution and note its tail: the
    /// tail's value, percentile and sample count go on the info line, and
    /// into the metric `tail` too when that is a registered one.
    pub fn set_distribution(&mut self, p50: &str, tail: &str, d: Distribution) {
        self.set(p50, d.p50);
        if registered(tail).is_some() {
            self.set(tail, d.tail);
        }
        self.note_distribution(tail, d);
    }

    /// Note a distribution's tail with its percentile and sample count.
    pub fn note_distribution(&mut self, tail: &str, d: Distribution) {
        self.note(tail, d.tail);
        self.note(&format!("{tail}.percentile"), d.tail_pct);
        self.note(&format!("{tail}.samples"), d.n);
    }

    /// Record a fact about the run for the info line.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.insert(key.to_owned(), value.to_string());
    }

    /// The info line: every noted fact, as one JSON object of strings.
    pub fn info_line(&self) -> String {
        let fields: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        format!("{{\"info\": {{{}}}}}", fields.join(", "))
    }

    /// The result line: every metric of the printed list, unset layer
    /// metrics as 0.
    ///
    /// # Errors
    ///
    /// When nothing was checked, an end-to-end metric was never measured
    /// or any value is not finite; a result that cannot be trusted is not
    /// printed.
    pub fn result_line(&self, trace: bool, checks: Checks) -> Result<String, String> {
        if checks.attempted == 0 {
            return Err("no output was checked".into());
        }
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut body = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = match (self.values.get(name), trace) {
                (Some(v), _) => *v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            checks.failed == 0,
            checks.attempted,
            checks.failed
        ))
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Peak resident set of a process in MB (`VmHWM`), 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every value of a `"name"` key in a JSON text, in order.
    fn names_in(json: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut rest = json;
        while let Some(at) = rest.find("\"name\"") {
            rest = &rest[at + 6..];
            let value = rest
                .trim_start()
                .strip_prefix(':')
                .expect("a key")
                .trim_start();
            let value = value.strip_prefix('"').expect("a string value");
            let end = value.find('"').expect("a closed string");
            out.push(value[..end].to_owned());
            rest = &value[end..];
        }
        out
    }

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_names_use_only_safe_characters() {
        let names = names_in(BENCHMARK_JSON);
        assert!(names.len() > 10, "found {} names", names.len());
        for name in &names {
            assert!(
                name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad name {name:?}"
            );
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let names = names_in(BENCHMARK_JSON);
        let workloads = ["jikes_full", "kaffe_pxa"];
        let expected: Vec<&str> = workloads
            .into_iter()
            .chain(END_TO_END.iter().map(|(n, _)| *n))
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        assert_eq!(names, expected);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(BENCHMARK_JSON.contains(&declared), "{declared}");
        }
    }

    #[test]
    fn result_line_prints_every_listed_metric() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let checks = Checks {
            attempted: 4,
            failed: 1,
        };
        let line = m.result_line(false, checks).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(m
            .result_line(true, checks)
            .unwrap()
            .contains("\"vm.bytecodes\": {\"value\": 0.0"));
        m.set("setup_s", f64::NAN);
        assert!(m.result_line(false, checks).is_err());
        assert!(Metrics::default().result_line(false, checks).is_err());
        assert!(m.result_line(true, Checks::default()).is_err());
    }
}
