//! Result lines: the per-run detail record and the final metrics object.

use std::fmt::Write as _;

/// Operation accounting for one run. `failed` includes `rejected`: a
/// refused request is a request the caller did not get served.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub rejected: u64,
}

impl Ops {
    pub fn add(&mut self, o: Ops) {
        self.attempted += o.attempted;
        self.succeeded += o.succeeded;
        self.failed += o.failed;
        self.rejected += o.rejected;
    }
}

/// One reported number, with how it was obtained.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Samples behind the value (0 for a derived or exact figure).
    samples: usize,
    /// Statistic, e.g. `p50`, `p95`, `median-of-3`, `ratio-of-sums`.
    stat: String,
}

/// Everything one run prints.
pub struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: Vec<Metric>,
    /// Wall-clock medians behind the host-speed-scaled timings, and the
    /// yardstick's own median (detail record only).
    unscaled: Vec<(&'static str, f64)>,
    pub ops: Ops,
    /// Output-check failures (first few kept verbatim).
    failures: Vec<String>,
    failure_count: u64,
}

const KEEP_FAILURES: usize = 8;

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            metrics: Vec::new(),
            unscaled: Vec::new(),
            ops: Ops::default(),
            failures: Vec::new(),
            failure_count: 0,
        }
    }

    pub fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        stat: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
            stat: stat.into(),
        });
    }

    /// Record an unscaled wall-clock figure, in ms, for the detail record.
    pub fn unscaled(&mut self, name: &'static str, ms: f64) {
        self.unscaled.push((name, ms));
    }

    /// Record a failed output check (not an op: callers count ops).
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failure_count += 1;
        if self.failures.len() < KEEP_FAILURES {
            self.failures.push(msg.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failure_count == 0 && self.ops.failed == 0 && self.ops.attempted > 0
    }

    /// The detail record: host, op accounting, sample counts, failures.
    pub fn detail_json(&self, host: &[(&str, String)]) -> String {
        let mut s = String::from("{\"perfbench\":{");
        let _ = write!(
            s,
            "\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{{",
            quote(&self.workload),
            self.seed,
            self.trace
        );
        for (i, (k, v)) in host.iter().enumerate() {
            let _ = write!(s, "{}{}:{}", comma(i), quote(k), quote(v));
        }
        let o = self.ops;
        let _ = write!(
            s,
            "}},\"ops\":{{\"attempted\":{},\"succeeded\":{},\"failed\":{},\"rejected\":{}}},\"metrics\":{{",
            o.attempted, o.succeeded, o.failed, o.rejected
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}:{{\"value\":{},\"unit\":{},\"samples\":{},\"stat\":{}}}",
                comma(i),
                quote(m.name),
                num(m.value),
                quote(m.unit),
                m.samples,
                quote(&m.stat)
            );
        }
        s.push_str("},\"unscaled_ms\":{");
        for (i, (k, v)) in self.unscaled.iter().enumerate() {
            let _ = write!(s, "{}{}:{}", comma(i), quote(k), num(*v));
        }
        let _ = write!(
            s,
            "}},\"check_failures\":{},\"failures\":[",
            self.failure_count
        );
        for (i, f) in self.failures.iter().enumerate() {
            let _ = write!(s, "{}{}", comma(i), quote(f));
        }
        s.push_str("]}}");
        s
    }

    /// The final line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.ops.attempted,
            self.ops.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}:{{\"value\":{},\"unit\":{}}}",
                comma(i),
                quote(m.name),
                num(m.value),
                quote(m.unit)
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable table on stderr-friendly lines.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{:<28} {:>14.4} {:<10} {:<16} n={}",
                m.name, m.value, m.unit, m.stat, m.samples
            );
        }
        s
    }
}

fn comma(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ","
    }
}

/// A JSON number; non-finite values (never expected) become `null` so
/// the line stays parseable and the consumer sees the hole.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::new("w", 1, false);
        r.ops.attempted = 3;
        r.ops.succeeded = 3;
        r.metric("latency_ms_p50", "ms", 1.25, 40, "p50");
        assert_eq!(
            r.result_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"latency_ms_p50\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::new("w", 1, false);
        r.ops.attempted = 1;
        r.ops.succeeded = 1;
        assert!(r.correct());
        r.fail("bytes differ at 7");
        assert!(!r.correct());
        assert!(r.detail_json(&[]).contains("bytes differ at 7"));
    }
}
