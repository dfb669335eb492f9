//! The JSON run report (`--obs-out run.json`).

use crate::json::{push_str_literal, push_u64_array, push_u64_object};
use crate::sched::SchedSnapshot;
use crate::span::SpanNode;
use crate::{counters, gauges, take_spans};

/// Machine-readable record of what a run did: span tree, counter and
/// gauge snapshots, scheduling stats, thread configuration and peak RSS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Worker threads the execution engine resolved to (0 if the engine
    /// never ran).
    pub threads_configured: u64,
    /// The host's available parallelism.
    pub threads_available: u64,
    /// Process peak RSS (VmHWM) in bytes; 0 where `/proc` is unavailable.
    pub peak_rss_bytes: u64,
    /// Every registered counter total, in registry order.
    pub counters: Vec<(&'static str, u64)>,
    /// Every registered gauge value, in registry order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Scenario coverage: per dimension, the exercised counts of every
    /// declared item (zeros mark declared-but-unexercised items).
    pub coverage: Vec<(String, Vec<(String, u64)>)>,
    /// Per-worker scheduling stats (thread-count dependent by design).
    pub sched: SchedSnapshot,
    /// The recorded span tree (drained from the collector).
    pub spans: Vec<SpanNode>,
}

impl RunReport {
    /// Snapshot the process's observability state. Drains the span
    /// collector, so gather once, at the end of the run.
    pub fn gather() -> Self {
        Self {
            threads_configured: gauges::EXEC_THREADS.get(),
            threads_available: std::thread::available_parallelism()
                .map_or(1, |n| n.get() as u64),
            peak_rss_bytes: peak_rss_bytes(),
            counters: counters::snapshot(),
            gauges: gauges::snapshot(),
            coverage: crate::coverage::snapshot(),
            sched: crate::sched::snapshot(),
            spans: take_spans(),
        }
    }

    /// Serialize to JSON (stable key order, self-contained).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"version\": 1,\n");
        out.push_str(&format!(
            "  \"threads\": {{\"configured\": {}, \"available\": {}}},\n",
            self.threads_configured, self.threads_available
        ));
        out.push_str(&format!("  \"peak_rss_bytes\": {},\n", self.peak_rss_bytes));
        out.push_str("  \"counters\": ");
        push_u64_object(&mut out, &self.counters, 2);
        out.push_str(",\n  \"gauges\": ");
        push_u64_object(&mut out, &self.gauges, 2);
        out.push_str(",\n  \"coverage\": ");
        push_coverage(&mut out, &self.coverage);
        out.push_str(",\n  \"scheduling\": {\n    \"worker_tasks\": ");
        push_u64_array(&mut out, &self.sched.worker_tasks);
        out.push_str(&format!(
            ",\n    \"parallel_regions\": {},\n    \"max_region_imbalance\": {},\n    \
             \"region_busy_ns\": {},\n    \"region_wall_ns\": {},\n    \
             \"max_region_workers\": {},\n    \"effective_parallelism\": {:.3}\n  }},\n",
            self.sched.parallel_regions,
            self.sched.max_region_imbalance,
            self.sched.region_busy_ns,
            self.sched.region_wall_ns,
            self.sched.max_region_workers,
            self.sched.effective_parallelism()
        ));
        out.push_str("  \"spans\": ");
        push_spans(&mut out, &self.spans);
        out.push_str("\n}\n");
        out
    }

    /// Write the JSON report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn push_coverage(out: &mut String, coverage: &[(String, Vec<(String, u64)>)]) {
    out.push('{');
    for (i, (dim, items)) in coverage.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_str_literal(out, dim);
        out.push_str(": {");
        for (j, (item, n)) in items.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("\n      ");
            push_str_literal(out, item);
            out.push_str(&format!(": {n}"));
        }
        if !items.is_empty() {
            out.push_str("\n    ");
        }
        out.push('}');
    }
    if !coverage.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
}

fn push_spans(out: &mut String, spans: &[SpanNode]) {
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"label\": ");
        push_str_literal(out, &s.label);
        out.push_str(&format!(", \"wall_ns\": {}, \"children\": ", s.wall_nanos));
        push_spans(out, &s.children);
        out.push('}');
    }
    out.push(']');
}

/// Peak resident set size (VmHWM) of the current process in bytes; 0
/// where `/proc` is unavailable (non-Linux hosts).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kib| kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_self_consistent() {
        let report = RunReport {
            threads_configured: 4,
            threads_available: 8,
            peak_rss_bytes: 12345,
            counters: vec![("parse_cache_hits", 10), ("parse_cache_misses", 2)],
            gauges: vec![("exec_threads", 4)],
            coverage: vec![(
                "dialect".to_string(),
                vec![("block-keyword".to_string(), 7), ("brace\"x".to_string(), 0)],
            )],
            sched: SchedSnapshot {
                worker_tasks: vec![7, 5],
                parallel_regions: 3,
                max_region_imbalance: 2,
                region_busy_ns: 1_500,
                region_wall_ns: 1_000,
                max_region_workers: 2,
            },
            spans: vec![SpanNode {
                label: "infer \"x\"".to_string(),
                wall_nanos: 99,
                children: vec![SpanNode {
                    label: "parse".to_string(),
                    wall_nanos: 42,
                    children: Vec::new(),
                }],
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"configured\": 4"));
        assert!(json.contains("\"parse_cache_hits\": 10"));
        assert!(json.contains("\"worker_tasks\": [7, 5]"));
        assert!(json.contains("\"block-keyword\": 7"));
        assert!(json.contains("\"brace\\\"x\": 0"));
        assert!(json.contains("\"effective_parallelism\": 1.500"));
        assert!(json.contains("\"max_region_workers\": 2"));
        assert!(json.contains("\"label\": \"infer \\\"x\\\"\""));
        assert!(json.contains("\"wall_ns\": 42"));
        // Balanced braces/brackets outside string literals — a cheap
        // well-formedness check without a JSON parser in this crate (the
        // CLI integration test parses a real report with serde_json).
        let mut depth = 0i64;
        let mut in_str = false;
        let mut esc = false;
        for c in json.chars() {
            match (in_str, esc, c) {
                (true, true, _) => esc = false,
                (true, false, '\\') => esc = true,
                (true, false, '"') => in_str = false,
                (false, _, '"') => in_str = true,
                (false, _, '{' | '[') => depth += 1,
                (false, _, '}' | ']') => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0, "unbalanced JSON:\n{json}");
    }

    #[test]
    fn gather_includes_every_registered_counter() {
        let report = RunReport::gather();
        assert_eq!(report.counters.len(), crate::counters::ALL.len());
        assert_eq!(report.gauges.len(), crate::gauges::ALL.len());
        assert!(report.threads_available >= 1);
    }

    #[test]
    fn peak_rss_is_observable_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0);
        }
    }
}
