//! Point-in-time snapshots with deterministic text and JSON renderings.
//!
//! JSON is hand-rolled: the build environment is offline and the
//! workspace vendors no serializer, and the snapshot shape is small and
//! fixed. The renderings are deterministic (fixed stage/label order,
//! zero-valued counters omitted), so they can be golden-tested and
//! diffed across bench runs.

use std::fmt::Write as _;

use crate::registry::Gauge;
use crate::trace::Stage;

/// A copy of one stage's latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The stage the samples cover.
    pub stage: Stage,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_nanos: u64,
    /// Per-bucket sample counts; bucket `i` covers `[2^i, 2^(i+1))` ns.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample, nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_nanos(&self) -> u64 {
        self.sum_nanos.checked_div(self.count).unwrap_or(0)
    }
}

/// A point-in-time copy of a [`TelemetryRegistry`].
///
/// [`TelemetryRegistry`]: crate::TelemetryRegistry
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Non-zero (stage, label, count) counters in canonical order.
    pub counters: Vec<(Stage, &'static str, u64)>,
    /// Per-stage histograms that received at least one sample.
    pub histograms: Vec<HistogramSnapshot>,
    /// Every gauge and its current value, in canonical order.
    pub gauges: Vec<(Gauge, u64)>,
    /// Traces closed via `finish_trace` since construction.
    pub traces_finished: u64,
}

impl RegistrySnapshot {
    /// Sum of every counter under `label`, across stages.
    #[must_use]
    pub fn total(&self, label: &str) -> u64 {
        self.counters.iter().filter(|(_, l, _)| *l == label).map(|(_, _, n)| n).sum()
    }

    /// Line-oriented human-readable rendering.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "telemetry: {} traces finished", self.traces_finished);
        for (stage, label, count) in &self.counters {
            let _ = writeln!(out, "counter {stage}/{label} = {count}");
        }
        for hist in &self.histograms {
            let _ = writeln!(
                out,
                "latency {} count={} mean={}ns",
                hist.stage,
                hist.count,
                hist.mean_nanos()
            );
        }
        for (gauge, value) in &self.gauges {
            let _ = writeln!(out, "gauge {} = {}", gauge.as_str(), value);
        }
        out
    }

    /// Compact JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"traces_finished\":{},", self.traces_finished);
        out.push_str("\"counters\":[");
        for (i, (stage, label, count)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"label\":{},\"count\":{count}}}",
                json_string(stage.as_str()),
                json_string(label)
            );
        }
        out.push_str("],\"histograms\":[");
        for (i, hist) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"count\":{},\"sum_nanos\":{},\"mean_nanos\":{},\"buckets\":[",
                json_string(hist.stage.as_str()),
                hist.count,
                hist.sum_nanos,
                hist.mean_nanos()
            );
            // Buckets render as (floor, count) pairs for the non-empty ones;
            // a dense 32-wide array of mostly zeros would drown the diff.
            let mut first = true;
            for (idx, count) in hist.buckets.iter().enumerate() {
                if *count == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "{{\"ge_nanos\":{},\"count\":{count}}}", 1u64 << idx);
            }
            out.push_str("]}");
        }
        out.push_str("],\"gauges\":{");
        for (i, (gauge, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(gauge.as_str()), value);
        }
        out.push_str("}}");
        out
    }
}

/// Renders `s` as a JSON string literal with the escapes JSON requires.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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
    use crate::labels;
    use crate::TelemetryRegistry;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn renderings_are_deterministic_and_complete() {
        let registry = TelemetryRegistry::new();
        registry.record(Stage::CacheProbe, labels::HIT);
        registry.record(Stage::CacheProbe, labels::HIT);
        registry.record_timed(Stage::Combine, labels::PERMIT, 900);
        registry.set_gauge(crate::Gauge::SnapshotGeneration, 4);
        let snap = registry.snapshot();

        let text = snap.to_text();
        assert!(text.contains("counter cache-probe/hit = 2"));
        assert!(text.contains("latency combine count=1 mean=900ns"));
        assert!(text.contains("gauge snapshot-generation = 4"));

        let json = snap.to_json();
        assert!(json.contains("{\"stage\":\"cache-probe\",\"label\":\"hit\",\"count\":2}"));
        assert!(json.contains("\"sum_nanos\":900"));
        assert!(json.contains("\"snapshot-generation\":4"));
        // Deterministic: rendering twice gives byte-identical output.
        assert_eq!(json, snap.to_json());
        assert_eq!(snap.total(labels::HIT), 2);
    }

    /// Golden rendering: the exact text and JSON bytes of a snapshot.
    /// Any reordering, renaming, or format drift fails here before a
    /// consumer of the rendering sees it.
    #[test]
    fn snapshot_renderings_match_golden_bytes() {
        use gridauthz_clock::SimTime;

        let registry = TelemetryRegistry::new();
        registry.record(Stage::Authenticate, labels::PERMIT);
        registry.record(Stage::CacheProbe, labels::HIT);
        registry.record_timed(Stage::Callout, labels::PERMIT, 5);
        registry.record_timed(Stage::Combine, labels::POLICY_DENIED, 2048);
        registry.set_gauge(crate::Gauge::SnapshotGeneration, 2);
        registry.set_gauge(crate::Gauge::LiveJobs, 7);
        registry.finish_trace(registry.start_trace("golden", SimTime::EPOCH));
        let snap = registry.snapshot();

        assert_eq!(
            snap.to_text(),
            "telemetry: 1 traces finished\n\
             counter authenticate/permit = 1\n\
             counter cache-probe/hit = 1\n\
             counter callout/permit = 1\n\
             counter combine/policy-denied = 1\n\
             latency callout count=1 mean=5ns\n\
             latency combine count=1 mean=2048ns\n\
             gauge snapshot-generation = 2\n\
             gauge cache-entries = 0\n\
             gauge cache-hits = 0\n\
             gauge cache-misses = 0\n\
             gauge live-jobs = 7\n\
             gauge connections-accepted = 0\n\
             gauge connections-active = 0\n\
             gauge queue-depth-interactive = 0\n\
             gauge queue-depth-batch = 0\n\
             gauge workers-total = 0\n\
             gauge oldest-connection-age-micros = 0\n\
             gauge journal-bytes = 0\n\
             gauge audit-evicted = 0\n"
        );
        assert_eq!(
            snap.to_json(),
            "{\"traces_finished\":1,\"counters\":[\
             {\"stage\":\"authenticate\",\"label\":\"permit\",\"count\":1},\
             {\"stage\":\"cache-probe\",\"label\":\"hit\",\"count\":1},\
             {\"stage\":\"callout\",\"label\":\"permit\",\"count\":1},\
             {\"stage\":\"combine\",\"label\":\"policy-denied\",\"count\":1}],\
             \"histograms\":[\
             {\"stage\":\"callout\",\"count\":1,\"sum_nanos\":5,\"mean_nanos\":5,\
             \"buckets\":[{\"ge_nanos\":4,\"count\":1}]},\
             {\"stage\":\"combine\",\"count\":1,\"sum_nanos\":2048,\"mean_nanos\":2048,\
             \"buckets\":[{\"ge_nanos\":2048,\"count\":1}]}],\
             \"gauges\":{\"snapshot-generation\":2,\"cache-entries\":0,\"cache-hits\":0,\
             \"cache-misses\":0,\"live-jobs\":7,\"connections-accepted\":0,\
             \"connections-active\":0,\"queue-depth-interactive\":0,\
             \"queue-depth-batch\":0,\"workers-total\":0,\
             \"oldest-connection-age-micros\":0,\"journal-bytes\":0,\
             \"audit-evicted\":0}}"
        );
    }
}
