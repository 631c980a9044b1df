//! Percentiles, medians, process memory, and the report format.

use std::fmt::Write as _;

/// Sub-buckets per power of two in [`Histogram`] (1.6% bucket width).
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;

/// A log-linear latency histogram of nanosecond values: constant memory
/// however many samples it holds, so the benchmark's own bookkeeping
/// does not grow the peak resident set it reports.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { counts: vec![0; SUB * 40], total: 0 }
    }
}

impl Histogram {
    fn bucket(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let shift = 63 - value.leading_zeros() - SUB_BITS;
        (shift as usize + 1) * SUB + ((value >> shift) as usize - SUB)
    }

    /// Lower bound and width of bucket `index`.
    fn span(index: usize) -> (f64, f64) {
        if index < SUB {
            return (index as f64, 1.0);
        }
        let shift = index / SUB - 1;
        let mantissa = (index % SUB + SUB) as u64;
        ((mantissa << shift) as f64, (1u64 << shift) as f64)
    }

    /// Adds one sample.
    pub fn record(&mut self, nanos: u64) {
        let index = Histogram::bucket(nanos).min(self.counts.len() - 1);
        self.counts[index] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Samples held.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0..=1), interpolated within its bucket; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).ceil().clamp(1.0, self.total as f64);
        let mut below = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 && (below + count) as f64 >= rank {
                let (low, width) = Histogram::span(index);
                return low + width * (rank - below as f64 - 0.5) / count as f64;
            }
            below += count;
        }
        0.0
    }
}

/// The median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: u64,
}

impl Metric {
    /// A metric summarizing `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric { name, value, unit, samples }
    }
}

/// Formats a JSON string literal.
pub fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite number for JSON (non-finite values become 0).
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`, with the sample count
/// when `with_samples`.
pub fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples =
                if with_samples { format!(", \"samples\": {}", m.samples) } else { String::new() };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}
