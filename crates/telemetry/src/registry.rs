//! The registry: sharded counters, per-stage histograms, gauges, traces.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use gridauthz_clock::SimTime;

use crate::export::{HistogramSnapshot, RegistrySnapshot};
use crate::labels;
use crate::trace::{DecisionTrace, Stage};

/// Counter shards: enough to keep a handful of worker threads off each
/// other's cache lines without bloating the snapshot walk.
const SHARDS: usize = 8;

/// Finished traces retained for inspection (oldest evicted first).
const RECENT_TRACES: usize = 256;

/// Histogram buckets: bucket `i` counts samples in `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 also takes 0 ns); the last bucket is unbounded.
pub(crate) const HISTOGRAM_BUCKETS: usize = 32;

// Threads are assigned a counter shard round-robin on first use; the
// assignment is process-global so one thread lands on the same shard in
// every registry.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
}

fn my_shard() -> usize {
    MY_SHARD.with(|cell| match cell.get() {
        Some(shard) => shard,
        None => {
            let shard = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            cell.set(Some(shard));
            shard
        }
    })
}

/// One cache-line-aligned bank of (stage × label) counters.
#[repr(align(64))]
struct CounterShard {
    counts: [[AtomicU64; labels::ALL.len()]; Stage::COUNT],
}

impl CounterShard {
    fn new() -> CounterShard {
        CounterShard { counts: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))) }
    }
}

/// Fixed power-of-two-bucket latency histogram (nanoseconds).
struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    fn record(&self, nanos: u64) {
        let idx = (64 - u64::leading_zeros(nanos | 1) as usize - 1).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn snapshot(&self, stage: Stage) -> HistogramSnapshot {
        HistogramSnapshot {
            stage,
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A named point-in-time value published by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Gauge {
    /// Generation of the currently published policy snapshot.
    SnapshotGeneration,
    /// Entries currently held by the decision cache.
    CacheEntries,
    /// Decision-cache hits since engine construction.
    CacheHits,
    /// Decision-cache misses since engine construction.
    CacheMisses,
    /// Jobs currently tracked by the GRAM server.
    LiveJobs,
    /// Connections accepted by the TCP front-end since it was bound.
    ConnectionsAccepted,
    /// Connections currently being served by front-end workers.
    ConnectionsActive,
    /// Connections currently waiting in the interactive admission lane.
    QueueDepthInteractive,
    /// Connections currently waiting in the batch admission lane.
    QueueDepthBatch,
    /// Workers in the front-end's fixed pool (set once at bind).
    ///
    /// Together with [`Gauge::ConnectionsActive`] this makes worker
    /// occupancy observable: `ConnectionsActive == WorkersTotal` means
    /// every worker is pinned to a connection and new arrivals can only
    /// queue.
    WorkersTotal,
    /// Age in microseconds of the longest-lived connection currently
    /// being served (0 when all workers are idle). A value that keeps
    /// growing while `ConnectionsActive` is saturated is the signature
    /// of worker pinning.
    OldestConnectionAgeMicros,
    /// Durable write-ahead-log length in bytes (drops at snapshot
    /// compaction).
    JournalBytes,
    /// Audit records rotated out of the bounded in-memory ring since
    /// server construction. With a journal attached the evicted records
    /// remain durable in the log; without one this counts what the ring
    /// could not keep.
    AuditEvicted,
}

impl Gauge {
    /// Number of gauges (array-index bound).
    pub const COUNT: usize = 13;

    /// Every gauge, in reporting order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::SnapshotGeneration,
        Gauge::CacheEntries,
        Gauge::CacheHits,
        Gauge::CacheMisses,
        Gauge::LiveJobs,
        Gauge::ConnectionsAccepted,
        Gauge::ConnectionsActive,
        Gauge::QueueDepthInteractive,
        Gauge::QueueDepthBatch,
        Gauge::WorkersTotal,
        Gauge::OldestConnectionAgeMicros,
        Gauge::JournalBytes,
        Gauge::AuditEvicted,
    ];

    /// Stable lowercase name (metric key).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Gauge::SnapshotGeneration => "snapshot-generation",
            Gauge::CacheEntries => "cache-entries",
            Gauge::CacheHits => "cache-hits",
            Gauge::CacheMisses => "cache-misses",
            Gauge::LiveJobs => "live-jobs",
            Gauge::ConnectionsAccepted => "connections-accepted",
            Gauge::ConnectionsActive => "connections-active",
            Gauge::QueueDepthInteractive => "queue-depth-interactive",
            Gauge::QueueDepthBatch => "queue-depth-batch",
            Gauge::WorkersTotal => "workers-total",
            Gauge::OldestConnectionAgeMicros => "oldest-connection-age-micros",
            Gauge::JournalBytes => "journal-bytes",
            Gauge::AuditEvicted => "audit-evicted",
        }
    }
}

/// The single registry every pipeline component reports through.
///
/// Cheap to share (`Arc`), cheap to write (relaxed atomics on
/// thread-sharded counters), and snapshot-able at any moment without
/// stopping writers.
pub struct TelemetryRegistry {
    shards: Box<[CounterShard; SHARDS]>,
    histograms: [Histogram; Stage::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    next_trace_id: AtomicU64,
    traces_finished: AtomicU64,
    recent: Mutex<VecDeque<DecisionTrace>>,
}

impl TelemetryRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> TelemetryRegistry {
        TelemetryRegistry {
            shards: Box::new(std::array::from_fn(|_| CounterShard::new())),
            histograms: std::array::from_fn(|_| Histogram::new()),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            next_trace_id: AtomicU64::new(1),
            traces_finished: AtomicU64::new(0),
            recent: Mutex::new(VecDeque::with_capacity(RECENT_TRACES)),
        }
    }

    // --- counters ---------------------------------------------------------

    /// Increments the (`stage`, `label`) counter by one.
    ///
    /// This is the hot-path entry point: one thread-local lookup and one
    /// relaxed `fetch_add`. Labels outside the fixed vocabulary are
    /// counted under nothing (debug-asserted — the pipeline only passes
    /// [`labels`] constants).
    pub fn record(&self, stage: Stage, label: &str) {
        let Some(idx) = labels::index_of(label) else {
            debug_assert!(false, "label {label:?} outside the fixed vocabulary");
            return;
        };
        self.shards[my_shard()].counts[stage.index()][idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a timed sample: bumps the (`stage`, `label`) counter and
    /// feeds the stage's latency histogram.
    pub fn record_timed(&self, stage: Stage, label: &str, nanos: u64) {
        self.record(stage, label);
        self.histograms[stage.index()].record(nanos);
    }

    /// Current value of the (`stage`, `label`) counter, summed across
    /// shards.
    #[must_use]
    pub fn counter(&self, stage: Stage, label: &str) -> u64 {
        let Some(idx) = labels::index_of(label) else { return 0 };
        self.shards.iter().map(|s| s.counts[stage.index()][idx].load(Ordering::Relaxed)).sum()
    }

    // --- gauges -----------------------------------------------------------

    /// Publishes a gauge value.
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge as usize].store(value, Ordering::Relaxed);
    }

    /// Current gauge value.
    #[must_use]
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize].load(Ordering::Relaxed)
    }

    // --- traces -----------------------------------------------------------

    /// Opens a trace for one request arriving at simulated time `at`.
    #[must_use]
    pub fn start_trace(&self, operation: &'static str, at: SimTime) -> DecisionTrace {
        let id = self.allocate_trace_id();
        DecisionTrace::new(id, operation, at)
    }

    /// Reserves a registry-unique trace id without opening a trace.
    ///
    /// The TCP front-end stamps each assembled frame's `RequestContext`
    /// with an id at admission time; the server later opens the trace
    /// with [`start_trace_with_id`](Self::start_trace_with_id), so one
    /// id joins the front-end, engine, callout and audit views of a
    /// request.
    #[must_use]
    pub fn allocate_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a trace under a previously allocated id (see
    /// [`allocate_trace_id`](Self::allocate_trace_id)). An id of 0 —
    /// "no id was allocated upstream" — falls back to allocating a
    /// fresh one, so callers can pass a context's id unconditionally.
    #[must_use]
    pub fn start_trace_with_id(
        &self,
        id: u64,
        operation: &'static str,
        at: SimTime,
    ) -> DecisionTrace {
        let id = if id == 0 { self.allocate_trace_id() } else { id };
        DecisionTrace::new(id, operation, at)
    }

    /// Closes a trace: folds every span into the counters and the
    /// per-stage histograms, then retains the trace in the bounded
    /// recent-trace ring.
    pub fn finish_trace(&self, trace: DecisionTrace) {
        for span in trace.spans() {
            self.record_timed(span.stage, span.label, span.nanos);
        }
        self.traces_finished.fetch_add(1, Ordering::Relaxed);
        let mut recent = self.recent.lock().unwrap_or_else(|e| e.into_inner());
        if recent.len() == RECENT_TRACES {
            recent.pop_front();
        }
        recent.push_back(trace);
    }

    /// Traces finished since construction.
    #[must_use]
    pub fn traces_finished(&self) -> u64 {
        self.traces_finished.load(Ordering::Relaxed)
    }

    /// Copies of the most recent finished traces, oldest first.
    #[must_use]
    pub fn recent_traces(&self) -> Vec<DecisionTrace> {
        self.recent.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect()
    }

    // --- snapshot ---------------------------------------------------------

    /// A point-in-time copy of every counter, histogram and gauge.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters = Vec::new();
        for stage in Stage::ALL {
            for (idx, label) in labels::ALL.iter().enumerate() {
                let total: u64 = self
                    .shards
                    .iter()
                    .map(|s| s.counts[stage.index()][idx].load(Ordering::Relaxed))
                    .sum();
                if total != 0 {
                    counters.push((stage, *label, total));
                }
            }
        }
        let histograms = Stage::ALL
            .iter()
            .map(|stage| self.histograms[stage.index()].snapshot(*stage))
            .filter(|h| h.count != 0)
            .collect();
        let gauges = Gauge::ALL.iter().map(|g| (*g, self.gauge(*g))).collect();
        RegistrySnapshot { counters, histograms, gauges, traces_finished: self.traces_finished() }
    }
}

impl Default for TelemetryRegistry {
    fn default() -> TelemetryRegistry {
        TelemetryRegistry::new()
    }
}

impl std::fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRegistry")
            .field("traces_finished", &self.traces_finished())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_shards_and_threads() {
        let registry = TelemetryRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        registry.record(Stage::CacheProbe, labels::HIT);
                    }
                });
            }
        });
        assert_eq!(registry.counter(Stage::CacheProbe, labels::HIT), 4000);
        assert_eq!(registry.counter(Stage::CacheProbe, labels::MISS), 0);
    }

    #[test]
    fn unknown_label_reads_as_zero() {
        let registry = TelemetryRegistry::new();
        assert_eq!(registry.counter(Stage::Enforce, "nonsense"), 0);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let registry = TelemetryRegistry::new();
        registry.record_timed(Stage::Combine, labels::PERMIT, 0);
        registry.record_timed(Stage::Combine, labels::PERMIT, 1);
        registry.record_timed(Stage::Combine, labels::PERMIT, 1024);
        registry.record_timed(Stage::Combine, labels::PERMIT, 1500);
        registry.record_timed(Stage::Combine, labels::PERMIT, u64::MAX);
        let snap = registry.snapshot();
        let hist = snap.histograms.iter().find(|h| h.stage == Stage::Combine).unwrap();
        assert_eq!(hist.count, 5);
        assert_eq!(hist.buckets[0], 2); // 0 and 1 ns
        assert_eq!(hist.buckets[10], 2); // 1024 and 1500 ns
        assert_eq!(hist.buckets[HISTOGRAM_BUCKETS - 1], 1); // saturates
    }

    #[test]
    fn gauges_overwrite() {
        let registry = TelemetryRegistry::new();
        registry.set_gauge(Gauge::SnapshotGeneration, 3);
        registry.set_gauge(Gauge::SnapshotGeneration, 9);
        assert_eq!(registry.gauge(Gauge::SnapshotGeneration), 9);
        assert_eq!(registry.gauge(Gauge::LiveJobs), 0);
    }

    #[test]
    fn finish_trace_folds_spans_once_and_retains() {
        let registry = TelemetryRegistry::new();
        let mut trace = registry.start_trace("submit", SimTime::EPOCH);
        trace.record(Stage::Authenticate, labels::PERMIT, 500);
        trace.record(Stage::CacheProbe, labels::MISS, 0);
        trace.record_callout(&"vo-policy".into(), labels::PERMIT, 2000);
        let id = trace.id();
        registry.finish_trace(trace);
        assert_eq!(registry.counter(Stage::Authenticate, labels::PERMIT), 1);
        assert_eq!(registry.counter(Stage::CacheProbe, labels::MISS), 1);
        assert_eq!(registry.counter(Stage::Callout, labels::PERMIT), 1);
        assert_eq!(registry.traces_finished(), 1);
        let recent = registry.recent_traces();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].id(), id);
    }

    #[test]
    fn preallocated_trace_ids_join_front_end_and_trace() {
        let registry = TelemetryRegistry::new();
        let id = registry.allocate_trace_id();
        let trace = registry.start_trace_with_id(id, "submit", SimTime::EPOCH);
        assert_eq!(trace.id(), id);
        // A later plain start_trace never reuses the reserved id.
        let next = registry.start_trace("status", SimTime::EPOCH);
        assert_ne!(next.id(), id);
        // Id 0 means "nothing allocated upstream": a fresh id is issued.
        let fallback = registry.start_trace_with_id(0, "cancel", SimTime::EPOCH);
        assert_ne!(fallback.id(), 0);
        assert_ne!(fallback.id(), next.id());
    }

    #[test]
    fn trace_ids_are_unique_and_ring_is_bounded() {
        let registry = TelemetryRegistry::new();
        let mut ids = std::collections::HashSet::new();
        for _ in 0..RECENT_TRACES + 10 {
            let trace = registry.start_trace("status", SimTime::EPOCH);
            assert!(ids.insert(trace.id()));
            registry.finish_trace(trace);
        }
        let recent = registry.recent_traces();
        assert_eq!(recent.len(), RECENT_TRACES);
        // Oldest traces were evicted: the ring starts after the overflow.
        assert_eq!(recent[0].id(), 11);
        assert_eq!(registry.traces_finished(), (RECENT_TRACES + 10) as u64);
    }
}
