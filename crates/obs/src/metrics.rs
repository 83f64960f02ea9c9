//! Counters, gauges, log2-bucketed histograms, and the registries that
//! group them per application and roll them up VM-wide.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// Number of histogram buckets: bucket 0 holds zeros, bucket *i* holds
/// values whose bit length is *i*, i.e. the range `[2^(i-1), 2^i)`.
pub const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depths, live-thread counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over `u64` samples with logarithmic (power-of-two) buckets:
/// cheap to record into (two atomic adds and one atomic increment), mergeable,
/// and precise enough for latency distributions spanning nanoseconds to
/// seconds.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// The bucket index for `value`: its bit length (0 for 0).
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The exclusive upper bound of bucket `index` (`1` for the zero
    /// bucket, saturating at `u64::MAX`).
    pub fn bucket_bound(index: usize) -> u64 {
        if index >= 64 {
            u64::MAX
        } else {
            1u64 << index
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[Histogram::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Folds another histogram's counts into this one.
    pub fn merge(&self, other: &Histogram) {
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// A consistent-enough copy for export (buckets are read individually;
    /// concurrent recording may skew totals by in-flight samples).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// Exported form of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Per-bucket sample counts: bucket 0 holds zeros, bucket *i* values
    /// of bit length *i*.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`), a conservative estimate good to a factor of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return Histogram::bucket_bound(index);
            }
        }
        Histogram::bucket_bound(self.buckets.len())
    }

    /// [`HistogramSnapshot::quantile`] over several `q`s at once, in input
    /// order — the profiler's p50/p95/p99 triple in one call.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<u64> {
        qs.iter().map(|&q| self.quantile(q)).collect()
    }

    /// One-line rendering for tables and `vmstat`:
    /// `count=N mean=M p50=…/p95=…/p99=…`. An empty histogram renders as
    /// `count=0`.
    pub fn render_compact(&self) -> String {
        if self.count == 0 {
            return "count=0".to_string();
        }
        let qs = self.quantiles(&[0.5, 0.95, 0.99]);
        format!(
            "count={} mean={} p50={}/p95={}/p99={}",
            self.count,
            self.mean(),
            qs[0],
            qs[1],
            qs[2]
        )
    }

    /// Adds another snapshot's counts into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }
}

/// A named group of metrics — one per application, plus one VM-wide.
/// Instruments are created on first use and shared via [`Arc`], so hot paths
/// hold the instrument directly and never touch the registry lock.
pub struct MetricsRegistry {
    name: String,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry labelled `name`.
    pub fn new(name: impl Into<String>) -> MetricsRegistry {
        MetricsRegistry {
            name: name.into(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// The registry's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Exports every instrument's current value.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            name: self.name.clone(),
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("name", &self.name)
            .field("counters", &self.counters.read().len())
            .field("gauges", &self.gauges.read().len())
            .field("histograms", &self.histograms.read().len())
            .finish()
    }
}

/// Exported form of a [`MetricsRegistry`] — and the unit of VM-wide rollup:
/// merging snapshots sums counters and histograms and drops gauges (an
/// instantaneous per-application depth has no meaningful VM-wide sum).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// The registry's label.
    pub name: String,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// An empty snapshot labelled `name`.
    pub fn empty(name: impl Into<String>) -> RegistrySnapshot {
        RegistrySnapshot {
            name: name.into(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Folds `other` into this snapshot: counters add, histograms merge,
    /// gauges are left alone (not meaningfully summable).
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, histogram) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_insert_with(|| HistogramSnapshot {
                    count: 0,
                    sum: 0,
                    buckets: Vec::new(),
                })
                .merge(histogram);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Every boundary value lands in the bucket it opens.
        for i in 0..63 {
            let bound = Histogram::bucket_bound(i);
            assert_eq!(Histogram::bucket_of(bound), i + 1, "bound of bucket {i}");
        }
    }

    #[test]
    fn histogram_records_and_estimates_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1105);
        assert_eq!(snap.mean(), 184);
        assert_eq!(snap.buckets[0], 1, "one zero");
        assert_eq!(snap.buckets[1], 2, "two ones");
        assert_eq!(snap.buckets[2], 1, "one three");
        // Median lands in the ones bucket; the p99 in the 1000s bucket.
        assert_eq!(snap.quantile(0.5), 2);
        assert_eq!(snap.quantile(0.99), 1024);
        assert_eq!(snap.quantile(0.0), 1);
    }

    #[test]
    fn quantiles_and_compact_rendering() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(
            snap.quantiles(&[0.5, 0.95, 0.99]),
            vec![snap.quantile(0.5), snap.quantile(0.95), snap.quantile(0.99)]
        );
        assert_eq!(
            snap.render_compact(),
            "count=6 mean=184 p50=2/p95=1024/p99=1024"
        );
        let empty = Histogram::new().snapshot();
        assert_eq!(empty.quantiles(&[0.5]), vec![0]);
        assert_eq!(empty.render_compact(), "count=0");
    }

    #[test]
    fn histogram_merge_adds_everything() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        b.record(7);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 21);
        assert_eq!(a.snapshot().buckets[3], 2, "5 and 7 share [4,8)");
        // Snapshot-level merge agrees.
        let mut snap = Histogram::new().snapshot();
        snap.merge(&a.snapshot());
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 21);
    }

    #[test]
    fn registry_instruments_are_shared() {
        let reg = MetricsRegistry::new("test");
        let c1 = reg.counter("hits");
        let c2 = reg.counter("hits");
        c1.inc();
        c2.add(2);
        assert_eq!(reg.counter("hits").get(), 3);
        reg.gauge("depth").set(-4);
        reg.histogram("lat").record(42);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["hits"], 3);
        assert_eq!(snap.gauges["depth"], -4);
        assert_eq!(snap.histograms["lat"].count, 1);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let reg = MetricsRegistry::new("vm");
        reg.counter("a").add(7);
        reg.gauge("g").set(3);
        reg.histogram("h").record(100);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn rollup_sums_counters_and_drops_gauges() {
        let mut total = RegistrySnapshot::empty("vm");
        let a = MetricsRegistry::new("app-1");
        a.counter("gui.dispatched").add(3);
        a.gauge("threads").set(2);
        let b = MetricsRegistry::new("app-2");
        b.counter("gui.dispatched").add(4);
        total.merge(&a.snapshot());
        total.merge(&b.snapshot());
        assert_eq!(total.counters["gui.dispatched"], 7);
        assert!(total.gauges.is_empty());
    }
}
