//! The metric store: counters, gauges, log-bucketed histograms, and the
//! registry that names them.
//!
//! Everything here is built for the ingest hot path: handles are cheap
//! `Arc` clones resolved once at wiring time, writes are relaxed
//! atomics, and counters spread across per-thread shards that are only
//! folded together when a scrape asks for the value. Histograms bucket
//! by bit width (powers of two), which turns `observe` into one
//! `leading_zeros` plus three relaxed RMWs and still yields usable
//! p50/p90/p99 under the multiplicative error a log scale implies.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, RwLock};

use cpvr_types::impl_json_struct;
use cpvr_types::json::{self, JsonError};

/// Number of per-thread shards a counter fans writes across.
///
/// Threads map onto shards by a registration-order id, so up to this
/// many concurrent writers never contend on the same cache line.
pub(crate) const COUNTER_SHARDS: usize = 16;

/// A cache-line-sized cell so neighbouring shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct Padded(AtomicU64);

fn shard_index() -> usize {
    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT_THREAD.fetch_add(1, Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// The kind of a metric family; registering a name twice with different
/// kinds is a programming error and panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotonically increasing sum (sharded).
    Counter,
    /// Instantaneous signed value.
    Gauge,
    /// Log-bucketed value distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

struct CounterCore {
    shards: [Padded; COUNTER_SHARDS],
}

/// A handle to a sharded monotonic counter. Cloning is cheap; clones
/// share the same cells.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            core: Arc::new(CounterCore {
                shards: std::array::from_fn(|_| Padded::default()),
            }),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. One relaxed `fetch_add` on this thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.core.shards[shard_index()].0.fetch_add(n, Relaxed);
    }

    /// Folds the shards into the current total.
    pub fn value(&self) -> u64 {
        self.core
            .shards
            .iter()
            .map(|s| s.0.load(Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

/// A handle to an instantaneous signed value.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            cell: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Relaxed);
    }

    /// Reads the current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Relaxed)
    }
}

/// Bucket count: index 0 holds the value 0, index `i >= 1` holds values
/// with exactly `i` significant bits, i.e. `[2^(i-1), 2^i - 1]`.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// The inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

struct HistogramCore {
    buckets: [Padded; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// A handle to a log-bucketed histogram. `observe` is wait-free; the
/// quantile math happens at scrape time from the bucket counts.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            core: Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| Padded::default()),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        let core = &*self.core;
        core.buckets[bucket_of(v)].0.fetch_add(1, Relaxed);
        core.sum.fetch_add(v, Relaxed);
        core.max.fetch_max(v, Relaxed);
    }

    /// Records an elapsed duration in nanoseconds.
    #[inline]
    pub fn observe_since(&self, start: std::time::Instant) {
        self.observe(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    fn sample(&self, name: &str, labels: &[(String, String)]) -> HistogramSample {
        let core = &*self.core;
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in core.buckets.iter().enumerate() {
            let c = b.0.load(Relaxed);
            if c > 0 {
                count += c;
                buckets.push((bucket_upper_bound(i), c));
            }
        }
        HistogramSample {
            name: name.to_string(),
            labels: labels.to_vec(),
            count,
            sum: core.sum.load(Relaxed),
            max: core.max.load(Relaxed),
            buckets,
        }
    }
}

/// A `(family name, label set)` instance key. Labels are kept sorted so
/// `[("a","1"),("b","2")]` and its permutation are the same series.
type SeriesKey = (String, Vec<(String, String)>);

fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

struct Family {
    kind: MetricKind,
    help: String,
}

#[derive(Default)]
struct Series {
    counters: BTreeMap<SeriesKey, Counter>,
    gauges: BTreeMap<SeriesKey, Gauge>,
    histograms: BTreeMap<SeriesKey, Histogram>,
}

/// The registry: a name → family map plus the live series.
///
/// Resolving a handle declares its family: the call names the metric,
/// its kind (by which method) and its help text, so each family is
/// written in one place. A second resolve must agree on kind and help,
/// or it panics. Lookup takes locks, so resolve handles once at wiring
/// time and keep them; only scrapes and first-touch registration pay
/// for them.
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
    series: RwLock<Series>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            families: Mutex::new(BTreeMap::new()),
            series: RwLock::new(Series::default()),
        }
    }

    /// Registers family `name` on first use; a later use must agree on
    /// its kind and help text, or it panics.
    fn family(&self, name: &str, kind: MetricKind, help: &str) {
        let mut fams = self.families.lock().expect("a registry user panicked");
        let f = fams.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
        });
        assert!(
            f.kind == kind,
            "metric `{name}` declared as {:?} and {kind:?}",
            f.kind
        );
        assert!(
            f.help == help,
            "metric `{name}` declared with help {:?} and {help:?}",
            f.help
        );
    }

    /// The counter `name` with no labels, declaring its family.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// The counter `name` with the given labels, declaring its family.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.family(name, MetricKind::Counter, help);
        let key = series_key(name, labels);
        if let Some(c) = self.series.read().unwrap().counters.get(&key) {
            return c.clone();
        }
        let mut s = self.series.write().unwrap();
        s.counters.entry(key).or_insert_with(Counter::new).clone()
    }

    /// The gauge `name` with no labels, declaring its family.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// The gauge `name` with the given labels, declaring its family.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.family(name, MetricKind::Gauge, help);
        let key = series_key(name, labels);
        if let Some(g) = self.series.read().unwrap().gauges.get(&key) {
            return g.clone();
        }
        let mut s = self.series.write().unwrap();
        s.gauges.entry(key).or_insert_with(Gauge::new).clone()
    }

    /// The histogram `name` with no labels, declaring its family.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// The histogram `name` with the given labels, declaring its family.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.family(name, MetricKind::Histogram, help);
        let key = series_key(name, labels);
        if let Some(h) = self.series.read().unwrap().histograms.get(&key) {
            return h.clone();
        }
        let mut s = self.series.write().unwrap();
        s.histograms
            .entry(key)
            .or_insert_with(Histogram::new)
            .clone()
    }

    /// A point-in-time copy of every series, ready for exposition.
    ///
    /// Each cell is read with a relaxed load, so a snapshot taken under
    /// contended writes is not a global atomic cut — but each counter is
    /// monotone, and histogram counts come from the buckets themselves,
    /// so quantiles never see a torn state.
    pub fn snapshot(&self) -> Snapshot {
        let s = self.series.read().unwrap();
        let fams = self.families.lock().unwrap();
        Snapshot {
            counters: s
                .counters
                .iter()
                .map(|((name, labels), c)| CounterSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: c.value(),
                })
                .collect(),
            gauges: s
                .gauges
                .iter()
                .map(|((name, labels), g)| GaugeSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: g.value(),
                })
                .collect(),
            histograms: s
                .histograms
                .iter()
                .map(|((name, labels), h)| h.sample(name, labels))
                .collect(),
            help: fams
                .iter()
                .map(|(name, f)| (name.clone(), f.help.clone()))
                .collect(),
        }
    }
}

/// One counter series in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Family name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Folded total at snapshot time.
    pub value: u64,
}

impl_json_struct!(CounterSample {
    name,
    labels,
    value
});

/// One gauge series in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSample {
    /// Family name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: i64,
}

impl_json_struct!(GaugeSample {
    name,
    labels,
    value
});

/// One histogram series in a [`Snapshot`]. Buckets are the non-empty
/// `(inclusive upper bound, count)` pairs in ascending bound order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    /// Family name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Total observations (sum of bucket counts, so it can never
    /// disagree with the buckets it was derived from).
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
    /// Non-empty buckets, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl_json_struct!(HistogramSample {
    name,
    labels,
    count,
    sum,
    max,
    buckets
});

impl HistogramSample {
    /// The upper bound of the first bucket at which the cumulative
    /// count reaches `q` of the total (0 when empty). Log-bucketed, so
    /// the answer carries at most one power-of-two of overshoot.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for &(upper, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return upper;
            }
        }
        self.buckets.last().map(|&(u, _)| u).unwrap_or(0)
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A point-in-time copy of a whole registry: what `MetricsResp` carries
/// and what `CollectorReport` embeds at shutdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// All counter series, in (name, labels) order.
    pub counters: Vec<CounterSample>,
    /// All gauge series, in (name, labels) order.
    pub gauges: Vec<GaugeSample>,
    /// All histogram series, in (name, labels) order.
    pub histograms: Vec<HistogramSample>,
    /// `(family name, help text)` pairs for exposition, one per
    /// registered family.
    pub help: Vec<(String, String)>,
}

impl_json_struct!(Snapshot {
    counters,
    gauges,
    histograms,
    help
});

impl Snapshot {
    /// The counter series with exactly these labels.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = series_key(name, labels);
        self.counters
            .iter()
            .find(|c| c.name == key.0 && c.labels == key.1)
            .map(|c| c.value)
    }

    /// The sum of every series of counter `name`, across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// The gauge series with exactly these labels.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let key = series_key(name, labels);
        self.gauges
            .iter()
            .find(|g| g.name == key.0 && g.labels == key.1)
            .map(|g| g.value)
    }

    /// The histogram series with exactly these labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSample> {
        let key = series_key(name, labels);
        self.histograms
            .iter()
            .find(|h| h.name == key.0 && h.labels == key.1)
    }

    /// Renders the snapshot as one compact-JSON line.
    pub fn to_json_string(&self) -> String {
        json::to_string_compact(self)
    }

    /// Parses a snapshot from compact JSON.
    pub fn from_json_str(s: &str) -> Result<Self, JsonError> {
        json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_folds_shards() {
        let r = MetricsRegistry::new();
        let c = r.counter("c", "test counter");
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 4 + 8 * 1000);
    }

    #[test]
    fn gauge_set() {
        let r = MetricsRegistry::new();
        let g = r.gauge("g", "test gauge");
        g.set(10);
        assert_eq!(g.value(), 10);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram("h", "test histogram");
        for v in [0u64, 1, 2, 3, 900, 1000, 1_000_000] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("h", &[]).unwrap();
        assert_eq!(hs.count, 7);
        assert_eq!(hs.sum, 1_001_906);
        assert_eq!(hs.max, 1_000_000);
        // 900 and 1000 share the 10-bit bucket [512, 1023].
        assert_eq!(
            hs.buckets.iter().find(|&&(u, _)| u == 1023).map(|b| b.1),
            Some(2)
        );
        assert_eq!(hs.p99(), (1u64 << 20) - 1);
        assert_eq!(hs.quantile(0.0), 0);
    }

    #[test]
    fn labels_are_order_insensitive() {
        let r = MetricsRegistry::new();
        let a = r.counter_with("c", "test counter", &[("x", "1"), ("y", "2")]);
        let b = r.counter_with("c", "test counter", &[("y", "2"), ("x", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2);
        assert_eq!(
            r.snapshot().counter("c", &[("x", "1"), ("y", "2")]),
            Some(2)
        );
    }

    #[test]
    #[should_panic(expected = "declared as")]
    fn kind_conflict_panics() {
        let r = MetricsRegistry::new();
        r.counter("m", "test");
        r.gauge("m", "test");
    }

    #[test]
    #[should_panic(expected = "declared with help")]
    fn help_conflict_panics() {
        let r = MetricsRegistry::new();
        r.counter("m", "one help");
        r.counter_with("m", "another help", &[("x", "1")]);
    }
}
