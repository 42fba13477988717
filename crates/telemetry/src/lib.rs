//! Engine-wide telemetry, dependency-free like `support/croaring`.
//!
//! Everything here is built for the *write* side being on a hot path and
//! the *read* side being rare (a `STATS` request, a metrics dump, a test
//! assertion):
//!
//! * [`Counter`] — a monotonic counter sharded across cache-line-padded
//!   atomics; concurrent writers from different threads land on different
//!   shards, so the hot path is one uncontended relaxed `fetch_add`.
//!   Reading sums the shards.
//! * [`Gauge`] — a single signed atomic for instantaneous levels (queue
//!   depth, active sessions).
//! * [`Histogram`] — log2-bucketed value distribution (64 buckets, one
//!   per bit position) with p50/p90/p99 estimation from the bucket
//!   boundaries. Recording is two relaxed `fetch_add`s; quantiles are
//!   estimated by walking the cumulative counts and answering the
//!   midpoint of the bucket holding the target rank — by construction
//!   within one log2 bucket of the exact sample quantile (the property
//!   suite drills this against a sorted-vec oracle).
//! * [`SpanTimer`] — a zero-alloc scope timer: `let _t = hist.span();`
//!   records the elapsed nanoseconds on drop. When telemetry is disabled
//!   ([`set_enabled`]) the timer skips even the clock reads, which is
//!   what makes the instrumented hot paths measurable against a disabled
//!   baseline (the telemetry-overhead gate of `subq-bench check`).
//! * [`Registry`] — named registration of the above. Handles are `Arc`s:
//!   registration is a one-time lock, after which the holder touches only
//!   its own atomics. [`Registry::render`] emits Prometheus-style text
//!   exposition (counters, gauges, and summaries with quantile labels).
//!   [`global`] is the process-wide registry every subsystem registers
//!   into, so one enumeration covers every counter in the system.
//! * [`SlowLog`] — a bounded ring buffer of slow-operation records
//!   (`STATS SLOW` over the wire).
//! * [`log`] — leveled, timestamped stderr logging for daemon lifecycle
//!   events; off by default so libraries and tests stay silent.

pub mod log;
mod slow;

pub use slow::{SlowEntry, SlowLog};

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Global switch for the *timed* instrumentation: [`Histogram::span`]
/// reads the clock only while enabled. Counters and explicit records are
/// always on — they are a handful of relaxed atomic adds and form the
/// baseline both sides of the overhead gate share.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables span timing process-wide (default: enabled).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span timing is enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of independently padded shards per [`Counter`].
const COUNTER_SHARDS: usize = 16;

/// One cache line per shard so two threads bumping the same counter do
/// not bounce a line between cores.
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

/// Threads are dealt shard slots round-robin on first use.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    static MY_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn my_shard() -> usize {
    MY_SHARD.with(|slot| {
        let assigned = slot.get();
        if assigned != usize::MAX {
            return assigned;
        }
        let assigned = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
        slot.set(assigned);
        assigned
    })
}

#[derive(Default)]
struct CounterCore {
    shards: [Shard; COUNTER_SHARDS],
}

/// A monotonic counter; clone the handle freely — all clones share the
/// same shards.
#[derive(Clone)]
pub struct Counter(Arc<CounterCore>);

impl Counter {
    /// A counter not registered anywhere (useful in tests).
    pub fn unregistered() -> Counter {
        Counter(Arc::new(CounterCore::default()))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.shards[my_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total (sums the shards; monotone between calls on any
    /// one shard, so concurrent reads may lag but never overcount).
    pub fn get(&self) -> u64 {
        self.0
            .shards
            .iter()
            .map(|shard| shard.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// An instantaneous signed level (queue depth, active sessions).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not registered anywhere.
    pub fn unregistered() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// Number of log2 buckets — one per bit position of a `u64` value.
const BUCKETS: usize = 64;

struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        HistogramCore {
            buckets: [ZERO; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }
}

/// The log2 bucket of a value: 0 holds {0, 1}, bucket `i ≥ 1` holds
/// `[2^i, 2^(i+1))`.
fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// The reported representative of a bucket: its midpoint (1 for the
/// {0, 1} bucket), so an estimate always lands in the bucket it came
/// from.
fn bucket_mid(index: usize) -> u64 {
    if index == 0 {
        1
    } else {
        (1u64 << index) + (1u64 << (index - 1))
    }
}

/// A log2-bucketed distribution of `u64` values (latencies in
/// nanoseconds, batch sizes, candidate counts).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A histogram not registered anywhere.
    pub fn unregistered() -> Histogram {
        Histogram(Arc::new(HistogramCore::default()))
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Starts a span timer recording elapsed **nanoseconds** into this
    /// histogram on drop. Zero allocation; reads no clock while telemetry
    /// is disabled.
    #[inline]
    pub fn span(&self) -> SpanTimer<'_> {
        SpanTimer {
            histogram: self,
            started: if enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The estimated `q`-quantile (`0 < q ≤ 1`): the midpoint of the
    /// bucket holding the target rank — within one log2 bucket of the
    /// exact sample quantile. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (index, count) in counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return bucket_mid(index);
            }
        }
        bucket_mid(BUCKETS - 1)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Histogram {
    /// `(count, sum, p50, p90, p99)` in one call.
    pub fn summary(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.count(),
            self.sum(),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
        )
    }
}

/// A scope timer: records the elapsed nanoseconds into its histogram on
/// drop. Created by [`Histogram::span`].
pub struct SpanTimer<'a> {
    histogram: &'a Histogram,
    started: Option<Instant>,
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            self.histogram.record(started.elapsed().as_nanos() as u64);
        }
    }
}

/// One registered metric's handle, by kind.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The current value of one registered metric, as read by
/// [`Registry::snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    /// `count`, `sum`, and the estimated p50/p90/p99.
    Histogram {
        count: u64,
        sum: u64,
        p50: u64,
        p90: u64,
        p99: u64,
    },
}

/// A named collection of metrics. Registration takes a short lock and
/// returns a clonable handle; the registry is only locked again to
/// enumerate (render, snapshot). Re-registering a name returns the
/// existing handle, so independent subsystems share counters by name.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<(String, Metric)>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register<T>(
        &self,
        name: &str,
        as_kind: impl Fn(&Metric) -> Option<T>,
        fresh: impl FnOnce() -> (Metric, T),
    ) -> T {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some((_, metric)) = entries.iter().find(|(n, _)| n == name) {
            return as_kind(metric).unwrap_or_else(|| {
                panic!("metric {name} already registered with a different kind")
            });
        }
        let (metric, handle) = fresh();
        entries.push((name.to_owned(), metric));
        handle
    }

    /// Registers (or re-opens) a counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.register(
            name,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::unregistered();
                (Metric::Counter(c.clone()), c)
            },
        )
    }

    /// Registers (or re-opens) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.register(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::unregistered();
                (Metric::Gauge(g.clone()), g)
            },
        )
    }

    /// Registers (or re-opens) a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.register(
            name,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::unregistered();
                (Metric::Histogram(h.clone()), h)
            },
        )
    }

    /// Every registered metric with its current value, in registration
    /// order.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let entries = self.entries.lock().expect("registry poisoned").clone();
        entries
            .into_iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let (count, sum, p50, p90, p99) = h.summary();
                        MetricValue::Histogram {
                            count,
                            sum,
                            p50,
                            p90,
                            p99,
                        }
                    }
                };
                (name, value)
            })
            .collect()
    }

    /// Prometheus-style text exposition: counters and gauges as single
    /// samples, histograms as summaries with `quantile` labels plus
    /// `_sum`/`_count`. No blank lines, so the output embeds line-per-line
    /// into the wire protocol's `REPORT` frames.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    p50,
                    p90,
                    p99,
                } => {
                    out.push_str(&format!(
                        "# TYPE {name} summary\n\
                         {name}{{quantile=\"0.5\"}} {p50}\n\
                         {name}{{quantile=\"0.9\"}} {p90}\n\
                         {name}{{quantile=\"0.99\"}} {p99}\n\
                         {name}_sum {sum}\n\
                         {name}_count {count}\n"
                    ));
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.entries.lock().expect("poisoned").len())
            .finish()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every subsystem registers into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// [`Registry::counter`] on the global registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// [`Registry::gauge`] on the global registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// [`Registry::histogram`] on the global registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_mid(i)), i, "midpoint stays in bucket");
        }
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_nonzero() {
        let h = Histogram::unregistered();
        for v in [10u64, 100, 1_000, 10_000, 100_000] {
            for _ in 0..20 {
                h.record(v);
            }
        }
        let (count, sum, p50, p90, p99) = h.summary();
        assert_eq!(count, 100);
        assert_eq!(sum, 20 * 111_110);
        assert!(p50 > 0 && p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn registry_reopens_handles_by_name() {
        let registry = Registry::new();
        let a = registry.counter("x_total");
        let b = registry.counter("x_total");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert_eq!(
            registry.snapshot(),
            vec![("x_total".to_owned(), MetricValue::Counter(5))]
        );
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let registry = Registry::new();
        registry.counter("ops_total").add(7);
        registry.gauge("depth").set(-2);
        registry.histogram("lat_ns").record(1000);
        let text = registry.render();
        assert!(text.contains("# TYPE ops_total counter\nops_total 7\n"));
        assert!(text.contains("# TYPE depth gauge\ndepth -2\n"));
        assert!(text.contains("# TYPE lat_ns summary\n"));
        assert!(text.contains("lat_ns{quantile=\"0.5\"}"));
        assert!(text.contains("lat_ns_count 1\n"));
        assert!(!text.lines().any(|l| l.is_empty()));
    }

    #[test]
    fn disabled_span_records_nothing() {
        let h = Histogram::unregistered();
        set_enabled(false);
        drop(h.span());
        set_enabled(true);
        assert_eq!(h.count(), 0);
        drop(h.span());
        assert_eq!(h.count(), 1);
    }
}
