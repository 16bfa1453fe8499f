//! Dependency-free observability for the PTX memory-model workspace.
//!
//! Every layer of the stack — the CDCL SAT solver, the relational
//! translator, the bounded model finder, the litmus harness — counts
//! things (propagations, conflicts, encoded gates, matrix cells) and
//! spends wall time in well-defined phases (translate, encode, solve).
//! This crate gives those layers one vocabulary:
//!
//! * [`Counter`] — a monotone atomic `u64`, cheap enough to bump on the
//!   hottest solver paths;
//! * [`Gauge`] — an atomic last-value `u64` for sampled levels (queue
//!   depth, warm sessions) that rise and fall rather than accumulate;
//! * [`Histogram`] — a monotone power-of-two bucket histogram for size
//!   distributions (learnt-clause lengths, cone sizes);
//! * [`Span`] — an RAII wall-clock timer that records its duration on
//!   drop, nesting dotted paths per thread (`translate.encode`);
//! * [`Registry`] — a thread-safe, cloneable home for all of the above.
//!
//! A disabled registry (the default) is free of charge: handles carry
//! no allocation, increments are a single branch, and spans never read
//! the clock. Enabled registries can be [merged](Registry::merge_from)
//! — counters add, timings add, histograms add bucket-wise — which is
//! how the worker-pool harness folds per-query registries into a run
//! total, and [snapshotted](Registry::snapshot) for rendering as a
//! human-readable table or as JSON Lines (one event object per line,
//! see [`Snapshot::to_jsonl`] for the `--stats-json` schema).
//!
//! Counters and histogram contents are deterministic for fixed-seed
//! single-job runs; wall-clock *durations* are not, which is why the
//! JSONL schema keeps them under a separate `"timing"` kind that diff
//! tooling excludes by default.

#![warn(missing_docs)]

pub mod json;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX`.
const HIST_BUCKETS: usize = 65;

/// A monotone atomic counter handle.
///
/// Obtained from [`Registry::counter`]; cloning shares the underlying
/// cell. Handles from a disabled registry are inert: [`Counter::add`]
/// is a branch and nothing else.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n` to the counter (no-op when disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter (no-op when disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// An atomic last-value gauge handle.
///
/// Obtained from [`Registry::gauge`]; cloning shares the underlying
/// cell. Unlike a [`Counter`], a gauge is *sampled*: [`Gauge::set`]
/// overwrites the previous value, so snapshots report the most recent
/// level rather than an accumulated total. Handles from a disabled
/// registry are inert.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge to `v` (no-op when disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// The last value set (0 when disabled or never set).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistCell {
    fn new() -> HistCell {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Index of the power-of-two bucket for `v`: bucket 0 holds zeros,
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// A monotone histogram handle with power-of-two buckets.
///
/// Obtained from [`Registry::histogram`]; cloning shares the underlying
/// cells. Observations only ever increase bucket counts, so merged and
/// repeated snapshots are monotone.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistCell>>);

impl Histogram {
    /// Records one observation of `v` (no-op when disabled).
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(v, Ordering::Relaxed);
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TimingCell {
    count: u64,
    total: Duration,
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCell>>>,
    timings: Mutex<BTreeMap<String, TimingCell>>,
    notes: Mutex<BTreeMap<String, String>>,
}

thread_local! {
    /// Stack of open span paths for the current thread, innermost last.
    /// Spans nest per thread: a span opened while another is active on
    /// the same thread records under `outer.inner`.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// A thread-safe registry of named counters, histograms, timings, and
/// free-form notes.
///
/// `Registry` is a cheap handle (an `Option<Arc>`): clones share state,
/// and the [`Registry::disabled`] default carries nothing at all.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// A fresh, enabled, empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// The inert registry: every operation is a no-op, every handle it
    /// hands out is free. This is the `Default`.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// True when this registry records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh registry with the same enablement as `self` — the
    /// harness uses this to give each query its own registry exactly
    /// when the caller asked for stats.
    pub fn child(&self) -> Registry {
        if self.enabled() {
            Registry::new()
        } else {
            Registry::disabled()
        }
    }

    /// The counter registered under `name`, created at zero on first
    /// use. Disabled registries return an inert handle without locking.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter(None),
            Some(inner) => {
                let mut map = inner.counters.lock().unwrap();
                let cell = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)));
                Counter(Some(Arc::clone(cell)))
            }
        }
    }

    /// Adds `n` to the counter `name` (shorthand for one-shot bumps;
    /// hot paths should hold a [`Counter`] handle instead).
    pub fn add(&self, name: &str, n: u64) {
        if self.enabled() {
            self.counter(name).add(n);
        }
    }

    /// The gauge registered under `name`, created at zero on first use.
    /// Disabled registries return an inert handle without locking.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge(None),
            Some(inner) => {
                let mut map = inner.gauges.lock().unwrap();
                let cell = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)));
                Gauge(Some(Arc::clone(cell)))
            }
        }
    }

    /// Sets the gauge `name` to `v` (shorthand for one-shot samples;
    /// periodic samplers should hold a [`Gauge`] handle instead).
    pub fn set_gauge(&self, name: &str, v: u64) {
        if self.enabled() {
            self.gauge(name).set(v);
        }
    }

    /// The histogram registered under `name`, created empty on first
    /// use. Disabled registries return an inert handle without locking.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram(None),
            Some(inner) => {
                let mut map = inner.histograms.lock().unwrap();
                let cell = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistCell::new()));
                Histogram(Some(Arc::clone(cell)))
            }
        }
    }

    /// Records one observation of `v` in the histogram `name`.
    pub fn observe(&self, name: &str, v: u64) {
        if self.enabled() {
            self.histogram(name).observe(v);
        }
    }

    /// Adds one completed interval of length `d` to the timing `name`.
    pub fn record_duration(&self, name: &str, d: Duration) {
        if let Some(inner) = &self.inner {
            let mut map = inner.timings.lock().unwrap();
            let cell = map.entry(name.to_string()).or_default();
            cell.count += 1;
            cell.total += d;
        }
    }

    /// Sets the free-form note `name` to `value` (last write wins).
    /// Notes carry run metadata — benchmark names, seeds — and are
    /// ignored by diff tooling.
    pub fn note(&self, name: &str, value: &str) {
        if let Some(inner) = &self.inner {
            inner
                .notes
                .lock()
                .unwrap()
                .insert(name.to_string(), value.to_string());
        }
    }

    /// Opens an RAII timing span named `name`. The span records its
    /// wall-clock duration under its dotted path when dropped; spans
    /// opened while another span is active *on the same thread* nest
    /// under it (`outer` then `outer.inner`). Spans are per-thread and
    /// LIFO: drop them in reverse open order on the thread that opened
    /// them. Disabled registries never read the clock.
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            None => Span { active: None },
            Some(_) => {
                let path = SPAN_STACK.with(|stack| {
                    let mut stack = stack.borrow_mut();
                    let path = match stack.last() {
                        Some(parent) => format!("{parent}.{name}"),
                        None => name.to_string(),
                    };
                    stack.push(path.clone());
                    path
                });
                Span {
                    active: Some(SpanActive {
                        registry: self.clone(),
                        path,
                        start: Instant::now(),
                    }),
                }
            }
        }
    }

    /// Folds another registry's contents into this one: counters and
    /// timings add, histograms add bucket-wise, gauges and notes
    /// overwrite (last value wins). Both registries stay usable;
    /// merging into a disabled registry is a no-op.
    pub fn merge_from(&self, other: &Registry) {
        self.merge_prefixed(other, "");
    }

    /// Like [`Registry::merge_from`], but every name from `other` gains
    /// `prefix` — how drivers file per-query registries under
    /// `test.<name>.` while also merging an unprefixed run total.
    pub fn merge_prefixed(&self, other: &Registry, prefix: &str) {
        if !self.enabled() {
            return;
        }
        let snap = other.snapshot();
        for (name, v) in &snap.counters {
            self.counter(&format!("{prefix}{name}")).add(*v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(&format!("{prefix}{name}")).set(*v);
        }
        for (name, t) in &snap.timings {
            if let Some(inner) = &self.inner {
                let mut map = inner.timings.lock().unwrap();
                let cell = map.entry(format!("{prefix}{name}")).or_default();
                cell.count += t.count;
                cell.total += t.total;
            }
        }
        for (name, h) in &snap.histograms {
            if let Some(cell) = &self.histogram(&format!("{prefix}{name}")).0 {
                for &(exp, n) in &h.buckets {
                    cell.buckets[exp as usize].fetch_add(n, Ordering::Relaxed);
                }
                cell.count.fetch_add(h.count, Ordering::Relaxed);
                cell.sum.fetch_add(h.sum, Ordering::Relaxed);
            }
        }
        for (name, value) in &snap.notes {
            self.note(&format!("{prefix}{name}"), value);
        }
    }

    /// A point-in-time copy of everything recorded so far. Disabled
    /// registries snapshot empty.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if let Some(inner) = &self.inner {
            for (name, cell) in inner.counters.lock().unwrap().iter() {
                snap.counters
                    .insert(name.clone(), cell.load(Ordering::Relaxed));
            }
            for (name, cell) in inner.gauges.lock().unwrap().iter() {
                snap.gauges
                    .insert(name.clone(), cell.load(Ordering::Relaxed));
            }
            for (name, cell) in inner.timings.lock().unwrap().iter() {
                snap.timings.insert(
                    name.clone(),
                    TimingSnap {
                        count: cell.count,
                        total: cell.total,
                    },
                );
            }
            for (name, cell) in inner.histograms.lock().unwrap().iter() {
                let mut buckets = Vec::new();
                for (exp, b) in cell.buckets.iter().enumerate() {
                    let n = b.load(Ordering::Relaxed);
                    if n > 0 {
                        buckets.push((exp as u32, n));
                    }
                }
                snap.histograms.insert(
                    name.clone(),
                    HistSnap {
                        count: cell.count.load(Ordering::Relaxed),
                        sum: cell.sum.load(Ordering::Relaxed),
                        buckets,
                    },
                );
            }
            for (name, value) in inner.notes.lock().unwrap().iter() {
                snap.notes.insert(name.clone(), value.clone());
            }
        }
        snap
    }

    /// Shorthand for `self.snapshot().to_jsonl()`.
    pub fn to_jsonl(&self) -> String {
        self.snapshot().to_jsonl()
    }

    /// Shorthand for `self.snapshot().render_table()`.
    pub fn render_table(&self) -> String {
        self.snapshot().render_table()
    }
}

struct SpanActive {
    registry: Registry,
    path: String,
    start: Instant,
}

/// An open timing interval; see [`Registry::span`]. Records its
/// duration into the registry when dropped.
#[must_use = "a span records nothing unless it lives across the timed work"]
pub struct Span {
    active: Option<SpanActive>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let elapsed = active.start.elapsed();
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                if stack.last() == Some(&active.path) {
                    stack.pop();
                } else if let Some(pos) = stack.iter().rposition(|p| p == &active.path) {
                    // Out-of-order drop: remove this span's own entry,
                    // leaving siblings alone.
                    stack.remove(pos);
                }
            });
            active.registry.record_duration(&active.path, elapsed);
        }
    }
}

/// A snapshotted timing: how many intervals completed and their total
/// wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimingSnap {
    /// Completed intervals.
    pub count: u64,
    /// Sum of interval durations.
    pub total: Duration,
}

/// A snapshotted histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnap {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets as `(exponent, observations)`: exponent 0 is
    /// the zero bucket, exponent `i >= 1` covers `[2^(i-1), 2^i)`.
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnap {
    /// The `q`-quantile (`0.0 < q <= 1.0`) as the inclusive upper edge
    /// of the bucket holding the rank-`ceil(q * count)` observation:
    /// 0 for the zero bucket, `2^i - 1` for exponent `i`. Resolution is
    /// therefore one power-of-two bucket — any consumer deriving the
    /// quantile from the same bucket vector gets the same answer, which
    /// is how `ptxtop` and the server's own dumps stay in agreement.
    /// Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(exp, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_upper_edge(exp);
            }
        }
        u64::MAX
    }

    /// The median bucket edge; see [`HistSnap::quantile`].
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 90th-percentile bucket edge; see [`HistSnap::quantile`].
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// The 99th-percentile bucket edge; see [`HistSnap::quantile`].
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The mean of all observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// `d` as saturating whole nanoseconds. Durations beyond ~584 years
/// clamp to `u64::MAX`; JSON consumers additionally round above 2^53,
/// far past any wall time this workspace records.
fn total_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Inclusive upper edge of the bucket with exponent `exp`: 0 for the
/// zero bucket, `2^exp - 1` for exponent `exp >= 1` (saturating at
/// `u64::MAX` for the top bucket).
pub fn bucket_upper_edge(exp: u32) -> u64 {
    if exp == 0 {
        0
    } else if exp >= 64 {
        u64::MAX
    } else {
        (1u64 << exp) - 1
    }
}

/// A point-in-time copy of a [`Registry`], ready for rendering,
/// diffing, or assertions. All maps iterate in name order, so exports
/// are deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (last value sampled).
    pub gauges: BTreeMap<String, u64>,
    /// Timings by name.
    pub timings: BTreeMap<String, TimingSnap>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistSnap>,
    /// Notes by name.
    pub notes: BTreeMap<String, String>,
}

impl Snapshot {
    /// The counter `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge `name`, or 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Total seconds recorded under the timing `name`, or 0 when
    /// absent.
    pub fn timing_secs(&self, name: &str) -> f64 {
        self.timings
            .get(name)
            .map_or(0.0, |t| t.total.as_secs_f64())
    }

    /// A copy keeping only entries whose name satisfies `keep`.
    pub fn filtered(&self, mut keep: impl FnMut(&str) -> bool) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            timings: self
                .timings
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            notes: self
                .notes
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// The change from `prev` (an earlier snapshot of the same
    /// registry) to `self`: counters, timings, and histogram buckets
    /// subtract (saturating, dropping entries with no change); gauges
    /// and notes carry `self`'s value only where it differs from
    /// `prev` (last-value kinds have no meaningful difference).
    ///
    /// Deltas are exactly additive over the monotone kinds: for
    /// snapshots `s0, s1, ..., sn` of one registry,
    /// `s0 + Σ sᵢ.delta(sᵢ₋₁)` (via [`Snapshot::add_assign`]) equals
    /// `sn` on counters, timings, and histograms. The `watch` op of
    /// `ptxd` streams exactly these objects.
    pub fn delta(&self, prev: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (name, &v) in &self.counters {
            let d = v.saturating_sub(prev.counter(name));
            if d > 0 {
                out.counters.insert(name.clone(), d);
            }
        }
        for (name, &v) in &self.gauges {
            if prev.gauges.get(name) != Some(&v) {
                out.gauges.insert(name.clone(), v);
            }
        }
        for (name, t) in &self.timings {
            let p = prev.timings.get(name).copied().unwrap_or_default();
            let d = TimingSnap {
                count: t.count.saturating_sub(p.count),
                total: t.total.saturating_sub(p.total),
            };
            if d.count > 0 || !d.total.is_zero() {
                out.timings.insert(name.clone(), d);
            }
        }
        for (name, h) in &self.histograms {
            let empty = HistSnap::default();
            let p = prev.histograms.get(name).unwrap_or(&empty);
            let mut buckets = Vec::new();
            for &(exp, n) in &h.buckets {
                let pn = p
                    .buckets
                    .iter()
                    .find(|(pe, _)| *pe == exp)
                    .map_or(0, |&(_, pn)| pn);
                let d = n.saturating_sub(pn);
                if d > 0 {
                    buckets.push((exp, d));
                }
            }
            let d = HistSnap {
                count: h.count.saturating_sub(p.count),
                sum: h.sum.saturating_sub(p.sum),
                buckets,
            };
            if d.count > 0 {
                out.histograms.insert(name.clone(), d);
            }
        }
        for (name, value) in &self.notes {
            if prev.notes.get(name) != Some(value) {
                out.notes.insert(name.clone(), value.clone());
            }
        }
        out
    }

    /// Folds `other` into `self` with the same semantics as
    /// [`Registry::merge_from`]: counters and timings add, histograms
    /// add bucket-wise, gauges and notes overwrite. The inverse of
    /// [`Snapshot::delta`] for the monotone kinds.
    pub fn add_assign(&mut self, other: &Snapshot) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, &v) in &other.gauges {
            self.gauges.insert(name.clone(), v);
        }
        for (name, t) in &other.timings {
            let cell = self.timings.entry(name.clone()).or_default();
            cell.count += t.count;
            cell.total += t.total;
        }
        for (name, h) in &other.histograms {
            let cell = self.histograms.entry(name.clone()).or_default();
            cell.count += h.count;
            cell.sum += h.sum;
            for &(exp, n) in &h.buckets {
                match cell.buckets.iter_mut().find(|(e, _)| *e == exp) {
                    Some((_, existing)) => *existing += n,
                    None => cell.buckets.push((exp, n)),
                }
            }
            cell.buckets.sort_unstable_by_key(|&(e, _)| e);
        }
        for (name, value) in &other.notes {
            self.notes.insert(name.clone(), value.clone());
        }
    }

    /// The snapshot as one deterministic JSON object — the wire shape
    /// of `ptxd`'s `stats` v2 reply and `watch` deltas. Schema-stable:
    /// all five keys always present, alphabetical, maps in name order,
    /// durations as exact integer nanoseconds (so deltas stay
    /// additive):
    ///
    /// ```text
    /// {"counters":{"a":1},
    ///  "gauges":{"g":3},
    ///  "histograms":{"h":[count,sum,[[exp,n],...]]},
    ///  "notes":{"k":"v"},
    ///  "timings":{"t":[count,total_ns]}}
    /// ```
    pub fn to_json_object(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::escape_into(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::escape_into(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::escape_into(&mut out, name);
            let _ = write!(out, ":[{},{},[", h.count, h.sum);
            for (j, (exp, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{exp},{n}]");
            }
            out.push_str("]]");
        }
        out.push_str("},\"notes\":{");
        for (i, (name, value)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::escape_into(&mut out, name);
            out.push(':');
            json::escape_into(&mut out, value);
        }
        out.push_str("},\"timings\":{");
        for (i, (name, t)) in self.timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::escape_into(&mut out, name);
            let _ = write!(out, ":[{},{}]", t.count, total_ns(t.total));
        }
        out.push_str("}}");
        out
    }

    /// Parses the [`Snapshot::to_json_object`] shape back into a
    /// snapshot. Missing keys parse as empty maps; malformed entries
    /// reject the whole object.
    pub fn from_json(text: &str) -> Option<Snapshot> {
        Snapshot::from_json_value(&json::parse(text)?)
    }

    /// Like [`Snapshot::from_json`], for an already-parsed value —
    /// how `litmus::client` decodes the `snapshot`/`delta` fields of
    /// `stats` v2 and `watch` replies.
    pub fn from_json_value(v: &json::Value) -> Option<Snapshot> {
        let mut snap = Snapshot::default();
        if let Some(json::Value::Obj(entries)) = v.get("counters") {
            for (name, v) in entries {
                snap.counters.insert(name.clone(), v.as_u64()?);
            }
        }
        if let Some(json::Value::Obj(entries)) = v.get("gauges") {
            for (name, v) in entries {
                snap.gauges.insert(name.clone(), v.as_u64()?);
            }
        }
        if let Some(json::Value::Obj(entries)) = v.get("histograms") {
            for (name, v) in entries {
                let json::Value::Arr(parts) = v else {
                    return None;
                };
                let [count, sum, json::Value::Arr(bucket_vals)] = parts.as_slice() else {
                    return None;
                };
                let mut buckets = Vec::new();
                for b in bucket_vals {
                    let json::Value::Arr(pair) = b else {
                        return None;
                    };
                    let [exp, n] = pair.as_slice() else {
                        return None;
                    };
                    buckets.push((u32::try_from(exp.as_u64()?).ok()?, n.as_u64()?));
                }
                snap.histograms.insert(
                    name.clone(),
                    HistSnap {
                        count: count.as_u64()?,
                        sum: sum.as_u64()?,
                        buckets,
                    },
                );
            }
        }
        if let Some(json::Value::Obj(entries)) = v.get("notes") {
            for (name, v) in entries {
                let json::Value::Str(s) = v else {
                    return None;
                };
                snap.notes.insert(name.clone(), s.clone());
            }
        }
        if let Some(json::Value::Obj(entries)) = v.get("timings") {
            for (name, v) in entries {
                let json::Value::Arr(parts) = v else {
                    return None;
                };
                let [count, ns] = parts.as_slice() else {
                    return None;
                };
                snap.timings.insert(
                    name.clone(),
                    TimingSnap {
                        count: count.as_u64()?,
                        total: Duration::from_nanos(ns.as_u64()?),
                    },
                );
            }
        }
        Some(snap)
    }

    /// The stats export schema: one JSON object per line, in a fixed
    /// key order with no extraneous whitespace so line-oriented tools
    /// (`grep`, `diff`, `sed`) can compare and extract records.
    ///
    /// ```text
    /// {"kind":"note","name":"benchmark","value":"fig17"}
    /// {"kind":"counter","name":"solver.conflicts","value":42}
    /// {"kind":"gauge","name":"ptxd.gauge.queue_depth","value":3}
    /// {"kind":"timing","name":"time.solve","count":3,"total_secs":0.001234}
    /// {"kind":"histogram","name":"learnt.len","count":5,"sum":17,"buckets":[[2,3],[3,2]]}
    /// ```
    ///
    /// `gauge` lines are last-value samples (not monotone) and, like
    /// timings, are excluded from exact comparisons.
    ///
    /// `counter` values (and histogram contents) are deterministic for
    /// fixed-seed single-job runs; `timing` entries are wall-clock and
    /// must be excluded from exact comparisons.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.notes {
            out.push_str("{\"kind\":\"note\",\"name\":");
            json::escape_into(&mut out, name);
            out.push_str(",\"value\":");
            json::escape_into(&mut out, value);
            out.push_str("}\n");
        }
        for (name, value) in &self.counters {
            out.push_str("{\"kind\":\"counter\",\"name\":");
            json::escape_into(&mut out, name);
            let _ = write!(out, ",\"value\":{value}}}");
            out.push('\n');
        }
        for (name, value) in &self.gauges {
            out.push_str("{\"kind\":\"gauge\",\"name\":");
            json::escape_into(&mut out, name);
            let _ = write!(out, ",\"value\":{value}}}");
            out.push('\n');
        }
        for (name, t) in &self.timings {
            out.push_str("{\"kind\":\"timing\",\"name\":");
            json::escape_into(&mut out, name);
            let _ = write!(
                out,
                ",\"count\":{},\"total_secs\":{:.6}}}",
                t.count,
                t.total.as_secs_f64()
            );
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"kind\":\"histogram\",\"name\":");
            json::escape_into(&mut out, name);
            let _ = write!(
                out,
                ",\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            );
            for (i, (exp, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{exp},{n}]");
            }
            out.push_str("]}\n");
        }
        out
    }

    /// A human-readable rendering: one aligned section per kind, names
    /// alphabetical. Empty sections are omitted; an empty snapshot
    /// renders as the empty string.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.notes.is_empty() {
            let w = self.notes.keys().map(|k| k.len()).max().unwrap_or(0);
            out.push_str("notes\n");
            for (name, value) in &self.notes {
                let _ = writeln!(out, "  {name:<w$}  {value}");
            }
        }
        if !self.counters.is_empty() {
            let w = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            let vw = self
                .counters
                .values()
                .map(|v| v.to_string().len())
                .max()
                .unwrap_or(0);
            out.push_str("counters\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<w$}  {value:>vw$}");
            }
        }
        if !self.gauges.is_empty() {
            let w = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            let vw = self
                .gauges
                .values()
                .map(|v| v.to_string().len())
                .max()
                .unwrap_or(0);
            out.push_str("gauges\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<w$}  {value:>vw$}");
            }
        }
        if !self.timings.is_empty() {
            let w = self.timings.keys().map(|k| k.len()).max().unwrap_or(0);
            out.push_str("timings\n");
            for (name, t) in &self.timings {
                let _ = writeln!(
                    out,
                    "  {name:<w$}  {:>6} x  {:>12.6}s",
                    t.count,
                    t.total.as_secs_f64()
                );
            }
        }
        if !self.histograms.is_empty() {
            let w = self.histograms.keys().map(|k| k.len()).max().unwrap_or(0);
            out.push_str("histograms\n");
            for (name, h) in &self.histograms {
                let mean = if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64
                };
                let _ = write!(
                    out,
                    "  {name:<w$}  n={} sum={} mean={mean:.1} buckets=",
                    h.count, h.sum
                );
                for (i, (exp, n)) in h.buckets.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    let lo: u128 = if *exp == 0 { 0 } else { 1u128 << (exp - 1) };
                    let _ = write!(out, "{lo}+:{n}");
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        assert!(!reg.enabled());
        let c = reg.counter("x");
        c.add(10);
        assert_eq!(c.get(), 0);
        reg.add("x", 5);
        reg.observe("h", 3);
        reg.record_duration("t", Duration::from_millis(1));
        reg.note("n", "v");
        {
            let _s = reg.span("outer");
        }
        let snap = reg.snapshot();
        assert_eq!(snap, Snapshot::default());
        assert_eq!(reg.to_jsonl(), "");
        assert_eq!(reg.render_table(), "");
    }

    #[test]
    fn counters_accumulate_and_share() {
        let reg = Registry::new();
        let a = reg.counter("solver.conflicts");
        let b = reg.counter("solver.conflicts");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.snapshot().counter("solver.conflicts"), 4);
        assert_eq!(reg.snapshot().counter("absent"), 0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        let reg = Registry::new();
        for v in [0, 1, 2, 3, 4, 1024] {
            reg.observe("sizes", v);
        }
        let snap = reg.snapshot();
        let h = &snap.histograms["sizes"];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1034);
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
    }

    #[test]
    fn spans_record_nested_paths() {
        let reg = Registry::new();
        {
            let _outer = reg.span("translate");
            {
                let _inner = reg.span("encode");
            }
        }
        let snap = reg.snapshot();
        assert_eq!(snap.timings["translate"].count, 1);
        assert_eq!(snap.timings["translate.encode"].count, 1);
        // The stack unwound: a new span is top-level again.
        {
            let _again = reg.span("solve");
        }
        assert_eq!(reg.snapshot().timings["solve"].count, 1);
    }

    #[test]
    fn merge_prefixed_files_under_prefix() {
        let per_query = Registry::new();
        per_query.add("solver.conflicts", 7);
        per_query.observe("learnt.len", 4);
        per_query.record_duration("time.solve", Duration::from_millis(2));
        per_query.note("verdict", "Unsat");

        let total = Registry::new();
        total.merge_from(&per_query);
        total.merge_prefixed(&per_query, "test.MP.");

        let snap = total.snapshot();
        assert_eq!(snap.counter("solver.conflicts"), 7);
        assert_eq!(snap.counter("test.MP.solver.conflicts"), 7);
        assert_eq!(snap.histograms["test.MP.learnt.len"].sum, 4);
        assert_eq!(snap.timings["test.MP.time.solve"].count, 1);
        assert_eq!(snap.notes["test.MP.verdict"], "Unsat");

        // Merging into a disabled registry is a no-op.
        let off = Registry::disabled();
        off.merge_from(&per_query);
        assert_eq!(off.snapshot(), Snapshot::default());
    }

    #[test]
    fn jsonl_schema_is_stable() {
        let reg = Registry::new();
        reg.note("benchmark", "demo");
        reg.add("a.count", 2);
        reg.record_duration("t", Duration::from_micros(1500));
        reg.observe("h", 3);
        let jsonl = reg.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"kind\":\"note\",\"name\":\"benchmark\",\"value\":\"demo\"}\n\
             {\"kind\":\"counter\",\"name\":\"a.count\",\"value\":2}\n\
             {\"kind\":\"timing\",\"name\":\"t\",\"count\":1,\"total_secs\":0.001500}\n\
             {\"kind\":\"histogram\",\"name\":\"h\",\"count\":1,\"sum\":3,\"buckets\":[[2,1]]}\n"
        );
    }

    #[test]
    fn filtered_keeps_matching_names() {
        let reg = Registry::new();
        reg.add("total.x", 1);
        reg.add("test.MP.x", 2);
        let snap = reg.snapshot().filtered(|n| !n.starts_with("test."));
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counter("total.x"), 1);
    }

    #[test]
    fn child_mirrors_enablement() {
        assert!(Registry::new().child().enabled());
        assert!(!Registry::disabled().child().enabled());
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let reg = Registry::new();
        let g = reg.gauge("queue_depth");
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        reg.set_gauge("queue_depth", 11);
        assert_eq!(reg.snapshot().gauge("queue_depth"), 11);
        assert_eq!(reg.snapshot().gauge("absent"), 0);

        // Disabled registries hand out inert gauges.
        let off = Registry::disabled().gauge("x");
        off.set(9);
        assert_eq!(off.get(), 0);

        // Merging overwrites rather than adds.
        let other = Registry::new();
        other.set_gauge("queue_depth", 2);
        reg.merge_from(&other);
        assert_eq!(reg.snapshot().gauge("queue_depth"), 2);
    }

    #[test]
    fn gauges_render_in_jsonl_and_table() {
        let reg = Registry::new();
        reg.set_gauge("g", 5);
        reg.add("c", 1);
        assert_eq!(
            reg.to_jsonl(),
            "{\"kind\":\"counter\",\"name\":\"c\",\"value\":1}\n\
             {\"kind\":\"gauge\",\"name\":\"g\",\"value\":5}\n"
        );
        let table = reg.render_table();
        assert!(table.contains("gauges\n  g  5\n"), "table: {table}");
    }

    #[test]
    fn quantiles_come_from_bucket_edges() {
        let empty = HistSnap::default();
        assert_eq!(empty.p50(), 0);

        let reg = Registry::new();
        // 10 observations: 5 zeros, 4 in [4,8), 1 in [1024,2048).
        for _ in 0..5 {
            reg.observe("lat", 0);
        }
        for _ in 0..4 {
            reg.observe("lat", 5);
        }
        reg.observe("lat", 1500);
        let snap = reg.snapshot();
        let h = &snap.histograms["lat"];
        assert_eq!(h.p50(), 0); // rank 5 of 10 lands in the zero bucket
        assert_eq!(h.p90(), 7); // rank 9 lands in [4,8) -> edge 2^3 - 1
        assert_eq!(h.p99(), 2047); // rank 10 lands in [1024,2048)
        assert_eq!(h.quantile(1.0), 2047);
        assert!((h.mean() - 152.0).abs() < 1e-9);

        assert_eq!(bucket_upper_edge(0), 0);
        assert_eq!(bucket_upper_edge(1), 1);
        assert_eq!(bucket_upper_edge(11), 2047);
        assert_eq!(bucket_upper_edge(64), u64::MAX);
    }

    #[test]
    fn json_object_round_trips() {
        let reg = Registry::new();
        reg.add("a.count", 2);
        reg.set_gauge("depth", 4);
        reg.observe("h", 3);
        reg.observe("h", 900);
        reg.record_duration("t", Duration::from_nanos(1_234_567));
        reg.note("bench \"q\"", "v\n2");
        let snap = reg.snapshot();
        let text = snap.to_json_object();
        assert_eq!(
            text,
            "{\"counters\":{\"a.count\":2},\
             \"gauges\":{\"depth\":4},\
             \"histograms\":{\"h\":[2,903,[[2,1],[10,1]]]},\
             \"notes\":{\"bench \\\"q\\\"\":\"v\\n2\"},\
             \"timings\":{\"t\":[1,1234567]}}"
        );
        assert_eq!(Snapshot::from_json(&text).as_ref(), Some(&snap));

        // An empty snapshot still carries every key.
        let empty = Snapshot::default().to_json_object();
        assert_eq!(
            empty,
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"notes\":{},\"timings\":{}}"
        );
        assert_eq!(Snapshot::from_json(&empty), Some(Snapshot::default()));
        assert_eq!(Snapshot::from_json("{\"counters\":{\"a\":-1}}"), None);
        assert_eq!(Snapshot::from_json("nonsense"), None);
    }

    #[test]
    fn deltas_are_additive_over_monotone_kinds() {
        let reg = Registry::new();
        reg.add("c", 1);
        reg.observe("h", 2);
        reg.record_duration("t", Duration::from_micros(10));
        reg.set_gauge("g", 5);
        let s0 = reg.snapshot();

        reg.add("c", 4);
        reg.add("c2", 1);
        reg.observe("h", 2);
        reg.observe("h", 70);
        reg.record_duration("t", Duration::from_micros(7));
        reg.set_gauge("g", 2);
        let s1 = reg.snapshot();

        reg.add("c", 1);
        let s2 = reg.snapshot();

        let d1 = s1.delta(&s0);
        assert_eq!(d1.counter("c"), 4);
        assert_eq!(d1.counter("c2"), 1);
        assert_eq!(d1.histograms["h"].count, 2);
        assert_eq!(d1.histograms["h"].sum, 72);
        assert_eq!(d1.gauge("g"), 2); // changed -> carried
        let d2 = s2.delta(&s1);
        assert!(d2.gauges.is_empty()); // unchanged -> dropped
        assert!(d2.histograms.is_empty());
        assert_eq!(d2.counter("c"), 1);

        // s0 + d1 + d2 == s2 on counters, timings, histograms.
        let mut total = s0.clone();
        total.add_assign(&d1);
        total.add_assign(&d2);
        assert_eq!(total.counters, s2.counters);
        assert_eq!(total.timings, s2.timings);
        assert_eq!(total.histograms, s2.histograms);
        assert_eq!(total.gauges, s2.gauges);

        // A self-delta is empty.
        let idle = s2.delta(&s2);
        assert_eq!(idle, Snapshot::default());
    }
}
