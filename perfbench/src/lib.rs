//! Single-thread benchmark of the SoC Cluster simulator's library layers.
//!
//! Three workloads drive only public functions of `socc-cluster`,
//! `socc-net` and the schedule generators of `socc-bench`, and time every
//! call into a layer from outside it:
//!
//! - [`fleet_day`]: a phased gaming day on a multi-site fleet, driven
//!   serially window by window (fleet coordinator + per-site step);
//! - [`enclosure_chaos`]: 60-SoC recovery campaigns under correlated
//!   fault storms and their independent twins (recovery engine);
//! - [`net_churn`]: stream and transfer churn on the flow network with
//!   uplink failures (incremental waterfill and its fallback).
//!
//! A workload's unit of work is run as a fixed batch; the binary repeats
//! set-up plus batch for the requested time and reports medians. A
//! [`Recorder`] times the units and, in traced mode, keeps one span per
//! public call in memory for the per-layer breakdown.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub mod enclosure_chaos;
pub mod fleet_day;
pub mod net_churn;

/// Heap allocations seen by [`CountingAlloc`] while counting is on.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Whether [`CountingAlloc`] counts; only the traced mode turns it on.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// A global allocator that counts allocations while [`set_counting`] is
/// on, and otherwise only forwards to the system allocator. The binary
/// installs it; library tests run without it and read zero.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic that publishes no other data.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        std::alloc::System.realloc(ptr, layout, new)
    }
}

/// Turns allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// [`fleet_day`].
    FleetDay,
    /// [`enclosure_chaos`].
    EnclosureChaos,
    /// [`net_churn`].
    NetChurn,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FleetDay,
        Workload::EnclosureChaos,
        Workload::NetChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDay => "fleet-day",
            Workload::EnclosureChaos => "enclosure-chaos",
            Workload::NetChurn => "net-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Units in one batch; fixed per workload, so the tail percentile is
    /// the same on every run whatever the host speed.
    pub fn units_per_batch(self) -> usize {
        match self {
            Workload::FleetDay => fleet_day::UNITS,
            Workload::EnclosureChaos => enclosure_chaos::UNITS,
            Workload::NetChurn => net_churn::UNITS,
        }
    }

    /// Builds the workload's inputs and world from `seed`, then runs one
    /// batch on it.
    pub fn batch(self, seed: u64, rec: &mut Recorder) -> Batch {
        match self {
            Workload::FleetDay => fleet_day::batch(seed, rec),
            Workload::EnclosureChaos => enclosure_chaos::batch(seed, rec),
            Workload::NetChurn => net_churn::batch(seed, rec),
        }
    }

    /// Reduces a traced batch and its spans for the per-layer metrics.
    pub fn trace(self, spans: &[Span], batch: Batch) -> LayerTrace {
        let mut trace = LayerTrace::new(spans, batch);
        if self == Workload::FleetDay {
            fleet_day::derive(&mut trace, spans);
        }
        trace
    }

    /// The per-layer metrics of traced batches.
    pub fn layer_metrics(self, traces: &[LayerTrace]) -> Vec<Metric> {
        match self {
            Workload::FleetDay => fleet_day::layer_metrics(traces),
            Workload::EnclosureChaos => enclosure_chaos::layer_metrics(traces),
            Workload::NetChurn => net_churn::layer_metrics(traces),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// What one set-up plus batch produced.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Host nanoseconds building inputs and the world.
    pub setup_ns: u64,
    /// Host nanoseconds of the measured phase, output checks excluded.
    pub wall_ns: u64,
    /// Host nanoseconds of each unit, in run order.
    pub units: Vec<u64>,
    /// Units that failed their output check.
    pub failed: u64,
    /// Batch-level check failures (not tied to one unit).
    pub batch_errors: Vec<String>,
    /// The first few unit failures, for the report.
    pub failures: Vec<String>,
    /// Digest of the simulated statistics; equal seeds must agree.
    pub digest: u64,
    /// Simulated-statistics counts and other per-batch scalars.
    pub counts: Vec<(&'static str, f64)>,
}

impl Batch {
    /// Records a failed unit, keeping the first few messages.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }

    /// A named per-batch scalar, if the batch reported it.
    pub fn count(&self, name: &str) -> Option<f64> {
        self.counts.iter().find(|(n, _)| *n == name).map(|c| c.1)
    }
}

/// One traced public call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// `layer.call` name; the layer is the part before the first dot.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<u32>,
    /// The unit the span belongs to; set-up spans have no unit.
    pub unit: Option<u32>,
    /// Heap allocations made inside the span, children included.
    pub allocs: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span name of every unit's root span.
pub const UNIT_SPAN: &str = "bench.unit";

/// Times units and, when traced, records one [`Span`] per call.
pub struct Recorder {
    traced: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: Option<u32>,
    next_unit: u32,
    units: Vec<u64>,
    excluded: Duration,
}

impl Recorder {
    /// A recorder; `traced` keeps spans and counts allocations.
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: None,
            next_unit: 0,
            units: Vec::new(),
            excluded: Duration::ZERO,
        }
    }

    /// Spans recorded since the last [`Self::reset`].
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Clears spans, unit times and excluded time for the next batch,
    /// keeping the buffers' capacity.
    pub fn reset(&mut self) {
        self.spans.clear();
        self.open.clear();
        self.unit = None;
        self.next_unit = 0;
        self.units.clear();
        self.excluded = Duration::ZERO;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str) -> u32 {
        let idx = self.spans.len() as u32;
        let span = Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            unit: self.unit,
            allocs: 0,
        };
        self.spans.push(span);
        self.open.push(idx);
        // Read the counter and the clock last, so that growing the span
        // buffers above is neither counted nor timed.
        let span = &mut self.spans[idx as usize];
        span.allocs = allocs();
        span.start_ns = self.epoch.elapsed().as_nanos() as u64;
        idx
    }

    fn close_span(&mut self, idx: u32) {
        let end = self.now_ns();
        let a = allocs();
        let span = &mut self.spans[idx as usize];
        span.end_ns = end;
        span.allocs = a - span.allocs;
        self.open.pop();
    }

    /// Runs one public call; traced, it becomes a span named `name`.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        let idx = self.open_span(name);
        let r = f();
        self.close_span(idx);
        r
    }

    /// Runs one unit of work and records its host time; traced, it is a
    /// root span whose calls share the unit's id.
    pub fn unit<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.next_unit;
        self.next_unit += 1;
        let started = Instant::now();
        let r = if self.traced {
            self.unit = Some(id);
            let idx = self.open_span(UNIT_SPAN);
            let r = f(self);
            self.close_span(idx);
            self.unit = None;
            r
        } else {
            f(self)
        };
        self.units.push(started.elapsed().as_nanos() as u64);
        r
    }

    /// Runs an output check: its time is excluded from the measured phase
    /// and it records no span.
    pub fn check<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = f();
        self.excluded += started.elapsed();
        r
    }

    /// Times a batch's set-up: builds the world with `setup`, then runs
    /// the measured phase with `run`, filling the batch's timings.
    pub fn batch<W>(
        &mut self,
        setup: impl FnOnce(&mut Self) -> W,
        run: impl FnOnce(&mut Self, W, &mut Batch),
    ) -> Batch {
        let mut batch = Batch::default();
        let started = Instant::now();
        let world = setup(self);
        batch.setup_ns = started.elapsed().as_nanos() as u64;
        self.excluded = Duration::ZERO;
        let started = Instant::now();
        run(self, world, &mut batch);
        batch.wall_ns = started.elapsed().saturating_sub(self.excluded).as_nanos() as u64;
        batch.units = std::mem::take(&mut self.units);
        batch
    }
}

/// Per-name totals over one traced batch's spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStat {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
    /// Allocations inside these spans, children included.
    pub allocs: u64,
}

/// A traced batch reduced to what the per-layer metrics need.
#[derive(Debug, Clone, Default)]
pub struct LayerTrace {
    /// Per span name.
    pub stats: BTreeMap<&'static str, SpanStat>,
    /// Every span duration per name, for percentiles.
    pub durations: BTreeMap<&'static str, Vec<u64>>,
    /// The batch's own measured-phase time and counts.
    pub batch: Batch,
    /// Workload-specific scalars derived from the spans.
    pub derived: Vec<(&'static str, f64)>,
}

impl LayerTrace {
    /// Reduces a traced batch's spans.
    pub fn new(spans: &[Span], batch: Batch) -> Self {
        let mut stats: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        for (s, child) in spans.iter().zip(&child_ns) {
            let st = stats.entry(s.name).or_default();
            st.count += 1;
            st.total_ns += s.ns();
            st.self_ns += s.ns().saturating_sub(*child);
            st.allocs += s.allocs;
            durations.entry(s.name).or_default().push(s.ns());
        }
        Self {
            stats,
            durations,
            batch,
            derived: Vec::new(),
        }
    }

    /// Stats of one span name (zero if the batch never made the call).
    pub fn stat(&self, name: &str) -> SpanStat {
        self.stats.get(name).cloned().unwrap_or_default()
    }

    /// Self time per layer, seconds.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, st) in &self.stats {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0.0) += st.self_ns as f64 / 1e9;
        }
        out
    }

    /// Share of the measured phase covered by program-layer spans (every
    /// span below a unit root), in percent.
    pub fn coverage_pct(&self) -> f64 {
        let covered: u64 = self
            .stats
            .iter()
            .filter(|(name, _)| **name != UNIT_SPAN && !SETUP_SPANS.contains(name))
            .map(|(_, st)| st.self_ns)
            .sum();
        100.0 * covered as f64 / self.batch.wall_ns.max(1) as f64
    }
}

/// Span names recorded during set-up rather than inside units.
pub(crate) const SETUP_SPANS: [&str; 4] = [
    "net.calibrate",
    "fleet.new",
    "faults.schedule",
    "net.populate",
];

/// Median of the per-batch values of `f` over traced batches.
pub fn median_of(traces: &[LayerTrace], f: impl Fn(&LayerTrace) -> f64) -> f64 {
    let mut v: Vec<f64> = traces.iter().map(f).collect();
    median(&mut v)
}

/// All traced durations of `name`, pooled across batches, with the
/// per-batch count the tail rule is applied to.
pub(crate) fn pooled(traces: &[LayerTrace], name: &str) -> (Vec<u64>, usize) {
    let mut all = Vec::new();
    let mut per_batch = usize::MAX;
    for t in traces {
        let d = t.durations.get(name).map(Vec::as_slice).unwrap_or(&[]);
        per_batch = per_batch.min(d.len());
        all.extend_from_slice(d);
    }
    (all, if traces.is_empty() { 0 } else { per_batch })
}

/// The median (p50) and tail of a pooled sample, in microseconds; zero
/// when the sample is too small for the tail rule.
pub(crate) fn p50_tail_us(sample: (Vec<u64>, usize)) -> (f64, f64) {
    let (mut all, per_batch) = sample;
    all.sort_unstable();
    let p50 = quantile_sorted(&all, 0.5).unwrap_or(0.0) / 1e3;
    let tail = tail_quantile(per_batch)
        .and_then(|q| quantile_sorted(&all, q))
        .unwrap_or(0.0)
        / 1e3;
    (p50, tail)
}

/// Summed `count` field of `name` over the traced batches.
pub(crate) fn total_count(traces: &[LayerTrace], name: &str) -> u64 {
    traces.iter().map(|t| t.stat(name).count).sum()
}

/// Allocations per call of `name`, over all traced batches.
pub(crate) fn allocs_per_call(traces: &[LayerTrace], name: &str) -> f64 {
    let calls = total_count(traces, name);
    let allocs: u64 = traces.iter().map(|t| t.stat(name).allocs).sum();
    allocs as f64 / calls.max(1) as f64
}

/// Median per-batch value of a simulated count the batch reported.
pub(crate) fn batch_count(traces: &[LayerTrace], name: &str) -> f64 {
    median_of(traces, |t| t.batch.count(name).unwrap_or(0.0))
}

/// Median per-batch value of a span-derived scalar.
pub(crate) fn derived(traces: &[LayerTrace], name: &str) -> f64 {
    median_of(traces, |t| {
        t.derived
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |d| d.1)
    })
}

/// Median per-batch summed time of `name`, seconds.
pub(crate) fn total_s(traces: &[LayerTrace], name: &str) -> f64 {
    median_of(traces, |t| t.stat(name).total_ns as f64 / 1e9)
}

/// The median of `v` (mean of the middle pair for even lengths); zero
/// for an empty slice. Reorders `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Each unit's best time over `batches`, in unit order. Every batch of a
/// run repeats the same units on the same inputs, and host interference
/// only ever adds time, so a unit's best time is the steadiest reading of
/// what the program spends on it.
pub fn best_units(batches: &[Batch]) -> Vec<u64> {
    let Some((first, rest)) = batches.split_first() else {
        return Vec::new();
    };
    let mut best = first.units.clone();
    for b in rest {
        for (m, &u) in best.iter_mut().zip(&b.units) {
            *m = (*m).min(u);
        }
    }
    best
}

/// The percentiles the tail rule chooses from.
pub const TAIL_LADDER: [f64; 11] = [
    0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.998, 0.999, 0.9995, 0.9999,
];

/// Units a sample of `n` holds above quantile `q` (ranked above the
/// lower order statistic [`quantile_sorted`] interpolates from).
pub fn units_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let lo = (q * (n - 1) as f64).floor() as usize;
    n - 1 - lo
}

/// The highest ladder percentile that leaves at least ten units beyond
/// it in a sample of `n`; `None` below 20 units. Applied to one batch's
/// unit count, it also holds for any pool of whole batches.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| units_beyond(n, q) >= 10)
}

/// Linear-interpolated quantile of an ascending sample (the rule of
/// `socc_sim::stats::percentile`).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac)
}

/// FNV-1a folding of 64-bit words, the digest of simulated statistics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word, little-endian byte by byte.
    pub fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
