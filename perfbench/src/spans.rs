//! The traced run's instruments: spans recorded around calls into each
//! layer, and a sampler that times a deterministic stride of events
//! inside the simulator's own event loop.
//!
//! Spans stay in memory and are written out when the run ends. Coarse
//! units (a grid, a cell, a kind run, a request) get one span each.
//! Per-call timings inside the event loop would be millions of spans, so
//! the loop keeps them as sampled aggregates: for every [`STRIDE`]-th
//! event each call is bracketed by clock reads, and the aggregate records
//! how many calls were timed, how many they stand for, and their
//! clock-corrected total.

use ibp_hw::HardwareCost;
use ibp_isa::Addr;
use ibp_metrics::Probe;
use ibp_predictors::IndirectPredictor;
use ibp_sim::{simulate_stream_probed, RunResult};
use ibp_trace::BranchEvent;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One event in every `STRIDE` is timed call by call. Prime, so the
/// sample does not alias with the program models' per-iteration periods.
pub const STRIDE: u64 = 61;

/// A timed event whose reads span longer than this was interrupted by
/// the host (a page fault, a preemption); one such event would stand for
/// [`STRIDE`] events, so it is left out of the sample.
pub const INTERRUPTED_NS: u128 = 50_000;

/// Name of the sampled record that accounts for the instrument's own
/// clock reads inside a loop.
pub const CLOCK_READS: &str = "bench.clock_reads";

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_TAG: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// A small process-unique number for the calling thread, assigned on
/// first use (pool workers are fresh threads per pool call).
pub fn thread_tag() -> usize {
    THREAD_TAG.with(|tag| {
        if tag.get() == usize::MAX {
            tag.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        tag.get()
    })
}

/// A value with the interval and thread that produced it.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// What the timed call returned.
    pub value: T,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// [`thread_tag`] of the thread that ran it.
    pub thread: usize,
}

impl<T> Timed<T> {
    /// The interval's length in nanoseconds.
    pub fn ns(&self) -> f64 {
        self.end.duration_since(self.start).as_nanos() as f64
    }
}

/// Runs `f`, recording its interval and thread.
pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let value = f();
    Timed {
        value,
        start,
        end: Instant::now(),
        thread: thread_tag(),
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `exec.cell` or `serve.client.wait`.
    pub name: String,
    /// Index of the enclosing span in the same [`Spans`], if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// [`thread_tag`] of the thread that ran it.
    pub thread: usize,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-call timings of one layer call, sampled inside an event loop and
/// attached to the span of the loop that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct Sampled {
    /// Index of the span the calls ran under.
    pub parent: usize,
    /// Layer-qualified call name, e.g. `predictors.btb.predict`.
    pub name: String,
    /// Calls actually timed.
    pub timed: u64,
    /// Calls the timed ones stand for (every call of this kind the loop
    /// made).
    pub population: u64,
    /// Clock-corrected nanoseconds summed over the timed calls.
    pub timed_ns: f64,
}

impl Sampled {
    /// Mean clock-corrected nanoseconds per call.
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns / self.timed as f64
        }
    }

    /// Estimated nanoseconds of every call this record stands for.
    pub fn estimate_ns(&self) -> f64 {
        self.mean_ns() * self.population as f64
    }
}

/// The in-memory span store of one traced run.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    /// Every span, in recording order.
    pub spans: Vec<Span>,
    /// Sampled call aggregates.
    pub sampled: Vec<Sampled>,
}

impl Spans {
    /// An empty store whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
            sampled: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.push_on(name, parent, start, end, thread_tag())
    }

    /// Records the interval of a [`Timed`] call as a span.
    pub fn push_timed<T>(&mut self, name: &str, parent: Option<usize>, t: &Timed<T>) -> usize {
        self.push_on(name, parent, t.start, t.end, t.thread)
    }

    /// Records a finished span that ran on thread `thread`.
    fn push_on(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        thread: usize,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: at(start),
            end_ns: at(end),
            thread,
        });
        self.spans.len() - 1
    }

    /// Attaches a traced loop's sampled call timings to span `parent`,
    /// with the loop's own clock reads as a [`CLOCK_READS`] record.
    pub fn attach(&mut self, parent: usize, calls: &LoopCalls, names: &CallNames) {
        for (name, site) in [
            (&names.next, &calls.next),
            (&names.predict, &calls.predict),
            (&names.account, &calls.account),
            (&names.update, &calls.update),
            (&names.observe, &calls.observe),
        ] {
            if site.timed > 0 {
                self.sampled.push(Sampled {
                    parent,
                    name: name.clone(),
                    timed: site.timed,
                    population: site.population,
                    timed_ns: calls.mean_ns(site) * site.timed as f64,
                });
            }
        }
        if calls.reads > 0 {
            self.sampled.push(Sampled {
                parent,
                name: CLOCK_READS.to_string(),
                timed: calls.reads,
                population: calls.reads,
                timed_ns: calls.clock_ns() * calls.reads as f64,
            });
        }
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Summed duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Mean per-call nanoseconds over every sampled aggregate called
    /// `name` (weighted by timed calls); `None` if there is none.
    pub fn sampled_mean_ns(&self, name: &str) -> Option<f64> {
        let (mut timed, mut ns) = (0u64, 0.0f64);
        for s in self.sampled.iter().filter(|s| s.name == name) {
            timed += s.timed;
            ns += s.timed_ns;
        }
        (timed > 0).then(|| ns / timed as f64)
    }

    /// What the layers account for under each span, by span index: its
    /// direct children's durations plus its sampled calls' estimates.
    pub fn covered_ns(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                sums[p] += s.dur_ns() as f64;
            }
        }
        for s in &self.sampled {
            sums[s.parent] += s.estimate_ns();
        }
        sums
    }

    /// Self time of every span: its duration times the threads its
    /// children ran on, minus what [`Spans::covered_ns`] accounts for.
    pub fn self_ns(&self, threads: usize) -> Vec<f64> {
        self.covered_ns()
            .iter()
            .zip(&self.spans)
            .map(|(covered, s)| s.dur_ns() as f64 * threads as f64 - covered)
            .collect()
    }

    /// The self-time check's inputs: for every span called `name` with
    /// sampled calls under it, `(covered, wall)` in nanoseconds — the
    /// sum of its sampled sites' population times clock-corrected mean
    /// plus the clock reads, against the span's own duration.
    pub fn loop_coverage(&self, name: &str) -> Vec<(f64, f64)> {
        let covered = self.covered_ns();
        let mut sampled = vec![false; self.spans.len()];
        for s in &self.sampled {
            sampled[s.parent] = true;
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|&(i, s)| s.name == name && sampled[i])
            .map(|(i, s)| (covered[i], s.dur_ns() as f64))
            .collect()
    }
}

/// Sampled timings of one site of the simulator's event loop.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallAcc {
    /// Calls (events, for the per-event sites) timed.
    pub timed: u64,
    /// All calls made at this site.
    pub population: u64,
    /// Intervals summed into `raw_ns`. Each one holds one clock read.
    pub reads: u64,
    /// Raw nanoseconds of the timed intervals.
    pub raw_ns: f64,
}

impl CallAcc {
    fn add(&mut self, from: Instant, to: Instant) {
        self.reads += 1;
        self.raw_ns += to.saturating_duration_since(from).as_nanos() as f64;
    }
}

/// The timed sites of the event loop. On a timed event the sites tile
/// the loop's time from the previous event's `observe` return to this
/// event's: pulling the event (`next`), an empty interval between two
/// back-to-back reads (`clock`, the clock's own cost in the loop's
/// context), `predict`, `update`, `observe`, and everything else the
/// loop does (`account`: classification, the probe, the tallies).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoopCalls {
    /// Pulling the next event from the source.
    pub next: CallAcc,
    /// `IndirectPredictor::predict`.
    pub predict: CallAcc,
    /// The loop's own work around the predictor calls.
    pub account: CallAcc,
    /// `IndirectPredictor::update`.
    pub update: CallAcc,
    /// `IndirectPredictor::observe`.
    pub observe: CallAcc,
    /// The empty interval: one clock read and nothing else.
    pub clock: CallAcc,
    /// Every clock read the instrument made.
    pub reads: u64,
    /// Timed events left out as interrupted ([`INTERRUPTED_NS`]).
    pub interrupted: u64,
}

impl LoopCalls {
    /// The clock's cost per read, as measured inside the loop.
    pub fn clock_ns(&self) -> f64 {
        if self.clock.reads == 0 {
            0.0
        } else {
            self.clock.raw_ns / self.clock.reads as f64
        }
    }

    /// Clock-corrected mean nanoseconds per call at `site`.
    pub fn mean_ns(&self, site: &CallAcc) -> f64 {
        if site.timed == 0 {
            0.0
        } else {
            (site.raw_ns - site.reads as f64 * self.clock_ns()) / site.timed as f64
        }
    }
}

/// Span names for the five sites of [`LoopCalls`].
#[derive(Debug, Clone)]
pub struct CallNames {
    /// Name of the event-source site.
    pub next: String,
    /// Name of the predict site.
    pub predict: String,
    /// Name of the loop's own work.
    pub account: String,
    /// Name of the update site.
    pub update: String,
    /// Name of the observe site.
    pub observe: String,
}

impl CallNames {
    /// Names for a predictor whose layer metrics live under `prefix`
    /// (e.g. `predictors.btb`); the event source is `sim.next`.
    pub fn new(prefix: &str) -> CallNames {
        CallNames {
            next: "sim.next".to_string(),
            predict: format!("{prefix}.predict"),
            account: "sim.account".to_string(),
            update: format!("{prefix}.update"),
            observe: format!("{prefix}.observe"),
        }
    }
}

/// Times a deterministic stride of events in the simulator's own loop.
///
/// [`Sampler::run`] drives events through `ibp_sim::simulate_stream_probed`
/// with the predictor wrapped. The loop's probe hook marks one event in
/// every [`STRIDE`] as timed, and the wrapper brackets that event's
/// `predict`, `update` and `observe` with clock reads. The result is the
/// loop's own, so it must equal the untraced run's; callers check that.
#[derive(Debug)]
pub struct Sampler {
    /// Events until the next timed one.
    countdown: Cell<u64>,
    /// The current event is timed.
    timing: Cell<bool>,
    /// The previous event's `observe` return, read when the current
    /// event is timed (absent on a loop's first event).
    before: Cell<Option<Instant>>,
    /// The timed event's two back-to-back reads at the probe hook.
    arrived: Cell<(Instant, Instant)>,
    /// The timed event's `predict` and `update` brackets.
    predict: Cell<Option<(Instant, Instant)>>,
    update: Cell<Option<(Instant, Instant)>>,
    events: Cell<u64>,
    predictions: Cell<u64>,
    calls: RefCell<LoopCalls>,
}

impl Default for Sampler {
    fn default() -> Sampler {
        let now = Instant::now();
        Sampler {
            countdown: Cell::new(0),
            timing: Cell::new(false),
            before: Cell::new(None),
            arrived: Cell::new((now, now)),
            predict: Cell::new(None),
            update: Cell::new(None),
            events: Cell::new(0),
            predictions: Cell::new(0),
            calls: RefCell::new(LoopCalls::default()),
        }
    }
}

impl Sampler {
    /// Runs `events` through `predictor` in the simulator's loop, timing
    /// every [`STRIDE`]-th event. The stride carries over from one call
    /// to the next; the time between calls is not timed.
    pub fn run<P, I>(&self, predictor: &mut P, events: I) -> RunResult
    where
        P: IndirectPredictor + ?Sized,
        I: IntoIterator<Item = BranchEvent>,
    {
        self.before.set(None);
        let mut wrapped = TimedPredictor {
            inner: predictor,
            sampler: self,
        };
        let result = simulate_stream_probed(&mut wrapped, events, &mut ArrivalProbe(self));
        self.predictions
            .set(self.predictions.get() + result.predictions());
        result
    }

    /// The timings so far, with each site's population filled in.
    pub fn calls(&self) -> LoopCalls {
        let mut c = *self.calls.borrow();
        let (events, predictions) = (self.events.get(), self.predictions.get());
        c.next.population = events;
        c.account.population = events;
        c.observe.population = events;
        c.predict.population = predictions;
        c.update.population = predictions;
        c.clock.population = c.clock.timed;
        c
    }

    /// Books a timed event once its last read (`observe`'s return) is
    /// taken, so the bookkeeping falls outside every timed interval.
    fn record(&self, observe: (Instant, Instant)) {
        self.timing.set(false);
        let (e0, e1) = self.arrived.get();
        let (predict, update) = (self.predict.take(), self.update.take());
        let before = self.before.take();
        let mut calls = self.calls.borrow_mut();
        let c = &mut *calls;
        c.reads += 4 + u64::from(before.is_some()) + if predict.is_some() { 4 } else { 0 };
        let first = before.unwrap_or(e0);
        if observe.1.saturating_duration_since(first).as_nanos() > INTERRUPTED_NS {
            c.interrupted += 1;
            return;
        }
        if let Some(before) = before {
            c.next.add(before, e0);
            c.next.timed += 1;
        }
        c.clock.add(e0, e1);
        c.clock.timed += 1;
        match (predict, update) {
            (Some((p0, p1)), Some((u0, u1))) => {
                c.account.add(e1, p0);
                c.account.add(p1, u0);
                c.account.add(u1, observe.0);
                c.predict.add(p0, p1);
                c.predict.timed += 1;
                c.update.add(u0, u1);
                c.update.timed += 1;
            }
            _ => c.account.add(e1, observe.0),
        }
        c.account.timed += 1;
        c.observe.add(observe.0, observe.1);
        c.observe.timed += 1;
    }
}

/// The loop's probe: counts events and starts each timed one.
struct ArrivalProbe<'a>(&'a Sampler);

impl Probe for ArrivalProbe<'_> {
    fn on_event(&mut self) {
        let s = self.0;
        s.events.set(s.events.get() + 1);
        match s.countdown.get() {
            0 => {
                let t0 = Instant::now();
                let t1 = Instant::now();
                s.arrived.set((t0, t1));
                s.timing.set(true);
                s.countdown.set(STRIDE - 1);
            }
            left => s.countdown.set(left - 1),
        }
    }

    fn on_prediction(&mut self, _pc: u64, _correct: bool) {}
}

/// The predictor as the loop sees it: every call passes through, and
/// the calls of a timed event are bracketed by clock reads.
struct TimedPredictor<'a, P: ?Sized> {
    inner: &'a mut P,
    sampler: &'a Sampler,
}

impl<P: IndirectPredictor + ?Sized> IndirectPredictor for TimedPredictor<'_, P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        if !self.sampler.timing.get() {
            return self.inner.predict(pc);
        }
        let t0 = Instant::now();
        let predicted = self.inner.predict(pc);
        self.sampler.predict.set(Some((t0, Instant::now())));
        predicted
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        if !self.sampler.timing.get() {
            return self.inner.update(pc, actual);
        }
        let t0 = Instant::now();
        self.inner.update(pc, actual);
        self.sampler.update.set(Some((t0, Instant::now())));
    }

    fn observe(&mut self, event: &BranchEvent) {
        let s = self.sampler;
        if s.timing.get() {
            let t0 = Instant::now();
            self.inner.observe(event);
            s.record((t0, Instant::now()));
        } else {
            self.inner.observe(event);
        }
        if s.countdown.get() == 0 {
            s.before.set(Some(Instant::now()));
        }
    }

    fn cost(&self) -> HardwareCost {
        self.inner.cost()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_sim::{simulate, PredictorKind};

    #[test]
    fn the_sampler_drives_the_simulators_loop() {
        let trace = ibp_workloads::paper_suite()[0].generate_scaled(0.02);
        for kind in [PredictorKind::Btb, PredictorKind::PpmHyb] {
            let expected = simulate(&mut *kind.build(), &trace);
            let sampler = Sampler::default();
            let got = sampler.run(&mut *kind.build(), trace.iter().copied());
            assert_eq!(got, expected, "{kind:?}");
            let c = sampler.calls();
            assert_eq!(c.next.population, trace.len() as u64);
            assert_eq!(c.predict.population, expected.predictions());
            let timed = (trace.len() as u64).div_ceil(STRIDE);
            assert_eq!(c.observe.timed + c.interrupted, timed);
            assert!(c.predict.timed > 0 && c.predict.timed < c.predict.population);
            if c.interrupted == 0 {
                assert_eq!(
                    c.next.timed + 1,
                    c.observe.timed,
                    "the first event has no gap"
                );
                let reads = 2 * c.clock.timed + 2 * c.observe.timed + 4 * c.predict.timed;
                assert_eq!(c.reads, reads + c.next.timed);
                assert!(c.clock_ns() > 0.0);
            }
        }
    }

    #[test]
    fn the_stride_carries_across_runs() {
        let trace = ibp_workloads::paper_suite()[0].generate_scaled(0.01);
        let sampler = Sampler::default();
        let mut predictor = PredictorKind::Btb.build();
        let half = trace.len() / 2;
        sampler.run(&mut *predictor, trace.events()[..half].iter().copied());
        sampler.run(&mut *predictor, trace.events()[half..].iter().copied());
        let c = sampler.calls();
        let timed = c.observe.timed + c.interrupted;
        assert_eq!(timed, (trace.len() as u64).div_ceil(STRIDE));
        assert_eq!(c.next.population, trace.len() as u64);
    }

    #[test]
    fn self_time_subtracts_children_and_sampled_calls() {
        let epoch = Instant::now();
        let mut spans = Spans::new(epoch);
        let later = |ns| epoch + std::time::Duration::from_nanos(ns);
        let root = spans.push("root", None, later(0), later(1000));
        spans.push("child", Some(root), later(100), later(400));
        spans.push("child", Some(root), later(300), later(900));
        let lone = spans.push("loop", None, later(0), later(500));
        spans.sampled.push(Sampled {
            parent: lone,
            name: "x".into(),
            timed: 1,
            population: 10,
            timed_ns: 20.0,
        });
        assert_eq!(spans.self_ns(1)[root], 1000.0 - 900.0);
        assert_eq!(spans.self_ns(2)[root], 2000.0 - 900.0);
        assert_eq!(spans.self_ns(1)[lone], 500.0 - 200.0);
        assert_eq!(spans.loop_coverage("loop"), vec![(200.0, 500.0)]);
        assert!(spans.loop_coverage("root").is_empty());
        assert_eq!(spans.sampled_mean_ns("x"), Some(20.0));
    }
}
