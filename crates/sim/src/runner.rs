//! The paper's per-event protocol and the offline simulation loop over it.

use ibp_exec::FastMap;
use ibp_isa::Addr;
use ibp_metrics::{NullProbe, Probe};
use ibp_predictors::{IndirectPredictor, ReturnAddressStack};
use ibp_trace::{BranchEvent, Trace};

/// Initial capacity of the per-branch accounting map: covers every suite
/// workload's static site population without a mid-simulation rehash.
const PER_BRANCH_CAPACITY: usize = 128;

/// The outcome of one predictor × trace simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    predictor: String,
    predictions: u64,
    mispredictions: u64,
    /// Per static branch: (predictions, mispredictions).
    per_branch: FastMap<u64, (u64, u64)>,
}

impl RunResult {
    /// An empty result for the predictor named `predictor`, its
    /// per-branch map pre-sized for the suite's static site population.
    pub(crate) fn new(predictor: String) -> Self {
        Self {
            predictor,
            predictions: 0,
            mispredictions: 0,
            // ibp-lint: allow(L008, "per-run result map pre-sized once before the event loop")
            per_branch: FastMap::with_capacity(PER_BRANCH_CAPACITY),
        }
    }

    /// The paper's §5 per-event protocol, the one body every counted
    /// loop runs: a multi-target indirect branch is predicted,
    /// counted here, then updated with its resolved target; every event
    /// is observed. Returns `Some((correct, predicted))` for a predicted
    /// event and `None` otherwise.
    ///
    /// The probe only receives values the step already computed, so it
    /// cannot perturb prediction; with [`NullProbe`] its calls compile
    /// away.
    #[inline(always)]
    pub(crate) fn step_event<P, Pr>(
        &mut self,
        predictor: &mut P,
        event: &BranchEvent,
        probe: &mut Pr,
    ) -> Option<(bool, Option<Addr>)>
    where
        P: IndirectPredictor + ?Sized,
        Pr: Probe,
    {
        probe.on_event();
        let mut outcome = None;
        if event.class().is_predicted_indirect() {
            let predicted = predictor.predict(event.pc());
            let actual = event.target();
            let correct = predicted == Some(actual);
            probe.on_prediction(event.pc().raw(), correct);
            self.predictions += 1;
            let entry = self
                .per_branch
                // ibp-lint: allow(L008, "per-branch tally admission: bounded by the static branch count")
                .or_insert_with(event.pc().raw(), || (0, 0));
            entry.0 += 1;
            if !correct {
                self.mispredictions += 1;
                entry.1 += 1;
            }
            predictor.update(event.pc(), actual);
            outcome = Some((correct, predicted));
        }
        predictor.observe(event);
        outcome
    }

    /// Number of static sites in the per-branch ledger.
    pub(crate) fn sites(&self) -> usize {
        self.per_branch.len()
    }

    /// Reassembles a result from its parts — the inverse of the
    /// accessors, used by the JSON report codec and by tools replaying
    /// saved results.
    pub fn from_parts(
        predictor: String,
        predictions: u64,
        mispredictions: u64,
        per_branch: impl IntoIterator<Item = (u64, (u64, u64))>,
    ) -> Self {
        let mut result = Self::new(predictor);
        result.predictions = predictions;
        result.mispredictions = mispredictions;
        result.per_branch.extend(per_branch);
        result
    }

    /// The predictor's name.
    pub fn predictor(&self) -> &str {
        &self.predictor
    }

    /// Total predicted MT indirect branches.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Total mispredictions (including cold no-prediction cases, matching
    /// the paper's accounting).
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// The misprediction ratio in 0..=1.
    pub fn misprediction_ratio(&self) -> f64 {
        if self.predictions == 0 {
            return 0.0;
        }
        self.mispredictions as f64 / self.predictions as f64
    }

    /// Per-branch `(predictions, mispredictions)` for the site at `pc`.
    pub fn branch(&self, pc: Addr) -> Option<(u64, u64)> {
        self.per_branch.get(&pc.raw()).copied()
    }

    /// Iterates over `(pc, predictions, mispredictions)` per static site,
    /// sorted by PC for deterministic output.
    pub fn branches(&self) -> Vec<(Addr, u64, u64)> {
        let mut v: Vec<(Addr, u64, u64)> = self
            .per_branch
            .iter()
            .map(|(&pc, &(p, m))| (Addr::new(pc), p, m))
            .collect();
        v.sort_by_key(|(pc, _, _)| pc.raw());
        v
    }

    /// The `n` sites with the most mispredictions.
    ///
    /// Ties on the misprediction count are broken by **ascending PC**:
    /// [`RunResult::branches`] returns sites PC-sorted and the sort here
    /// is stable, so the report is reproducible regardless of the map
    /// implementation backing the per-branch accounting.
    pub fn worst_branches(&self, n: usize) -> Vec<(Addr, u64, u64)> {
        let mut v = self.branches();
        v.sort_by_key(|&(_, _, m)| std::cmp::Reverse(m));
        v.truncate(n);
        v
    }
}

/// Drives `trace` through `predictor` with the paper's protocol:
/// per MT indirect branch, predict → update; every event is observed.
///
/// The predictor is *not* reset first; callers wanting a cold start (all
/// experiments here do) should pass a fresh predictor.
pub fn simulate<P: IndirectPredictor + ?Sized>(predictor: &mut P, trace: &Trace) -> RunResult {
    simulate_stream_probed(predictor, trace.iter().copied(), &mut NullProbe)
}

/// Drives any event iterator through the predictor with an observation
/// probe attached, without materializing a [`Trace`]: the loop every
/// offline entry point funnels into, over [`RunResult::step_event`].
///
/// The loop is monomorphized per probe type: with
/// [`ibp_metrics::NullProbe`] (what [`simulate`] passes) the probe calls
/// are empty `#[inline(always)]` bodies that compile away, so the
/// uninstrumented path pays nothing. The differential suite
/// (`tests/differential.rs`) checks that instrumented and uninstrumented
/// grids are byte-identical.
pub fn simulate_stream_probed<P, I, Pr>(predictor: &mut P, events: I, probe: &mut Pr) -> RunResult
where
    P: IndirectPredictor + ?Sized,
    I: IntoIterator<Item = BranchEvent>,
    Pr: Probe,
{
    let mut result = RunResult::new(predictor.name());
    for event in events {
        result.step_event(predictor, &event, probe);
    }
    result
}

/// Measures a return-address stack's accuracy on the trace's returns —
/// the justification for excluding them from indirect accounting.
pub fn ras_accuracy(trace: &Trace, depth: usize) -> f64 {
    let mut ras = ReturnAddressStack::new(depth);
    let mut total = 0u64;
    let mut hits = 0u64;
    for event in trace.iter() {
        let predicted = ras.observe(event);
        if event.class().is_return() {
            total += 1;
            if predicted == Some(event.target()) {
                hits += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_predictors::Btb;

    fn mini_trace() -> Trace {
        let pc = Addr::new(0x40);
        let a = Addr::new(0xA00);
        let b = Addr::new(0xB00);
        // A A B A A B ...
        (0..30)
            .map(|i| BranchEvent::indirect_jmp(pc, if i % 3 == 2 { b } else { a }))
            .collect()
    }

    #[test]
    fn simulate_counts_predictions_and_misses() {
        let mut btb = Btb::new(64);
        let r = simulate(&mut btb, &mini_trace());
        assert_eq!(r.predictions(), 30);
        // BTB misses: cold + every change A->B and B->A = 1 + 2 per
        // period after the first.
        assert!(r.mispredictions() >= 20, "misses {}", r.mispredictions());
        assert!(r.misprediction_ratio() > 0.6);
        assert_eq!(r.predictor(), "BTB");
    }

    #[test]
    fn per_branch_accounting() {
        let mut btb = Btb::new(64);
        let r = simulate(&mut btb, &mini_trace());
        let (p, m) = r.branch(Addr::new(0x40)).unwrap();
        assert_eq!(p, 30);
        assert_eq!(m, r.mispredictions());
        assert_eq!(r.branches().len(), 1);
        assert_eq!(r.worst_branches(5).len(), 1);
    }

    #[test]
    fn non_mt_branches_are_not_predicted() {
        let trace: Trace = vec![
            BranchEvent::cond_taken(Addr::new(0x10), Addr::new(0x20)),
            BranchEvent::st_jsr(Addr::new(0x20), Addr::new(0x900)),
            BranchEvent::ret(Addr::new(0x904), Addr::new(0x24)),
        ]
        .into_iter()
        .collect();
        let mut btb = Btb::new(16);
        let r = simulate(&mut btb, &trace);
        assert_eq!(r.predictions(), 0);
        assert_eq!(r.misprediction_ratio(), 0.0);
    }

    #[test]
    fn ras_is_perfect_on_balanced_traces() {
        let mut events = Vec::new();
        for i in 0..10u64 {
            let call_pc = Addr::new(0x100 + i * 0x20);
            let callee = Addr::new(0x4000 + i * 0x100);
            events.push(BranchEvent::direct_call(call_pc, callee));
            events.push(BranchEvent::ret(callee + 0x10, call_pc.offset_words(1)));
        }
        let trace: Trace = events.into_iter().collect();
        assert_eq!(ras_accuracy(&trace, 16), 1.0);
    }

    #[test]
    fn shallow_ras_degrades_on_deep_recursion() {
        let mut events = Vec::new();
        // 8 nested calls, then 8 returns; a depth-2 RAS loses the outer 6.
        let mut stack = Vec::new();
        for i in 0..8u64 {
            let pc = Addr::new(0x100 + i * 4);
            events.push(BranchEvent::direct_call(pc, Addr::new(0x4000 + i * 0x100)));
            stack.push(pc.offset_words(1));
        }
        for i in (0..8u64).rev() {
            let target = stack.pop().unwrap();
            events.push(BranchEvent::ret(Addr::new(0x4000 + i * 0x100 + 8), target));
        }
        let trace: Trace = events.into_iter().collect();
        let shallow = ras_accuracy(&trace, 2);
        let deep = ras_accuracy(&trace, 16);
        assert_eq!(deep, 1.0);
        assert!(shallow < 0.5, "shallow {shallow}");
    }

    #[test]
    fn streaming_matches_materialized() {
        let trace = mini_trace();
        let mut a = Btb::new(64);
        let ra = simulate(&mut a, &trace);
        let mut b = Btb::new(64);
        let rb = simulate_stream_probed(&mut b, trace.iter().copied(), &mut NullProbe);
        assert_eq!(ra, rb);
    }

    #[test]
    fn ras_accuracy_empty_trace() {
        assert_eq!(ras_accuracy(&Trace::new(), 4), 0.0);
    }

    #[test]
    fn worst_branches_breaks_ties_by_ascending_pc() {
        // Three sites tied at 5 mispredictions, one clear winner at 9,
        // inserted in shuffled order: the report must come back ordered
        // by count desc, then PC asc — independent of map layout.
        let r = RunResult::from_parts(
            "test".into(),
            40,
            24,
            [
                (0x300u64, (10u64, 5u64)),
                (0x100, (10, 5)),
                (0x400, (10, 9)),
                (0x200, (10, 5)),
            ],
        );
        let worst = r.worst_branches(4);
        let pcs: Vec<u64> = worst.iter().map(|(pc, _, _)| pc.raw()).collect();
        assert_eq!(pcs, vec![0x400, 0x100, 0x200, 0x300]);
        // Truncation keeps the smallest-PC members of the tied group.
        let top2: Vec<u64> = r
            .worst_branches(2)
            .iter()
            .map(|(pc, _, _)| pc.raw())
            .collect();
        assert_eq!(top2, vec![0x400, 0x100]);
    }
}
