//! Batched, monomorphized session stepping for the serving layer.
//!
//! `ibp-serve`'s PR 5 session held a `Box<dyn IndirectPredictor>` and
//! paid three virtual calls per event (predict, update, observe). The
//! multiplexed reactor steps hundreds of resident streams per poll
//! iteration, so the dispatch cost is hoisted to the *batch* boundary
//! instead: a [`SessionStepper`] is built once per stream through
//! [`PredictorKind::session_stepper_with`](crate::PredictorKind::session_stepper_with),
//! which monomorphizes the whole per-event loop over the concrete
//! predictor type — the same `dispatch_kind!` arms the offline engine's
//! hot loop uses — leaving one virtual call per batch.
//!
//! The per-event body is the offline runner's own
//! [`RunResult::step_event`]: for every event whose class is a predicted
//! (multi-target) indirect branch, predict → count → update; every event
//! is observed. The stepper accumulates into a [`RunResult`], so
//! [`SessionStepper::run_result`] is bit-identical to offline
//! [`simulate_stream_probed`](crate::runner::simulate_stream_probed) of
//! the same event sequence — the property the serve differential suites
//! pin.

use crate::runner::RunResult;
use ibp_hw::{PersistError, StateSink, StateSource};
use ibp_metrics::NullProbe;
use ibp_predictors::IndirectPredictor;
use ibp_trace::BranchEvent;

/// The outcome of one predicted indirect event, in batch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictionOutcome {
    /// Zero-based event sequence number within the session (counting
    /// every event, not just predicted ones).
    pub seq: u64,
    /// Whether the prediction matched the resolved target.
    pub correct: bool,
    /// The predicted target, if the predictor produced one.
    pub predicted: Option<u64>,
}

/// One serving session's predictor, stepped a batch at a time.
///
/// Implementations are monomorphized per concrete predictor (see the
/// module docs); this trait is the once-per-batch dynamic boundary.
/// `Send + Sync` so a warmed prototype can be shared across reactor
/// shards and forked from any of them.
pub trait SessionStepper: Send + Sync {
    /// The predictor's display name (e.g. `PPM-hyb`).
    fn label(&self) -> &str;

    /// Events processed so far (every event, predicted or not).
    fn events(&self) -> u64;

    /// Predicted indirect events so far.
    fn predictions(&self) -> u64;

    /// Mispredictions so far.
    fn mispredictions(&self) -> u64;

    /// Steps the session through `events`, counting but not reporting
    /// individual outcomes — the serving fast path.
    fn step_counted(&mut self, events: &[BranchEvent]);

    /// Steps the session through `events`, appending one
    /// [`PredictionOutcome`] per predicted indirect event.
    fn step_verbose(&mut self, events: &[BranchEvent], out: &mut Vec<PredictionOutcome>);

    /// The session's accumulated result, bit-identical to offline
    /// [`simulate_stream_probed`](crate::runner::simulate_stream_probed)
    /// over the same event sequence.
    fn run_result(&self) -> RunResult;

    /// Freezes the predictor's current table contents into an immutable,
    /// reference-counted **base tier**. Subsequent writes land in a sparse
    /// copy-on-write delta overlay; [`SessionStepper::fork_fresh`] clones
    /// share the base for free. Predictions are unchanged — the
    /// multi-tenant differential suites pin this.
    fn seal(&mut self);

    /// Whether [`SessionStepper::seal`] has been called on this session
    /// (directly or via the prototype it was forked from).
    fn is_sealed(&self) -> bool;

    /// Heap bytes this session uniquely owns. Sealed sessions charge only
    /// their delta overlays (plus unshared side state), not the shared
    /// base tier.
    fn resident_bytes(&self) -> usize;

    /// A fresh session sharing this stepper's predictor state: tables are
    /// cloned (sharing the sealed base by reference where one exists) and
    /// all event/prediction counters start at zero. This is how a warmed
    /// [`BaseTier`](crate::snapshot::BaseTier) mints per-tenant sessions.
    fn fork_fresh(&self) -> Box<dyn SessionStepper>;

    /// Serializes the whole session — counters, per-branch ledger, and
    /// predictor state — into `out`. Sealed sessions write their sparse
    /// deltas, not the shared base, so idle-session spill files stay small.
    /// The bytes are canonical: equal sessions produce equal blobs.
    fn save_session(&self, out: &mut Vec<u8>);

    /// Restores a blob written by [`SessionStepper::save_session`] into
    /// this session, which must have the same predictor label and sealed
    /// state (a sealed blob must load into a fork of the *same* base
    /// tier). Fails with [`PersistError::Mismatch`] otherwise; on any
    /// error this session's state is unspecified and it must be dropped.
    fn load_session(&mut self, bytes: &[u8]) -> Result<(), PersistError>;
}

/// The generic [`SessionStepper`] implementation over a concrete
/// predictor type. Constructed through
/// [`PredictorKind::session_stepper_with`](crate::PredictorKind::session_stepper_with),
/// which picks `P` per kind.
pub struct Stepper<P> {
    predictor: P,
    /// The session's label, totals and per-branch ledger, accumulated by
    /// the offline runner's own [`RunResult::step_event`].
    result: RunResult,
    sealed: bool,
    seq: u64,
}

impl<P: IndirectPredictor> Stepper<P> {
    /// Wraps a fresh predictor.
    pub fn new(predictor: P) -> Self {
        let result = RunResult::new(predictor.name());
        Stepper {
            predictor,
            result,
            sealed: false,
            seq: 0,
        }
    }

    /// The loop both step entry points funnel into; `VERBOSE` is a
    /// compile-time branch so the counted path carries no
    /// outcome-reporting residue.
    fn step<const VERBOSE: bool>(
        &mut self,
        events: &[BranchEvent],
        out: &mut Vec<PredictionOutcome>,
    ) {
        for event in events {
            let outcome = self.result.step_event(&mut self.predictor, event, &mut NullProbe);
            if VERBOSE {
                if let Some((correct, predicted)) = outcome {
                    out.push(PredictionOutcome {
                        seq: self.seq,
                        correct,
                        predicted: predicted.map(|a| a.raw()),
                    });
                }
            }
            self.seq += 1;
        }
    }
}

impl<P> SessionStepper for Stepper<P>
where
    P: IndirectPredictor + Clone + Send + Sync + 'static,
{
    fn label(&self) -> &str {
        self.result.predictor()
    }

    fn events(&self) -> u64 {
        self.seq
    }

    fn predictions(&self) -> u64 {
        self.result.predictions()
    }

    fn mispredictions(&self) -> u64 {
        self.result.mispredictions()
    }

    fn step_counted(&mut self, events: &[BranchEvent]) {
        let mut none = Vec::new();
        self.step::<false>(events, &mut none);
    }

    fn step_verbose(&mut self, events: &[BranchEvent], out: &mut Vec<PredictionOutcome>) {
        self.step::<true>(events, out);
    }

    fn run_result(&self) -> RunResult {
        self.result.clone()
    }

    fn seal(&mut self) {
        self.predictor.seal();
        self.sealed = true;
    }

    fn is_sealed(&self) -> bool {
        self.sealed
    }

    fn resident_bytes(&self) -> usize {
        // Predictor tables plus the per-branch ledger's logical payload
        // (pc + two counters per site).
        self.predictor.resident_bytes() + self.result.sites() * 3 * std::mem::size_of::<u64>()
    }

    fn fork_fresh(&self) -> Box<dyn SessionStepper> {
        Box::new(Stepper {
            predictor: self.predictor.clone(),
            result: RunResult::new(self.result.predictor().to_string()),
            sealed: self.sealed,
            seq: 0,
        })
    }

    fn save_session(&self, out: &mut Vec<u8>) {
        let mut sink = StateSink::new(out);
        sink.bytes(self.result.predictor().as_bytes());
        sink.bool(self.sealed);
        sink.u64(self.seq);
        sink.u64(self.result.predictions());
        sink.u64(self.result.mispredictions());
        // Per-branch ledger sorted by PC, gap-coded: canonical bytes
        // regardless of map iteration order.
        let sites = self.result.branches();
        sink.usize(sites.len());
        let mut prev = 0u64;
        for (pc, preds, misses) in sites {
            let pc = pc.raw();
            sink.u64(pc.wrapping_sub(prev));
            prev = pc;
            sink.u64(preds);
            sink.u64(misses);
        }
        self.predictor.save_state(&mut sink);
    }

    fn load_session(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut src = StateSource::new(bytes);
        if src.bytes()? != self.result.predictor().as_bytes() {
            return Err(PersistError::Mismatch("session predictor label"));
        }
        if src.bool()? != self.sealed {
            return Err(PersistError::Mismatch("session sealed state"));
        }
        let seq = src.u64()?;
        let predictions = src.u64()?;
        let mispredictions = src.u64()?;
        if predictions > seq || mispredictions > predictions {
            return Err(PersistError::Corrupt("session counters inconsistent"));
        }
        let sites = src.usize()?;
        let mut per_branch = Vec::new();
        let mut pc = 0u64;
        let mut total = 0u64;
        for i in 0..sites {
            let gap = src.u64()?;
            if i > 0 && gap == 0 {
                return Err(PersistError::Corrupt("session ledger out of order"));
            }
            pc = pc
                .checked_add(gap)
                .ok_or(PersistError::Corrupt("session ledger PC overflows"))?;
            let preds = src.u64()?;
            let misses = src.u64()?;
            if misses > preds {
                return Err(PersistError::Corrupt("session ledger inconsistent"));
            }
            total = total
                .checked_add(preds)
                .ok_or(PersistError::Corrupt("session ledger count overflows"))?;
            per_branch.push((pc, (preds, misses)));
        }
        if total != predictions {
            return Err(PersistError::Corrupt("session ledger does not sum"));
        }
        self.predictor.load_state(&mut src)?;
        if !src.is_exhausted() {
            return Err(PersistError::Corrupt("trailing bytes after session"));
        }
        self.seq = seq;
        self.result = RunResult::from_parts(
            self.result.predictor().to_string(),
            predictions,
            mispredictions,
            per_branch,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate_stream_probed;
    use crate::PredictorKind;
    use ibp_isa::Addr;

    fn mixed_trace(n: u64) -> Vec<BranchEvent> {
        (0..n)
            .map(|i| {
                let pc = Addr::new(0x4000 + (i % 5) * 4);
                match i % 4 {
                    0 => BranchEvent::indirect_jmp(pc, Addr::new(0x9000 + (i % 3) * 0x100)),
                    1 => BranchEvent::cond_taken(pc, Addr::new(0x5000)),
                    2 => BranchEvent::indirect_jsr(pc, Addr::new(0xA000 + (i % 2) * 0x40)),
                    _ => BranchEvent::ret(Addr::new(0xA010), pc.offset_words(1)),
                }
            })
            .collect()
    }

    #[test]
    fn stepper_matches_offline_simulation_for_every_kind() {
        let events = mixed_trace(400);
        for kind in PredictorKind::serve_lineup() {
            let mut offline = kind.build_with_entries(2048);
            let expected =
                simulate_stream_probed(&mut *offline, events.iter().copied(), &mut NullProbe);

            // Counted path, split into uneven batches.
            let mut stepper = kind.session_stepper(2048);
            for chunk in events.chunks(37) {
                stepper.step_counted(chunk);
            }
            assert_eq!(stepper.run_result(), expected, "{kind:?} counted");
            assert_eq!(stepper.events(), 400);
            assert_eq!(stepper.label(), expected.predictor());

            // Verbose path, different batching, same result plus one
            // outcome per predicted event.
            let mut stepper = kind.session_stepper(2048);
            let mut outcomes = Vec::new();
            for chunk in events.chunks(61) {
                stepper.step_verbose(chunk, &mut outcomes);
            }
            assert_eq!(stepper.run_result(), expected, "{kind:?} verbose");
            assert_eq!(outcomes.len() as u64, expected.predictions());
            let wrong = outcomes.iter().filter(|o| !o.correct).count() as u64;
            assert_eq!(wrong, expected.mispredictions(), "{kind:?}");
        }
    }

    #[test]
    fn verbose_outcomes_carry_event_sequence_numbers() {
        let events = mixed_trace(40);
        let mut stepper = PredictorKind::Btb.session_stepper(2048);
        let mut outcomes = Vec::new();
        stepper.step_verbose(&events, &mut outcomes);
        // Events 0, 2 mod 4 are predicted indirect; seq counts all events.
        for o in &outcomes {
            assert_eq!(o.seq % 2, 0, "only even positions are indirect: {o:?}");
            assert!(o.seq < 40);
        }
        // A correct outcome always carries the predicted target.
        assert!(outcomes
            .iter()
            .all(|o| !o.correct || o.predicted.is_some()));
    }

    #[test]
    fn corrupt_session_ledgers_are_typed_errors() {
        // A fresh session's blob is its header then the predictor state;
        // splice that state behind hand-written ledgers.
        let fresh = PredictorKind::Btb.session_stepper(2048);
        let blob_with = |seq: u64, predictions: u64, sites: &[(u64, u64)]| {
            let mut out = Vec::new();
            let mut sink = StateSink::new(&mut out);
            sink.bytes(fresh.label().as_bytes());
            sink.bool(false);
            sink.u64(seq);
            sink.u64(predictions);
            sink.u64(0);
            sink.usize(sites.len());
            for &(gap, preds) in sites {
                sink.u64(gap);
                sink.u64(preds);
                sink.u64(0);
            }
            out
        };
        let mut saved = Vec::new();
        fresh.save_session(&mut saved);
        let state = &saved[blob_with(0, 0, &[]).len()..];
        let corrupt = [
            // Gaps 5, 2^64-1, 1 wrap the third PC back onto the first
            // site, so the restored ledger would sum to 2, not 3.
            blob_with(3, 3, &[(5, 1), (u64::MAX, 1), (1, 1)]),
            // Per-site counts 2^64-1 and 11 overflow the ledger sum.
            blob_with(u64::MAX, 10, &[(5, u64::MAX), (1, 11)]),
        ];
        for mut blob in corrupt {
            blob.extend_from_slice(state);
            let mut session = PredictorKind::Btb.session_stepper(2048);
            let err = session.load_session(&blob).map(|_| session.run_result());
            assert!(matches!(err, Err(PersistError::Corrupt(_))), "{err:?}");
        }
    }

    #[test]
    #[should_panic(expected = "budget too small")]
    fn tiny_budget_panics() {
        let _ = PredictorKind::Btb.session_stepper(32);
    }
}
