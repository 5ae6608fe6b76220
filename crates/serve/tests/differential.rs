//! End-to-end differential suite: for every predictor in the zoo's serve
//! lineup, streaming a trace through a loopback mux stream must produce
//! *identical* results — totals, per-branch accounting and every single
//! prediction outcome — to running `ibp_sim::simulate` offline over the
//! same events. This is the acceptance bar for the whole service: the
//! network layer may add latency, never bias.

use ibp_exec::Executor;
use ibp_metrics::Probe;
use ibp_serve::{MuxClient, Server, ServerConfig};
use ibp_sim::{simulate, simulate_stream_probed, PredictorKind, RunResult};
use ibp_trace::{BranchEvent, Trace};
use ibp_workloads::paper_suite;

const ENTRIES: u64 = 2048;

fn test_trace() -> Trace {
    // A scaled-down perl-like model: plenty of MT indirect sites with
    // path correlation, so predictors actually diverge from each other.
    paper_suite()[0].generate_scaled(0.02)
}

/// Records `(seq, correct)` for every offline prediction, `seq`
/// counting every event like the wire's sequence numbers do.
#[derive(Default)]
struct OutcomeProbe {
    events: u64,
    log: Vec<(u64, bool)>,
}

impl Probe for OutcomeProbe {
    fn on_event(&mut self) {
        self.events += 1;
    }

    fn on_prediction(&mut self, _pc: u64, correct: bool) {
        self.log.push((self.events - 1, correct));
    }
}

fn offline(kind: PredictorKind, trace: &Trace) -> (RunResult, Vec<(u64, bool)>) {
    let mut predictor = kind.build_with_entries(ENTRIES as usize);
    let mut probe = OutcomeProbe::default();
    let result = simulate_stream_probed(predictor.as_mut(), trace.iter().copied(), &mut probe);
    let mut again = kind.build_with_entries(ENTRIES as usize);
    assert_eq!(
        simulate(again.as_mut(), trace),
        result,
        "the probe must not perturb the offline result"
    );
    (result, probe.log)
}

/// Serves `events` on one verbose width-1 stream and returns the close
/// receipt's result plus the `(seq, correct)` of every `MUX_PREDICTION`.
fn served(
    kind: PredictorKind,
    addr: std::net::SocketAddr,
    events: &[BranchEvent],
) -> (RunResult, Vec<(u64, bool)>) {
    let mut client = MuxClient::connect(addr).expect("handshake accepted");
    client.open(1, kind, ENTRIES, true).expect("stream opened");
    client.send(1, events).expect("stream accepted");
    let stats = client.stats(1).expect("stats frame");
    let outcome = client.finish(1).expect("close receipt");
    assert_eq!(outcome.events_sent(), events.len() as u64);
    assert_eq!(outcome.events(), events.len() as u64);
    assert_eq!(
        outcome.backpressure_warnings(),
        0,
        "a window-chunking client never trips backpressure"
    );
    assert_eq!(stats.events, events.len() as u64);
    assert_eq!(stats.predictions, outcome.predictions());
    assert_eq!(stats.mispredictions, outcome.mispredictions());
    let log: Vec<(u64, bool)> = outcome
        .outcomes()
        .expect("verbose stream keeps its outcomes")
        .iter()
        .map(|o| (o.seq, o.correct))
        .collect();
    assert_eq!(log.len() as u64, outcome.predictions());
    let total = client.bye().expect("graceful bye");
    assert_eq!(total, events.len() as u64);
    (outcome.into_run_result(), log)
}

/// Every zoo predictor, served sequentially over one server: loopback
/// results are bit-identical to offline simulation, event by event.
#[test]
fn loopback_matches_offline_for_every_predictor() {
    let trace = test_trace();
    let events: Vec<BranchEvent> = trace.iter().copied().collect();
    assert!(trace.stats().mt_indirect() > 0, "trace must exercise MT sites");

    let server = Server::start(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    for kind in PredictorKind::serve_lineup() {
        let (remote, remote_log) = served(kind, addr, &events);
        let (local, local_log) = offline(kind, &trace);
        assert_eq!(remote, local, "served {} diverged from offline", local.predictor());
        assert_eq!(
            remote_log,
            local_log,
            "served {} diverged from offline on some event",
            local.predictor()
        );
        assert!(local.predictions() > 0, "{} made no predictions", local.predictor());
    }
    let report = server.shutdown();
    assert!(report.drained_clean, "no session should outlive the drain");
    let lineup = PredictorKind::serve_lineup().len() as u64;
    assert_eq!(report.metrics.counter("serve_sessions"), lineup);
    assert_eq!(report.metrics.counter("serve_clean_byes"), lineup);
    assert_eq!(report.metrics.counter("serve_mux_clean_closes"), lineup);
    assert_eq!(report.metrics.counter("serve_protocol_errors"), 0);
    assert_eq!(
        report.metrics.counter("serve_events"),
        lineup * events.len() as u64
    );
}

/// Concurrent connections over a small shard set: concurrency cannot
/// perturb per-stream prediction state.
#[test]
fn concurrent_sessions_stay_isolated() {
    let trace = test_trace();
    let events: Vec<BranchEvent> = trace.iter().copied().collect();
    let kinds = [
        PredictorKind::Btb,
        PredictorKind::TcPib,
        PredictorKind::PpmHyb,
        PredictorKind::IttageLite,
    ];

    let server = Server::start(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();

    let remotes = Executor::new(kinds.len()).run(kinds.len(), |i| served(kinds[i], addr, &events));
    for (kind, remote) in kinds.into_iter().zip(remotes) {
        let local = offline(kind, &trace);
        assert_eq!(remote, local, "concurrent {} diverged", local.0.predictor());
    }
    let report = server.shutdown();
    assert!(report.drained_clean);
    assert_eq!(report.metrics.counter("serve_sessions"), kinds.len() as u64);
    assert!(report.metrics.maximum("serve_peak_sessions") >= 1);
}
