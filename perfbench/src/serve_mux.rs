//! `serve_mux`: an in-process `ibp-serve` server with one shard, driven
//! in a closed loop by one `MuxClient` connection (two threads in all,
//! pinned to one CPU).
//!
//! The connection holds many PPM-hyb streams; stream `s` replays paper
//! run `s mod 15` from a trace decoded out of a stored trace-v2 buffer.
//! A request sends one batch to one stream, then waits for a `stats()`
//! round trip. A seeded generator picks the streams from a skewed hot
//! set. The server's resident budget is below the streams' footprint, so
//! some requests find their session resident and some restore it while
//! others spill.
//!
//! Set-up is decoding the stored traces, starting the server, connecting
//! and opening the streams. The reference is every stream's close
//! receipt against offline `simulate_events` over exactly the events the
//! client sent to it; every `stats()` answer is checked too.

use crate::report::{self, kind_prefix, Layers, Outcome, Wall};
use crate::spans::{CallNames, Sampler, Spans};
use crate::stats::Summary;
use crate::{peak_rss_mib, seeded_suite, Config};
use ibp_exec::Executor;
use ibp_serve::{MuxClient, Server, ServerConfig, ServerReport, StreamOutcome};
use ibp_sim::{BaseTier, PredictorKind, RunResult, TableEncoding};
use ibp_testkit::TestRng;
use ibp_trace::{codec, BranchEvent, Trace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const KIND: PredictorKind = PredictorKind::PpmHyb;
const ENTRIES: usize = 2048;
/// Streams on the connection.
const STREAMS: usize = 256;
const QUICK_STREAMS: usize = 16;
/// Events per request.
const BATCH: usize = 128;
/// One stream in this many is hot; hot streams get `HOT_PERCENT` of the
/// requests.
const HOT_ONE_IN: usize = 8;
const HOT_PERCENT: u32 = 80;
/// The server's resident budget per stream on the connection, in bytes:
/// below what a stream grows to, so spills and restores run.
const BUDGET_PER_STREAM: u64 = 24 * 1024;
/// `mispredict_pct` is read off every stream's stats after this many
/// requests (a fixed prefix, so it is deterministic).
const MIX_REQUESTS: usize = 4096;
const QUICK_MIX_REQUESTS: usize = 256;
/// Requests per slice: `events_per_s` and `req_p99_us` are medians over
/// slices, so every phase runs at least one.
const SLICE: usize = 1024;
/// Trace scale of the stored buffers.
const SCALE: f64 = 1.0;
const QUICK_SCALE: f64 = 0.01;
const SETUP_REPS: usize = 5;
/// (predictions, mispredictions) over the fixed prefix for seed 0.
const PIN_SEED0: (u64, u64) = (257_046, 45_471);

/// A live setup: decoded traces, the server and the open connection.
struct Plant {
    traces: Vec<Trace>,
    server: Server,
    client: MuxClient,
}

fn server_config(streams: usize) -> ServerConfig {
    ServerConfig {
        shards: 1,
        max_sessions: 4,
        max_streams: streams as u64,
        window: BATCH as u64 * 2,
        idle_timeout: Duration::from_secs(3600),
        resident_budget: BUDGET_PER_STREAM * streams as u64,
        ..ServerConfig::default()
    }
}

fn stream_id(s: usize) -> u64 {
    s as u64 + 1
}

fn set_up(buffers: &[Vec<u8>], streams: usize, spans: &mut Spans) -> Result<Plant, String> {
    let d0 = Instant::now();
    let traces = buffers
        .iter()
        .map(|b| codec::decode(b).map_err(|e| format!("stored trace does not decode: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    spans.push("trace.decode", None, d0, Instant::now());
    let server = Server::start(server_config(streams)).map_err(|e| e.to_string())?;
    let mut client = MuxClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    for s in 0..streams {
        client
            .open(stream_id(s), KIND, ENTRIES as u64, false)
            .map_err(|e| e.to_string())?;
    }
    client
        .stats(stream_id(streams - 1))
        .map_err(|e| e.to_string())?;
    Ok(Plant {
        traces,
        server,
        client,
    })
}

fn tear_down(plant: Plant) -> Result<ServerReport, String> {
    plant.client.bye().map_err(|e| e.to_string())?;
    Ok(plant.server.shutdown())
}

/// The seeded request generator: which stream each request goes to.
struct Picker {
    rng: TestRng,
    hot: Vec<usize>,
    streams: usize,
}

impl Picker {
    fn new(seed: u64, streams: usize) -> Picker {
        let mut rng = TestRng::new(seed ^ 0x5345_5256_455f_4d55);
        let mut order: Vec<usize> = (0..streams).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order.truncate((streams / HOT_ONE_IN).max(1));
        Picker {
            rng,
            hot: order,
            streams,
        }
    }

    fn next(&mut self) -> usize {
        if self.rng.gen_ratio(HOT_PERCENT, 100) {
            self.hot[self.rng.gen_range(0..self.hot.len())]
        } else {
            self.rng.gen_range(0..self.streams)
        }
    }
}

/// The `n` events of `trace` starting at `from`, wrapping at its end.
fn wrapped(trace: &Trace, from: u64, n: u64) -> impl Iterator<Item = BranchEvent> + '_ {
    let len = trace.len() as u64;
    (from..from + n).map(move |i| trace.events()[(i % len) as usize])
}

/// One logged request: stream, first event index, latency parts.
struct Request {
    stream: usize,
    from: u64,
    start: Instant,
    sent: Instant,
    done: Instant,
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    match run_inner(cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            let mut wall = Wall::default();
            wall.fail(format!("serve plane failed: {e}"));
            Outcome {
                metrics: if cfg.trace {
                    Layers::default().into_metrics()
                } else {
                    report::END_TO_END
                        .iter()
                        .map(|&(n, u)| report::Metric {
                            name: n.to_string(),
                            unit: u.to_string(),
                            summary: Summary::single(f64::NAN),
                        })
                        .collect()
                },
                wall,
                spans: None,
                notes: Vec::new(),
            }
        }
    }
}

fn run_inner(cfg: &Config) -> Result<Outcome, String> {
    let streams = if cfg.quick { QUICK_STREAMS } else { STREAMS };
    let mix = if cfg.quick {
        QUICK_MIX_REQUESTS
    } else {
        MIX_REQUESTS
    };
    let scale = if cfg.quick { QUICK_SCALE } else { SCALE };
    let exec = Executor::new(ibp_exec::thread_count());
    // Inputs: the seeded suite's traces, stored as trace-v2 buffers.
    let specs = seeded_suite(cfg.seed);
    let buffers: Vec<Vec<u8>> = exec.map(&specs, |_, spec| {
        codec::encode_v2(&spec.generate_scaled(scale))
    });
    let runs = buffers.len();
    // Client and server share one core, so each hands the core to the
    // other directly. Across two vCPUs every hand-off waits for the
    // hypervisor to wake the other one (see `README.md`).
    let pinned = crate::pin_to_one_cpu();

    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let mut setup_times = Vec::new();
    let mut plant = None;
    for _ in 0..if cfg.quick { 2 } else { SETUP_REPS } {
        if let Some(old) = plant.take() {
            tear_down(old)?;
        }
        let t0 = Instant::now();
        plant = Some(set_up(&buffers, streams, &mut spans)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let Plant {
        traces,
        server,
        mut client,
    } = plant.expect("at least one set-up ran");
    let decoded: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let decode_ns = spans.total_ns("trace.decode") / setup_times.len() as f64;

    // Measured phase: closed loop until the budget is spent (and at least
    // the fixed prefix and one slice of requests are done). With tracing
    // on, the second half of the run is the traced phase.
    let mut wall = Wall::default();
    let mut picker = Picker::new(cfg.seed, streams);
    let mut sent = vec![0u64; streams];
    let mut last = vec![(0u64, 0u64); streams];
    let mut log: Vec<Request> = Vec::new();
    let mut batch: Vec<BranchEvent> = Vec::with_capacity(BATCH);
    let mut prefix_counts = (0u64, 0u64);
    let untraced_budget = if cfg.trace {
        cfg.duration() / 2
    } else {
        cfg.duration()
    };
    let start = Instant::now();
    let mut traced_from = None;
    loop {
        let elapsed = start.elapsed();
        let untraced_done = log.len() >= mix.max(SLICE) && elapsed >= untraced_budget;
        if untraced_done && traced_from.is_none() {
            if !cfg.trace {
                break;
            }
            traced_from = Some(log.len());
        }
        if let Some(from) = traced_from {
            if log.len() >= from + SLICE && elapsed >= cfg.duration() {
                break;
            }
        }
        let s = picker.next();
        let from = sent[s];
        batch.clear();
        batch.extend(wrapped(&traces[s % runs], from, BATCH as u64));
        let t0 = Instant::now();
        client
            .send(stream_id(s), &batch)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let stats = client.stats(stream_id(s)).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        sent[s] += BATCH as u64;
        wall.check(stats.events == sent[s], || {
            format!(
                "stream {s}: stats report {} events, {} sent",
                stats.events, sent[s]
            )
        });
        last[s] = (stats.predictions, stats.mispredictions);
        log.push(Request {
            stream: s,
            from,
            start: t0,
            sent: t1,
            done: t2,
        });
        if log.len() == mix {
            prefix_counts = last
                .iter()
                .fold((0, 0), |acc, &(p, m)| (acc.0 + p, acc.1 + m));
        }
    }
    let untraced = &log[..traced_from.unwrap_or(log.len())];
    let mut receipts: Vec<StreamOutcome> = Vec::with_capacity(streams);
    for s in 0..streams {
        receipts.push(client.finish(stream_id(s)).map_err(|e| e.to_string())?);
    }
    let report = tear_down(Plant {
        traces: Vec::new(),
        server,
        client,
    })?;
    let rss = peak_rss_mib();

    // Reference: offline simulate_events over exactly the sent events.
    let order: Vec<usize> = (0..streams).collect();
    let mut expected: Vec<RunResult> = exec.map(&order, |_, &s| {
        KIND.simulate_events(ENTRIES, wrapped(&traces[s % runs], 0, sent[s]))
    });
    if cfg.corrupt_reference {
        expected[0] = crate::perturbed(&expected[0]);
    }
    for (s, (receipt, want)) in receipts.into_iter().zip(&expected).enumerate() {
        let ok = receipt.events_sent() == sent[s] && receipt.events() == sent[s];
        let got = receipt.into_run_result();
        wall.check(ok && got == *want, || {
            format!(
                "stream {s}: close receipt differs from offline simulate_events over its {} events",
                sent[s]
            )
        });
    }
    let mean_pct = 100.0 * prefix_counts.1 as f64 / prefix_counts.0.max(1) as f64;
    let mut notes = vec![
        format!(
            "{streams} PPM-hyb streams over {runs} stored runs ({decoded} events decoded per set-up), batch {BATCH}, \
             {} requests ({} traced), resident budget {} bytes",
            log.len(),
            log.len() - untraced.len(),
            BUDGET_PER_STREAM * streams as u64
        ),
        format!("prefix of {mix} requests: (predictions, mispredictions) = {prefix_counts:?}"),
        match pinned {
            Some(cpu) => format!("client and server threads pinned to CPU {cpu}"),
            None => "client and server threads not pinned (no CPU affinity here)".to_string(),
        },
    ];
    if cfg.seed == 0 && !cfg.quick && prefix_counts != PIN_SEED0 {
        wall.fail(format!(
            "seed-0 prefix counts {prefix_counts:?} differ from the pin {PIN_SEED0:?}"
        ));
    }
    let m = &report.metrics;
    notes.push(format!(
        "server: frames {}, spilled {}, restored {}, spill bytes {}, restore bytes {}, spill failures {}, backpressure {}, peak resident {} bytes",
        m.counter("serve_frames"),
        m.counter("serve_mux_spilled"),
        m.counter("serve_mux_restored"),
        m.counter("serve_spill_bytes"),
        m.counter("serve_restore_bytes"),
        m.counter("serve_spill_failures"),
        m.counter("serve_mux_backpressure"),
        m.maximum("serve_peak_resident_bytes"),
    ));
    let slice_eps = |reqs: &[Request]| -> Vec<f64> {
        reqs.chunks(SLICE)
            .filter(|c| c.len() == SLICE)
            .map(|c| {
                let secs = c[c.len() - 1].done.duration_since(c[0].start).as_secs_f64();
                (SLICE * BATCH) as f64 / secs
            })
            .collect()
    };
    let eps = slice_eps(untraced);

    if !cfg.trace {
        let lat_us: Vec<f64> = untraced
            .iter()
            .map(|r| r.done.duration_since(r.start).as_nanos() as f64 / 1e3)
            .collect();
        let mut values = BTreeMap::new();
        values.insert("events_per_s", Summary::of(&eps).ok_or("too few requests")?);
        values.insert("setup_s", Summary::of(&setup_times).ok_or("no set-up")?);
        values.insert("peak_rss_mib", Summary::single(rss));
        values.insert("mispredict_pct", Summary::single(mean_pct));
        values.insert(
            "req_p50_us",
            Summary::percentile(&lat_us, 50.0).ok_or("no requests")?,
        );
        // Each slice's p99 has ten samples beyond it; the median over
        // slices keeps a burst of host preemption in a few slices from
        // moving the whole figure.
        let slice_p99: Vec<f64> = lat_us
            .chunks(SLICE)
            .filter(|c| c.len() == SLICE)
            .filter_map(|c| Summary::percentile(c, 99.0).map(|s| s.value))
            .collect();
        values.insert(
            "req_p99_us",
            Summary::of(&slice_p99).ok_or("too few requests")?,
        );
        return Ok(Outcome {
            metrics: report::end_to_end(&values),
            wall,
            spans: None,
            notes,
        });
    }

    // Traced phase spans: one per request, with the client's send and
    // wait under it.
    let traced = &log[untraced.len()..];
    for r in traced {
        let root = spans.push("serve.request", None, r.start, r.done);
        spans.push("serve.client.send", Some(root), r.start, r.sent);
        spans.push("serve.client.wait", Some(root), r.sent, r.done);
    }
    let traced_eps = slice_eps(traced);

    // The core layer under the serve access pattern: replay every
    // request's batch, in request order, through one PPM-hyb per stream
    // in the simulator's loop (the tables go cache-cold between requests
    // as they do in the server). The sums must equal the receipts.
    let mut predictors: Vec<_> = (0..streams)
        .map(|_| KIND.build_with_entries(ENTRIES))
        .collect();
    let mut replayed = vec![(0u64, 0u64); streams];
    let sampler = Sampler::default();
    let r0 = Instant::now();
    for r in &log {
        let result = sampler.run(
            &mut *predictors[r.stream],
            wrapped(&traces[r.stream % runs], r.from, BATCH as u64),
        );
        replayed[r.stream].0 += result.predictions();
        replayed[r.stream].1 += result.mispredictions();
    }
    let replay = spans.push("core.replay", None, r0, Instant::now());
    let calls = sampler.calls();
    spans.attach(replay, &calls, &CallNames::new(&kind_prefix(KIND)));
    for (s, (got, want)) in replayed.iter().zip(&expected).enumerate() {
        wall.check(*got == (want.predictions(), want.mispredictions()), || {
            format!("stream {s}: traced replay differs from the untraced receipt")
        });
    }

    // The snapshot codec on these streams' sessions, as the serve plane
    // uses it: forks of a sealed base tier, saved and restored.
    let tier = BaseTier::warm(KIND, ENTRIES, TableEncoding::Plain, &[]);
    let (mut save_us, mut restore_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for s in (0..streams).filter(|&s| sent[s] > 0) {
        let mut session = tier.session();
        let events: Vec<BranchEvent> = wrapped(&traces[s % runs], 0, sent[s]).collect();
        session.step_counted(&events);
        let t0 = Instant::now();
        let blob = ibp_sim::snapshot_session(KIND, ENTRIES, TableEncoding::Plain, &*session);
        let t1 = Instant::now();
        let restored = tier.restore(&blob);
        let t2 = Instant::now();
        let save = spans.push("sim.snapshot.save", None, t0, t1);
        spans.push("sim.snapshot.restore", Some(save), t1, t2);
        save_us.push(t1.duration_since(t0).as_nanos() as f64 / 1e3);
        restore_us.push(t2.duration_since(t1).as_nanos() as f64 / 1e3);
        bytes.push(blob.len() as f64);
        let same = restored.is_ok_and(|r| r.run_result() == session.run_result());
        wall.check(same, || {
            format!("stream {s}: snapshot round trip changed the session")
        });
    }

    let mut layers = Layers::default();
    layers.set(
        "trace.decode_ns_per_event",
        decode_ns / decoded.max(1) as f64,
    );
    for call in ["predict", "update", "observe"] {
        let name = format!("{}.{call}", kind_prefix(KIND));
        if let Some(ns) = spans.sampled_mean_ns(&name) {
            layers.set(&format!("{name}_ns"), ns);
        }
    }
    if let Some(ns) = spans.sampled_mean_ns("sim.account") {
        layers.set("sim.account_ns", ns);
    }
    layers.set_summary("sim.snapshot.save_us", Summary::of(&save_us));
    layers.set_summary("sim.snapshot.restore_us", Summary::of(&restore_us));
    layers.set_summary("sim.snapshot.bytes", Summary::of(&bytes));
    let us = |name: &str| -> Vec<f64> { spans.durations(name).iter().map(|ns| ns / 1e3).collect() };
    layers.set_summary(
        "serve.client.send_us",
        Summary::of(&us("serve.client.send")),
    );
    layers.set_summary(
        "serve.client.wait_us",
        Summary::of(&us("serve.client.wait")),
    );
    layers.set("serve.frames", m.counter("serve_frames") as f64);
    layers.set("serve.mux_spilled", m.counter("serve_mux_spilled") as f64);
    layers.set("serve.mux_restored", m.counter("serve_mux_restored") as f64);
    layers.set(
        "serve.restore_frac",
        m.counter("serve_mux_restored") as f64 / log.len().max(1) as f64,
    );
    layers.set("serve.spill_bytes", m.counter("serve_spill_bytes") as f64);
    layers.set(
        "serve.restore_bytes",
        m.counter("serve_restore_bytes") as f64,
    );
    layers.set(
        "serve.spill_failures",
        m.counter("serve_spill_failures") as f64,
    );
    layers.set(
        "serve.mux_backpressure",
        m.counter("serve_mux_backpressure") as f64,
    );
    layers.set(
        "serve.peak_resident_bytes",
        m.maximum("serve_peak_resident_bytes") as f64,
    );
    report::finish_layers(
        &mut layers,
        calls.clock_ns(),
        &eps,
        &traced_eps,
        &spans.loop_coverage("core.replay"),
        &mut notes,
        &mut wall,
    );
    Ok(Outcome {
        metrics: layers.into_metrics(),
        wall,
        spans: Some(spans),
        notes,
    })
}
