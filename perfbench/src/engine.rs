//! In-process engine passes: one call into the engine's public run
//! functions per pass, timed from outside.
//!
//! Untraced passes only record the dispatch stream for the checker.
//! Traced passes also wrap the [`FlowSource`], time the `on_dispatch`
//! callback and stamp each round's first dispatch, and run with an
//! enabled [`EngineTelemetry`] for the stage timers and work counters.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fss_core::{Arrival, FailurePlan};
use fss_engine::{
    run_stream_cores, run_stream_telemetry, run_stream_with, EngineMode, EngineTelemetry,
    FlowSource, Stage, StreamStats,
};
use fss_sim::{run_source_telemetry, PolicyKind};
use fss_trace::StreamingTraceSource;

use crate::check::Dispatch;
use crate::inputs::VecSource;

/// The engine configurations the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Incremental,
    MaxCard,
    MinRTime,
    MaxWeight,
    /// Incremental through the pipelined engine on two cores.
    Cores2,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Incremental => "incremental",
            Mode::MaxCard => "maxcard",
            Mode::MinRTime => "minrtime",
            Mode::MaxWeight => "maxweight",
            Mode::Cores2 => "cores2",
        }
    }

    pub fn policy(self) -> Option<PolicyKind> {
        match self {
            Mode::MaxCard => Some(PolicyKind::MaxCard),
            Mode::MinRTime => Some(PolicyKind::MinRTime),
            Mode::MaxWeight => Some(PolicyKind::MaxWeight),
            Mode::Incremental | Mode::Cores2 => None,
        }
    }

    fn engine_mode(self) -> EngineMode {
        match self.policy() {
            Some(p) => EngineMode::Exact(p.to_engine()),
            None => EngineMode::Incremental,
        }
    }
}

/// Where a pass reads its arrivals from.
#[derive(Clone, Copy)]
pub enum Feed<'a> {
    Memory(&'a Arc<Vec<Arrival>>),
    File(&'a Path),
}

/// What one traced pass saw from outside the engine.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Time spent inside `FlowSource::next_arrival`, and its calls.
    pub source_ns: u64,
    pub source_calls: u64,
    /// Time spent inside the `on_dispatch` callback.
    pub callback_ns: u64,
    /// Gaps between consecutive rounds' first dispatches, in µs.
    pub round_gaps_us: Vec<f64>,
    /// Stage totals (ingest, queue_update, match_repair, dispatch) and
    /// rounds, from the engine's telemetry snapshot.
    pub stage_ns: [u64; 4],
    pub rounds: u64,
    pub counters: Vec<(String, u64)>,
}

/// One pass's result.
pub struct PassOut {
    pub wall_s: f64,
    pub stats: StreamStats,
    pub stream: Vec<Dispatch>,
    pub traced: Option<Traced>,
}

/// A [`FlowSource`] wrapper that times every pull and reports its
/// totals into a shared cell when the engine drops it (every run
/// function takes its source by value).
struct TimedSource<S> {
    inner: S,
    ns: u64,
    calls: u64,
    cell: Arc<Mutex<(u64, u64)>>,
}

impl<S: FlowSource> FlowSource for TimedSource<S> {
    fn m_in(&self) -> usize {
        self.inner.m_in()
    }

    fn m_out(&self) -> usize {
        self.inner.m_out()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let t = Instant::now();
        let a = self.inner.next_arrival();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        a
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

impl<S> Drop for TimedSource<S> {
    fn drop(&mut self) {
        if let Ok(mut c) = self.cell.lock() {
            *c = (self.ns, self.calls);
        }
    }
}

/// Run `mode` once over `feed` (`m x m` switch), under `plan` when given
/// (MaxCard, MinRTime and MaxWeight only: the failure drive serves
/// `OnlinePolicy`s).
pub fn run_pass(
    mode: Mode,
    feed: Feed<'_>,
    m: usize,
    n: usize,
    plan: Option<&FailurePlan>,
    traced: bool,
) -> Result<PassOut, String> {
    let start = Instant::now();
    let out = match feed {
        Feed::Memory(arrivals) => drive(mode, VecSource::new(m, arrivals), n, plan, traced),
        Feed::File(path) => {
            let src = StreamingTraceSource::open(path).map_err(|e| e.to_string())?;
            let errors = src.error_handle();
            let out = drive(mode, src, n, plan, traced);
            if let Some(e) = errors.get() {
                return Err(format!("trace replay failed: {e}"));
            }
            out
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    out.map(|(stats, stream, traced)| PassOut {
        wall_s,
        stats,
        stream,
        traced,
    })
}

type DriveOut = (StreamStats, Vec<Dispatch>, Option<Traced>);

fn drive<S: FlowSource + Send + 'static>(
    mode: Mode,
    source: S,
    n: usize,
    plan: Option<&FailurePlan>,
    traced: bool,
) -> Result<DriveOut, String> {
    let mut stream: Vec<Dispatch> = Vec::with_capacity(n);
    if !traced {
        let stats = match (plan, mode) {
            (Some(plan), _) => {
                let policy = mode.policy().ok_or("outage plans need a policy mode")?;
                let mut tele = EngineTelemetry::disabled();
                run_source_telemetry(
                    Box::new(source),
                    policy,
                    Some(plan),
                    &mut tele,
                    |i, r, t| stream.push((i, r, t)),
                )
            }
            (None, Mode::Cores2) => run_stream_cores(
                source,
                EngineMode::Incremental,
                2,
                &mut EngineTelemetry::disabled(),
                |i, r, t| stream.push((i, r, t)),
            ),
            (None, _) => {
                run_stream_with(source, mode.engine_mode(), |i, r, t| stream.push((i, r, t)))
            }
        };
        return Ok((stats, stream, None));
    }

    let cell = Arc::new(Mutex::new((0u64, 0u64)));
    let source = TimedSource {
        inner: source,
        ns: 0,
        calls: 0,
        cell: Arc::clone(&cell),
    };
    let mut tele = EngineTelemetry::enabled();
    let mut callback_ns = 0u64;
    let mut firsts: Vec<Instant> = Vec::new();
    let mut last_round = u64::MAX;
    let on_dispatch = |i: u64, r: u64, t: u64| {
        let t0 = Instant::now();
        if t != last_round {
            firsts.push(t0);
            last_round = t;
        }
        stream.push((i, r, t));
        callback_ns += t0.elapsed().as_nanos() as u64;
    };
    let stats = match (plan, mode) {
        (Some(plan), _) => {
            let policy = mode.policy().ok_or("outage plans need a policy mode")?;
            run_source_telemetry(Box::new(source), policy, Some(plan), &mut tele, on_dispatch)
        }
        (None, Mode::Cores2) => {
            run_stream_cores(source, EngineMode::Incremental, 2, &mut tele, on_dispatch)
        }
        (None, _) => run_stream_telemetry(source, mode.engine_mode(), &mut tele, on_dispatch),
    };
    let (source_ns, source_calls) = *cell.lock().expect("timer cell");
    let round_gaps_us = firsts
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
        .collect();
    let snap = tele.snapshot();
    let t = Traced {
        source_ns,
        source_calls,
        callback_ns,
        round_gaps_us,
        stage_ns: Stage::ALL.map(|s| tele.stage_ns(s)),
        rounds: tele.rounds(),
        counters: snap.counters.clone(),
    };
    Ok((stats, stream, Some(t)))
}

/// The in-process reference schedule of `policy` over `arrivals`,
/// through `fss_sim::run_source_telemetry` (the dispatch core a serve
/// session drives).
pub fn reference(
    m: usize,
    arrivals: &[Arrival],
    policy: PolicyKind,
    plan: Option<&FailurePlan>,
) -> Vec<Dispatch> {
    let mut stream = Vec::with_capacity(arrivals.len());
    let source = VecSource::new(m, &Arc::new(arrivals.to_vec()));
    run_source_telemetry(
        Box::new(source),
        policy,
        plan,
        &mut EngineTelemetry::disabled(),
        |i, r, t| stream.push((i, r, t)),
    );
    stream
}
