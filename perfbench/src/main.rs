//! The flow-switch scheduler benchmark.
//!
//! ```text
//! perfbench --workload <steady|overload|serve-loopback|skewed-outage>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing wrapped;
//! `--trace 1` is the traced run that reports the per-layer metrics. Both
//! print one `name = value unit` line per metric, then a final JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. Every dispatch
//! stream goes through the checker; the exit code is non-zero when any
//! flow failed. See `README.md` beside this file for the workloads and
//! the layer-to-metric map.

mod check;
mod control;
mod engine;
mod inputs;
mod kernels;
mod serve;
mod util;

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use check::{check, Dispatch, Recount, Verdict};
use control::Control;
use engine::{run_pass, Feed, Mode, Traced};
use fss_sim::PolicyKind;
use inputs::{generate, Replica, Size, Workload};
use serve::{run_session, Session, Wire};
use util::{machine_stamp, peak_rss_mib, quantile, reset_peak_rss};

/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 11;

/// Least time each job gets per repetition, in seconds.
const MIN_JOB_S: f64 = 0.25;

const USAGE: &str = "usage: perfbench --workload <steady|overload|serve-loopback|skewed-outage> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The engine modes every workload runs in process.
const MODES: [Mode; 5] = [
    Mode::Incremental,
    Mode::MaxCard,
    Mode::MinRTime,
    Mode::MaxWeight,
    Mode::Cores2,
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", kv["workload"]))?;
    let seed = get("seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };
    if kv.len() != 4 {
        return Err("unknown flag".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A replica with everything its runs are checked against.
struct Prepared {
    rep: Replica,
    wire: Wire,
    /// The paced session sends the first `paced_n` arrivals.
    paced_n: usize,
    paced_wire: Wire,
    paced_reference: Vec<Dispatch>,
    /// In-process reference schedules, one per serve policy.
    references: BTreeMap<&'static str, Vec<Dispatch>>,
}

/// Checked-flow tally across every stream of the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, what: &str, v: &Verdict) {
        self.attempted += v.attempted;
        self.failed += v.failed;
        if let Some(e) = &v.first_error {
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

/// Per replica: the first pass's recount and a hash of its dispatch
/// stream (later passes must match both).
type Schedules = BTreeMap<usize, (Recount, u64)>;

/// What the passes of one engine mode accumulated.
#[derive(Default)]
struct EngineAcc {
    /// Flows, wall time and wall time at reference host speed (see
    /// [`control`]), summed over the untraced passes.
    flows: u64,
    wall_s: f64,
    ref_s: f64,
    recounts: Schedules,
    /// Streams kept for comparisons and the kernels.
    kept: BTreeMap<usize, Vec<Dispatch>>,
    traced: Traced,
    traced_wall_s: f64,
    traced_flows: u64,
    /// Per replica: the engine's work counters.
    counters: BTreeMap<usize, Vec<(String, u64)>>,
}

/// What the sessions of one serve configuration accumulated.
#[derive(Default)]
struct ServeAcc {
    flows: u64,
    wall_s: f64,
    ref_s: f64,
    recounts: Schedules,
    lags: Vec<f64>,
    gen_late: Vec<f64>,
    pauses: u64,
    blocked_s: f64,
    writer_s: f64,
}

struct Run {
    trace: bool,
    size: Size,
    control: Control,
    /// Reference seconds per wall second, one per job's turn.
    scales: Vec<f64>,
    replicas: Vec<Prepared>,
    tally: Tally,
    engine: BTreeMap<&'static str, EngineAcc>,
    serve: BTreeMap<&'static str, ServeAcc>,
}

/// Record replica `k`'s schedule, failing the stream if an earlier pass
/// over the same replica dispatched differently.
fn same_schedule(first: &mut Schedules, k: usize, stream: &[Dispatch], v: &mut Verdict) {
    let mut h = DefaultHasher::new();
    stream.hash(&mut h);
    let this = (v.recount, h.finish());
    match first.get(&k) {
        Some(f) if *f != this => {
            v.failed = v.attempted;
            v.first_error
                .get_or_insert_with(|| "schedule differs between repetitions".to_string());
        }
        Some(_) => {}
        None => {
            first.insert(k, this);
        }
    }
}

impl Run {
    /// One engine pass on replica `k`; returns its wall time when
    /// untraced, 0 when traced.
    fn engine_pass(&mut self, mode: Mode, k: usize, traced: bool) -> Result<f64, String> {
        let p = &self.replicas[k];
        let rep = &p.rep;
        let feed = match &rep.trace {
            Some(path) => Feed::File(path),
            None => Feed::Memory(&rep.arrivals),
        };
        // The failure plan applies to the policy modes; the incremental
        // drive has no outage path, so it replays the trace without one.
        let plan = mode.policy().and(rep.plan.as_ref());
        let n = rep.arrivals.len();
        let out = run_pass(mode, feed, inputs::PORTS, n, plan, traced)?;
        let mut v = check(inputs::PORTS, &rep.arrivals, plan, &out.stream);
        v.expect_stream_stats(&out.stats);
        if mode == Mode::Cores2 {
            // The pipelined engine must reproduce the sequential
            // incremental schedule exactly.
            if let Some(seq) = self.engine.get("incremental").and_then(|a| a.kept.get(&k)) {
                v.expect_equal(&out.stream, seq);
            }
        }
        let acc = self.engine.entry(mode.name()).or_default();
        same_schedule(&mut acc.recounts, k, &out.stream, &mut v);
        self.tally.add(mode.name(), &v);
        let untraced_s = match out.traced {
            None => {
                acc.flows += n as u64;
                acc.wall_s += out.wall_s;
                out.wall_s
            }
            Some(t) => {
                acc.traced_wall_s += out.wall_s;
                acc.traced_flows += n as u64;
                let a = &mut acc.traced;
                a.source_ns += t.source_ns;
                a.source_calls += t.source_calls;
                a.callback_ns += t.callback_ns;
                a.round_gaps_us.extend(t.round_gaps_us);
                for (sum, x) in a.stage_ns.iter_mut().zip(t.stage_ns) {
                    *sum += x;
                }
                a.rounds += t.rounds;
                acc.counters.entry(k).or_insert(t.counters);
                0.0
            }
        };
        if (mode == Mode::Incremental || k == 0) && !acc.kept.contains_key(&k) {
            acc.kept.insert(k, out.stream);
        }
        Ok(untraced_s)
    }

    /// One serve session on replica `k`: `mode` flat out, or the paced
    /// MaxCard session when `mode` is `None`. Returns its wall time.
    fn serve_session(&mut self, mode: Option<Mode>, k: usize) -> Result<f64, String> {
        let p = &self.replicas[k];
        let (key, session, wire, arrivals, reference) = match mode {
            None => (
                "paced",
                Session {
                    policy: PolicyKind::MaxCard,
                    cores: 1,
                    plan: p.rep.plan.clone(),
                    pace: Some(self.size.pace),
                },
                &p.paced_wire,
                &p.rep.arrivals[..p.paced_n],
                &p.paced_reference,
            ),
            Some(mode) => {
                let policy = mode.policy().unwrap_or(PolicyKind::MaxCard);
                let name = if mode == Mode::Cores2 {
                    "maxcard"
                } else {
                    mode.name()
                };
                (
                    mode.name(),
                    Session {
                        policy,
                        cores: if mode == Mode::Cores2 { 2 } else { 1 },
                        plan: p.rep.plan.clone(),
                        pace: None,
                    },
                    &p.wire,
                    &p.rep.arrivals[..],
                    &p.references[name],
                )
            }
        };
        let out = run_session(wire, &session)?;
        let mut v = check(inputs::PORTS, arrivals, session.plan.as_ref(), &out.stream);
        v.expect_serve_stats(&out.stats);
        v.expect_equal(&out.stream, reference);
        let acc = self.serve.entry(key).or_default();
        same_schedule(&mut acc.recounts, k, &out.stream, &mut v);
        self.tally.add(&format!("serve {key}"), &v);
        acc.flows += arrivals.len() as u64;
        acc.wall_s += out.wall_s;
        acc.lags.extend(out.lags_us);
        acc.gen_late.extend(out.gen_late_us);
        acc.pauses += out.stats.pauses;
        acc.blocked_s += out.write_blocked_s;
        acc.writer_s += out.writer_s;
        Ok(out.wall_s)
    }

    /// One repetition of every job the run measures, on replica `k`.
    /// Each job's turn repeats the job until it has run for
    /// [`MIN_JOB_S`], so the fast modes collect many more samples than
    /// the slow ones, and is bracketed by timings of the host-speed
    /// control that scale its untraced wall time to reference seconds.
    /// The traced run adds one paced session per replica for the lag
    /// metrics.
    fn rep(&mut self, k: usize, nth: usize) -> Result<(), String> {
        for mode in MODES {
            let flat = self.size.serve_flat && mode != Mode::Incremental && !self.trace;
            let before = self.control.unit_s();
            let mut wall_s = 0.0;
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < MIN_JOB_S {
                if self.trace {
                    // Alternate which side goes first, so drift hits both.
                    let order = if nth.is_multiple_of(2) {
                        [false, true]
                    } else {
                        [true, false]
                    };
                    for traced in order {
                        self.engine_pass(mode, k, traced)?;
                    }
                } else if flat {
                    wall_s += self.serve_session(Some(mode), k)?;
                } else {
                    wall_s += self.engine_pass(mode, k, false)?;
                }
            }
            let scale = control::scale((before + self.control.unit_s()) / 2.0);
            self.scales.push(scale);
            if flat {
                self.serve.entry(mode.name()).or_default().ref_s += wall_s * scale;
            } else {
                self.engine.entry(mode.name()).or_default().ref_s += wall_s * scale;
            }
        }
        if self.trace && self.size.serve_flat {
            self.serve_session(Some(Mode::MaxCard), k)?;
        }
        if self.trace && nth < self.replicas.len() {
            self.serve_session(None, k)?;
        }
        Ok(())
    }
}

/// Metric lines in print order, and figures printed only as comments.
#[derive(Default)]
struct Metrics {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!("perfbench-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|_| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let (metrics, tally) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine_stamp()
    );
    for (name, value, unit) in &metrics.metrics {
        println!("{name} = {value} {unit}");
    }
    for (name, value, unit) in &metrics.notes {
        println!("# {name} = {value} {unit}");
    }
    for e in &tally.errors {
        println!("# check failed: {e}");
    }
    let body: Vec<String> = metrics
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if tally.failed > 0 {
        std::process::exit(1);
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured
/// reads as -1 (and as NaN on its line above).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

fn run(args: &Args, work: &std::path::Path) -> Result<(Metrics, Tally), String> {
    let size = inputs::size(args.workload);
    let mut control = Control::new();

    // Set-up: generate the inputs several times; every generation must
    // be identical. Its time is read at reference host speed too, with
    // the control timed before and after.
    let before = control.unit_s();
    let mut setup_s = Vec::new();
    let mut replicas: Option<Vec<Replica>> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let fresh = generate(args.workload, args.seed, work)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(prev) = &replicas {
            let same = prev
                .iter()
                .zip(&fresh)
                .all(|(a, b)| a.arrivals == b.arrivals && a.plan == b.plan);
            if !same {
                return Err("input generation is not deterministic".to_string());
            }
        }
        replicas = Some(fresh);
    }
    let replicas = replicas.expect("SETUP_REPS > 0");
    let setup_scale = control::scale((before + control.unit_s()) / 2.0);

    // References for the serve streams (untimed).
    let prepared = replicas
        .into_iter()
        .map(|rep| {
            let paced_n = rep
                .arrivals
                .partition_point(|a| a.release < size.paced_rounds);
            let paced = &rep.arrivals[..paced_n];
            let plan = rep.plan.as_ref();
            let mut references = BTreeMap::new();
            if size.serve_flat {
                for mode in [Mode::MaxCard, Mode::MinRTime, Mode::MaxWeight] {
                    let policy = mode.policy().expect("policy mode");
                    let r = engine::reference(inputs::PORTS, &rep.arrivals, policy, plan);
                    references.insert(mode.name(), r);
                }
            }
            Prepared {
                wire: Wire::new(inputs::PORTS, &rep.arrivals),
                paced_wire: Wire::new(inputs::PORTS, paced),
                paced_reference: engine::reference(inputs::PORTS, paced, PolicyKind::MaxCard, plan),
                paced_n,
                references,
                rep,
            }
        })
        .collect();

    // Peak memory covers the measured run, not set-up.
    reset_peak_rss();
    let mut run = Run {
        trace: args.trace,
        size,
        control,
        scales: Vec::new(),
        replicas: prepared,
        tally: Tally::default(),
        engine: BTreeMap::new(),
        serve: BTreeMap::new(),
    };

    // Measurement: whole repetitions, cycling through the replicas,
    // until every replica ran and the next repetition would overrun
    // `--seconds`.
    let k_all = run.replicas.len();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    for nth in 0.. {
        let rep_start = Instant::now();
        run.rep(nth % k_all, nth)?;
        if nth + 1 >= k_all && start.elapsed() + rep_start.elapsed() > budget {
            break;
        }
    }

    let mut m = Metrics::default();
    let host_speed = quantile(&mut run.scales.clone(), 0.5);
    if args.trace {
        m.put("bench.host_speed", host_speed, "ratio");
        layer_metrics(&run, &mut m)?;
    } else {
        m.put("setup_s", quantile(&mut setup_s, 0.5) * setup_scale, "s");
        end_to_end_metrics(&run, &mut m);
        m.put("peak_rss_mib", peak_rss_mib(), "MiB");
        m.note("bench.host_speed", host_speed, "ratio");
    }
    Ok((m, run.tally))
}

/// Response-time objectives over a run's replicas: the mean response
/// over all their flows, and the mean of each replica's maximum.
fn objectives(recounts: &Schedules) -> (f64, f64) {
    let total: u128 = recounts.values().map(|(r, _)| r.total_response).sum();
    let flows: u64 = recounts.values().map(|(r, _)| r.dispatched).sum();
    let max_sum: u64 = recounts.values().map(|(r, _)| r.max_response).sum();
    (
        total as f64 / flows.max(1) as f64,
        max_sum as f64 / recounts.len().max(1) as f64,
    )
}

/// Flows per second at reference host speed, first, then on the wall
/// clock of this host.
fn end_to_end_metrics(run: &Run, m: &mut Metrics) {
    for mode in MODES {
        let name = mode.name();
        let (flows, ref_s, wall_s, recounts) = match run.serve.get(name) {
            Some(s) => (s.flows, s.ref_s, s.wall_s, &s.recounts),
            None => {
                let e = &run.engine[name];
                (e.flows, e.ref_s, e.wall_s, &e.recounts)
            }
        };
        m.put(format!("flows_per_s.{name}"), flows as f64 / ref_s, "1/s");
        m.note(
            format!("wall flows_per_s.{name}"),
            flows as f64 / wall_s,
            "1/s",
        );
        if mode == Mode::Cores2 {
            continue;
        }
        let (mean, max) = objectives(recounts);
        m.put(format!("mean_response.{name}"), mean, "rounds");
        if mode != Mode::MaxWeight {
            m.put(format!("max_response.{name}"), max, "rounds");
        }
    }
}

fn layer_metrics(run: &Run, m: &mut Metrics) -> Result<(), String> {
    let e = &run.engine;
    let mc = &e["maxcard"];
    m.put(
        "source.ns_per_flow",
        mc.traced.source_ns as f64 / mc.traced.source_calls.max(1) as f64,
        "ns",
    );
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for mode in MODES {
        let name = mode.name();
        let a = &e[name];
        let t = &a.traced;
        let wall_ns = a.traced_wall_s * 1e9;
        m.put(
            format!("engine.self_ns_per_flow.{name}"),
            (wall_ns - t.source_ns as f64 - t.callback_ns as f64) / a.traced_flows as f64,
            "ns",
        );
        let mut gaps = t.round_gaps_us.clone();
        gaps.sort_by(f64::total_cmp);
        m.put(
            format!("engine.round_p50_us.{name}"),
            util::quantile_sorted(&gaps, 0.5),
            "us",
        );
        m.put(
            format!("engine.round_p99_us.{name}"),
            util::quantile_sorted(&gaps, 0.99),
            "us",
        );
        let stage_sum: u64 = t.stage_ns.iter().sum();
        m.put(
            format!("stage.coverage.{name}"),
            stage_sum as f64 / wall_ns,
            "share",
        );
        // Time per flow, traced over untraced, from the same run.
        let traced_per_flow = a.traced_wall_s / a.traced_flows as f64;
        let untraced_per_flow = a.wall_s / a.flows as f64;
        m.put(
            format!("bench.trace_overhead.{name}"),
            traced_per_flow / untraced_per_flow,
            "ratio",
        );
        traced_s += traced_per_flow;
        untraced_s += untraced_per_flow;
        if mode == Mode::Cores2 {
            continue;
        }
        let active: u64 = a.recounts.values().map(|(r, _)| r.active_rounds).sum();
        let peak = a
            .recounts
            .values()
            .map(|(r, _)| r.peak_queue)
            .max()
            .unwrap_or(0);
        m.put(
            format!("engine.active_rounds.{name}"),
            active as f64,
            "count",
        );
        m.put(format!("engine.peak_queue.{name}"), peak as f64, "count");
        m.put(
            format!("stage.match_repair_ns_per_round.{name}"),
            t.stage_ns[2] as f64 / t.rounds.max(1) as f64,
            "ns",
        );
    }
    let t = &mc.traced;
    let per_round = |k: usize| t.stage_ns[k] as f64 / t.rounds.max(1) as f64;
    m.put("stage.ingest_ns_per_round", per_round(0), "ns");
    m.put("stage.queue_update_ns_per_round", per_round(1), "ns");
    m.put("stage.dispatch_ns_per_round", per_round(3), "ns");
    m.put("bench.trace_overhead", traced_s / untraced_s, "ratio");

    let counter = |mode: &str, name: &str| -> f64 {
        e[mode]
            .counters
            .values()
            .flatten()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
    };
    m.put(
        "matcher.searches",
        counter("incremental", "match_searches"),
        "count",
    );
    m.put(
        "matcher.augmentations",
        counter("incremental", "match_augmentations"),
        "count",
    );
    for mode in ["minrtime", "maxweight"] {
        m.put(
            format!("wmatcher.selects.{mode}"),
            counter(mode, "wmatch_selects"),
            "count",
        );
        m.put(
            format!("wmatcher.cells_touched.{mode}"),
            counter(mode, "wmatch_cells_touched"),
            "count",
        );
    }
    let rate = |a: &EngineAcc| a.flows as f64 / a.wall_s;
    m.put(
        "pipeline.speedup",
        rate(&e["cores2"]) / rate(&e["incremental"]),
        "ratio",
    );

    // Kernels, on replica 0's own logs.
    let p = &run.replicas[0];
    let arrivals = &p.rep.arrivals;
    let mc_stream = &mc.kept[&0];
    let k = kernels::matching(inputs::PORTS, arrivals, mc_stream);
    m.put("kernel.hk_us", k.hk_us, "us");
    m.put("kernel.hungarian_us", k.hungarian_us, "us");
    m.put("kernel.support_edges", k.support_edges, "count");
    let (push, pop) = kernels::queues(inputs::PORTS, arrivals, &e["incremental"].kept[&0])?;
    m.put("kernel.queue_push_ns", push, "ns");
    m.put("kernel.queue_pop_ns", pop, "ns");
    m.put(
        "serve.parse_ns_per_line",
        kernels::serve_parse_ns(p.wire.lines()),
        "ns",
    );
    m.put("serve.to_line_ns", kernels::to_line_ns(mc_stream), "ns");
    m.put(
        "trace.parse_ns_per_line",
        kernels::trace_parse_ns(p.wire.lines()),
        "ns",
    );

    // Port-rounds the outage plans masked within the MaxCard schedules.
    let masked: u64 = run
        .replicas
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let makespan = mc.recounts.get(&k).map_or(0, |(r, _)| r.makespan);
            p.rep.plan.as_ref().map_or(0, |plan| {
                plan.outages
                    .iter()
                    .map(|o| o.to.min(makespan).saturating_sub(o.from))
                    .sum::<u64>()
            })
        })
        .sum();
    m.put("outage.masked_port_rounds", masked as f64, "count");

    let paced = &run.serve["paced"];
    let flat = run.serve.get("maxcard").unwrap_or(paced);
    m.put("serve.pauses", flat.pauses as f64, "count");
    m.put(
        "serve.client_write_blocked_share",
        flat.blocked_s / flat.writer_s,
        "share",
    );
    let mut late = paced.gen_late.clone();
    m.put("serve.gen_late_p99_us", quantile(&mut late, 0.99), "us");
    let mut lags = paced.lags.clone();
    lags.sort_by(f64::total_cmp);
    m.put("lag_p50_us", util::quantile_sorted(&lags, 0.5), "us");
    m.put("lag_p99_us", util::quantile_sorted(&lags, 0.99), "us");
    m.put(
        "serve.lag_p999_us",
        util::quantile_sorted(&lags, 0.999),
        "us",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reordered_repetition_is_flagged() {
        let arrivals: Vec<fss_core::Arrival> = (0..2)
            .map(|i| fss_core::Arrival {
                id: i,
                release: 0,
                src: i as u32,
                dst: i as u32,
            })
            .collect();
        let first = vec![(0, 0, 0), (1, 0, 0)];
        // Same flows, rounds and aggregates; only the tie-break differs.
        let swapped = vec![(1, 0, 0), (0, 0, 0)];
        let mut seen = Schedules::new();
        let mut v = check(2, &arrivals, None, &first);
        same_schedule(&mut seen, 0, &first, &mut v);
        assert_eq!(v.failed, 0);
        let mut v = check(2, &arrivals, None, &swapped);
        assert_eq!(v.failed, 0, "the swapped stream is valid on its own");
        same_schedule(&mut seen, 0, &swapped, &mut v);
        assert_eq!(v.failed, 2);
    }
}
