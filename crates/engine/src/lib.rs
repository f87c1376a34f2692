//! # fss-engine — event-driven incremental scheduling engine
//!
//! The paper's experiments (§5.2.1, Figures 6–7) stress an `m x m` switch
//! with Poisson arrivals up to `M = 4m`. The reference runner
//! ([`fss_online::run_policy`]) advances round by round, rebuilds the
//! waiting graph, and re-solves a matching from a cold start every round —
//! even though per-round change is sparse (a few arrivals, at most `m`
//! departures). This crate is the event-driven, incremental replacement on
//! that hot path:
//!
//! * [`events`] — a calendar/event queue: the simulation jumps between
//!   arrival and dispatch events instead of ticking `t += 1`, so idle
//!   rounds are never visited;
//! * [`source`] — the [`FlowSource`] streaming-arrival trait with a batch
//!   [`Instance`] adapter and an unbounded Poisson generator, so
//!   workloads no longer need to be materialized up front;
//! * [`queue`] — per-port sharded queue state (cell-FIFO slab) sized for
//!   `m = 150`, `M = 4m` and beyond;
//! * [`matcher`] — an [`IncrementalMatcher`] that maintains a maximum
//!   matching of the waiting *support graph* across rounds and repairs it
//!   with augmenting paths rooted only at ports dirtied by
//!   arrivals/departures;
//! * [`wmatcher`] — the weighted sibling: an
//!   [`IncrementalWeightedMatcher`] that carries Hungarian dual
//!   potentials and the max-weight assignment across rounds for the
//!   MinRTime/MaxWeight policies, re-solving only rows dirtied by
//!   arrivals, dispatches, and outage windows (the batch Hungarian stays
//!   as the differential-test oracle);
//! * [`exact`] — an exact-parity core reproducing the legacy runner's
//!   decisions round-for-round (differentially tested), with a
//!   dedup-compressed Hopcroft–Karp fast path for MaxCard over a support
//!   adjacency maintained across rounds.
//!
//! ## Entry points
//!
//! * [`run_policy`] / [`run_builtin`] — drop-in replacements for the
//!   legacy loop on a batch [`Instance`]; schedules are round-for-round
//!   identical to [`fss_online::run_policy`]'s (the legacy loop stays
//!   available as the reference implementation for differential testing).
//! * [`run_incremental`] — the incremental matcher on a batch instance:
//!   every round dispatches a *maximum* matching of its waiting graph
//!   (the MaxCard equivalence class), chosen oldest-first within a cell.
//! * [`run_stream`] — drive any [`FlowSource`] (bounded or endless) and
//!   collect [`StreamStats`] in `O(peak queue)` memory.

#![deny(missing_docs)]

pub mod events;
pub mod exact;
pub mod matcher;
pub mod outage;
pub mod pipeline;
pub mod queue;
pub mod source;
pub mod stream;
pub mod wmatcher;

use fss_core::prelude::*;
use fss_online::{FifoGreedy, OnlinePolicy, WeightModel};

pub use events::{EventKind, EventQueue};
pub use fss_telemetry::{EngineTelemetry, Stage};
pub use matcher::IncrementalMatcher;
pub use pipeline::{run_failures_cores, run_stream_cores, run_weighted_cores, Frontier};
pub use queue::{CellAgg, QueueView, ShardedQueues};
pub use source::{poisson, Arrival, ChannelSource, FlowSource, InstanceSource, PoissonSource};
pub use stream::StreamStats;
pub use wmatcher::IncrementalWeightedMatcher;

use exact::Selector;

/// The built-in round policies the engine can run with fast paths /
/// shared policy code (mirrors `fss_sim::PolicyKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinPolicy {
    /// Maximum-cardinality matching (dedup-compressed Hopcroft–Karp).
    MaxCard,
    /// Max-weight matching, weight = waiting time.
    MinRTime,
    /// Max-weight matching, weight = endpoint queue sizes.
    MaxWeight,
    /// Oldest-first greedy baseline.
    FifoGreedy,
}

impl BuiltinPolicy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BuiltinPolicy::MaxCard => "MaxCard",
            BuiltinPolicy::MinRTime => "MinRTime",
            BuiltinPolicy::MaxWeight => "MaxWeight",
            BuiltinPolicy::FifoGreedy => "FifoGreedy",
        }
    }

    /// Parse a CLI-style name (`maxcard`, `minrtime`, `maxweight`, `fifo`).
    pub fn parse(s: &str) -> Option<BuiltinPolicy> {
        match s {
            "maxcard" => Some(BuiltinPolicy::MaxCard),
            "minrtime" => Some(BuiltinPolicy::MinRTime),
            "maxweight" => Some(BuiltinPolicy::MaxWeight),
            "fifo" | "fifogreedy" => Some(BuiltinPolicy::FifoGreedy),
            _ => None,
        }
    }

    /// The weight model of this policy's cell graph, when it is one of
    /// the weighted heuristics (the engine's incremental-weighted drive
    /// covers exactly these).
    pub fn weight_model(self) -> Option<WeightModel> {
        match self {
            BuiltinPolicy::MinRTime => Some(WeightModel::MinRTime),
            BuiltinPolicy::MaxWeight => Some(WeightModel::MaxWeight),
            BuiltinPolicy::MaxCard | BuiltinPolicy::FifoGreedy => None,
        }
    }
}

/// How [`run_stream`] extracts each round's dispatch set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Exact-parity execution of a built-in policy.
    Exact(BuiltinPolicy),
    /// The incremental support-graph matcher (MaxCard-equivalent
    /// cardinality, fastest mode).
    Incremental,
}

fn assert_unit(inst: &Instance) {
    assert!(
        inst.switch.is_unit_capacity(),
        "engine requires unit capacities"
    );
    assert!(inst.is_unit_demand(), "engine requires unit demands");
}

fn run_selector(
    inst: &Instance,
    selector: &mut Selector<'_>,
    tele: &mut EngineTelemetry,
) -> Schedule {
    assert_unit(inst);
    let mut rounds = vec![0u64; inst.n()];
    stream::drive_exact(
        InstanceSource::new(inst),
        selector,
        tele,
        |id, _release, round| {
            rounds[id as usize] = round;
        },
    );
    let sched = Schedule::from_rounds(rounds);
    debug_assert!(validate::check(inst, &sched, &inst.switch).is_ok());
    sched
}

/// Run any [`OnlinePolicy`] over a batch instance through the engine.
/// The schedule is round-for-round identical to
/// [`fss_online::run_policy`]'s (same queue discipline, same policy code).
pub fn run_policy<P: OnlinePolicy>(inst: &Instance, policy: &mut P) -> Schedule {
    run_policy_telemetry(inst, policy, &mut EngineTelemetry::disabled())
}

/// [`run_policy`] recording stage timings and decision latencies into
/// `tele`. The schedule is identical to [`run_policy`]'s — the
/// instrumentation observes, never steers (differentially tested).
pub fn run_policy_telemetry<P: OnlinePolicy>(
    inst: &Instance,
    policy: &mut P,
    tele: &mut EngineTelemetry,
) -> Schedule {
    run_selector(inst, &mut Selector::Policy(policy), tele)
}

/// Run a built-in policy over a batch instance through the engine,
/// using the MaxCard and incremental-weighted fast paths where they
/// apply.
pub fn run_builtin(inst: &Instance, policy: BuiltinPolicy) -> Schedule {
    run_builtin_telemetry(inst, policy, &mut EngineTelemetry::disabled())
}

/// [`run_builtin`] recording stage timings and decision latencies into
/// `tele`; the schedule is identical to [`run_builtin`]'s.
pub fn run_builtin_telemetry(
    inst: &Instance,
    policy: BuiltinPolicy,
    tele: &mut EngineTelemetry,
) -> Schedule {
    match policy {
        BuiltinPolicy::MaxCard => run_selector(inst, &mut Selector::MaxCard, tele),
        BuiltinPolicy::MinRTime => run_weighted_telemetry(inst, WeightModel::MinRTime, tele),
        BuiltinPolicy::MaxWeight => run_weighted_telemetry(inst, WeightModel::MaxWeight, tele),
        BuiltinPolicy::FifoGreedy => run_policy_telemetry(inst, &mut FifoGreedy::default(), tele),
    }
}

/// Run a weighted cell model over a batch instance through the
/// incremental-weighted drive ([`wmatcher`]). For the built-in models
/// this produces the same schedule as [`run_policy`] with the matching
/// `fss_online` policy — round-for-round (differentially tested) — while
/// repairing the weighted matching incrementally instead of re-solving
/// it per round.
pub fn run_weighted(inst: &Instance, model: WeightModel) -> Schedule {
    run_weighted_telemetry(inst, model, &mut EngineTelemetry::disabled())
}

/// [`run_weighted`] recording stage timings and decision latencies into
/// `tele`; the schedule is identical to [`run_weighted`]'s.
pub fn run_weighted_telemetry(
    inst: &Instance,
    model: WeightModel,
    tele: &mut EngineTelemetry,
) -> Schedule {
    assert_unit(inst);
    let mut rounds = vec![0u64; inst.n()];
    stream::drive_weighted(
        InstanceSource::new(inst),
        model,
        tele,
        |id, _release, round| {
            rounds[id as usize] = round;
        },
    );
    let sched = Schedule::from_rounds(rounds);
    debug_assert!(validate::check(inst, &sched, &inst.switch).is_ok());
    sched
}

/// Run the incremental matcher over a batch instance. Every round
/// dispatches a maximum matching of that round's waiting graph (the
/// MaxCard equivalence class; a specific MaxCard run may break ties
/// differently, after which the two trajectories legitimately diverge).
/// Within a matched cell the oldest flow is dispatched first.
pub fn run_incremental(inst: &Instance) -> Schedule {
    assert_unit(inst);
    let mut rounds = vec![0u64; inst.n()];
    stream::drive_incremental(
        InstanceSource::new(inst),
        &mut EngineTelemetry::disabled(),
        |id, _release, round| {
            rounds[id as usize] = round;
        },
    );
    let sched = Schedule::from_rounds(rounds);
    debug_assert!(validate::check(inst, &sched, &inst.switch).is_ok());
    sched
}

/// Drive an arbitrary [`FlowSource`] (bounded or endless) and return the
/// aggregate statistics. Memory stays `O(peak queue)` regardless of
/// stream length.
pub fn run_stream<S: FlowSource>(source: S, mode: EngineMode) -> StreamStats {
    run_stream_with(source, mode, |_, _, _| {})
}

/// [`run_stream`] with a per-dispatch callback: `on_dispatch(id, release,
/// round)` fires once per flow, in dispatch order. This is how callers
/// that need the full schedule (rather than aggregate statistics) consume
/// a streaming run.
pub fn run_stream_with<S: FlowSource>(
    source: S,
    mode: EngineMode,
    on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    run_stream_telemetry(source, mode, &mut EngineTelemetry::disabled(), on_dispatch)
}

/// [`run_stream_with`] recording per-stage timings and the per-round
/// decision-latency histogram into `tele`. The dispatch sequence is
/// identical to an uninstrumented run's — telemetry observes, never
/// steers — and a handle built with [`EngineTelemetry::disabled`]
/// reduces every instrumentation point to one branch.
pub fn run_stream_telemetry<S: FlowSource>(
    source: S,
    mode: EngineMode,
    tele: &mut EngineTelemetry,
    on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    match mode {
        EngineMode::Incremental => stream::drive_incremental(source, tele, on_dispatch),
        EngineMode::Exact(BuiltinPolicy::MaxCard) => {
            stream::drive_exact(source, &mut Selector::MaxCard, tele, on_dispatch)
        }
        EngineMode::Exact(BuiltinPolicy::MinRTime) => {
            stream::drive_weighted(source, WeightModel::MinRTime, tele, on_dispatch)
        }
        EngineMode::Exact(BuiltinPolicy::MaxWeight) => {
            stream::drive_weighted(source, WeightModel::MaxWeight, tele, on_dispatch)
        }
        EngineMode::Exact(BuiltinPolicy::FifoGreedy) => {
            let mut p = FifoGreedy::default();
            stream::drive_exact(source, &mut Selector::Policy(&mut p), tele, on_dispatch)
        }
    }
}

/// Drive a [`FlowSource`] through `policy` while a [`FailurePlan`] takes
/// ports down and back up (see [`outage`]). Aggregate statistics only;
/// use [`run_stream_failures_with`] to observe the schedule.
pub fn run_stream_failures<S: FlowSource, P: OnlinePolicy + ?Sized>(
    source: S,
    policy: &mut P,
    plan: &FailurePlan,
) -> StreamStats {
    run_stream_failures_with(source, policy, plan, |_, _, _| {})
}

/// [`run_stream_failures`] with a per-dispatch callback
/// (`on_dispatch(id, release, round)`, once per flow in dispatch order).
/// Schedules are round-for-round identical to the legacy batch failure
/// runner's on the same arrivals.
pub fn run_stream_failures_with<S: FlowSource, P: OnlinePolicy + ?Sized>(
    source: S,
    policy: &mut P,
    plan: &FailurePlan,
    on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    outage::drive_failures(
        source,
        policy,
        plan,
        &mut EngineTelemetry::disabled(),
        on_dispatch,
    )
}

/// [`run_stream_failures_with`] recording stage timings and decision
/// latencies into `tele`; the schedule is identical to an
/// uninstrumented run's.
pub fn run_stream_failures_telemetry<S: FlowSource, P: OnlinePolicy + ?Sized>(
    source: S,
    policy: &mut P,
    plan: &FailurePlan,
    tele: &mut EngineTelemetry,
    on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    outage::drive_failures(source, policy, plan, tele, on_dispatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_core::gen::{random_instance, GenParams};
    use rand::{rngs::SmallRng, SeedableRng};

    fn random_unit(seed: u64, m: usize, n: usize, rel: u64) -> Instance {
        let mut rng = SmallRng::seed_from_u64(seed);
        random_instance(&mut rng, &GenParams::unit(m, n, rel))
    }

    #[test]
    fn engine_matches_legacy_for_all_builtins() {
        for seed in 0..8 {
            let inst = random_unit(seed, 5, 40, 10);
            for b in [
                BuiltinPolicy::MaxCard,
                BuiltinPolicy::MinRTime,
                BuiltinPolicy::MaxWeight,
                BuiltinPolicy::FifoGreedy,
            ] {
                let engine = run_builtin(&inst, b);
                let legacy = match b {
                    BuiltinPolicy::MaxCard => {
                        fss_online::run_policy(&inst, &mut fss_online::MaxCard::default())
                    }
                    BuiltinPolicy::MinRTime => {
                        fss_online::run_policy(&inst, &mut fss_online::MinRTime::default())
                    }
                    BuiltinPolicy::MaxWeight => {
                        fss_online::run_policy(&inst, &mut fss_online::MaxWeight::default())
                    }
                    BuiltinPolicy::FifoGreedy => {
                        fss_online::run_policy(&inst, &mut FifoGreedy::default())
                    }
                };
                assert_eq!(engine, legacy, "policy {} seed {seed}", b.name());
            }
        }
    }

    #[test]
    fn custom_policies_also_match_legacy() {
        let inst = random_unit(3, 4, 30, 8);
        let engine = run_policy(&inst, &mut fss_online::AgedMaxWeight::new(0.7));
        let legacy = fss_online::run_policy(&inst, &mut fss_online::AgedMaxWeight::new(0.7));
        assert_eq!(engine, legacy);
    }

    #[test]
    fn incremental_dispatches_a_maximum_matching_every_round() {
        // Replay each incremental schedule round by round and check the
        // dispatched set has maximum cardinality for *that* round's
        // waiting graph (the MaxCard equivalence class — the defining
        // property of the incremental matcher).
        use fss_matching::{max_cardinality_matching, BipartiteGraph};
        for seed in 0..8 {
            let inst = random_unit(100 + seed, 6, 60, 12);
            let inc = run_incremental(&inst);
            validate::check(&inst, &inc, &inst.switch).unwrap();
            let horizon = inc.makespan();
            for t in 0..horizon {
                let mut g = BipartiteGraph::new(6, 6);
                let mut dispatched = 0usize;
                let mut any_waiting = false;
                for (i, f) in inst.flows.iter().enumerate() {
                    let run = inc.rounds()[i];
                    if f.release <= t && run >= t {
                        g.add_edge(f.src, f.dst);
                        any_waiting = true;
                    }
                    if run == t {
                        dispatched += 1;
                    }
                }
                if any_waiting {
                    assert_eq!(
                        dispatched,
                        max_cardinality_matching(&g).len(),
                        "seed {seed}, round {t}: dispatch not maximum"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new(Switch::uniform(3, 3, 1))
            .build()
            .unwrap();
        assert!(run_builtin(&inst, BuiltinPolicy::MaxCard).is_empty());
        assert!(run_incremental(&inst).is_empty());
    }

    #[test]
    #[should_panic(expected = "unit capacities")]
    fn non_unit_capacity_rejected() {
        let inst = InstanceBuilder::new(Switch::uniform(2, 2, 3))
            .build()
            .unwrap();
        let _ = run_builtin(&inst, BuiltinPolicy::MaxCard);
    }

    #[test]
    fn stream_mode_agrees_with_batch_metrics() {
        // Same Poisson workload, once streamed, once materialized and run
        // through the batch path: identical aggregate response stats.
        let (m, rate, rounds, seed) = (8usize, 6.0, 25u64, 9u64);
        let stats = run_stream(
            PoissonSource::new(m, rate, Some(rounds), seed),
            EngineMode::Exact(BuiltinPolicy::MaxCard),
        );
        let mut src = PoissonSource::new(m, rate, Some(rounds), seed);
        let mut b = InstanceBuilder::new(Switch::uniform(m, m, 1));
        while let Some(a) = src.next_arrival() {
            b.unit_flow(a.src, a.dst, a.release);
        }
        let inst = b.build().unwrap();
        let sched = run_builtin(&inst, BuiltinPolicy::MaxCard);
        let met = fss_core::metrics::evaluate(&inst, &sched);
        assert_eq!(stats.dispatched as usize, met.n);
        assert_eq!(stats.total_response, u128::from(met.total_response));
        assert_eq!(stats.max_response, met.max_response);
        assert_eq!(stats.makespan, met.makespan);
    }

    #[test]
    fn incremental_stream_matches_incremental_batch() {
        // Streamed and materialized runs of the same workload execute the
        // identical algorithm, so their statistics must coincide exactly.
        let (m, rate, rounds, seed) = (10usize, 12.0, 20u64, 21u64);
        let streamed = run_stream(
            PoissonSource::new(m, rate, Some(rounds), seed),
            EngineMode::Incremental,
        );
        let mut src = PoissonSource::new(m, rate, Some(rounds), seed);
        let mut b = InstanceBuilder::new(Switch::uniform(m, m, 1));
        while let Some(a) = src.next_arrival() {
            b.unit_flow(a.src, a.dst, a.release);
        }
        let inst = b.build().unwrap();
        let sched = run_incremental(&inst);
        let met = fss_core::metrics::evaluate(&inst, &sched);
        assert_eq!(streamed.dispatched as usize, met.n);
        assert_eq!(streamed.total_response, u128::from(met.total_response));
        assert_eq!(streamed.max_response, met.max_response);
        assert_eq!(streamed.makespan, met.makespan);
    }
}
