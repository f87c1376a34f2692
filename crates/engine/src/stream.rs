//! The drive loops: event-driven execution of a [`FlowSource`] through
//! either the exact-parity core or the incremental matcher, plus the
//! streaming statistics both emit.

use crate::events::{EventKind, EventQueue};
use crate::exact::{ExactCore, Selector};
use crate::matcher::IncrementalMatcher;
use crate::queue::ShardedQueues;
use crate::source::FlowSource;
use crate::wmatcher::IncrementalWeightedMatcher;
use fss_online::WeightModel;
use fss_telemetry::{span, EngineTelemetry, Stage};

/// Fold a finished run's aggregate counters into the telemetry handle
/// (cold path, once per drive).
pub(crate) fn finish_telemetry(tele: &mut EngineTelemetry, stats: &StreamStats) {
    tele.counter_add("flows_arrived", stats.arrived);
    tele.counter_add("flows_dispatched", stats.dispatched);
    tele.counter_add("active_rounds", stats.active_rounds);
    tele.gauge_max("peak_queue_depth", stats.peak_queue as u64);
}

/// Aggregate statistics of one engine run (streaming-friendly: `O(1)`
/// memory, updated at dispatch time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Flows ingested from the source.
    pub arrived: u64,
    /// Flows dispatched (equals `arrived` after a drained bounded run).
    pub dispatched: u64,
    /// Sum of response times `rho_e = (round + 1) - release`.
    pub total_response: u128,
    /// Largest response time.
    pub max_response: u64,
    /// One past the last dispatch round.
    pub makespan: u64,
    /// Rounds in which at least one flow was dispatched (the event loop
    /// never visits idle rounds, so this is also the rounds *simulated*,
    /// up to empty-selection rounds of degenerate custom policies).
    pub active_rounds: u64,
    /// Largest waiting-queue length observed at a round boundary.
    pub peak_queue: usize,
}

impl StreamStats {
    /// Mean response time over dispatched flows (0 when none).
    pub fn mean_response(&self) -> f64 {
        if self.dispatched == 0 {
            0.0
        } else {
            self.total_response as f64 / self.dispatched as f64
        }
    }

    /// Count one dispatch. Saturating at `u64::MAX`: a flow released at
    /// the last representable round still gets `makespan` `u64::MAX`
    /// and response 1, never a wrapped 0.
    pub(crate) fn on_dispatch(&mut self, release: u64, round: u64) {
        let rho = round.saturating_sub(release).saturating_add(1);
        self.dispatched += 1;
        self.total_response += u128::from(rho);
        self.max_response = self.max_response.max(rho);
        self.makespan = round.saturating_add(1);
    }
}

/// Exact-parity drive: legacy-identical schedules (see [`crate::exact`]).
/// `on_dispatch(id, release, round)` fires once per flow.
pub(crate) fn drive_exact<S: FlowSource>(
    mut source: S,
    selector: &mut Selector<'_>,
    tele: &mut EngineTelemetry,
    mut on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    let (m_in, m_out) = (source.m_in(), source.m_out());
    let mut core = ExactCore::new(m_in, m_out);
    let mut stats = StreamStats::default();
    let mut events = EventQueue::new();
    let mut pending = source.next_arrival();
    let mut arrival_scheduled = None;
    if let Some(a) = &pending {
        events.push(a.release, EventKind::Arrival);
        arrival_scheduled = Some(a.release);
    }
    while let Some(t) = events.pop_round() {
        tele.flight_round(t);
        // Ingest every arrival released by round `t` (the event queue may
        // have jumped over several release rounds while the queue drained).
        span!(tele, Stage::Ingest, {
            while let Some(a) = pending {
                if a.release > t {
                    break;
                }
                debug_assert!(
                    u32::try_from(a.id).is_ok(),
                    "exact mode addresses flows as u32 ids"
                );
                core.push_waiting(a.id as u32, a.src, a.dst, a.release);
                stats.arrived += 1;
                pending = source.next_arrival();
                debug_assert!(
                    pending.is_none_or(|n| n.release >= a.release),
                    "FlowSource contract: releases must be nondecreasing"
                );
            }
            if let Some(a) = &pending {
                if arrival_scheduled != Some(a.release) {
                    events.push(a.release, EventKind::Arrival);
                    arrival_scheduled = Some(a.release);
                }
            }
        });
        stats.peak_queue = stats.peak_queue.max(core.waiting().len());
        if core.waiting().is_empty() {
            continue;
        }
        tele.decision(|| core.select(t, selector));
        if !core.selection.is_empty() {
            stats.active_rounds += 1;
        }
        span!(tele, Stage::Dispatch, {
            for i in 0..core.selection.len() {
                let w = core.waiting()[core.selection[i]];
                stats.on_dispatch(w.release, t);
                on_dispatch(u64::from(w.id.0), w.release, t);
            }
        });
        span!(tele, Stage::QueueUpdate, {
            core.remove_selection();
        });
        if !core.waiting().is_empty() {
            events.push(t + 1, EventKind::Dispatch);
        }
        tele.round();
    }
    tele.flight_round_finish();
    finish_telemetry(tele, &stats);
    stats
}

/// Incremental drive: maintains the support-graph maximum matching across
/// rounds ([`crate::matcher`]) and dispatches the oldest flow of each
/// matched cell. Every round's dispatch set is a *maximum* matching of
/// that round's waiting graph — the MaxCard equivalence class. A specific
/// MaxCard run may break ties between equally maximum matchings
/// differently, after which the two trajectories legitimately diverge.
pub(crate) fn drive_incremental<S: FlowSource>(
    mut source: S,
    tele: &mut EngineTelemetry,
    mut on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    let (m_in, m_out) = (source.m_in(), source.m_out());
    let mut queues = ShardedQueues::new(m_in, m_out);
    let mut matcher = IncrementalMatcher::new(m_in, m_out);
    let mut stats = StreamStats::default();
    let mut events = EventQueue::new();
    let mut emptied: Vec<(u32, u32)> = Vec::new();
    let mut pending = source.next_arrival();
    let mut arrival_scheduled = None;
    if let Some(a) = &pending {
        events.push(a.release, EventKind::Arrival);
        arrival_scheduled = Some(a.release);
    }
    while let Some(t) = events.pop_round() {
        tele.flight_round(t);
        span!(tele, Stage::Ingest, {
            while let Some(a) = pending {
                if a.release > t {
                    break;
                }
                if queues.push(a.src, a.dst, a.id, a.release) {
                    matcher.add_support_edge(a.src, a.dst);
                }
                stats.arrived += 1;
                pending = source.next_arrival();
            }
            if let Some(a) = &pending {
                if arrival_scheduled != Some(a.release) {
                    events.push(a.release, EventKind::Arrival);
                    arrival_scheduled = Some(a.release);
                }
            }
        });
        stats.peak_queue = stats.peak_queue.max(queues.len());
        if queues.is_empty() {
            continue;
        }
        // Repair only chases ports dirtied since the last round; in the
        // saturated steady state it is a no-op.
        tele.decision(|| matcher.repair());
        debug_assert!(matcher.size() > 0, "nonempty support must match something");
        stats.active_rounds += 1;
        span!(tele, Stage::Dispatch, {
            for p in 0..m_in as u32 {
                if let Some(q) = matcher.matched_output(p) {
                    let (rec, now_empty) = queues.pop_oldest(p, q);
                    stats.on_dispatch(rec.release, t);
                    on_dispatch(rec.id, rec.release, t);
                    if now_empty {
                        emptied.push((p, q));
                    }
                }
            }
        });
        span!(tele, Stage::QueueUpdate, {
            for (p, q) in emptied.drain(..) {
                matcher.remove_support_edge(p, q);
            }
        });
        if !queues.is_empty() {
            events.push(t + 1, EventKind::Dispatch);
        }
        tele.round();
    }
    let (searches, augmentations) = matcher.work();
    tele.counter_add("match_searches", searches);
    tele.counter_add("match_augmentations", augmentations);
    tele.flight_round_finish();
    finish_telemetry(tele, &stats);
    stats
}

/// Weighted drive: the MinRTime/MaxWeight fast path. Maintains the
/// maximum-weight matching of the cell graph across rounds with
/// [`IncrementalWeightedMatcher`] — duals and assignment carry over;
/// only cells dirtied by arrivals and dispatches are re-solved.
/// Schedules are round-for-round identical to the legacy
/// `fss_online::run_policy` loop with the same (incremental) policy: the
/// matcher applies the exact canonical update sequence the scan-driven
/// policy applies, and within a cell both dispatch the queue-FIFO head,
/// the flow with the smallest `(release, id)`.
pub(crate) fn drive_weighted<S: FlowSource>(
    mut source: S,
    model: WeightModel,
    tele: &mut EngineTelemetry,
    mut on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    let (m_in, m_out) = (source.m_in(), source.m_out());
    let mut queues = ShardedQueues::new(m_in, m_out);
    let mut matcher = IncrementalWeightedMatcher::new(model, m_in, m_out);
    let mut stats = StreamStats::default();
    let mut events = EventQueue::new();
    // Round scratch, reused across all rounds.
    let mut sel: Vec<(u32, u32)> = Vec::new();
    let mut pending = source.next_arrival();
    let mut arrival_scheduled = None;
    if let Some(a) = &pending {
        events.push(a.release, EventKind::Arrival);
        arrival_scheduled = Some(a.release);
    }
    while let Some(t) = events.pop_round() {
        tele.flight_round(t);
        span!(tele, Stage::Ingest, {
            while let Some(a) = pending {
                if a.release > t {
                    break;
                }
                queues.push(a.src, a.dst, a.id, a.release);
                matcher.note(a.src, a.dst);
                stats.arrived += 1;
                pending = source.next_arrival();
            }
            if let Some(a) = &pending {
                if arrival_scheduled != Some(a.release) {
                    events.push(a.release, EventKind::Arrival);
                    arrival_scheduled = Some(a.release);
                }
            }
        });
        stats.peak_queue = stats.peak_queue.max(queues.len());
        if queues.is_empty() {
            continue;
        }
        tele.decision(|| matcher.select(t, &queues, &mut sel));
        debug_assert!(!sel.is_empty(), "nonempty queue must match something");
        if !sel.is_empty() {
            stats.active_rounds += 1;
        }
        span!(tele, Stage::Dispatch, {
            for &(p, q) in &sel {
                let (rec, _now_empty) = queues.pop_oldest(p, q);
                stats.on_dispatch(rec.release, t);
                on_dispatch(rec.id, rec.release, t);
            }
        });
        span!(tele, Stage::QueueUpdate, {
            for &(p, q) in &sel {
                matcher.note(p, q);
            }
        });
        if !queues.is_empty() {
            events.push(t + 1, EventKind::Dispatch);
        }
        tele.round();
    }
    let (selects, cells_touched) = matcher.work();
    tele.counter_add("wmatch_selects", selects);
    tele.counter_add("wmatch_cells_touched", cells_touched);
    tele.flight_round_finish();
    finish_telemetry(tele, &stats);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::PoissonSource;

    #[test]
    fn weighted_drains_a_poisson_stream() {
        for model in [WeightModel::MinRTime, WeightModel::MaxWeight] {
            let source = PoissonSource::new(9, 7.0, Some(25), 3);
            let mut seen = std::collections::HashSet::new();
            let stats = drive_weighted(
                source,
                model,
                &mut EngineTelemetry::disabled(),
                |id, release, round| {
                    assert!(round >= release, "dispatch before release");
                    assert!(seen.insert(id), "flow {id} dispatched twice");
                },
            );
            assert_eq!(stats.arrived, stats.dispatched);
            assert_eq!(stats.dispatched as usize, seen.len());
        }
    }

    #[test]
    fn incremental_drains_a_poisson_stream() {
        let source = PoissonSource::new(10, 8.0, Some(30), 5);
        let mut seen = std::collections::HashSet::new();
        let stats = drive_incremental(
            source,
            &mut EngineTelemetry::disabled(),
            |id, release, round| {
                assert!(round >= release, "dispatch before release");
                assert!(seen.insert(id), "flow {id} dispatched twice");
            },
        );
        assert_eq!(stats.arrived, stats.dispatched);
        assert_eq!(stats.dispatched as usize, seen.len());
        assert!(stats.max_response >= 1);
        assert!(stats.mean_response() >= 1.0);
    }

    #[test]
    fn weighted_drive_times_its_queue_update_stage() {
        for model in [WeightModel::MinRTime, WeightModel::MaxWeight] {
            let mut tele = EngineTelemetry::enabled();
            let source = PoissonSource::new(9, 7.0, Some(25), 3);
            drive_weighted(source, model, &mut tele, |_, _, _| {});
            assert!(
                tele.stage_ns(Stage::QueueUpdate) > 0,
                "{model:?}: dispatched-cell notes must be timed as queue_update"
            );
        }
    }

    #[test]
    fn dispatch_stats_saturate_at_the_last_round() {
        let mut stats = StreamStats::default();
        stats.on_dispatch(u64::MAX, u64::MAX);
        assert_eq!(stats.makespan, u64::MAX);
        assert_eq!(stats.max_response, 1);
        stats.on_dispatch(0, u64::MAX);
        assert_eq!(stats.max_response, u64::MAX);
        assert_eq!(stats.total_response, 1 + u128::from(u64::MAX));
        assert_eq!(stats.dispatched, 2);

        // End to end: one flow released at the last round, every drive.
        struct LastRound(bool);
        impl crate::source::FlowSource for LastRound {
            fn m_in(&self) -> usize {
                1
            }
            fn m_out(&self) -> usize {
                1
            }
            fn next_arrival(&mut self) -> Option<crate::source::Arrival> {
                std::mem::take(&mut self.0).then_some(crate::source::Arrival {
                    id: 0,
                    src: 0,
                    dst: 0,
                    release: u64::MAX,
                })
            }
        }
        let tele = &mut EngineTelemetry::disabled();
        for stats in [
            drive_exact(LastRound(true), &mut Selector::MaxCard, tele, |_, _, _| {}),
            drive_incremental(LastRound(true), tele, |_, _, _| {}),
            drive_weighted(LastRound(true), WeightModel::MinRTime, tele, |_, _, _| {}),
        ] {
            assert_eq!((stats.dispatched, stats.makespan), (1, u64::MAX));
            assert_eq!(stats.max_response, 1);
        }
    }

    #[test]
    fn stats_track_makespan_and_rounds() {
        // Two flows on the same cell, released at 0 and 100: the event
        // loop must skip the idle gap (2 active rounds, makespan 101).
        struct TwoFlows(u32);
        impl crate::source::FlowSource for TwoFlows {
            fn m_in(&self) -> usize {
                2
            }
            fn m_out(&self) -> usize {
                2
            }
            fn next_arrival(&mut self) -> Option<crate::source::Arrival> {
                let a = match self.0 {
                    0 => crate::source::Arrival {
                        id: 0,
                        src: 0,
                        dst: 0,
                        release: 0,
                    },
                    1 => crate::source::Arrival {
                        id: 1,
                        src: 0,
                        dst: 0,
                        release: 100,
                    },
                    _ => return None,
                };
                self.0 += 1;
                Some(a)
            }
        }
        let stats = drive_incremental(TwoFlows(0), &mut EngineTelemetry::disabled(), |_, _, _| {});
        assert_eq!(stats.dispatched, 2);
        assert_eq!(stats.active_rounds, 2);
        assert_eq!(stats.makespan, 101);
        assert_eq!(stats.max_response, 1);
    }
}
