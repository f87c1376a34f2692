//! The output checker every dispatch stream goes through.
//!
//! A stream is the `(id, release, round)` sequence a run emitted, in
//! emission order. Against the arrivals the run was fed it checks that:
//! every id is dispatched exactly once, with its own release, never
//! before that release; rounds never go backwards; each input and each
//! output port is used at most once per round; no dispatch touches a
//! port inside an outage window; and the run's own aggregate
//! statistics equal an independent recount. A flow involved in any
//! violation counts as failed; a statistics mismatch fails every flow
//! of the stream, since its accounting cannot be trusted.

use fss_core::{Arrival, FailurePlan, PortSide};
use fss_engine::StreamStats;
use fss_serve::ServeStats;

/// One emitted dispatch: `(id, release, round)`.
pub type Dispatch = (u64, u64, u64);

/// Aggregates recomputed from a stream, independently of the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recount {
    pub arrived: u64,
    pub dispatched: u64,
    pub total_response: u128,
    pub max_response: u64,
    pub makespan: u64,
    pub active_rounds: u64,
    pub peak_queue: u64,
}

/// What the checker found in one stream.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Flows the stream should have dispatched.
    pub attempted: u64,
    /// Flows involved in a violation (all of them on a stats mismatch).
    pub failed: u64,
    /// The first violation, for the report.
    pub first_error: Option<String>,
    pub recount: Recount,
}

impl Verdict {
    fn fail_all(&mut self, msg: String) {
        self.failed = self.attempted;
        self.first_error.get_or_insert(msg);
    }

    /// Compare the engine's own statistics with the recount.
    pub fn expect_stream_stats(&mut self, s: &StreamStats) {
        let r = &self.recount;
        let got = Recount {
            arrived: s.arrived,
            dispatched: s.dispatched,
            total_response: s.total_response,
            max_response: s.max_response,
            makespan: s.makespan,
            active_rounds: s.active_rounds,
            peak_queue: s.peak_queue as u64,
        };
        if got != *r {
            let msg = format!("StreamStats {got:?} differ from the recount {r:?}");
            self.fail_all(msg);
        }
    }

    /// Compare a serve session's final `Stats` with the recount
    /// (a lossless session: everything offered is admitted and
    /// dispatched).
    pub fn expect_serve_stats(&mut self, s: &ServeStats) {
        let r = self.recount;
        let ok = s.arrived == r.arrived
            && s.admitted == r.arrived
            && s.dropped == 0
            && s.dispatched == r.dispatched
            && u128::from(s.total_response) == r.total_response
            && s.max_response == r.max_response
            && s.makespan == r.makespan
            && s.peak_queue == r.peak_queue;
        if !ok {
            self.fail_all(format!("serve Stats {s:?} differ from the recount {r:?}"));
        }
    }

    /// Require the stream to equal `reference` element for element;
    /// every position that differs fails one flow.
    pub fn expect_equal(&mut self, stream: &[Dispatch], reference: &[Dispatch]) {
        let mut bad = stream.len().abs_diff(reference.len()) as u64;
        for (i, (a, b)) in stream.iter().zip(reference).enumerate() {
            if a != b {
                bad += 1;
                self.first_error
                    .get_or_insert_with(|| format!("dispatch {i} is {a:?}, reference {b:?}"));
            }
        }
        if bad > 0 {
            self.first_error.get_or_insert_with(|| {
                format!(
                    "{} dispatches against a reference of {}",
                    stream.len(),
                    reference.len()
                )
            });
            self.failed = (self.failed + bad).min(self.attempted);
        }
    }
}

/// Check `stream` against the `arrivals` it was fed (`arrivals[i].id ==
/// i`) on an `m x m` switch, under `plan` when the run had one.
pub fn check(
    m: usize,
    arrivals: &[Arrival],
    plan: Option<&FailurePlan>,
    stream: &[Dispatch],
) -> Verdict {
    let n = arrivals.len();
    let mut bad = vec![false; n];
    let mut unattributed = 0u64;
    let mut first_error: Option<String> = None;
    let mut note = |msg: &dyn Fn() -> String| {
        if first_error.is_none() {
            first_error = Some(msg());
        }
    };

    let mut seen = vec![false; n];
    let mut in_used = vec![u64::MAX; m];
    let mut out_used = vec![u64::MAX; m];
    let mut rc = Recount {
        arrived: n as u64,
        ..Recount::default()
    };
    let mut last_round = 0u64;
    let mut rounds_seen = 0u64;
    for (k, &(id, release, round)) in stream.iter().enumerate() {
        let Some(a) = usize::try_from(id).ok().and_then(|i| arrivals.get(i)) else {
            unattributed += 1;
            note(&|| format!("dispatch {k}: unknown id {id}"));
            continue;
        };
        let i = id as usize;
        if seen[i] {
            bad[i] = true;
            note(&|| format!("flow {id} dispatched twice"));
        }
        seen[i] = true;
        if release != a.release {
            bad[i] = true;
            note(&|| {
                format!(
                    "flow {id} reported release {release}, arrived at {}",
                    a.release
                )
            });
        }
        if round < a.release {
            bad[i] = true;
            note(&|| {
                format!(
                    "flow {id} dispatched in round {round} before release {}",
                    a.release
                )
            });
        }
        if k > 0 && round < last_round {
            bad[i] = true;
            note(&|| format!("dispatch {k}: round {round} after round {last_round}"));
        }
        if k == 0 || round != last_round {
            rounds_seen += 1;
        }
        last_round = round;
        let (p, q) = (a.src as usize, a.dst as usize);
        if in_used[p] == round {
            bad[i] = true;
            note(&|| format!("input {p} used twice in round {round}"));
        }
        if out_used[q] == round {
            bad[i] = true;
            note(&|| format!("output {q} used twice in round {round}"));
        }
        in_used[p] = round;
        out_used[q] = round;
        if let Some(plan) = plan {
            if !plan.is_up(PortSide::Input, a.src, round)
                || !plan.is_up(PortSide::Output, a.dst, round)
            {
                bad[i] = true;
                note(&|| format!("flow {id} dispatched through a dead port in round {round}"));
            }
        }
        let rho = (round + 1).saturating_sub(a.release);
        rc.dispatched += 1;
        rc.total_response += u128::from(rho);
        rc.max_response = rc.max_response.max(rho);
        rc.makespan = rc.makespan.max(round + 1);
    }
    rc.active_rounds = rounds_seen;
    for i in 0..n {
        if !seen[i] {
            bad[i] = true;
            note(&|| format!("flow {i} never dispatched"));
        }
    }
    rc.peak_queue = peak_queue(arrivals, stream);

    let failed = bad.iter().filter(|&&b| b).count() as u64 + unattributed;
    Verdict {
        attempted: n as u64,
        failed: failed.min(n as u64),
        first_error,
        recount: rc,
    }
}

/// Largest backlog at a round boundary: the maximum over rounds `t` of
/// flows released by `t` minus flows dispatched before `t`. The
/// maximum falls on an arrival round, which every drive visits.
fn peak_queue(arrivals: &[Arrival], stream: &[Dispatch]) -> u64 {
    let last = arrivals
        .iter()
        .map(|a| a.release)
        .chain(stream.iter().map(|d| d.2))
        .max()
        .unwrap_or(0) as usize;
    let mut arr = vec![0i64; last + 1];
    let mut dep = vec![0i64; last + 1];
    for a in arrivals {
        arr[a.release as usize] += 1;
    }
    for d in stream {
        dep[d.2 as usize] += 1;
    }
    let (mut released, mut departed, mut peak) = (0i64, 0i64, 0i64);
    for t in 0..=last {
        released += arr[t];
        if arr[t] > 0 {
            peak = peak.max(released - departed);
        }
        departed += dep[t];
    }
    peak as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_core::Outage;
    use fss_engine::{run_stream_with, BuiltinPolicy, EngineMode, PoissonSource};

    fn small_run() -> (Vec<Arrival>, Vec<Dispatch>, StreamStats) {
        let mut src = PoissonSource::new(6, 4.0, Some(40), 3);
        let mut arrivals = Vec::new();
        while let Some(a) = fss_engine::FlowSource::next_arrival(&mut src) {
            arrivals.push(a);
        }
        let mut stream = Vec::new();
        let shared = std::sync::Arc::new(arrivals.clone());
        let stats = run_stream_with(
            crate::inputs::VecSource::new(6, &shared),
            EngineMode::Exact(BuiltinPolicy::MaxCard),
            |id, release, round| stream.push((id, release, round)),
        );
        (arrivals, stream, stats)
    }

    fn verdict(arrivals: &[Arrival], stream: &[Dispatch], stats: &StreamStats) -> Verdict {
        let mut v = check(6, arrivals, None, stream);
        v.expect_stream_stats(stats);
        v
    }

    #[test]
    fn a_real_stream_passes() {
        let (arrivals, stream, stats) = small_run();
        let v = verdict(&arrivals, &stream, &stats);
        assert_eq!(v.failed, 0, "{:?}", v.first_error);
        assert_eq!(v.attempted, arrivals.len() as u64);
    }

    #[test]
    fn corrupted_streams_are_flagged() {
        let (arrivals, stream, stats) = small_run();
        let corruptions: Vec<(&str, Vec<Dispatch>)> = vec![
            ("duplicate", {
                let mut s = stream.clone();
                s.push(*s.last().unwrap());
                s
            }),
            ("missing", stream[1..].to_vec()),
            ("early", {
                let mut s = stream.clone();
                let k = s.iter().position(|d| d.1 > 0).unwrap();
                s[k].2 = s[k].1 - 1;
                s
            }),
            ("wrong release", {
                let mut s = stream.clone();
                s[0].1 += 1;
                s
            }),
            ("port clash", {
                // Move a flow into the round of another flow on its input.
                let mut s = stream.clone();
                let (i, j) = (0..s.len())
                    .flat_map(|i| (0..s.len()).map(move |j| (i, j)))
                    .find(|&(i, j)| {
                        let (a, b) = (&arrivals[s[i].0 as usize], &arrivals[s[j].0 as usize]);
                        i != j && a.src == b.src && s[j].2 >= a.release && s[i].2 != s[j].2
                    })
                    .unwrap();
                s[i].2 = s[j].2;
                s
            }),
        ];
        for (what, bad) in corruptions {
            let v = verdict(&arrivals, &bad, &stats);
            assert!(v.failed > 0, "{what} corruption not flagged");
            assert!(v.first_error.is_some(), "{what}");
        }
        // Statistics that disagree with the stream fail every flow.
        let mut lying = stats;
        lying.total_response += 1;
        let v = verdict(&arrivals, &stream, &lying);
        assert_eq!(v.failed, v.attempted);
    }

    #[test]
    fn outage_violations_and_reference_mismatches_are_flagged() {
        let (arrivals, stream, _) = small_run();
        let (id, _, round) = stream[0];
        let plan = FailurePlan {
            outages: vec![Outage {
                side: PortSide::Output,
                port: arrivals[id as usize].dst,
                from: round,
                to: round + 1,
            }],
        };
        assert!(check(6, &arrivals, Some(&plan), &stream).failed > 0);

        let mut v = check(6, &arrivals, None, &stream);
        let mut other = stream.clone();
        other.swap(0, 1);
        v.expect_equal(&stream, &other);
        assert_eq!(v.failed, 2);
    }
}
