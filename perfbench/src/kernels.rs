//! Layer kernels timed alone, on states rebuilt from a workload's own
//! arrival and dispatch logs: matching from a cold start, the queue
//! slab's exact push/pop order, and the line parsers and serializer.

use std::hint::black_box;
use std::time::Instant;

use fss_core::Arrival;
use fss_engine::ShardedQueues;
use fss_matching::{max_cardinality_matching, BipartiteGraph, HungarianScratch};
use fss_serve::{parse_ingest, ServeMsg};
use fss_trace::parse_trace_event;

use crate::check::Dispatch;

/// Round states sampled for the matching kernels.
const MATCH_SAMPLES: usize = 48;
/// Lines fed to each parser / serializer kernel.
const LINE_SAMPLES: usize = 100_000;

pub struct MatchKernels {
    pub hk_us: f64,
    pub hungarian_us: f64,
    pub support_edges: f64,
}

/// Rebuild the waiting graph at evenly spaced rounds of a run (`stream`
/// over `arrivals`) and solve each cold: Hopcroft–Karp on the support
/// graph, and a fresh `HungarianScratch` weighted by waiting age.
pub fn matching(m: usize, arrivals: &[Arrival], stream: &[Dispatch]) -> MatchKernels {
    let mut dispatched = vec![0u64; arrivals.len()];
    for &(id, _, round) in stream {
        dispatched[id as usize] = round;
    }
    let makespan = stream.iter().map(|d| d.2 + 1).max().unwrap_or(1);
    let mut oldest = vec![u64::MAX; m * m];
    let mut cells: Vec<usize> = Vec::new();
    let (mut hk_ns, mut hu_ns, mut edges, mut samples) = (0u128, 0u128, 0usize, 0usize);
    for k in 0..MATCH_SAMPLES {
        let t = makespan * k as u64 / MATCH_SAMPLES as u64;
        for a in arrivals.iter().take_while(|a| a.release <= t) {
            if dispatched[a.id as usize] >= t {
                let c = a.src as usize * m + a.dst as usize;
                if oldest[c] == u64::MAX {
                    cells.push(c);
                }
                oldest[c] = oldest[c].min(a.release);
            }
        }
        if cells.is_empty() {
            continue;
        }
        cells.sort_unstable();
        let mut g = BipartiteGraph::new(m, m);
        for &c in &cells {
            g.add_edge((c / m) as u32, (c % m) as u32);
        }
        let t0 = Instant::now();
        black_box(max_cardinality_matching(black_box(&g)));
        hk_ns += t0.elapsed().as_nanos();

        let t0 = Instant::now();
        let mut h = HungarianScratch::new(m, m);
        for &c in &cells {
            h.set_weight((c / m) as u32, (c % m) as u32, (t + 1 - oldest[c]) as i64);
        }
        h.solve();
        black_box(h.total_weight());
        hu_ns += t0.elapsed().as_nanos();

        edges += cells.len();
        samples += 1;
        for &c in &cells {
            oldest[c] = u64::MAX;
        }
        cells.clear();
    }
    let per = |ns: u128| ns as f64 / samples.max(1) as f64 / 1e3;
    MatchKernels {
        hk_us: per(hk_ns),
        hungarian_us: per(hu_ns),
        support_edges: edges as f64 / samples.max(1) as f64,
    }
}

/// Replay an incremental run's exact push/pop order through a fresh
/// `ShardedQueues`: each round pushes its arrivals, then pops its
/// dispatches. Returns ns per push and per pop, or an error if a pop
/// does not yield the flow the run dispatched.
pub fn queues(m: usize, arrivals: &[Arrival], stream: &[Dispatch]) -> Result<(f64, f64), String> {
    let mut q = ShardedQueues::new(m, m);
    let (mut push_ns, mut pop_ns) = (0u128, 0u128);
    let (mut ai, mut di) = (0usize, 0usize);
    while ai < arrivals.len() || di < stream.len() {
        let next_arrival = arrivals.get(ai).map_or(u64::MAX, |a| a.release);
        let next_dispatch = stream.get(di).map_or(u64::MAX, |d| d.2);
        let t = next_arrival.min(next_dispatch);
        let t0 = Instant::now();
        while let Some(a) = arrivals.get(ai).filter(|a| a.release == t) {
            q.push(a.src, a.dst, a.id, a.release);
            ai += 1;
        }
        push_ns += t0.elapsed().as_nanos();
        let t0 = Instant::now();
        while let Some(&(id, _, _)) = stream.get(di).filter(|d| d.2 == t) {
            let a = &arrivals[id as usize];
            let (rec, _) = q.pop_oldest(a.src, a.dst);
            if rec.id != id {
                return Err(format!(
                    "queue replay popped {} where the run dispatched {id}",
                    rec.id
                ));
            }
            di += 1;
        }
        pop_ns += t0.elapsed().as_nanos();
    }
    Ok((
        push_ns as f64 / arrivals.len().max(1) as f64,
        pop_ns as f64 / stream.len().max(1) as f64,
    ))
}

/// ns per line of `parse` over up to [`LINE_SAMPLES`] lines.
fn per_line<'a, R>(lines: impl Iterator<Item = &'a str>, parse: impl Fn(&str) -> R) -> f64 {
    let lines: Vec<&str> = lines.take(LINE_SAMPLES).collect();
    let t0 = Instant::now();
    for l in &lines {
        black_box(parse(black_box(l)));
    }
    t0.elapsed().as_nanos() as f64 / lines.len().max(1) as f64
}

/// `fss_serve::proto::parse_ingest` per arrival line.
pub fn serve_parse_ns<'a>(lines: impl Iterator<Item = &'a str>) -> f64 {
    per_line(lines, parse_ingest)
}

/// `fss_trace::parse_trace_event` per arrival line.
pub fn trace_parse_ns<'a>(lines: impl Iterator<Item = &'a str>) -> f64 {
    per_line(lines, parse_trace_event)
}

/// `ServeMsg::dispatch(..).to_line()` per dispatch of a run.
pub fn to_line_ns(stream: &[Dispatch]) -> f64 {
    let sample = &stream[..stream.len().min(LINE_SAMPLES)];
    let t0 = Instant::now();
    for &(id, release, round) in sample {
        black_box(ServeMsg::dispatch(id, release, round).to_line());
    }
    t0.elapsed().as_nanos() as f64 / sample.len().max(1) as f64
}
