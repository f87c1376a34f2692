//! Workload inputs, generated in set-up from the seed. The program under
//! test only ever receives these arrivals (and, for `skewed-outage`,
//! the trace file written from them).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fss_core::{Arrival, FailurePlan, Outage, PortSide};
use fss_engine::{FlowSource, PoissonSource};
use fss_trace::{MorphPipeline, MorphSpec, TraceWriter};

use crate::util::derive_seed;

/// Switch size of every workload (§5.2.1).
pub const PORTS: usize = 150;

/// Salts for the sub-seeds derived from the workload seed.
const SALT_ZIPF: u64 = 1;
const SALT_OUTAGE: u64 = 2;
const SALT_REPLICA: u64 = 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Overload,
    ServeLoopback,
    SkewedOutage,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::Overload,
        Workload::ServeLoopback,
        Workload::SkewedOutage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Overload => "overload",
            Workload::ServeLoopback => "serve-loopback",
            Workload::SkewedOutage => "skewed-outage",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The size and shape of one workload: `replicas` independent streams
/// (seeds derived from the workload seed) of `rounds` release rounds at
/// `rate` Poisson arrivals per round. The response-time objectives are
/// averaged over the replicas, so one unlucky stream cannot swing them.
pub struct Size {
    pub replicas: usize,
    pub rate: f64,
    pub rounds: u64,
    /// `flows_per_s.{maxcard,minrtime,maxweight,cores2}` come from
    /// flat-out serve sessions instead of in-process passes.
    pub serve_flat: bool,
    /// Open-loop pace of the traced run's paced MaxCard session, in
    /// rounds per second, and how many of a replica's rounds it sends.
    pub pace: f64,
    pub paced_rounds: u64,
}

/// `steady` is the near-saturation point (140 of 150 ports, rho ~
/// 0.93); `overload` is a burst at M = 4m per round, after which the
/// backlog drains; `serve-loopback` sends the steady stream over the
/// socket front end, paced at about half its flat-out MaxCard rate
/// (~1,900 rounds/s on a 2-core Xeon); `skewed-outage` is a
/// Zipf-skewed trace whose hottest port sees about rate/23 flows a
/// round, so at 30 it is oversubscribed and holds most of the backlog.
pub fn size(w: Workload) -> Size {
    let (replicas, rate, rounds, serve_flat, pace, paced_rounds) = match w {
        Workload::Steady => (8, 140.0, 500, false, 1_000.0, 500),
        Workload::Overload => (2, 600.0, 300, false, 200.0, 100),
        Workload::ServeLoopback => (8, 140.0, 500, true, 1_000.0, 500),
        Workload::SkewedOutage => (16, 30.0, 500, false, 1_000.0, 500),
    };
    Size {
        replicas,
        rate,
        rounds,
        serve_flat,
        pace,
        paced_rounds,
    }
}

const SKEW_THETA: f64 = 0.5;
/// Three outages of this many rounds on ports drawn from `SKEW_OUTAGE_PORTS`
/// (Zipf ranks, which are port numbers: mid-hot ports, so every seed hits
/// the backlog about equally).
const SKEW_OUTAGE_LEN: u64 = 100;
const SKEW_OUTAGE_PORTS: std::ops::Range<u32> = 4..24;

/// One independent stream of a workload.
pub struct Replica {
    /// `arrivals[i].id == i`, in release order.
    pub arrivals: Arc<Vec<Arrival>>,
    pub plan: Option<FailurePlan>,
    /// The on-disk trace (`skewed-outage` only).
    pub trace: Option<PathBuf>,
}

/// Generate `w`'s replicas from `seed`; `work` is a scratch directory
/// inside the checkout for files.
pub fn generate(w: Workload, seed: u64, work: &Path) -> Result<Vec<Replica>, String> {
    let sz = size(w);
    (0..sz.replicas)
        .map(|k| {
            let seed = derive_seed(seed, SALT_REPLICA + k as u64);
            let arrivals = collect(PoissonSource::new(PORTS, sz.rate, Some(sz.rounds), seed));
            if w != Workload::SkewedOutage {
                return Ok(Replica {
                    arrivals: Arc::new(arrivals),
                    plan: None,
                    trace: None,
                });
            }
            let spec = MorphSpec::Skew {
                theta: SKEW_THETA,
                seed: derive_seed(seed, SALT_ZIPF),
            };
            let mut morph = MorphPipeline::new(&[spec], PORTS)?;
            let arrivals: Vec<Arrival> = arrivals
                .into_iter()
                .filter_map(|a| morph.apply(a))
                .collect();
            let path = work.join(format!("skewed-{k}.jsonl"));
            let mut writer = TraceWriter::create(&path, PORTS).map_err(|e| e.to_string())?;
            for a in &arrivals {
                writer
                    .write_arrival(a.release, a.src, a.dst)
                    .map_err(|e| e.to_string())?;
            }
            writer.finish().map_err(|e| e.to_string())?;
            Ok(Replica {
                arrivals: Arc::new(arrivals),
                plan: Some(outage_plan(derive_seed(seed, SALT_OUTAGE), sz.rounds)),
                trace: Some(path),
            })
        })
        .collect()
}

fn collect(mut src: impl FlowSource) -> Vec<Arrival> {
    let mut v = Vec::new();
    while let Some(a) = src.next_arrival() {
        debug_assert_eq!(a.id, v.len() as u64);
        v.push(a);
    }
    v
}

/// Three outages: two input-side and one output-side, on seeded
/// mid-hot ports, starting at seeded rounds within the trace.
fn outage_plan(seed: u64, rounds: u64) -> FailurePlan {
    let span = SKEW_OUTAGE_PORTS.end - SKEW_OUTAGE_PORTS.start;
    let outages = [PortSide::Input, PortSide::Input, PortSide::Output]
        .into_iter()
        .enumerate()
        .map(|(k, side)| {
            let r = derive_seed(seed, k as u64);
            let from = (r >> 32) % (rounds - SKEW_OUTAGE_LEN);
            Outage {
                side,
                port: SKEW_OUTAGE_PORTS.start + (r % u64::from(span)) as u32,
                from,
                to: from + SKEW_OUTAGE_LEN,
            }
        })
        .collect();
    FailurePlan { outages }
}

/// A [`FlowSource`] over arrivals held in memory.
pub struct VecSource {
    m: usize,
    arrivals: Arc<Vec<Arrival>>,
    next: usize,
}

impl VecSource {
    pub fn new(m: usize, arrivals: &Arc<Vec<Arrival>>) -> VecSource {
        VecSource {
            m,
            arrivals: Arc::clone(arrivals),
            next: 0,
        }
    }
}

impl FlowSource for VecSource {
    fn m_in(&self) -> usize {
        self.m
    }

    fn m_out(&self) -> usize {
        self.m
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let a = self.arrivals.get(self.next).copied();
        self.next += 1;
        a
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.arrivals.len())
    }
}
