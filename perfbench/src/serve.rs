//! Loopback sessions against an in-process `fss_serve::run_server_on`.
//!
//! The client is one writer (this thread) and one reader thread on a
//! single TCP connection. The writer either paces arrival lines in an
//! open loop — round `r`'s lines are due at `start + r / pace` whatever
//! the server does — or replays them flat out. The reader timestamps
//! every `read` so each response line gets the time it reached the
//! client; lines are parsed only after the session ends.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use fss_core::{Arrival, FailurePlan};
use fss_serve::{run_server_on, ServeKind, ServeMsg, ServeOptions, ServeStats};
use fss_sim::PolicyKind;

use crate::check::Dispatch;

/// Arrival lines pre-rendered per release round, so the client spends
/// its time sending, not formatting.
pub struct Wire {
    pub ports: usize,
    /// `(release, byte range)` of each round's lines in `bytes`.
    rounds: Vec<(u64, std::ops::Range<usize>)>,
    bytes: Vec<u8>,
}

impl Wire {
    pub fn new(ports: usize, arrivals: &[Arrival]) -> Wire {
        let mut bytes = Vec::with_capacity(arrivals.len() * 40);
        let mut rounds: Vec<(u64, std::ops::Range<usize>)> = Vec::new();
        for a in arrivals {
            let at = bytes.len();
            match rounds.last_mut() {
                Some((r, range)) if *r == a.release => range.end = at,
                _ => rounds.push((a.release, at..at)),
            }
            writeln!(
                bytes,
                "{{\"release\":{},\"src\":{},\"dst\":{}}}",
                a.release, a.src, a.dst
            )
            .expect("writing to a Vec cannot fail");
            rounds.last_mut().expect("pushed above").1.end = bytes.len();
        }
        Wire {
            ports,
            rounds,
            bytes,
        }
    }

    /// The arrival lines themselves (for the parser kernels).
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        std::str::from_utf8(&self.bytes)
            .expect("lines are ASCII")
            .lines()
    }
}

/// How a session is driven.
#[derive(Debug, Clone)]
pub struct Session {
    pub policy: PolicyKind,
    pub cores: usize,
    pub plan: Option<FailurePlan>,
    /// Open-loop pace in rounds per second; `None` replays flat out.
    pub pace: Option<f64>,
}

/// What the client saw.
pub struct SessionOut {
    /// First byte sent to the last `Dispatch` line received.
    pub wall_s: f64,
    pub stream: Vec<Dispatch>,
    pub stats: ServeStats,
    /// Paced sessions: per closed round, first `Dispatch` line's
    /// arrival minus the due time of the line that closed the round.
    pub lags_us: Vec<f64>,
    /// Paced sessions: how late each round's lines went out.
    pub gen_late_us: Vec<f64>,
    /// Time the writer spent inside socket writes, and in total.
    pub write_blocked_s: f64,
    pub writer_s: f64,
}

/// Run one session over `wire`.
pub fn run_session(wire: &Wire, s: &Session) -> Result<SessionOut, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let opts = ServeOptions {
        ports: wire.ports,
        policy: s.policy,
        failures: s.plan.clone(),
        cores: s.cores,
        ..ServeOptions::default()
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(move || run_server_on(listener, None, opts));
        let client = drive_client(wire, s, addr);
        let stats = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server failed: {e}"))?;
        let mut out = client?;
        out.stats = stats;
        Ok(out)
    })
}

/// Everything the reader got, and `(bytes so far, when)` per read.
type Received = (Vec<u8>, Vec<(usize, Instant)>);

fn drive_client(
    wire: &Wire,
    s: &Session,
    addr: std::net::SocketAddr,
) -> Result<SessionOut, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut read_half = conn.try_clone().map_err(|e| e.to_string())?;
    let mut w = &conn;
    std::thread::scope(|scope| {
        // Reader: raw bytes plus (bytes so far, when) per read.
        let reader = scope.spawn(move || -> Result<Received, String> {
            let mut bytes = Vec::with_capacity(1 << 20);
            let mut marks = Vec::new();
            let mut chunk = vec![0u8; 1 << 16];
            loop {
                let k = read_half
                    .read(&mut chunk)
                    .map_err(|e| format!("read: {e}"))?;
                if k == 0 {
                    return Ok((bytes, marks));
                }
                bytes.extend_from_slice(&chunk[..k]);
                marks.push((bytes.len(), Instant::now()));
            }
        });

        let start = Instant::now();
        let mut blocked = Duration::ZERO;
        let mut gen_late_us = Vec::new();
        let mut send = |buf: &[u8]| -> Result<(), String> {
            let t = Instant::now();
            w.write_all(buf).map_err(|e| format!("send: {e}"))?;
            blocked += t.elapsed();
            Ok(())
        };
        send(format!("{{\"ports\":{}}}\n", wire.ports).as_bytes())?;
        let due = |release: u64| {
            s.pace
                .map(|p| start + Duration::from_secs_f64(release as f64 / p))
        };
        match s.pace {
            Some(_) => {
                for (release, range) in &wire.rounds {
                    let due = due(*release).expect("paced");
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let now = Instant::now();
                    gen_late_us.push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
                    send(&wire.bytes[range.clone()])?;
                }
            }
            None => {
                // Flat out: large writes, so the socket, not the
                // client's loop, sets the pace.
                for piece in wire.bytes.chunks(1 << 16) {
                    send(piece)?;
                }
            }
        }
        send(format!("{}\n", ServeMsg::finish().to_line()).as_bytes())?;
        let writer_s = start.elapsed().as_secs_f64();
        let (bytes, marks) = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())??;

        // Attribute each line to the read that completed it.
        let mut stream = Vec::new();
        let mut firsts: Vec<(u64, Instant)> = Vec::new();
        let mut last_seen = start;
        let (mut at, mut mark) = (0usize, 0usize);
        for line in bytes.split(|&b| b == b'\n') {
            at += line.len() + 1;
            while mark < marks.len() && marks[mark].0 < at.min(bytes.len()) {
                mark += 1;
            }
            if line.is_empty() {
                continue;
            }
            let when = marks.get(mark).map_or(last_seen, |m| m.1);
            let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
            let msg = ServeMsg::parse(text)?;
            match msg.kind {
                ServeKind::Dispatch => {
                    let (Some(id), Some(release), Some(round)) = (msg.id, msg.release, msg.round)
                    else {
                        return Err(format!("incomplete dispatch line {text}"));
                    };
                    if firsts.last().is_none_or(|f| f.0 != round) {
                        firsts.push((round, when));
                    }
                    stream.push((id, release, round));
                    last_seen = when;
                }
                ServeKind::Error => return Err(format!("server error: {text}")),
                _ => {}
            }
        }
        let wall_s = (last_seen - start).as_secs_f64();

        // Round t is closed by the first arrival line with a later
        // release; rounds closed only by `Finish` (the drain) are left
        // out.
        let mut lags_us = Vec::new();
        if s.pace.is_some() {
            let mut next = 0usize;
            for &(round, when) in &firsts {
                while next < wire.rounds.len() && wire.rounds[next].0 <= round {
                    next += 1;
                }
                let Some((closing, _)) = wire.rounds.get(next) else {
                    break;
                };
                let due = due(*closing).expect("paced");
                lags_us.push(signed_us(when, due));
            }
        }
        Ok(SessionOut {
            wall_s,
            stream,
            stats: ServeStats::default(),
            lags_us,
            gen_late_us,
            write_blocked_s: blocked.as_secs_f64(),
            writer_s,
        })
    })
}

/// `a - b` in µs, negative when `a` is earlier.
fn signed_us(a: Instant, b: Instant) -> f64 {
    if a >= b {
        (a - b).as_secs_f64() * 1e6
    } else {
        -((b - a).as_secs_f64() * 1e6)
    }
}
