//! `load`: an open-loop load generator for `serve`.
//!
//! One process, two threads, two connections. The main thread sends on
//! a fixed schedule: it sleeps until the next request is due, then
//! writes every due request, pipelined, without waiting for replies.
//! Queries go on connection 0, whose replies the receiver thread reads
//! and matches in order (the protocol answers in order); `RELOAD`s go on
//! connection 1, whose replies the main thread collects without blocking
//! each time it wakes. Every latency counts from the request's scheduled
//! send time, so a stall also charges the requests it delayed. Every
//! query reply is compared with the exhaustive oracle's rendering.
//!
//! Phases run in order, each `name:kind:rate:seconds[:reload_ms]`:
//! * `warm` — not reported on;
//! * `ref`, `low` — fixed-rate measurement phases;
//! * `step` — a ladder step (`run.py` derives `max_qps` from the steps'
//!   p99, failures and backlog);
//! * `reload` — queries at `rate`, and a `RELOAD` every `reload_ms`.

use crate::{oracle, read_queries, zipf_stream, Flags, ZIPF};
use cubelsi::core::shard::{load_source, LoadMode};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// How long the generator waits for outstanding replies after a phase.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

struct Phase {
    name: String,
    rate: f64,
    seconds: f64,
    reload_every: Option<Duration>,
}

fn parse_phases(spec: &str) -> Result<Vec<Phase>, String> {
    spec.split(',')
        .map(|p| {
            let f: Vec<&str> = p.split(':').collect();
            if f.len() < 4 {
                return Err(format!("bad phase {p:?}"));
            }
            if !["warm", "ref", "low", "step", "reload"].contains(&f[1]) {
                return Err(format!("bad phase kind {:?}", f[1]));
            }
            let num = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number in {p:?}"));
            let reload_every = match (f[1], f.get(4)) {
                ("reload", Some(ms)) => Some(Duration::from_secs_f64(num(ms)? / 1e3)),
                ("reload", None) => return Err(format!("reload phase needs a cadence: {p:?}")),
                _ => None,
            };
            Ok(Phase {
                name: f[0].to_owned(),
                rate: num(f[2])?,
                seconds: num(f[3])?,
                reload_every,
            })
        })
        .collect()
}

/// A query in flight on connection 0.
struct Sent {
    due_ns: u64,
    query: usize,
    phase: usize,
}

/// Failure kinds, counted across the run.
#[derive(Clone, Copy)]
enum Failure {
    Err,
    Busy,
    Timeout,
    Mismatch,
    Dropped,
}

/// The receiver's verdict on one query reply.
struct Done {
    phase: usize,
    due_ns: u64,
    at_ns: u64,
    failure: Option<Failure>,
}

#[derive(Default)]
struct PhaseRec {
    /// Query latencies in ns, in reply order; failed queries are
    /// recorded as `u64::MAX`, so they miss any limit.
    lat: Vec<u64>,
    /// (scheduled, replied) in ns since the epoch, kept when tracing.
    spans: Vec<(u64, u64)>,
    reload_lat: Vec<u64>,
    /// `RELOAD`s sent in the phase, answered or not.
    sent_reloads: u64,
    failed: u64,
    mismatched: u64,
    last_reply_ns: u64,
}

struct Tally {
    phases: Vec<PhaseRec>,
    /// ERR, BUSY, TIMEOUT, mismatch, dropped.
    kinds: [u64; 5],
    completed: u64,
    keep_spans: bool,
}

impl Tally {
    fn record(&mut self, d: Done) {
        self.completed += 1;
        let rec = &mut self.phases[d.phase];
        rec.last_reply_ns = rec.last_reply_ns.max(d.at_ns);
        match d.failure {
            None => {
                rec.lat.push(d.at_ns.saturating_sub(d.due_ns));
                if self.keep_spans {
                    rec.spans.push((d.due_ns, d.at_ns));
                }
            }
            Some(f) => {
                rec.lat.push(u64::MAX);
                rec.failed += 1;
                if matches!(f, Failure::Mismatch) {
                    rec.mismatched += 1;
                }
                self.kinds[f as usize] += 1;
            }
        }
    }
}

fn classify(line: &str) -> Failure {
    if line.starts_with("ERR BUSY") {
        Failure::Busy
    } else if line.starts_with("TIMEOUT") {
        Failure::Timeout
    } else if line.starts_with("ERR") {
        Failure::Err
    } else {
        Failure::Mismatch
    }
}

/// Reads connection 0 until it closes, judging each reply line against
/// the oracle and the oldest query in flight.
fn receiver(
    epoch: Instant,
    mut conn: TcpStream,
    sent: Receiver<Sent>,
    done: Sender<Done>,
    expected: &[String],
) {
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let n = conn.read(&mut chunk).unwrap_or(0);
        let at_ns = epoch.elapsed().as_nanos() as u64;
        if n == 0 {
            // Whatever is still in flight was dropped.
            for s in sent.try_iter() {
                let failure = Some(Failure::Dropped);
                let _ = done.send(Done {
                    phase: s.phase,
                    due_ns: s.due_ns,
                    at_ns,
                    failure,
                });
            }
            return;
        }
        buf.extend_from_slice(&chunk[..n]);
        let mut start = 0;
        while let Some(pos) = buf[start..].iter().position(|&b| b == b'\n') {
            let line = &buf[start..start + pos];
            start += pos + 1;
            // The sender queues each query before writing it, so its
            // record is there before its reply can be.
            let Ok(s) = sent.recv() else { return };
            let failure = if line == expected[s.query].as_bytes() {
                None
            } else {
                Some(classify(&String::from_utf8_lossy(line)))
            };
            let _ = done.send(Done {
                phase: s.phase,
                due_ns: s.due_ns,
                at_ns,
                failure,
            });
        }
        buf.drain(..start);
    }
}

/// Quantile `q` of sorted values (nearest rank); `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

fn ms(ns: Option<u64>) -> String {
    match ns {
        Some(u64::MAX) => "1e9".to_owned(),
        Some(v) => format!("{:.6}", v as f64 / 1e6),
        None => "null".to_owned(),
    }
}

/// The `RELOAD` side: connection 1, read without blocking.
struct Reloads {
    conn: TcpStream,
    buf: Vec<u8>,
    /// (scheduled ns, phase) of each `RELOAD` in flight.
    pending: VecDeque<(u64, usize)>,
    failed: u64,
}

impl Reloads {
    /// Collects the replies that have arrived.
    fn poll(&mut self, epoch: Instant, tally: &mut Tally) {
        let mut chunk = [0u8; 4096];
        loop {
            match self.conn.read(&mut chunk) {
                Ok(0) => {
                    self.failed += self.pending.len() as u64;
                    self.pending.clear();
                    return;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => return,
            }
        }
        let at_ns = epoch.elapsed().as_nanos() as u64;
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let ok = self.buf.starts_with(b"OK reloaded");
            self.buf.drain(..=pos);
            let Some((due_ns, phase)) = self.pending.pop_front() else {
                self.failed += 1;
                continue;
            };
            if ok {
                tally.phases[phase]
                    .reload_lat
                    .push(at_ns.saturating_sub(due_ns));
            } else {
                self.failed += 1;
            }
        }
    }
}

/// Waits until every query sent has a verdict and every `RELOAD` a
/// reply, or the timeout passes.
fn drain(
    epoch: Instant,
    done: &Receiver<Done>,
    tally: &mut Tally,
    reloads: &mut Reloads,
    sent: u64,
) -> bool {
    let until = Instant::now() + DRAIN_TIMEOUT;
    loop {
        reloads.poll(epoch, tally);
        if tally.completed >= sent && reloads.pending.is_empty() {
            return true;
        }
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        match done.recv_timeout(left.min(Duration::from_millis(1))) {
            Ok(d) => tally.record(d),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                reloads.poll(epoch, tally);
                return tally.completed >= sent && reloads.pending.is_empty();
            }
        }
    }
}

/// Opens one connection and has it answer one query, so the server has
/// given it a handler before the next connection opens: `serve` hands a
/// connection that arrives while a handler is parked to that handler
/// without growing the pool, so back-to-back connects can leave the
/// second queued behind the first until it closes (see NOTES.md).
fn connect(addr: &str, probe: &str, expected: &str) -> Result<(TcpStream, bool), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.write_all(format!("{probe}\n").as_bytes())
        .map_err(|e| format!("sending: {e}"))?;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match s.read(&mut byte) {
            Ok(0) => return Err("connection closed during warm-up".to_owned()),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e) => return Err(format!("warm-up read: {e}")),
        }
    }
    Ok((s, line == expected.as_bytes()))
}

pub fn run(flags: &Flags) -> Result<(), String> {
    let addr = flags.str("addr")?;
    let pool = read_queries(flags.str("queries")?)?;
    let top: usize = flags.num("top")?;
    let seed: u64 = flags.num("seed")?;
    let phases = parse_phases(flags.str("phases")?)?;
    let spans_out = flags.opt("spans");

    let set = load_source(flags.str("source")?, LoadMode::Owned)
        .map_err(|e| format!("loading the oracle source: {e}"))?;
    let expected = oracle::expected_replies(&set, &pool, top);
    drop(set);

    let probe = pool[0].join(" ");
    let (mut queries, ok0) = connect(addr, &probe, &expected[0])?;
    let (reload_conn, ok1) = connect(addr, &probe, &expected[0])?;
    reload_conn
        .set_nonblocking(true)
        .map_err(|e| e.to_string())?;
    let warmup_failures = u64::from(!ok0) + u64::from(!ok1);
    let reader = queries.try_clone().map_err(|e| e.to_string())?;

    let total: usize = phases
        .iter()
        .map(|p| (p.rate * p.seconds).ceil() as usize)
        .sum();
    let stream = zipf_stream(pool.len(), total, seed);

    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut tally = Tally {
        phases: phases.iter().map(|_| PhaseRec::default()).collect(),
        kinds: [0; 5],
        completed: 0,
        keep_spans: spans_out.is_some(),
    };
    let mut reloads = Reloads {
        conn: reload_conn,
        buf: Vec::new(),
        pending: VecDeque::new(),
        failed: 0,
    };
    let mut out_phases = Vec::new();
    let mut sent_queries = 0u64;
    let mut next_query = 0usize;
    let (sent_tx, sent_rx) = channel::<Sent>();
    let (done_tx, done_rx) = channel::<Done>();
    std::thread::scope(|scope| -> Result<(), String> {
        let expected = &expected;
        scope.spawn(move || receiver(epoch, reader, sent_rx, done_tx, expected));
        let mut buf = Vec::new();
        let mut send_all = || -> Result<(), String> {
            for (pi, phase) in phases.iter().enumerate() {
                // A server that stopped answering fails the run's remaining
                // requests as dropped rather than stalling it.
                if !drain(epoch, &done_rx, &mut tally, &mut reloads, sent_queries) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
                let n = (phase.rate * phase.seconds).ceil() as usize;
                let period_ns = 1e9 / phase.rate;
                let t0 = now_ns() + 1_000_000;
                let end_ns = t0 + (phase.seconds * 1e9) as u64;
                let reload_ns = phase.reload_every.map(|d| d.as_nanos() as u64);
                let mut next_reload = reload_ns.map(|r| t0 + r / 2);
                let mut late = Vec::with_capacity(n);
                let mut batch_due = Vec::new();
                let mut i = 0usize;
                let due = |i: usize| t0 + (i as f64 * period_ns) as u64;
                loop {
                    let due_r = next_reload.filter(|&r| r < end_ns);
                    let Some(next_due) = (i < n).then(|| due(i)).into_iter().chain(due_r).min()
                    else {
                        break;
                    };
                    let now = now_ns();
                    if now < next_due {
                        std::thread::sleep(Duration::from_nanos(next_due - now));
                    }
                    let now = now_ns();
                    batch_due.clear();
                    while i < n && due(i) <= now {
                        let query = stream[next_query % stream.len()];
                        next_query += 1;
                        let record = Sent {
                            due_ns: due(i),
                            query,
                            phase: pi,
                        };
                        sent_tx.send(record).map_err(|_| "receiver thread ended")?;
                        buf.extend_from_slice(pool[query].join(" ").as_bytes());
                        buf.push(b'\n');
                        batch_due.push(due(i));
                        i += 1;
                    }
                    if !buf.is_empty() {
                        queries
                            .write_all(&buf)
                            .map_err(|e| format!("sending: {e}"))?;
                        buf.clear();
                    }
                    let sent_at = now_ns();
                    late.extend(batch_due.iter().map(|&d| sent_at.saturating_sub(d)));
                    if let (Some(r), Some(every)) = (due_r, reload_ns) {
                        if r <= now {
                            reloads.pending.push_back((r, pi));
                            reloads
                                .conn
                                .write_all(b"RELOAD\n")
                                .map_err(|e| format!("sending RELOAD: {e}"))?;
                            next_reload = Some(r + every);
                            tally.phases[pi].sent_reloads += 1;
                        }
                    }
                    reloads.poll(epoch, &mut tally);
                    while let Ok(d) = done_rx.try_recv() {
                        tally.record(d);
                    }
                }
                sent_queries += n as u64;
                let drained = drain(epoch, &done_rx, &mut tally, &mut reloads, sent_queries);

                let rec = &tally.phases[pi];
                let mut lat = rec.lat.clone();
                // Backlog: median latency of the last quarter of the phase
                // against the first quarter, in reply order.
                let quarter = lat.len() / 4;
                let first_q = quarter_median(&lat[..quarter]);
                let last_q = quarter_median(&lat[lat.len() - quarter..]);
                let growing =
                    !drained || last_q > first_q.saturating_mul(2).saturating_add(100_000);
                lat.sort_unstable();
                let mut reload_lat = rec.reload_lat.clone();
                reload_lat.sort_unstable();
                late.sort_unstable();
                let span_s = rec.last_reply_ns.saturating_sub(t0) as f64 / 1e9;
                let achieved = if span_s > 0.0 { n as f64 / span_s } else { 0.0 };
                out_phases.push(format!(
                "{{\"name\": \"{}\", \"rate\": {}, \"sent\": {n}, \"samples\": {}, \"failed\": {}, \
                 \"mismatched\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"p999_ms\": {}, \
                 \"late_p99_ms\": {}, \"achieved_qps\": {achieved:.1}, \"backlog_growing\": {growing}, \
                 \"sent_reloads\": {}, \"reload_ms\": [{}]}}",
                phase.name,
                phase.rate,
                lat.len(),
                rec.failed,
                rec.mismatched,
                ms(quantile(&lat, 0.5)),
                ms(quantile(&lat, 0.99)),
                ms(quantile(&lat, 0.999)),
                ms(quantile(&late, 0.99)),
                rec.sent_reloads,
                reload_lat
                    .iter()
                    .map(|&v| format!("{:.6}", v as f64 / 1e6))
                    .collect::<Vec<_>>()
                    .join(", "),
            ));
            }
            Ok(())
        };
        let sent = send_all();
        // Closing the query connection ends the receiver: the server
        // answers what it has and closes its side.
        drop(sent_tx);
        let _ = queries.shutdown(Shutdown::Write);
        while let Ok(d) = done_rx.recv() {
            tally.record(d);
        }
        sent
    })?;

    // Requests still unanswered at the end were dropped.
    tally.kinds[Failure::Dropped as usize] += sent_queries.saturating_sub(tally.completed);
    tally.kinds[Failure::Err as usize] += reloads.failed + reloads.pending.len() as u64;
    tally.kinds[Failure::Mismatch as usize] += warmup_failures;
    let failed: u64 = tally.kinds.iter().sum();

    if let Some(path) = spans_out {
        let mut lines = String::new();
        // Ladder and settle steps are left out: the measured windows are
        // the reference, reload and low-rate ones.
        let measured = |name: &str| ["ref", "reload", "low"].iter().any(|k| name.starts_with(k));
        for (rec, phase) in tally.phases.iter().zip(&phases) {
            if !measured(&phase.name) {
                continue;
            }
            for (id, &(start, end)) in rec.spans.iter().enumerate() {
                lines.push_str(&format!(
                    "{{\"name\": \"request\", \"phase\": \"{}\", \"id\": {id}, \"start_ns\": {start}, \"end_ns\": {end}}}\n",
                    phase.name
                ));
            }
        }
        std::fs::write(path, lines).map_err(|e| format!("writing {path}: {e}"))?;
    }

    let k = tally.kinds;
    let sent_reloads: u64 = tally.phases.iter().map(|p| p.sent_reloads).sum();
    println!(
        "{{\"sent\": {}, \"sent_queries\": {}, \"warmups\": 2, \"failed\": {failed}, \
         \"failed_err\": {}, \"failed_busy\": {}, \"failed_timeout\": {}, \"failed_mismatch\": {}, \
         \"failed_dropped\": {}, \"zipf\": {ZIPF}, \"pool\": {}, \"phases\": [{}]}}",
        sent_queries + sent_reloads + 2,
        sent_queries + 2,
        k[0],
        k[1],
        k[2],
        k[3],
        k[4],
        pool.len(),
        out_phases.join(", ")
    );
    Ok(())
}

fn quarter_median(lat: &[u64]) -> u64 {
    let mut v = lat.to_vec();
    v.sort_unstable();
    quantile(&v, 0.5).unwrap_or(0)
}
