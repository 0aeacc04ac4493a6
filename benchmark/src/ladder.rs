//! Open-loop load: seeded arrivals at a fixed ladder of rates.
//!
//! Every request is timed from when it was due, not from when it was sent,
//! so a stall also charges the requests queued behind it. A rung "meets
//! the limit" when every request succeeded, its tail latency is within the
//! workload's limit and its backlog did not grow.

use std::time::{Duration, Instant};

use lip_rng::rngs::StdRng;
use lip_rng::Rng;

use crate::common::{summarize, Report, Summary};

/// One step of the ladder: a name and an offered rate in operations per
/// second.
#[derive(Clone, Copy)]
pub struct Rung {
    pub name: &'static str,
    pub rate: f64,
}

/// Due offsets (seconds from the rung's start) at `rate` per second over
/// `duration` seconds: arrival `i` falls uniformly at random in its own
/// slot `[i, i + 1) / rate`, so the seed moves every arrival while the
/// count, and with it the offered rate, stays put.
pub fn jittered(rate: f64, duration: f64, rng: &mut StdRng) -> Vec<f64> {
    let n = (rate * duration).round() as usize;
    (0..n)
        .map(|i| (i as f64 + rng.gen::<f64>()) / rate)
        .collect()
}

/// What one rung measured.
pub struct RungOutcome {
    pub name: &'static str,
    /// Due-to-done latency of every completed request.
    pub latency_ms: Vec<f64>,
    /// How late each request was sent.
    pub late_ms: Vec<f64>,
    /// Requests scheduled in the rung.
    pub scheduled: usize,
    /// Requests that failed, were refused, or never went out.
    pub misses: u64,
    /// Completed requests per second of the rung's wall time: its scheduled
    /// length, or longer when the last completion came later.
    pub achieved_rps: f64,
}

impl RungOutcome {
    pub fn summary(&self) -> Summary {
        summarize(&self.latency_ms)
    }

    /// The backlog grew when the requests of the last quarter went out
    /// later than half the latency limit.
    pub fn backlog_grew(&self, limit_ms: f64) -> bool {
        let q = self.late_ms.len() / 4;
        q > 0 && summarize(&self.late_ms[self.late_ms.len() - q..]).p50 > 0.5 * limit_ms
    }

    pub fn meets(&self, limit_ms: f64) -> bool {
        self.misses == 0
            && !self.latency_ms.is_empty()
            && !self.backlog_grew(limit_ms)
            && self.summary().tail <= limit_ms
    }
}

/// The completed rate of the highest rung that meets the limit (0 when
/// none does).
pub fn max_rate(outcomes: &[RungOutcome], limit_ms: f64) -> f64 {
    outcomes
        .iter()
        .rev()
        .find(|o| o.meets(limit_ms))
        .map_or(0.0, |o| o.achieved_rps)
}

/// Drive one caller through a rung: request `i` is due at `due[i]`
/// seconds after the start and runs `op(i)`, which reports success.
/// Requests still unsent at twice the rung's length are misses.
pub fn run_single(
    name: &'static str,
    due: &[f64],
    duration: f64,
    mut op: impl FnMut(usize) -> bool,
) -> RungOutcome {
    let start = Instant::now();
    let cutoff = start + Duration::from_secs_f64(2.0 * duration);
    let mut latency_ms = Vec::with_capacity(due.len());
    let mut late_ms = Vec::with_capacity(due.len());
    let mut misses = 0u64;
    let mut last_done = start;
    for (i, &d) in due.iter().enumerate() {
        let at = start + Duration::from_secs_f64(d);
        // the caller waits busy: a sleeping vCPU is handed back to the
        // hypervisor, and waking it costs the next operation a delay that
        // follows other tenants' load, not the program
        while Instant::now() < at {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        if sent > cutoff {
            misses += (due.len() - i) as u64;
            break;
        }
        let ok = op(i);
        let done = Instant::now();
        last_done = done;
        late_ms.push(crate::common::ms(sent - at));
        if ok {
            latency_ms.push(crate::common::ms(done - at));
        } else {
            misses += 1;
        }
    }
    let span = (last_done - start).as_secs_f64().max(duration);
    RungOutcome {
        name,
        achieved_rps: if span > 0.0 {
            latency_ms.len() as f64 / span
        } else {
            0.0
        },
        latency_ms,
        late_ms,
        scheduled: due.len(),
        misses,
    }
}

/// What a closed loop measured: one caller, each operation sent when the
/// previous one returned.
pub struct ClosedOutcome {
    /// Latency of every operation that succeeded.
    pub latency_ms: Vec<f64>,
    pub failed: u64,
    pub elapsed_s: f64,
}

impl ClosedOutcome {
    /// Operations per second.
    pub fn per_s(&self) -> f64 {
        self.latency_ms.len() as f64 / self.elapsed_s
    }
}

/// Run `op(i)` back to back for `duration` seconds (and at least `min`
/// times).
pub fn run_closed(duration: f64, min: usize, mut op: impl FnMut(usize) -> bool) -> ClosedOutcome {
    let start = Instant::now();
    let mut latency_ms = Vec::new();
    let mut failed = 0u64;
    let mut i = 0usize;
    while i < min || start.elapsed().as_secs_f64() < duration {
        let t = Instant::now();
        if op(i) {
            latency_ms.push(crate::common::ms(t.elapsed()));
        } else {
            failed += 1;
        }
        i += 1;
    }
    ClosedOutcome {
        elapsed_s: start.elapsed().as_secs_f64(),
        latency_ms,
        failed,
    }
}

/// Rounds per run. The closed loop and the rungs take turns, so a slow
/// spell of the host lands on all of them alike rather than on one.
pub const ROUNDS: usize = 6;
/// Extra set-ups timed at the start of each round, for `setup_s`.
pub const SETUPS_PER_ROUND: usize = 2;

/// Run `ROUNDS` rounds, each `between()` then a closed segment and one
/// segment per rung, each `share` of `seconds` divided by the rounds, and
/// merge the segments of each kind.
pub fn run_rounds(
    seconds: f64,
    share: f64,
    rungs: &[Rung],
    rng: &mut StdRng,
    mut between: impl FnMut(),
    mut closed: impl FnMut(f64) -> ClosedOutcome,
    mut open: impl FnMut(&'static str, &[f64], f64) -> RungOutcome,
) -> (ClosedOutcome, Vec<RungOutcome>) {
    let segment = share * seconds / ROUNDS as f64;
    let mut all = ClosedOutcome {
        latency_ms: Vec::new(),
        failed: 0,
        elapsed_s: 0.0,
    };
    let mut merged: Vec<RungOutcome> = Vec::new();
    let mut completed_s = vec![0.0f64; rungs.len()];
    for _ in 0..ROUNDS {
        between();
        let c = closed(segment);
        all.elapsed_s += c.elapsed_s;
        all.latency_ms.extend(c.latency_ms);
        all.failed += c.failed;
        for (k, r) in rungs.iter().enumerate() {
            let due = jittered(r.rate, segment, rng);
            let o = open(r.name, &due, segment);
            if o.achieved_rps > 0.0 {
                completed_s[k] += o.latency_ms.len() as f64 / o.achieved_rps;
            }
            match merged.get_mut(k) {
                None => merged.push(o),
                Some(m) => {
                    m.latency_ms.extend(o.latency_ms);
                    m.late_ms.extend(o.late_ms);
                    m.scheduled += o.scheduled;
                    m.misses += o.misses;
                }
            }
        }
    }
    for (m, s) in merged.iter_mut().zip(completed_s) {
        m.achieved_rps = if s > 0.0 {
            m.latency_ms.len() as f64 / s
        } else {
            0.0
        };
    }
    (all, merged)
}

/// `run_rounds` for one caller running `op` for every operation.
pub fn run_rounds_single(
    seconds: f64,
    share: f64,
    rungs: &[Rung],
    rng: &mut StdRng,
    between: impl FnMut(),
    op: impl FnMut() -> bool,
) -> (ClosedOutcome, Vec<RungOutcome>) {
    let op = std::cell::RefCell::new(op);
    run_rounds(
        seconds,
        share,
        rungs,
        rng,
        between,
        |d| run_closed(d, 1, |_| (op.borrow_mut())()),
        |name, due, d| run_single(name, due, d, |_| (op.borrow_mut())()),
    )
}

/// Report the ladder's per-rung median latency and its highest passing
/// rate. A rung's tail decides whether it meets the limit and is printed
/// with it, but is no metric of its own: on the reference host it followed
/// the host's load more than the program (serve: spread 0.29–0.39 over ten
/// seeds, against at most 0.13 for the medians).
pub fn report_ladder(report: &mut Report, outcomes: &[RungOutcome], limit_ms: f64) {
    for o in outcomes {
        let s = o.summary();
        report.metric(&format!("latency_p50_ms.{}", o.name), s.p50, "ms");
        report.note(format!(
            "rung {}: {} due, {:.1}/s completed, {} missed, tail {:.3} ms (p{:.1} of {} samples), \
             backlog grew: {}, meets {limit_ms} ms: {}",
            o.name,
            o.scheduled,
            o.achieved_rps,
            o.misses,
            s.tail,
            s.tail_pct,
            s.n,
            o.backlog_grew(limit_ms),
            o.meets(limit_ms)
        ));
        report.attempted += o.scheduled as u64;
        report.failed += o.misses;
    }
    report.metric("max_rate_rps", max_rate(outcomes, limit_ms), "1/s");
}

/// Deal samples taken in turn by `k` interleaved variants back out.
pub fn deal(samples: &[f64], k: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); k];
    for (i, &v) in samples.iter().enumerate() {
        out[i % k].push(v);
    }
    out
}
