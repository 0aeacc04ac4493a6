//! Spans recorded from the benchmark's own code around calls into each
//! layer, plus probes of the clocks a per-call timer could use.
//!
//! Spans stay in memory while the run measures and are written out as
//! JSON lines when it ends. A disabled tracer records nothing, so the
//! untraced run pays one branch per call site.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Spans of one operation (a request, a forecast, a step) share this.
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new operation: later spans carry its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("close without open");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Record a span whose ends were stamped elsewhere (another thread).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name,
            parent,
            op,
            start_ns: at(start),
            end_ns: at(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Durations in milliseconds of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per parent span named `parent`: the share of its duration covered
    /// by its direct children.
    pub fn child_cover(&self, parent: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent && s.end_ns > s.start_ns)
            .map(|(i, s)| covered[i] as f64 / (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Smallest steps of the clocks this host offers, measured by spinning
/// until each one advances: `(Instant ns, schedstat ms, /proc/self/stat ms)`.
/// A per-call timer needs a step far below the call it times.
pub fn clock_steps() -> (f64, f64, f64) {
    let mut instant_ns = u128::MAX;
    for _ in 0..1000 {
        let a = Instant::now();
        let mut b = Instant::now();
        while b == a {
            b = Instant::now();
        }
        instant_ns = instant_ns.min((b - a).as_nanos());
    }
    let schedstat = || -> Option<f64> {
        let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        s.split_whitespace()
            .next()?
            .parse::<f64>()
            .ok()
            .map(|ns| ns / 1e6)
    };
    let procstat = || -> Option<f64> {
        let s = std::fs::read_to_string("/proc/self/stat").ok()?;
        let rest = s.rsplit(") ").next()?;
        let mut f = rest.split_whitespace().skip(11);
        let ticks: f64 = f.next()?.parse::<f64>().ok()? + f.next()?.parse::<f64>().ok()?;
        Some(ticks * 10.0)
    };
    (
        instant_ns as f64,
        median_step(schedstat),
        median_step(procstat),
    )
}

/// Spin (for at most 300 ms) reading `clock`, and return the median of
/// its nonzero increments in milliseconds.
fn median_step(clock: impl Fn() -> Option<f64>) -> f64 {
    let Some(mut last) = clock() else {
        return f64::NAN;
    };
    let started = Instant::now();
    let mut steps = Vec::new();
    while steps.len() < 16 && started.elapsed().as_millis() < 300 {
        let Some(now) = clock() else { return f64::NAN };
        if now != last {
            steps.push(now - last);
            last = now;
        }
    }
    crate::common::median(&steps)
}
