//! Shared pieces: command line, result line, summaries, process probes.

use std::time::{Duration, Instant};

/// The command line every workload takes.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One run's outcome: operation counts plus named metrics with units.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            !self.metrics.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|(n, _, _)| n.as_str())
    }

    /// A line of context printed above the metrics.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Report a latency sample's median and tail under `name` and note
    /// which percentile the tail is and how many samples it rests on.
    pub fn latency(&mut self, name: &str, latency_ms: &[f64]) {
        let s = summarize(latency_ms);
        self.metric(&format!("latency_p50_ms{name}"), s.p50, "ms");
        self.metric(&format!("latency_tail_ms{name}"), s.tail, "ms");
        self.note(format!(
            "latency{name}: {} samples, tail is p{:.1}{}",
            s.n,
            s.tail_pct,
            if s.blocks > 0 {
                format!(", the median over {} blocks of {BLOCK}", s.blocks)
            } else {
                String::new()
            }
        ));
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Human-readable lines, then the one-line JSON result (last line).
    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a metric that could not be
                // measured reads 0 and the run is already marked incorrect
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Median and tail of a latency sample. The tail is the highest
/// percentile with at least ten samples above it, per block of `BLOCK`
/// samples when there are two blocks or more.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    /// Blocks the tail is the median over (0: all samples pooled).
    pub blocks: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let all = pooled(values);
    let blocks = values.len() / BLOCK;
    if blocks < 2 {
        return all;
    }
    let tails: Vec<f64> = values.chunks_exact(BLOCK).map(|b| pooled(b).tail).collect();
    Summary {
        tail: pooled(&tails).p50,
        tail_pct: 100.0 * (BLOCK - 10) as f64 / BLOCK as f64,
        blocks,
        ..all
    }
}

/// Consecutive samples per block when a sample is large enough to split.
///
/// The tail of `BLOCK` samples is their 90th percentile. Taking it per
/// block and reporting the median over blocks keeps the percentile the
/// same however many samples a run collects, and keeps one stall of the
/// host from setting the tail of a whole run.
pub const BLOCK: usize = 100;

/// Median and tail of all samples together.
fn pooled(values: &[f64]) -> Summary {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary {
            n,
            p50: f64::NAN,
            tail: f64::NAN,
            tail_pct: 0.0,
            blocks: 0,
        };
    }
    let p50 = if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    };
    // index i has n-1-i samples above it; ask for ten
    let i = n.saturating_sub(11);
    Summary {
        n,
        p50,
        tail: v[i],
        tail_pct: 100.0 * (i + 1) as f64 / n as f64,
        blocks: 0,
    }
}

pub fn median(values: &[f64]) -> f64 {
    pooled(values).p50
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f` and return its result with the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms(t.elapsed()))
}

/// fnv1a over the little-endian bit patterns of `values`.
pub fn row_hash(values: &[f32]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    lip_serve::fnv1a(&bytes)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where a run may write scratch files: the build directory of the
/// checkout, which is ignored by version control.
pub fn scratch_dir() -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("benchmark/target"));
    let dir = base.join("benchrun");
    std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
    dir
}

/// Sleep until `deadline` (returns at once when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}
