//! `serve-price`: an HTTP forecast service under open-loop load.
//!
//! An in-process `lip_serve::Server` (default configuration, ephemeral
//! address) serves a checkpoint of the ElectriPrice LiPFormer (T=96, H=24,
//! 4 channels, 8 numerical and 2 categorical covariates). Single-window
//! requests go out on two keep-alive connections, one client thread each
//! (the host has two cores), first back to back and then on a seeded
//! arrival schedule stepping through the ladder. Every served row must
//! hash to what a direct `BoundModel::run` of the same window gives.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lip_data::CovariateSpec;
use lip_exec::{compile_inference, BoundModel};
use lip_rng::rngs::StdRng;
use lip_rng::SeedableRng;
use lip_serde::Json;
use lip_serve::proto::{ForecastRequest, ForecastResponse};
use lip_serve::session::{SessionCache, SessionOptions};
use lip_serve::stats::StatsRegistry;
use lip_serve::{Server, ServerConfig};
use lipformer::{checkpoint, Forecaster};

use crate::common::{median, ms, row_hash, summarize, timed, Args, Report};
use crate::fixtures::{self, Fixture};
use crate::ladder::{self, ClosedOutcome, Rung, RungOutcome};
use crate::trace::Tracer;

/// Offered requests per second. Two connections sending back to back
/// complete 300–450 a second on the reference host, so `heavy` stays at
/// most about half of that.
const RUNGS: [Rung; 3] = [
    Rung {
        name: "light",
        rate: 30.0,
    },
    Rung {
        name: "mid",
        rate: 90.0,
    },
    Rung {
        name: "heavy",
        rate: 180.0,
    },
];
/// Tail latency a rung must stay within to count towards `max_rate_rps`.
pub const LIMIT_MS: f64 = 50.0;
/// Connections, and client threads: one per core of the reference host.
const CONNECTIONS: usize = 2;
/// Seeded windows the requests cycle through.
const POOL: usize = 64;
const VAL_STRIDE: usize = 4;

/// One request as the client saw it.
#[derive(Clone, Copy)]
struct Sample {
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
    queue_us: u64,
    run_us: u64,
    batched: u64,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }
    fn late_ms(&self) -> f64 {
        ms(self.sent - self.due)
    }
    /// Client round trip minus the server's queue and forward time.
    fn transport_us(&self) -> f64 {
        ms(self.done - self.sent) * 1e3 - (self.queue_us + self.run_us) as f64
    }
}

/// Request bodies and the golden row hash of each.
struct Pool {
    bodies: Vec<String>,
    golden: Vec<u64>,
}

fn request_for(fx: &Fixture, batch: &lip_data::window::Batch, path: &str) -> ForecastRequest {
    let rows = |t: &lip_tensor::Tensor, width: usize| -> Vec<Vec<f32>> {
        t.contiguous()
            .data()
            .chunks(width)
            .map(<[f32]>::to_vec)
            .collect()
    };
    let spec = &fx.prep.spec;
    ForecastRequest {
        checkpoint: path.to_string(),
        spec: spec.clone(),
        x: rows(&batch.x, fx.prep.channels),
        time_feats: rows(&batch.time_feats, spec.time_features),
        cov_numerical: batch
            .cov_numerical
            .as_ref()
            .map(|t| rows(t, spec.numerical)),
        cov_categorical: batch.cov_categorical.clone(),
        windows: None,
    }
}

fn build_pool(fx: &Fixture, bound: &mut BoundModel, path: &str, rng: &mut StdRng) -> Pool {
    let indices = fixtures::pick(&fx.prep.test, POOL, rng);
    let batches = fixtures::singles(&fx.prep.test, &indices);
    Pool {
        bodies: batches
            .iter()
            .map(|b| lip_serde::to_string(&request_for(fx, b, path)))
            .collect(),
        golden: batches
            .iter()
            .map(|b| row_hash(bound.run(b).data()))
            .collect(),
    }
}

// ---- a minimal keep-alive client ------------------------------------------

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(s)
}

/// Send one request and read its response body.
fn round_trip(stream: &mut TcpStream, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
    // head and body in one write: two small packets stall on delayed ACKs
    let mut req = format!(
        "POST /forecast HTTP/1.1\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    stream.write_all(&req)?;
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..end]).to_string();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut body = buf[end + 4..].to_vec();
    while body.len() < length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(length);
    Ok((status, body))
}

/// `(row hash, queue_us, run_us, batched)` of a 200 response.
fn decode(body: &[u8]) -> Option<(u64, u64, u64, u64)> {
    let json: Json = lip_serde::from_slice(body).ok()?;
    let rows: Vec<Vec<f32>> = json.field("forecast").ok()?;
    let flat: Vec<f32> = rows.into_iter().flatten().collect();
    Some((
        row_hash(&flat),
        json.field("queue_us").ok()?,
        json.field("run_us").ok()?,
        json.field("batched").ok()?,
    ))
}

/// Send the pool's requests on `CONNECTIONS` connections. With `due`,
/// request `i` is due `due[i]` seconds after the start and goes out on the
/// first free connection; without, each connection sends back to back for
/// `closed_for`.
fn drive(
    addr: SocketAddr,
    pool: &Pool,
    due: Option<&[f64]>,
    closed_for: f64,
    first: usize,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let stop = start
        + Duration::from_secs_f64(if due.is_some() {
            2.0 * closed_for
        } else {
            closed_for
        });
    let worker = || {
        let mut out = Vec::new();
        let mut conn = connect(addr).ok();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let at = match due {
                Some(d) if i < d.len() => start + Duration::from_secs_f64(d[i]),
                Some(_) => break,
                None => Instant::now(),
            };
            crate::common::sleep_until(at);
            let sent = Instant::now();
            if sent > stop {
                if due.is_some() {
                    // the backlog outran the rung: an unsent request misses
                    out.push(Sample {
                        due: at,
                        sent,
                        done: sent,
                        ok: false,
                        queue_us: 0,
                        run_us: 0,
                        batched: 0,
                    });
                    continue;
                }
                break;
            }
            let k = (first + i) % POOL;
            let reply = match conn.as_mut() {
                Some(c) => round_trip(c, &pool.bodies[k]).ok(),
                None => None,
            };
            let done = Instant::now();
            let decoded = match reply {
                Some((200, body)) => decode(&body),
                _ => {
                    conn = connect(addr).ok();
                    None
                }
            };
            out.push(match decoded {
                Some((hash, queue_us, run_us, batched)) => Sample {
                    due: at,
                    sent,
                    done,
                    ok: hash == pool.golden[k],
                    queue_us,
                    run_us,
                    batched,
                },
                None => Sample {
                    due: at,
                    sent,
                    done,
                    ok: false,
                    queue_us: 0,
                    run_us: 0,
                    batched: 0,
                },
            });
        }
        out
    };
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    samples.sort_by_key(|s| s.due);
    samples
}

/// A closed segment: round trips of the requests that succeeded.
fn closed_outcome(samples: &[Sample]) -> ClosedOutcome {
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let span = match (
        samples.iter().map(|s| s.sent).min(),
        samples.iter().map(|s| s.done).max(),
    ) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    ClosedOutcome {
        latency_ms: ok.iter().map(|s| ms(s.done - s.sent)).collect(),
        failed: (samples.len() - ok.len()) as u64,
        elapsed_s: span,
    }
}

fn outcome(
    name: &'static str,
    samples: &[Sample],
    scheduled: usize,
    start: Instant,
    duration: f64,
) -> RungOutcome {
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let last = samples.iter().map(|s| s.done).max().unwrap_or(start);
    let span = (last - start).as_secs_f64().max(duration);
    RungOutcome {
        name,
        latency_ms: ok.iter().map(|s| s.latency_ms()).collect(),
        late_ms: samples.iter().map(Sample::late_ms).collect(),
        scheduled,
        misses: (scheduled - ok.len()) as u64,
        achieved_rps: if span > 0.0 {
            ok.len() as f64 / span
        } else {
            0.0
        },
    }
}

/// Start a server with the default configuration and wait for the first
/// forecast, which loads and compiles the checkpoint.
fn start_server(body: &str) -> Server {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("bind a local port");
    let mut c = connect(server.addr()).expect("connect to the server");
    let (status, _) = round_trip(&mut c, body).expect("first request");
    assert_eq!(status, 200, "first request refused");
    server
}

/// Build the data and the model, write the checkpoint, and start a server
/// that has answered its first request. Returns the set-up seconds too.
fn set_up(path: &std::path::Path) -> (Fixture, Server, f64) {
    let t = Instant::now();
    let fx = fixtures::electri_price();
    checkpoint::save(path, &fx.config, fx.model.store()).expect("save the checkpoint");
    let first = fx.prep.test.batch(&[0]);
    let path = path.to_string_lossy();
    let server = start_server(&lip_serde::to_string(&request_for(&fx, &first, &path)));
    (fx, server, t.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let path = crate::common::scratch_dir().join(format!("price-{}.ckpt", std::process::id()));
    let path_str = path.to_string_lossy().into_owned();

    let (fx, server, first_s) = set_up(&path);
    let mut setup_s = vec![first_s];
    // further set-ups write their own checkpoint: rewriting the served one
    // would make the running server re-read it
    let spare = path.with_extension("setup.ckpt");
    let mut more_setups = |n: usize| {
        for _ in 0..n {
            let (_, server, t) = set_up(&spare);
            setup_s.push(t);
            server.shutdown();
        }
    };
    let (compiled, compile_ms) =
        timed(|| compile_inference(&fx.model, &fx.prep.spec).expect("compile"));
    let mut bound = compiled.bind(1);
    let pool = build_pool(&fx, &mut bound, &path_str, &mut rng);
    let addr = server.addr();

    let sent = std::cell::Cell::new(0usize);
    let ladder_samples = std::cell::RefCell::new(Vec::new());
    let share = if args.trace { 0.15 } else { 0.25 };
    let (closed, rungs) = ladder::run_rounds(
        args.seconds,
        share,
        &RUNGS,
        &mut rng,
        || {
            if !args.trace {
                more_setups(ladder::SETUPS_PER_ROUND);
            }
        },
        |d| {
            let samples = drive(addr, &pool, None, d, sent.get());
            sent.set(sent.get() + samples.len());
            closed_outcome(&samples)
        },
        |name, due, d| {
            let start = Instant::now();
            let samples = drive(addr, &pool, Some(due), d, sent.get());
            sent.set(sent.get() + samples.len());
            let o = outcome(name, &samples, due.len(), start, d);
            ladder_samples.borrow_mut().extend(samples);
            o
        },
    );
    let (sent, ladder_samples) = (sent.get(), ladder_samples.into_inner());
    report.attempted += closed.latency_ms.len() as u64 + closed.failed;
    report.failed += closed.failed;

    if !args.trace {
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("windows_per_s", closed.per_s(), "1/s");
        report.latency("", &closed.latency_ms);
        ladder::report_ladder(&mut report, &rungs, LIMIT_MS);
        report.metric(
            "val_mse",
            fixtures::forecast_mse(&compiled, &fx.prep.val, VAL_STRIDE),
            "mse",
        );
    } else {
        for o in &rungs {
            report.attempted += o.scheduled as u64;
            report.failed += o.misses;
        }
        report_serve(&mut report, &ladder_samples);
        let requests = 1 + sent as u64;
        report.metric("session.compiles", server.compiles() as f64, "count");
        report.metric(
            "session.hit_share",
            1.0 - server.compiles() as f64 / requests as f64,
            "share",
        );
        report_replays(&mut report, &pool, &path_str, &fx.prep.spec);
        let batches = fixtures::singles(&fx.prep.test, &(0..50).collect::<Vec<_>>());
        let run_ms: Vec<f64> = batches.iter().map(|b| timed(|| bound.run(b)).1).collect();
        crate::replay::report_exec(
            &mut report,
            &compiled,
            &bound,
            1,
            &[compile_ms],
            median(&run_ms),
        );
        crate::replay::report_kernels(&mut report, &compiled, &fx.prep.spec, 1, median(&run_ms));
        let mut tracer = Tracer::new(true);
        for (i, s) in ladder_samples.iter().enumerate() {
            let id = tracer.push("request", None, i as u64, s.due, s.done);
            tracer.push("client.wait", Some(id), i as u64, s.due, s.sent);
            tracer.push("http", Some(id), i as u64, s.sent, s.done);
        }
        // the client stamps every request anyway; recording spans adds no
        // work on the request path
        report.metric("trace.overhead", 0.0, "share");
        crate::write_spans(&tracer, "serve-price");
    }
    server.shutdown();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&spare);
    report
}

/// `serve.*` from the responses of the ladder's requests.
fn report_serve(report: &mut Report, samples: &[Sample]) {
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let col = |f: &dyn Fn(&Sample) -> f64| -> Vec<f64> { ok.iter().map(|s| f(s)).collect() };
    let queue = summarize(&col(&|s| s.queue_us as f64));
    let run = median(&col(&|s| s.run_us as f64));
    let transport = median(&col(&|s| s.transport_us()));
    let late = summarize(&col(&|s| s.late_ms()));
    let latency = median(&col(&|s| s.latency_ms()));
    let batched = col(&|s| s.batched as f64);
    report.metric("serve.queue_us.p50", queue.p50, "us");
    report.metric("serve.queue_us.tail", queue.tail, "us");
    report.metric("serve.run_us.p50", run, "us");
    report.metric("serve.transport_us.p50", transport, "us");
    report.metric("serve.batch_mean", crate::common::mean(&batched), "count");
    report.metric(
        "serve.coalesced_share",
        batched.iter().filter(|&&b| b > 1.0).count() as f64 / batched.len().max(1) as f64,
        "share",
    );
    report.metric("serve.late_ms.tail", late.tail, "ms");
    // per request, late + queue + run + transport is the latency exactly;
    // the ratio of the medians shows how far the parts' medians explain
    // the median latency
    report.metric(
        "serve.reconcile",
        (late.p50 + (queue.p50 + run + transport) / 1e3) / latency,
        "share",
    );
    report.note(format!(
        "serve: {} ladder responses, late tail is p{:.1}, queue tail is p{:.1}",
        ok.len(),
        late.tail_pct,
        queue.tail_pct
    ));
}

/// The server's per-request work, replayed in-process on the same bodies.
fn report_replays(report: &mut Report, pool: &Pool, path: &str, spec: &CovariateSpec) {
    let reps = 200;
    let body = |i: usize| pool.bodies[i % POOL].as_bytes();
    let parse: Vec<f64> = (0..reps)
        .map(|i| timed(|| ForecastRequest::parse(body(i)).expect("parse")).1 * 1e3)
        .collect();
    let cache = SessionCache::new(SessionOptions::default());
    let registry = StatsRegistry::default();
    let session = cache.get(path, spec, &registry).expect("load the session");
    let get: Vec<f64> = (0..reps)
        .map(|_| timed(|| cache.get(path, spec, &registry).expect("hit")).1 * 1e3)
        .collect();
    let windows: Vec<_> = (0..POOL)
        .map(|i| {
            ForecastRequest::parse(body(i))
                .expect("parse")
                .into_windows()
                .remove(0)
        })
        .collect();
    let validate: Vec<f64> = (0..reps)
        .map(|i| timed(|| session.validate_window(&windows[i % POOL]).is_ok()).1 * 1e3)
        .collect();
    let response = ForecastResponse {
        forecast: vec![vec![0.125f32; session.contract.channels]; session.contract.pred_len],
        model: session.key_hex.clone(),
        batched: 1,
        queue_us: 2000,
        run_us: 1500,
    };
    let write: Vec<f64> = (0..reps)
        .map(|_| timed(|| lip_serde::to_string(&response)).1 * 1e3)
        .collect();
    report.metric("proto.parse_us", median(&parse), "us");
    report.metric("session.get_us", median(&get), "us");
    report.metric("session.validate_us", median(&validate), "us");
    report.metric("serde.write_us", median(&write), "us");
    report.metric(
        "proto.body_bytes",
        pool.bodies.iter().map(String::len).sum::<usize>() as f64 / POOL as f64,
        "B",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A served forecast with one flipped bit must fail the row check.
    #[test]
    fn flipped_bit_counts_as_a_failure() {
        let fx = fixtures::electri_price();
        let compiled = compile_inference(&fx.model, &fx.prep.spec).expect("compile");
        let batch = fx.prep.test.batch(&[3]);
        let rows = compiled.bind(1).run(&batch).to_vec();
        let golden = row_hash(&rows);
        let response = |rows: &[f32]| {
            let forecast: Vec<Vec<f32>> =
                rows.chunks(fx.prep.channels).map(<[f32]>::to_vec).collect();
            lip_serde::to_string(&ForecastResponse {
                forecast,
                model: "m".into(),
                batched: 1,
                queue_us: 1,
                run_us: 1,
            })
        };
        let (hash, ..) = decode(response(&rows).as_bytes()).expect("decode");
        assert_eq!(hash, golden);
        let mut flipped = rows.clone();
        flipped[5] = f32::from_bits(flipped[5].to_bits() ^ 1);
        let (hash, ..) = decode(response(&flipped).as_bytes()).expect("decode");
        assert_ne!(hash, golden, "a one-bit change must not pass the check");
    }
}
