//! `edge-weather-720`: direct compiled inference at the paper's Table VII
//! shape (Weather, 21 channels, T=720, H=96, batch 1). The model is bound
//! once; one caller runs `BoundModel::run` on seeded windows, closed-loop
//! and on an open-loop ladder. HTTP, serde, the batcher, `bind` and
//! autograd are all bypassed.
//!
//! The caller runs at a one-thread `lip-par` budget. At B=1 the default
//! two-thread budget does not pay, and it makes every forecast wait for the
//! second core: on the reference host (2 vCPUs shared with other tenants)
//! one-second medians at two threads ranged 6.4–20.7 ms in one minute,
//! against 5.3–9.9 ms at one thread. The traced run still compares the two
//! (`par.speedup.exec`).

use std::time::Instant;

use lip_autograd::Graph;
use lip_data::window::Batch;
use lip_exec::{compile_inference, BoundModel, CompiledModel};
use lip_rng::rngs::StdRng;
use lip_rng::SeedableRng;
use lipformer::{Forecaster, LiPFormer};

use crate::common::{median, timed, Args, Report};
use crate::fixtures::{self, Fixture};
use crate::ladder::{self, Rung};
use crate::replay::{report_exec, report_kernels};
use crate::trace::Tracer;

/// Offered forecasts per second. A forecast takes 5–10 ms on the reference
/// host as its load from other tenants swings, so `heavy` keeps the caller
/// at most about half busy; heavier rungs make the tail follow those
/// swings more than the program.
const RUNGS: [Rung; 3] = [
    Rung {
        name: "light",
        rate: 10.0,
    },
    Rung {
        name: "mid",
        rate: 25.0,
    },
    Rung {
        name: "heavy",
        rate: 45.0,
    },
];
/// Tail latency a rung must stay within to count towards `max_rate_rps`.
pub const LIMIT_MS: f64 = 100.0;
/// Seeded windows cycled through by the caller.
const POOL: usize = 48;
/// The caller's `lip-par` thread budget.
const THREADS: usize = 1;
/// Every `VAL_STRIDE`-th validation window enters `val_mse`.
const VAL_STRIDE: usize = 4;

struct Setup {
    fx: Fixture,
    compiled: CompiledModel,
    bound: BoundModel,
}

/// Build the model, compile it and bind it at B=1. Returns the set-up
/// seconds and the compile milliseconds with it.
fn set_up() -> (Setup, f64, f64) {
    let t = Instant::now();
    let fx = fixtures::weather_720();
    let (compiled, compile_ms) =
        timed(|| compile_inference(&fx.model, &fx.prep.spec).expect("compile"));
    let bound = compiled.bind(1);
    let setup = Setup {
        fx,
        compiled,
        bound,
    };
    (setup, t.elapsed().as_secs_f64(), compile_ms)
}

/// The bit patterns of the tape's forecast for one window.
fn tape_bits(model: &LiPFormer, batch: &Batch) -> Vec<u32> {
    let mut g = Graph::new(model.store());
    let mut rng = StdRng::seed_from_u64(0);
    let y = model.forward(&mut g, batch, false, &mut rng);
    g.value(y).to_vec().iter().map(|v| v.to_bits()).collect()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let (mut s, first_s, first_ms) = set_up();
    let (mut setup_s, mut compile_ms) = (vec![first_s], vec![first_ms]);
    let mut more_setups = |n: usize| {
        for _ in 0..n {
            let (_, t, c) = set_up();
            setup_s.push(t);
            compile_ms.push(c);
        }
    };

    let indices = fixtures::pick(&s.fx.prep.test, POOL, &mut rng);
    let batches = fixtures::singles(&s.fx.prep.test, &indices);
    let golden: Vec<Vec<u32>> = batches.iter().map(|b| tape_bits(&s.fx.model, b)).collect();
    let mut tracer = Tracer::new(false);
    let forecast = |bound: &mut BoundModel, tracer: &mut Tracer, i: usize| -> bool {
        let k = i % POOL;
        tracer.next_op();
        tracer.open("forecast");
        let out = tracer.span("exec.run", || bound.run(&batches[k]));
        let ok = tracer.span("check", || {
            out.data()
                .iter()
                .map(|v| v.to_bits())
                .eq(golden[k].iter().copied())
        });
        tracer.close();
        ok
    };

    if !args.trace {
        let mut next = 0usize;
        let (closed, outcomes) = lip_par::with_threads(THREADS, || {
            ladder::run_rounds_single(
                args.seconds,
                0.25,
                &RUNGS,
                &mut rng,
                || more_setups(ladder::SETUPS_PER_ROUND),
                || {
                    next += 1;
                    forecast(&mut s.bound, &mut tracer, next)
                },
            )
        });
        report.attempted += closed.latency_ms.len() as u64 + closed.failed;
        report.failed += closed.failed;
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("windows_per_s", closed.per_s(), "1/s");
        report.latency("", &closed.latency_ms);
        ladder::report_ladder(&mut report, &outcomes, LIMIT_MS);
        report.metric(
            "val_mse",
            fixtures::forecast_mse(&s.compiled, &s.fx.prep.val, VAL_STRIDE),
            "mse",
        );
        return report;
    }

    more_setups(ladder::ROUNDS * ladder::SETUPS_PER_ROUND);
    // traced run: exec and kernel layers. Untraced, traced and
    // default-budget forecasts take turns, so host noise hits all three
    // alike.
    let default_threads = lip_par::max_threads();
    let mixed = ladder::run_closed(0.6 * args.seconds, 60, |i| {
        tracer.set_enabled(i % 3 == 1);
        let threads = if i % 3 == 2 { default_threads } else { THREADS };
        lip_par::with_threads(threads, || forecast(&mut s.bound, &mut tracer, i))
    });
    report.attempted += mixed.latency_ms.len() as u64 + mixed.failed;
    report.failed += mixed.failed;
    let turns = ladder::deal(&mixed.latency_ms, 3);
    let (plain, traced, default) = (&turns[0], &turns[1], &turns[2]);
    let run_ms = median(&tracer.durations_ms("exec.run"));
    lip_par::with_threads(THREADS, || {
        report_exec(&mut report, &s.compiled, &s.bound, 1, &compile_ms, run_ms);
        report_kernels(&mut report, &s.compiled, &s.fx.prep.spec, 1, run_ms);
    });
    report.metric("par.speedup.exec", median(plain) / median(default), "x");
    report.metric(
        "trace.overhead",
        median(traced) / median(plain) - 1.0,
        "share",
    );
    crate::write_spans(&tracer, "edge-weather-720");
    report
}
