//! `train-price`: training with weak data enriching on the tape
//! (ElectriPrice, T=96, H=24, B=32).
//!
//! The measured step mirrors `Trainer::fit`'s inner loop call for call
//! (`WindowDataset::batch`, `Forecaster::forward` on a `Graph`, Smooth-L1,
//! `Graph::backward`, `apply_to`, `GradClip::apply`, `AdamW::step`), after a
//! few contrastive steps that mirror `Trainer::pretrain`, so that each call
//! can be timed from outside. `val_mse` comes from `Trainer::pretrain` and
//! `Trainer::fit` themselves, run with a fixed epoch budget at one thread
//! and at the default budget; the two must agree bit for bit.
//!
//! The measured steps run at a one-thread `lip-par` budget: on the
//! reference host (a 2-vCPU virtual machine shared with other tenants) the
//! median two-thread step ranged 38–58 ms over ten runs, against 51–57 ms
//! at one thread, because every parallel region waits for the second core.
//! `par.speedup.train` still compares one thread with the default budget.

use std::time::Instant;

use lip_autograd::Graph;
use lip_data::window::WindowDataset;
use lip_exec::{compile_inference, CompiledModel};
use lip_nn::{AdamW, GradClip, Optimizer};
use lip_rng::rngs::StdRng;
use lip_rng::SeedableRng;
use lipformer::{ForecastMetrics, Forecaster, LiPFormer, TrainConfig, Trainer, WeaklySupervised};

use crate::common::{median, timed, Args, Report};
use crate::fixtures;
use crate::ladder::{self, Rung};
use crate::trace::Tracer;

const BATCH: usize = 32;
/// The measured steps' `lip-par` thread budget.
const THREADS: usize = 1;
/// Offered training steps per second, each one batch of 32 windows. A step
/// takes 45–70 ms on the reference host, so `heavy` keeps the trainer at
/// most about half busy; `light` still collects enough steps for a tail.
const RUNGS: [Rung; 3] = [
    Rung {
        name: "light",
        rate: 4.0,
    },
    Rung {
        name: "mid",
        rate: 6.0,
    },
    Rung {
        name: "heavy",
        rate: 8.0,
    },
];
/// Tail latency a rung must stay within to count towards `max_rate_rps`.
pub const LIMIT_MS: f64 = 500.0;
/// Contrastive steps before the fit steps, as `Trainer::pretrain` runs.
const PRETRAIN_STEPS: usize = 4;
/// Windows of the train and validation splits the `val_mse` protocol uses.
const VAL_WINDOWS: usize = 128;

/// The optimiser state of the mirrored loop.
struct Loop {
    model: LiPFormer,
    train: WindowDataset,
    opt: AdamW,
    clip: GradClip,
    rng: StdRng,
    beta: f32,
}

impl Loop {
    /// One contrastive pre-training step on seeded windows.
    fn contrastive_step(&mut self, tracer: &mut Tracer) -> bool {
        let idx = fixtures::pick(&self.train, BATCH, &mut self.rng);
        tracer.next_op();
        tracer.open("step");
        let batch = tracer.span("data.batch", || self.train.batch(&idx));
        let mut g = Graph::new(self.model.store());
        let model = &self.model;
        let loss = tracer.span("train.contrastive", || {
            model.contrastive_loss(&mut g, &batch)
        });
        let value = g.value(loss).item();
        let grads = tracer.span("train.backward", || g.backward(loss));
        drop(g);
        tracer.span("train.optim", || {
            grads.apply_to(self.model.store_mut());
            self.clip.apply(self.model.store_mut());
            self.opt.step(self.model.store_mut());
        });
        tracer.close();
        value.is_finite()
    }

    /// One prediction-training step on seeded windows. Returns whether the
    /// loss was finite and the tape's node count.
    fn fit_step(&mut self, tracer: &mut Tracer) -> (bool, usize) {
        let idx = fixtures::pick(&self.train, BATCH, &mut self.rng);
        tracer.next_op();
        tracer.open("step");
        let batch = tracer.span("data.batch", || self.train.batch(&idx));
        let mut g = Graph::new(self.model.store());
        tracer.open("train.forward");
        let pred = self.model.forward(&mut g, &batch, true, &mut self.rng);
        let target = g.constant(batch.y.clone());
        let loss = g.smooth_l1_loss(pred, target, self.beta);
        tracer.close();
        let (value, nodes) = (g.value(loss).item(), g.len());
        let grads = tracer.span("train.backward", || g.backward(loss));
        drop(g);
        tracer.span("train.optim", || {
            grads.apply_to(self.model.store_mut());
            self.clip.apply(self.model.store_mut());
            self.opt.step(self.model.store_mut());
        });
        tracer.close();
        (value.is_finite(), nodes)
    }
}

/// `val_mse` under the fixed protocol: one pre-training epoch and two fit
/// epochs over the first `VAL_WINDOWS` training windows, seeded by `seed`.
/// Returns the best validation MSE and the seconds it took.
fn trainer_val_mse(seed: u64) -> (f32, f64) {
    let mut fx = fixtures::electri_price();
    let train = fx.prep.train.truncated(VAL_WINDOWS);
    let val = fx.prep.val.truncated(VAL_WINDOWS);
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 2,
        pretrain_epochs: 1,
        batch_size: BATCH,
        seed,
        ..TrainConfig::fast()
    });
    let started = Instant::now();
    trainer.pretrain(&mut fx.model, &train);
    let report = trainer.fit(&mut fx.model, &train, &val);
    (report.best_val_loss, started.elapsed().as_secs_f64())
}

/// Build the data and the model and compile it. Returns the set-up seconds
/// and the compile milliseconds with them.
fn set_up() -> (fixtures::Fixture, CompiledModel, f64, f64) {
    let t = Instant::now();
    let fx = fixtures::electri_price();
    let (compiled, compile_ms) =
        timed(|| compile_inference(&fx.model, &fx.prep.spec).expect("compile"));
    (fx, compiled, t.elapsed().as_secs_f64(), compile_ms)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (fx, compiled, first_s, first_ms) = set_up();
    let (mut setup_s, mut compile_ms) = (vec![first_s], vec![first_ms]);
    let mut more_setups = |n: usize| {
        for _ in 0..n {
            let (_, _, t, c) = set_up();
            setup_s.push(t);
            compile_ms.push(c);
        }
    };
    let config = TrainConfig::fast();
    let mut tr = Loop {
        opt: AdamW::new(config.lr, 0.0),
        clip: GradClip::new(config.clip.expect("the fast protocol clips")),
        rng: StdRng::seed_from_u64(args.seed),
        beta: config.smooth_l1_beta,
        train: fx.prep.train,
        model: fx.model,
    };
    let mut tracer = Tracer::new(args.trace);
    for _ in 0..PRETRAIN_STEPS {
        let ok = tr.contrastive_step(&mut tracer);
        report.check(ok);
    }
    tr.model.freeze_encoders();
    tr.opt = AdamW::new(config.lr, config.weight_decay);
    let mut arrivals = StdRng::seed_from_u64(args.seed ^ 0x5eed);

    if !args.trace {
        let (closed, outcomes) = lip_par::with_threads(THREADS, || {
            ladder::run_rounds_single(
                args.seconds,
                0.25,
                &RUNGS,
                &mut arrivals,
                || more_setups(ladder::SETUPS_PER_ROUND),
                || tr.fit_step(&mut tracer).0,
            )
        });
        report.attempted += closed.latency_ms.len() as u64 + closed.failed;
        report.failed += closed.failed;
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("windows_per_s", closed.per_s() * BATCH as f64, "1/s");
        report.latency("", &closed.latency_ms);
        ladder::report_ladder(&mut report, &outcomes, LIMIT_MS);
        let (one, _) = lip_par::with_threads(1, || trainer_val_mse(args.seed));
        let (all, _) = trainer_val_mse(args.seed);
        report.check(one.is_finite() && one.to_bits() == all.to_bits());
        report.metric("val_mse", f64::from(all), "mse");
        return report;
    }

    more_setups(ladder::ROUNDS * ladder::SETUPS_PER_ROUND);
    // traced run: untraced and traced steps take turns
    let mut nodes = Vec::new();
    let mut copied = Vec::new();
    let mixed = lip_par::with_threads(THREADS, || {
        ladder::run_closed(0.5 * args.seconds, 20, |i| {
            tracer.set_enabled(i % 2 == 1);
            let before = lip_tensor::stats::snapshot();
            let (ok, n) = tr.fit_step(&mut tracer);
            if i % 2 == 1 {
                nodes.push(n as f64);
                copied.push(lip_tensor::stats::snapshot().since(&before).copied_bytes() as f64);
            }
            ok
        })
    });
    report.attempted += mixed.latency_ms.len() as u64 + mixed.failed;
    report.failed += mixed.failed;
    let val = fx.prep.val.truncated(VAL_WINDOWS);
    let val_ms: Vec<f64> = (0..3)
        .map(|_| {
            tracer.set_enabled(true);
            tracer.span("train.val", || {
                ForecastMetrics::evaluate(&tr.model, &val, BATCH)
            });
            *tracer
                .durations_ms("train.val")
                .last()
                .expect("closed span")
        })
        .collect();
    let (one, t1) = lip_par::with_threads(1, || trainer_val_mse(args.seed));
    let (all, tn) = trainer_val_mse(args.seed);
    report.check(one.is_finite() && one.to_bits() == all.to_bits());

    let turns = ladder::deal(&mixed.latency_ms, 2);
    report.metric(
        "data.batch_ms",
        median(&tracer.durations_ms("data.batch")),
        "ms",
    );
    report.metric(
        "train.forward_ms",
        median(&tracer.durations_ms("train.forward")),
        "ms",
    );
    report.metric(
        "train.contrastive_ms",
        median(&tracer.durations_ms("train.contrastive")),
        "ms",
    );
    report.metric(
        "train.backward_ms",
        median(&tracer.durations_ms("train.backward")),
        "ms",
    );
    report.metric(
        "train.optim_ms",
        median(&tracer.durations_ms("train.optim")),
        "ms",
    );
    report.metric("train.val_ms", median(&val_ms), "ms");
    report.metric("train.tape_nodes", median(&nodes), "count");
    report.metric("tensor.copied_bytes", median(&copied), "B");
    report.metric(
        "train.reconcile",
        median(&tracer.child_cover("step")),
        "share",
    );
    report.metric("par.speedup.train", t1 / tn, "x");
    report.metric(
        "trace.overhead",
        median(&turns[1]) / median(&turns[0]) - 1.0,
        "share",
    );

    lip_par::with_threads(THREADS, || {
        let mut bound = compiled.bind(BATCH);
        let batch = tr
            .train
            .batch(&fixtures::pick(&tr.train, BATCH, &mut arrivals));
        let run_ms: Vec<f64> = (0..10).map(|_| timed(|| bound.run(&batch)).1).collect();
        crate::replay::report_exec(
            &mut report,
            &compiled,
            &bound,
            BATCH,
            &compile_ms,
            median(&run_ms),
        );
        crate::replay::report_kernels(
            &mut report,
            &compiled,
            &fx.prep.spec,
            BATCH,
            median(&run_ms),
        );
    });
    crate::write_spans(&tracer, "train-price");
    report
}
