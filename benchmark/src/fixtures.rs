//! Data and models at the paper's shapes.
//!
//! `GeneratorConfig::test` cannot make windows of T ≥ 336 ("train split too
//! short") and `GeneratorConfig::bench` caps Weather at 16 channels, so the
//! benchmark owns its generator settings: a quarter of each dataset's
//! Table II length, at most 4096 steps, and every channel.

use lip_data::pipeline::{prepare, PreparedData};
use lip_data::window::{Batch, WindowDataset};
use lip_data::{generate, DatasetName, GeneratorConfig};
use lip_exec::CompiledModel;
use lip_rng::rngs::StdRng;
use lip_rng::Rng;
use lipformer::{LiPFormer, LiPFormerConfig};

/// The data seed is fixed: the workload seed picks windows and arrival
/// times from the same series on every run.
const DATA_SEED: u64 = 2024;
/// The model's initialisation seed.
const MODEL_SEED: u64 = 7;

fn generator() -> GeneratorConfig {
    GeneratorConfig {
        seed: DATA_SEED,
        length_scale: 0.25,
        max_channels: usize::MAX,
        max_len: 4096,
    }
}

/// A dataset prepared for `(seq_len, pred_len)` windows and a fresh small
/// LiPFormer over it.
pub struct Fixture {
    pub prep: PreparedData,
    pub config: LiPFormerConfig,
    pub model: LiPFormer,
}

fn build(name: DatasetName, seq_len: usize, pred_len: usize) -> Fixture {
    let ds = generate(name, generator());
    let prep = prepare(&ds, seq_len, pred_len);
    let config = LiPFormerConfig::small(seq_len, pred_len, prep.channels);
    let model = LiPFormer::new(config.clone(), &prep.spec, MODEL_SEED);
    Fixture {
        prep,
        config,
        model,
    }
}

/// The serve and train workloads' dataset: ElectriPrice, T=96, H=24.
pub fn electri_price() -> Fixture {
    build(DatasetName::ElectriPrice, 96, 24)
}

/// The edge workload's dataset: Weather, all 21 channels, T=720, H=96.
pub fn weather_720() -> Fixture {
    build(DatasetName::Weather, 720, 96)
}

/// `count` window indices of `ds` drawn with replacement by `rng`.
pub fn pick(ds: &WindowDataset, count: usize, rng: &mut StdRng) -> Vec<usize> {
    (0..count).map(|_| rng.gen_range(0..ds.len())).collect()
}

/// One single-window batch per index.
pub fn singles(ds: &WindowDataset, indices: &[usize]) -> Vec<Batch> {
    indices.iter().map(|&i| ds.batch(&[i])).collect()
}

/// MSE of `compiled`'s forecasts over every `stride`-th window of `ds`,
/// run in batches of 32. Fixed windows, so any change to the forecast
/// numerics moves it.
pub fn forecast_mse(compiled: &CompiledModel, ds: &WindowDataset, stride: usize) -> f64 {
    let indices: Vec<usize> = (0..ds.len()).step_by(stride).collect();
    let (mut sq, mut n) = (0.0f64, 0usize);
    for chunk in indices.chunks(32) {
        let batch = ds.batch(chunk);
        let pred = compiled.bind(chunk.len()).run(&batch);
        for (p, y) in pred.data().iter().zip(batch.y.data()) {
            sq += f64::from(p - y).powi(2);
        }
        n += pred.numel();
    }
    sq / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_windows_have_the_paper_shape() {
        let fx = weather_720();
        let b = fx.prep.test.batch(&[0]);
        assert_eq!(b.x.shape(), &[1, 720, 21]);
        assert_eq!(b.y.shape(), &[1, 96, 21]);
        let compiled = lip_exec::compile_inference(&fx.model, &fx.prep.spec).expect("compile");
        let pred = compiled.bind(1).run(&b);
        assert_eq!(pred.shape(), &[1, 96, 21]);
    }

    #[test]
    fn price_requests_carry_the_covariate_layout() {
        let fx = electri_price();
        assert_eq!(fx.prep.channels, 4);
        assert_eq!(fx.prep.spec.numerical, 8);
        assert_eq!(fx.prep.spec.cardinalities.len(), 2);
        let b = fx.prep.test.batch(&[0]);
        assert_eq!(b.x.shape(), &[1, 96, 4]);
        assert_eq!(
            b.cov_numerical.as_ref().map(|t| t.shape().to_vec()),
            Some(vec![1, 24, 8])
        );
        let cats = b.cov_categorical.as_ref().expect("categorical covariates");
        assert_eq!(cats.len(), 2);
        assert!(cats.iter().all(|c| c.len() == 24));
    }
}
