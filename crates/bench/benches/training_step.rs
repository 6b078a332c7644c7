//! End-to-end round benchmarks: one communication round of SAPS-PSGD vs
//! D-PSGD on the scaled workload, one full-size single-model SGD step
//! for each Table II architecture, and one `resnet_tiny` step at the
//! batch the scaled ResNet workload trains with.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saps_baselines::{DPsgd, Fleet};
use saps_core::{SapsConfig, SapsPsgd, Trainer};
use saps_data::SyntheticSpec;
use saps_netsim::{BandwidthMatrix, TrafficAccountant};
use saps_nn::zoo;

fn bench_round(c: &mut Criterion) {
    let n = 8;
    let ds = SyntheticSpec::tiny().samples(1_000).generate(1);
    let bw = BandwidthMatrix::constant(n, 1.0);
    let mut g = c.benchmark_group("round");
    g.sample_size(20);

    g.bench_function("saps_round_8workers", |b| {
        let cfg = SapsConfig {
            workers: n,
            compression: 10.0,
            lr: 0.1,
            batch_size: 16,
            tthres: 6,
            ..SapsConfig::default()
        };
        let mut algo =
            SapsPsgd::new(cfg, &ds, &bw, |rng| zoo::mlp(&[16, 32, 4], rng)).expect("bench config");
        let mut traffic = TrafficAccountant::new(n);
        b.iter(|| black_box(algo.round(&mut traffic, &bw)))
    });

    g.bench_function("dpsgd_round_8workers", |b| {
        let fleet =
            Fleet::new(n, &ds, |rng| zoo::mlp(&[16, 32, 4], rng), 1, 16, 0.1).expect("fleet");
        let mut algo = DPsgd::new(fleet).expect("ring");
        let mut traffic = TrafficAccountant::new(n);
        b.iter(|| black_box(algo.round(&mut traffic, &bw)))
    });
    g.finish();
}

fn bench_full_size_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("full_size_sgd_step");
    g.sample_size(10);

    g.bench_function("mnist_cnn_batch4", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = zoo::mnist_cnn(&mut rng);
        let ds = SyntheticSpec::mnist_like().samples(64).generate(1);
        let batch = ds.sample_batch(4, &mut rng);
        b.iter(|| black_box(model.train_step(&batch, 0.05)))
    });

    g.bench_function("resnet20_batch2", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = zoo::resnet20(&mut rng);
        let ds = SyntheticSpec::cifar10_like().samples(16).generate(1);
        let batch = ds.sample_batch(2, &mut rng);
        b.iter(|| black_box(model.train_step(&batch, 0.1)))
    });

    g.bench_function("resnet_tiny_batch32", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = zoo::resnet_tiny(&mut rng);
        let ds = SyntheticSpec::tiny().features(256).samples(64).generate(1);
        let batch = ds.sample_batch(32, &mut rng);
        b.iter(|| black_box(model.train_step(&batch, 0.05)))
    });
    g.finish();
}

fn bench_flat_params(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let model = zoo::mnist_cnn(&mut rng);
    c.bench_function("flat_params_6.5M", |b| {
        b.iter(|| black_box(model.flat_params()))
    });
}

criterion_group!(
    benches,
    bench_round,
    bench_full_size_models,
    bench_flat_params
);
criterion_main!(benches);
