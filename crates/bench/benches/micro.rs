//! Micro-benchmarks of the communication-path primitives — mask
//! generation, payload codecs, masked averaging, top-k selection — and
//! of the GEMM shapes the training step runs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use saps_compress::mask::RandomMask;
use saps_compress::topk::top_k_indices;
use saps_compress::{codec, quantize};
use saps_tensor::Tensor;

fn bench_mask_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("mask_generation");
    for &(n, ratio) in &[
        (1_000_000usize, 100.0f64),
        (1_000_000, 1000.0),
        (269_722, 100.0),
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("N{n}_c{ratio}")),
            &(n, ratio),
            |b, &(n, ratio)| {
                let mut round = 0u64;
                b.iter(|| {
                    round += 1;
                    black_box(RandomMask::generate(n, ratio, 42, round))
                });
            },
        );
    }
    g.finish();
}

fn bench_mask_apply_and_merge(c: &mut Criterion) {
    let n = 1_000_000;
    let mask = RandomMask::generate(n, 100.0, 42, 1);
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let payload = mask.apply(&x);
    let mut g = c.benchmark_group("mask_exchange");
    g.bench_function("apply_1M_c100", |b| {
        b.iter(|| black_box(mask.apply(black_box(&x))))
    });
    g.bench_function("average_into_1M_c100", |b| {
        let mut y = x.clone();
        b.iter(|| {
            mask.average_into(&mut y, black_box(&payload));
        })
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let vals: Vec<f32> = (0..10_000).map(|i| i as f32 * 0.5).collect();
    let idx: Vec<u32> = (0..10_000u32).map(|i| i * 3).collect();
    let mut g = c.benchmark_group("codec");
    g.bench_function("encode_values_10k", |b| {
        b.iter(|| black_box(codec::encode_values(black_box(&vals))))
    });
    let encoded = codec::encode_values(&vals);
    g.bench_function("decode_values_10k", |b| {
        b.iter(|| black_box(codec::decode_values(encoded.clone())))
    });
    g.bench_function("encode_index_value_10k", |b| {
        b.iter(|| black_box(codec::encode_index_value(&idx, &vals)))
    });
    g.finish();
}

fn bench_topk(c: &mut Criterion) {
    let mut g = c.benchmark_group("topk");
    for &n in &[100_000usize, 1_000_000] {
        let x: Vec<f32> = (0..n).map(|i| ((i * 2_654_435_761) % n) as f32).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(top_k_indices(black_box(&x), n / 1000)))
        });
    }
    g.finish();
}

fn bench_quantize(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let x: Vec<f32> = (0..100_000).map(|i| (i as f32).sin()).collect();
    c.bench_function("quantize_100k_4level", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(quantize::quantize(black_box(&x), 4, &mut rng)))
    });
}

/// A `rows × cols` operand with about 40% exact zeros, like post-ReLU
/// activations and padded im2col columns.
fn sparse_operand(rows: usize, cols: usize, seed: u64) -> Tensor {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen::<f32>() < 0.4 {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect();
    Tensor::from_vec(data, &[rows, cols])
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    g.sample_size(20);
    // resnet_tiny at batch 32: the 8→8 3×3 convs (im2col rows
    // 32·16·16, fan-in 8·9) and the 16→16 ones (rows 32·8·8, fan-in 16·9).
    for &(rows, fan_in, out) in &[(8192usize, 72usize, 8usize), (2048, 144, 16)] {
        let cols = sparse_operand(rows, fan_in, 1);
        let w = sparse_operand(fan_in, out, 2);
        let dy = sparse_operand(rows, out, 3);
        g.bench_function(format!("conv_fwd_{rows}x{fan_in}x{out}"), |b| {
            b.iter(|| black_box(cols.matmul(&w)))
        });
        g.bench_function(format!("conv_dw_t_matmul_{rows}x{fan_in}x{out}"), |b| {
            b.iter(|| black_box(cols.t_matmul(&dy)))
        });
        g.bench_function(format!("conv_dx_matmul_t_{rows}x{fan_in}x{out}"), |b| {
            b.iter(|| black_box(dy.matmul_t(&w)))
        });
    }
    // baselines-dense: the first layer of mlp[128, 256, 128, 10] at batch 100.
    let x = sparse_operand(100, 128, 4);
    let w = sparse_operand(128, 256, 5);
    g.bench_function("mlp_fc1_fwd_100x128x256", |b| {
        b.iter(|| black_box(x.matmul(&w)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_mask_generation,
    bench_mask_apply_and_merge,
    bench_codec,
    bench_topk,
    bench_quantize
);
criterion_main!(benches);
