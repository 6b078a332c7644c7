//! The packed GEMM behind `matmul`, `matmul_t` and `t_matmul` must be
//! bit-identical to the naive product that sums each output from `+0.0`
//! in ascending inner index — the order every trained trajectory and
//! golden trace in the workspace was recorded with.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saps_tensor::Tensor;

/// `C[i][j] = Σ_p A[i][p]·B[p][j]`, accumulated from `+0.0` over
/// ascending `p`, with `a` row-major `m × k` and `b` row-major `k × n`.
fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Values in `[-2, 2)` of which about 30% are exact zeros (a few of
/// them `-0.0`), like post-ReLU activations and padded im2col columns.
fn operand(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let u: f32 = rng.gen();
            if u < 0.27 {
                0.0
            } else if u < 0.3 {
                -0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks all three products of a logical `m × k` A and `k × n` B
/// against [`naive`], bit for bit.
fn check_all_modes(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Tensor::from_vec(operand(m * k, &mut rng), &[m, k]);
    let b = Tensor::from_vec(operand(k * n, &mut rng), &[k, n]);
    let want = bits(&naive(a.data(), b.data(), m, k, n));
    let shape = format!("m={m} k={k} n={n} seed={seed}");

    let c = a.matmul(&b);
    assert_eq!(c.shape(), &[m, n]);
    assert_eq!(bits(c.data()), want, "matmul {shape}");

    let c = a.matmul_t(&b.transpose());
    assert_eq!(c.shape(), &[m, n]);
    assert_eq!(bits(c.data()), want, "matmul_t {shape}");

    let c = a.transpose().t_matmul(&b);
    assert_eq!(c.shape(), &[m, n]);
    assert_eq!(bits(c.data()), want, "t_matmul {shape}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_modes_match_naive_bits(
        m in 1usize..71,
        n in 1usize..71,
        k in 1usize..301,
        seed in any::<u64>(),
    ) {
        check_all_modes(m, k, n, seed);
    }
}

#[test]
fn empty_inner_dimension_gives_positive_zeros() {
    for (m, n) in [(1, 1), (5, 9), (70, 3)] {
        check_all_modes(m, 0, n, 1);
        let c = Tensor::zeros(&[m, 0]).matmul(&Tensor::zeros(&[0, n]));
        assert!(c.data().iter().all(|v| v.to_bits() == 0));
    }
}

#[test]
fn block_edges_match_naive_bits() {
    // Exact multiples of and one past the register tile, the packed
    // row block and the packed column block; the last shape spans three
    // `k` blocks, so a k-sum split at a block edge shows.
    for (m, k, n) in [
        (4, 8, 8),
        (64, 256, 16),
        (65, 257, 9),
        (3, 2, 1025),
        (1, 513, 1),
        (7, 600, 11),
    ] {
        check_all_modes(m, k, n, (m * 1_000_000 + k * 1_000 + n) as u64);
    }
}

#[test]
fn resnet_tiny_conv_shapes_match_naive_bits() {
    // im2col forward `[batch·oh·ow, C_in·9] · [C_in·9, C_out]` at batch 32.
    check_all_modes(8192, 72, 8, 11);
    check_all_modes(2048, 144, 16, 12);
}

#[test]
fn non_finite_b_against_zero_a_is_nan() {
    let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
    let b = Tensor::from_vec(vec![f32::INFINITY, 2.0], &[2, 1]);
    assert!(a.matmul(&b).data()[0].is_nan());
}
