//! The `f32` dense tensor used by the neural-network substrate.

use crate::gemm::{gemm, View};
use crate::TensorError;
use rand::distributions::Distribution;
use rand::Rng;

/// A row-major, `f32`, n-dimensional dense tensor.
///
/// `Tensor` is the parameter/activation container for `saps-nn`. Its
/// operations are single-threaded and allocation-explicit, and every
/// reduction has a fixed order, so distributed-training experiments are
/// bit-for-bit reproducible; the matrix products run on one packed,
/// register-tiled GEMM that keeps that order (see `matmul`).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Creates a square identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer. Panics if `shape` does not cover `data`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        Self::try_from_vec(data, shape).expect("shape must cover data length")
    }

    /// Wraps an existing buffer, returning an error on mismatch.
    pub fn try_from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let n: usize = shape.iter().product();
        if n != data.len() {
            return Err(TensorError::BadShape {
                shape: shape.to_vec(),
                len: data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Samples each element i.i.d. from `N(0, std²)`.
    pub fn randn<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        let normal = StandardNormal;
        let data = (0..n).map(|_| normal.sample(rng) * std).collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Samples each element i.i.d. uniformly from `[-bound, bound]`.
    pub fn uniform<R: Rng>(shape: &[usize], bound: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.gen_range(-bound..=bound)).collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the buffer with a new shape of equal element count.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape must preserve element count");
        self.shape = shape.to_vec();
        self
    }

    /// Element at a 2-D index; the tensor must be 2-D.
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Element-wise sum with `other`. Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// In-place element-wise `self += alpha * other`.
    pub fn add_scaled_assign(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Element-wise difference `self - other`. Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Element-wise (Hadamard) product. Panics on shape mismatch.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "hadamard: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Returns `self * alpha`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared l2 norm of the flattened tensor.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum()
    }

    /// 2-D matrix product. Both operands must be 2-D with inner dims equal.
    ///
    /// Runs the packed, register-tiled GEMM shared by all three products;
    /// each output is summed from `+0.0` in ascending inner index with no
    /// fused multiply-add, so results are bit-reproducible.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.dims2("matmul: lhs");
        let (k2, n) = other.dims2("matmul: rhs");
        assert_eq!(k, k2, "matmul: inner dimensions must agree");
        let a = View::row_major(&self.data, k);
        let bt = View::col_major(&other.data, n);
        Tensor {
            shape: vec![m, n],
            data: gemm(m, k, n, a, bt),
        }
    }

    /// Matrix product with the *transpose* of `other`: `self * otherᵀ`.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.dims2("matmul_t: lhs");
        let (n, k2) = other.dims2("matmul_t: rhs");
        assert_eq!(k, k2, "matmul_t: inner dimensions must agree");
        let a = View::row_major(&self.data, k);
        let bt = View::row_major(&other.data, k);
        Tensor {
            shape: vec![m, n],
            data: gemm(m, k, n, a, bt),
        }
    }

    /// Matrix product of the transpose of `self` with `other`: `selfᵀ * other`.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        let (k, m) = self.dims2("t_matmul: lhs");
        let (k2, n) = other.dims2("t_matmul: rhs");
        assert_eq!(k, k2, "t_matmul: inner dimensions must agree");
        let a = View::col_major(&self.data, m);
        let bt = View::col_major(&other.data, n);
        Tensor {
            shape: vec![m, n],
            data: gemm(m, k, n, a, bt),
        }
    }

    /// The two dimensions of a 2-D tensor; `what` names it in the panic.
    fn dims2(&self, what: &str) -> (usize, usize) {
        assert_eq!(self.shape.len(), 2, "{what} must be 2-D");
        (self.shape[0], self.shape[1])
    }

    /// 2-D transpose.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose: tensor must be 2-D");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data: out,
        }
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }
}

/// A Box–Muller standard normal sampler (avoids pulling in `rand_distr`).
struct StandardNormal;

impl Distribution<f32> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        // Box–Muller: two uniforms -> one normal (we discard the pair).
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let f = Tensor::full(&[4], 2.5);
        assert!(f.data().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn eye_is_identity_for_matmul() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::randn(&[3, 3], 1.0, &mut rng);
        let i = Tensor::eye(3);
        let prod = a.matmul(&i);
        for (x, y) in prod.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn from_vec_checks_shape() {
        assert!(Tensor::try_from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::try_from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::BadShape { .. })
        ));
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let b = Tensor::randn(&[5, 3], 1.0, &mut rng);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.hadamard(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.sum(), 3.0);
        assert_eq!(a.norm_sq(), 5.0);
    }

    #[test]
    fn add_scaled_assign_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let g = Tensor::from_vec(vec![2.0, 4.0], &[2]);
        a.add_scaled_assign(&g, -0.5);
        assert_eq!(a.data(), &[0.0, -1.0]);
    }

    #[test]
    fn randn_has_reasonable_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        let mean = t.sum() / t.len() as f32;
        let var = t.norm_sq() / t.len() as f32 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).reshape(&[4]);
        assert_eq!(t.shape(), &[4]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_panics_on_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }
}
