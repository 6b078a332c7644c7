//! Dense tensor and linear-algebra substrate for the SAPS-PSGD reproduction.
//!
//! This crate provides the two numeric workhorses the rest of the workspace
//! builds on:
//!
//! * [`Tensor`] — an `f32`, row-major, n-dimensional dense tensor used by the
//!   neural-network substrate (`saps-nn`) for parameters, activations and
//!   gradients. It is deliberately small: just the operations the paper's
//!   models need (GEMM, element-wise arithmetic, reductions). Its three
//!   matrix products are thin wrappers over one packed, register-tiled
//!   GEMM that is bit-identical to the plain ascending-k loop: every
//!   output starts at `+0.0` and adds `a·b` in ascending inner index, with
//!   no fused multiply-add and shape-only blocking, single-threaded.
//! * [`Mat`] — an `f64`, row-major matrix used for the *spectral* analysis of
//!   gossip matrices (`saps-gossip`): matrix products, symmetrization, and a
//!   deflated power-iteration eigensolver that extracts the second-largest
//!   eigenvalue ρ of `E[WᵀW]` (Assumption 3 of the paper).
//!
//! A handful of free functions in [`ops`] operate directly on `&[f32]`
//! slices; they are the hot path for model exchange (axpy, dot, masked
//! averaging) and are shared by every algorithm implementation.
//!
//! # Example
//!
//! ```
//! use saps_tensor::{Tensor, ops};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! assert_eq!(ops::dot(a.data(), b.data()), 5.0);
//! ```

#![warn(missing_docs)]

mod gemm;
mod mat;
pub mod ops;
pub mod rng;
pub mod scratch;
mod tensor;

pub use mat::Mat;
pub use tensor::Tensor;

/// Error type for shape mismatches and invalid tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two tensors had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// A shape whose element product does not match the data length.
    BadShape {
        /// The offending shape.
        shape: Vec<usize>,
        /// Number of elements actually provided.
        len: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs } => {
                write!(f, "shape mismatch: {lhs:?} vs {rhs:?}")
            }
            TensorError::BadShape { shape, len } => {
                write!(f, "shape {shape:?} does not cover {len} elements")
            }
        }
    }
}

impl std::error::Error for TensorError {}
