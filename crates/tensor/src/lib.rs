//! # d2stgnn-tensor
//!
//! A from-scratch, CPU-only tensor library with reverse-mode automatic
//! differentiation, built as the training substrate for the Rust
//! reproduction of **D²STGNN** (Shao et al., VLDB 2022). It replaces the
//! PyTorch stack the paper's implementation depends on.
//!
//! Layers:
//! * [`Array`] — dense row-major `f32` N-d arrays with broadcasting,
//!   (batched) matmul, reductions, slicing, and gather/scatter.
//! * [`Tensor`] — define-by-run autodiff handles over arrays.
//! * [`nn`] — Linear/MLP, GRU, LSTM, multi-head self-attention with
//!   sinusoidal positional encoding, dilated causal convolution, embeddings.
//! * [`optim`] — SGD and Adam with gradient clipping.
//! * [`losses`] — (masked) MAE, MSE, Huber.
//! * [`testing`] — finite-difference gradient checking, reused by
//!   downstream crates' test suites.
//!
//! ```
//! use d2stgnn_tensor::{Array, Tensor};
//! let a = Tensor::parameter(Array::from_vec(&[2, 2], vec![1., 2., 3., 4.]).unwrap());
//! let loss = a.square().sum_all();
//! loss.backward();
//! assert_eq!(loss.item(), 30.0);
//! assert_eq!(a.grad().unwrap().data(), &[2., 4., 6., 8.]);
//! ```

#![warn(missing_docs)]
// `unsafe` is denied everywhere except the audited SIMD micro-kernel module
// (`simd.rs` opts back in locally; the xlint `unsafe-audit` rule enforces a
// `// SAFETY:` justification on every block there and bans it elsewhere).
#![deny(unsafe_code)]

mod array;
mod buffers;
mod error;
mod gemm;
pub mod losses;
pub mod nn;
mod ops;
pub mod optim;
pub mod pool;
mod profile;
#[cfg(feature = "sanitize")]
mod sanitize;
pub mod shape;
pub mod simd;
pub mod sparse;
mod tensor;
pub mod testing;

pub use array::Array;
pub use error::TensorError;
pub use profile::{OpStat, ProfileReport, Tape};
pub use sparse::CsrMatrix;
pub use tensor::{no_grad, Tensor};
