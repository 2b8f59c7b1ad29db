//! # d2stgnn-graph
//!
//! Traffic-network substrate for the D²STGNN reproduction: weighted sensor
//! graphs built with the thresholded-Gaussian-kernel procedure of DCRNN, and
//! the transition-matrix algebra (forward/backward transitions, diagonal-
//! masked powers, spatial-temporal localized matrices of Eq. 4) that the
//! diffusion model consumes, for dense arrays and for the tensor crate's
//! [`CsrMatrix`] alike.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod city;
pub mod error;
mod network;
pub mod transition;

pub use city::SparseNetwork;
/// The one CSR type, re-exported: [`SparseNetwork`] stores and returns it.
pub use d2stgnn_tensor::CsrMatrix;
pub use network::TrafficNetwork;
