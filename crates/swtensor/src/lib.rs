//! # swtensor — dense tensor substrate and golden references
//!
//! swATOP optimises arithmetic-intensive DL operators: multi-channel
//! convolution and matrix multiplication. This crate provides
//!
//! * a dense f32 [`Tensor`] with explicit [`Shape`]s and strides, plus the
//!   layout permutations the scheduler's *layout transformation* explores;
//! * golden-reference implementations — direct MAC convolution (the paper's
//!   Alg. 1) and its gradients, reference GEMM, explicit-GEMM (im2col)
//!   convolution, and Winograd F(2×2, 3×3) convolution — used to validate
//!   everything the framework generates;
//! * deterministic initialisation and comparison helpers.
//!
//! The direct-convolution references ([`conv2d_ref`] and the
//! [`conv_grad`] pair) promise Algorithm-1 semantics with a fixed
//! per-element summation order, so their outputs are bit-identical to the
//! literal 7-deep loop nest however the loops are traversed. Validation
//! verdicts and `verify_tolerance` margins therefore cannot move when the
//! references get faster; `tests/prop.rs` pins this with `to_bits()`
//! equality against that loop nest.
//!
//! Everything here is hardware-agnostic and runs on the host; the simulated
//! machine only ever sees flat buffers whose layout is dictated by the
//! schedule under test.

pub mod compare;
pub mod conv;
pub mod conv_grad;
pub mod gemm;
pub mod im2col;
pub mod init;
pub mod shape;
pub mod tensor;
pub mod winograd;

pub use compare::{allclose, max_abs_diff};
pub use conv::{conv2d_ref, ConvShape};
pub use gemm::{gemm_ref, MatLayout};
pub use shape::Shape;
pub use tensor::Tensor;
