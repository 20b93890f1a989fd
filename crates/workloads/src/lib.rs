//! Workload generators for the Strix evaluation.
//!
//! * [`nn`] — the Zama Deep-NN models (NN-20/50/100) of the paper's
//!   Fig. 7: a 28×28 encrypted image through a convolution plus dense
//!   layers of 92 neurons, every activation a ReLU evaluated with one
//!   programmable bootstrap.
//! * [`gates`] — boolean circuits (ripple-carry adder, equality and
//!   greater-than comparators) as dataflow `Program`s: the runtime
//!   streams them, and the simulator's graph is derived from them
//!   (`Program::workload`; an 8-bit adder runs 16 PBS over 8 levels
//!   once lowered, an 8-bit equality 15 PBS over 4).
//! * [`mnist`] — synthetic 28×28 images (seeded) standing in for the
//!   MNIST inputs the paper uses; Fig. 7 timing depends only on tensor
//!   shapes, not pixel values.

pub mod gates;
pub mod mnist;
pub mod nn;

pub use nn::{DeepNn, ReluSchedule};
