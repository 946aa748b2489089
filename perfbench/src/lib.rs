//! Helpers of the bemcap benchmark: percentiles and spreads, an in-memory
//! span tracer with per-layer self time, seeded generators, the
//! Maxwell-matrix output checks, host readings and the result line.
//!
//! The workloads themselves live in the `perfbench` binary
//! (`src/main.rs` and `src/workloads/`); see `perfbench/README.md`.

pub mod check;
pub mod host;
pub mod metrics;
pub mod out;
pub mod rng;
pub mod stats;
pub mod trace;
