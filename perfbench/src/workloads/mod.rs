//! The three workloads; see `perfbench/README.md` for why each exists.

pub mod bus_paper;
pub mod chip_eco;
pub mod serve_mix;
