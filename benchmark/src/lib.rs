//! One benchmark for the whole xBGP pipeline. See `README.md`.
//!
//! The benchmark reaches the program only through public items of the
//! workspace crates; it has no engine, elision or shard knob — it measures
//! whatever the defaults are.

pub mod calib;
pub mod gen;
pub mod inproc;
pub mod layers;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
