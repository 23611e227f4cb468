//! Parallel execution substrate for Monte-Carlo trial fan-out.
//!
//! The estimators in `mrw-core` run hundreds of independent random-walk
//! trials; this crate supplies the machinery to spread them over cores
//! without giving up determinism:
//!
//! * [`scope`] — [`par_map_with`], the one trial fan-out, built on
//!   `std::thread::scope` with dynamic self-scheduling so closures can
//!   borrow the graph without `Arc`, and its stateless wrapper
//!   [`par_map`]. Adaptive (precision-targeted) estimators run one
//!   [`par_map_with`] per wave of their stopping rule.
//! * [`seeds`] — counter-based seed derivation (SplitMix64) so that trial
//!   `i` sees the same RNG stream no matter which thread runs it or how many
//!   threads exist. Results are bit-for-bit reproducible across thread
//!   counts.
//!
//! Determinism contract: both `par_*` functions return results indexed by
//! item, not by completion order, and nothing in this crate ever mixes a
//! thread id into a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scope;
pub mod seeds;

pub use scope::{available_threads, par_map, par_map_with};
pub use seeds::SeedSequence;
