//! Deterministic simulation kernel: the simulated-time unit, the clock
//! policy and the one source of randomness.
//!
//! The timing simulator is cycle-stepped: cores, the memory hierarchy
//! and the OS handler advance together, and [`clock`] decides whether a
//! loop ticks every cycle or skips straight to the next wake-up (plus
//! the `ISE_CELL_BUDGET` and `ISE_CKPT_EVERY` run limits). Determinism
//! is a hard requirement (the paper's experiments must be reproducible),
//! so all randomness flows through [`SimRng`], a small, seedable PRNG.
//!
//! # Example
//!
//! ```
//! use ise_engine::SimRng;
//!
//! let mut a = SimRng::seed_from(7);
//! let mut b = SimRng::seed_from(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.range(10, 20) < 20);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod clock;
pub mod rng;

pub use clock::{
    cell_budget, ckpt_every, cycle_skip_override, parse_cell_budget, parse_ckpt_every,
    parse_cycle_skip, skip_clock,
};
pub use rng::SimRng;

/// Simulation time, in core clock cycles.
pub type Cycle = u64;
