//! Deterministic fault injection and a minimal property-testing harness.
//!
//! This crate is the adversarial arm of the `chebymc` workspace: it makes
//! the crash-safety claims of the experiment store and the analytical
//! claims of the scheduler/statistics crates *falsifiable at scale*,
//! deterministically, from single-integer seeds.
//!
//! The layers use `std` alone. The crate's one dependency is `mc-task`,
//! whose types the generators produce; it brings `mc-stats` and the
//! vendored `rand` into the graph too. `mc-task` and `mc-stats` therefore
//! reach the harness through dev-dependency cycles (DESIGN.md §12).
//!
//! * [`rng`] + [`prop`] — a seeded SplitMix64 PRNG and the workspace's
//!   only property-testing harness (generation, iteration-bounded
//!   shrinking, reproducing-seed failure reports).
//! * [`schedule`] + [`io`] — seed-derived fault schedules and the
//!   [`io::StoreIo`] trait with a production [`io::RealFile`] and an
//!   in-memory [`io::SimDisk`] that injects failed/short writes, failed
//!   fsyncs, ENOSPC, and crash-at-operation-N with torn tails.
//! * [`gen`] — generators for task sets, campaign shapes, and
//!   execution-time traces, consumed by the differential-oracle suites
//!   in `mc-sched`, `mc-stats`, and `mc-exp`.
//! * [`cluster`] — seed-derived process-death plans (which workers die
//!   after how many records, whether the coordinator is killed) for the
//!   mc-serve in-process cluster harness.
//!
//! DESIGN.md §12 documents the fault-schedule encoding and the
//! reproduce-from-seed workflow (`chebymc fault sweep --seed N`).

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::undocumented_unsafe_blocks,
    clippy::cast_possible_truncation
)]

pub mod cluster;
pub mod gen;
pub mod io;
pub mod prop;
pub mod rng;
pub mod schedule;

pub use cluster::{cluster_plan, ClusterPlan};
pub use io::{FaultStats, RealFile, SimDisk, SimFile, StoreIo};
pub use prop::{assert_prop, check, Counterexample, PropConfig, Shrink};
pub use rng::{mix64, FaultRng};
pub use schedule::{Fault, FaultSchedule};
