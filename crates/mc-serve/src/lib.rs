//! mc-serve — the distributed campaign service: a std-only TCP
//! coordinator that fans mc-exp campaigns out to worker processes and
//! survives the death of any of them.
//!
//! The coordinator accepts a [`CampaignSpec`](mc_exp::CampaignSpec)
//! (submitted over the wire or preloaded by the CLI), splits it into
//! *leases* — the same `i/n` unit striping `chebymc exp run --shard`
//! uses — and hands each connected worker one lease to run, and, once
//! the worker has finished a lease, one more queued behind it while
//! there are leases to spare, so the worker starts its next stripe
//! without waiting for the coordinator to commit the last one.
//! Workers recompute nothing the coordinator already holds: an
//! assignment carries the lease's already-complete unit indices, and the
//! coordinator's own result store *is* its checkpoint — the
//! group-committing, torn-tail-recovering mc-exp store. Each connection
//! is read through a buffer, and the `Record` frames already buffered are
//! committed with one fsync, so killing the coordinator loses at most
//! the batch being committed (none of it acknowledged) and a restart
//! resumes mid-campaign.
//!
//! Failure model: workers die abruptly (connection drop or heartbeat
//! silence) and their leases are reclaimed and reassigned; redelivered
//! units dedup at the store ([`Store::append_dedup`](mc_exp::Store::append_dedup)),
//! so delivery is at-least-once with exactly-once commitment. The merged
//! result is the store's canonical form — byte-identical to a serial
//! `chebymc exp run` of the same spec, which is what the in-process
//! cluster tests and the CI smoke job assert.
//!
//! * [`wire`] — the length-prefixed JSONL protocol (`Hello`/`Assign`/
//!   `Record`/…) and its framing.
//! * [`lease`] — the pure Pending → Assigned → Done lease state machine.
//! * [`coordinator`] — the TCP service: accept loop, per-connection
//!   buffered readers that group-commit records, heartbeat sweeper,
//!   checkpoint store.
//! * [`worker`] — the worker loop: connect-with-retry, a reader thread
//!   that takes frames off the connection as they arrive, lease
//!   execution over an [`mc_par::WorkerPool`], in-order record streaming.
//! * [`cluster`] — the in-process "local cluster" harness (coordinator +
//!   N worker threads over loopback) driven by seed-derived
//!   [`mc_fault::ClusterPlan`]s, used by `cargo test`.
//!
//! DESIGN.md §15 documents the wire protocol, the lease/heartbeat/
//! reclaim state machine, and the checkpoint format.

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::undocumented_unsafe_blocks,
    clippy::cast_possible_truncation
)]

pub mod cluster;
pub mod coordinator;
pub mod lease;
mod stop;
pub mod wire;
pub mod worker;

pub use cluster::{run_local_cluster, ClusterReport, LocalClusterConfig};
pub use coordinator::{Coordinator, CoordinatorConfig, ServeOutcome, StoreOpener};
pub use lease::{LeaseState, LeaseTable};
pub use wire::{read_frame, submit, write_frame, Message};
pub use worker::{
    run_worker, AddrSource, CatalogFactory, RunnerFactory, WorkerConfig, WorkerSummary,
};

use std::error::Error;
use std::fmt;

/// Errors produced by the campaign service.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A socket or file failure.
    Io(std::io::Error),
    /// A malformed or out-of-protocol frame from a peer.
    Protocol(String),
    /// A failure in the underlying experiment layer (store, runner,
    /// catalog).
    Exp(mc_exp::ExpError),
    /// The coordinator refused a submission or a connection.
    Rejected(String),
    /// A malformed request (bad address, zero workers, …).
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Exp(e) => write!(f, "{e}"),
            ServeError::Rejected(reason) => write!(f, "rejected: {reason}"),
            ServeError::Config(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Exp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<mc_exp::ExpError> for ServeError {
    fn from(e: mc_exp::ExpError) -> Self {
        ServeError::Exp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        assert!(ServeError::Protocol("bad frame".into())
            .to_string()
            .contains("bad frame"));
        assert!(ServeError::Rejected("busy".into())
            .to_string()
            .contains("rejected: busy"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}
