//! Shared completion accounting over a campaign's unit space.
//!
//! `chebymc exp status` and the mc-serve coordinator's lease table need
//! the same arithmetic, so it lives here once: which axis points are
//! fully replicated, and how far each `i/n` shard stripe has progressed.
//! Every function is pure over a completion predicate, so callers can
//! account against a [`Store`](crate::store::Store), a lease table's
//! in-memory set, or anything else that knows which units are done. (The
//! runner keeps per-point counters instead of rescanning the unit space
//! per record; its tests check them against [`points_complete`].)

use crate::run::Shard;
use crate::spec::CampaignSpec;

/// Completion of one `i/n` shard stripe of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardProgress {
    /// The stripe.
    pub shard: Shard,
    /// Units the stripe owns.
    pub units: usize,
    /// Owned units that are complete.
    pub done: usize,
}

impl ShardProgress {
    /// Whether every owned unit is complete. Empty stripes (more shards
    /// than units) are trivially complete.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.done == self.units
    }
}

/// Number of axis points whose every replica is complete.
#[must_use]
pub fn points_complete(spec: &CampaignSpec, is_complete: impl Fn(usize) -> bool) -> usize {
    (0..spec.points.len())
        .filter(|&p| (0..spec.replicas).all(|r| is_complete(p * spec.replicas + r)))
        .count()
}

/// Per-stripe completion counts for an `i/n` split of `total_units`.
///
/// # Panics
///
/// Panics when `count == 0` — a zero-way split has no stripes to report.
#[must_use]
pub fn shard_progress(
    total_units: usize,
    count: usize,
    is_complete: impl Fn(usize) -> bool,
) -> Vec<ShardProgress> {
    assert!(count > 0, "shard count must be at least 1");
    let mut out: Vec<ShardProgress> = (0..count)
        .map(|index| ShardProgress {
            shard: Shard { index, count },
            units: 0,
            done: 0,
        })
        .collect();
    for unit in 0..total_units {
        let p = &mut out[unit % count];
        p.units += 1;
        if is_complete(unit) {
            p.done += 1;
        }
    }
    out
}

/// Completion of one specific stripe (the lease table's per-lease check).
#[must_use]
pub fn one_shard_progress(
    total_units: usize,
    shard: Shard,
    is_complete: impl Fn(usize) -> bool,
) -> ShardProgress {
    let mut progress = ShardProgress {
        shard,
        units: 0,
        done: 0,
    };
    for unit in (0..total_units).filter(|&u| shard.owns(u)) {
        progress.units += 1;
        if is_complete(unit) {
            progress.done += 1;
        }
    }
    progress
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Param, PointSpec};

    fn spec(points: usize, replicas: usize) -> CampaignSpec {
        CampaignSpec {
            name: "acct".into(),
            seed: 3,
            params: vec![],
            points: (0..points)
                .map(|i| PointSpec::new(format!("p{i}"), vec![Param::new("i", i as f64)]))
                .collect(),
            replicas,
        }
    }

    #[test]
    fn points_complete_requires_every_replica() {
        let s = spec(3, 2);
        // Units 0,1 complete -> point 0 done; unit 2 only -> point 1 not.
        let done = [0usize, 1, 2];
        assert_eq!(points_complete(&s, |u| done.contains(&u)), 1);
        assert_eq!(points_complete(&s, |_| true), 3);
        assert_eq!(points_complete(&s, |_| false), 0);
    }

    #[test]
    fn shard_progress_partitions_the_units_exactly() {
        let progress = shard_progress(10, 3, |u| u < 4);
        let total: usize = progress.iter().map(|p| p.units).sum();
        let done: usize = progress.iter().map(|p| p.done).sum();
        assert_eq!(total, 10);
        assert_eq!(done, 4);
        // Stripe 0 owns 0,3,6,9; units 0 and 3 are done.
        assert_eq!(progress[0].units, 4);
        assert_eq!(progress[0].done, 2);
        assert_eq!(progress[1].shard.to_string(), "1/3");
    }

    #[test]
    fn empty_stripes_are_trivially_complete() {
        let progress = shard_progress(2, 4, |_| false);
        assert!(progress[2].is_complete() && progress[3].is_complete());
        assert!(!progress[0].is_complete());
    }

    #[test]
    fn one_shard_matches_the_full_split() {
        let all = shard_progress(17, 4, |u| u % 2 == 0);
        for (i, expect) in all.iter().enumerate() {
            let got = one_shard_progress(17, Shard { index: i, count: 4 }, |u| u % 2 == 0);
            assert_eq!(got, *expect);
        }
    }
}
