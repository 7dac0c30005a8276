//! Throttled campaign progress reporting on stderr.
//!
//! The runner drives one [`Progress`] after each group commit, so lines
//! reflect *persisted* units (fsync'd records), not merely finished
//! computations. Output is throttled to at most one line per second so a
//! fast campaign does not drown its own results.

use std::io::Write;
use std::time::{Duration, Instant};

/// Minimum interval between progress lines.
const THROTTLE: Duration = Duration::from_secs(1);

/// Progress/ETA reporter for one campaign session.
#[derive(Debug)]
pub struct Progress {
    enabled: bool,
    campaign_total: usize,
    session_total: usize,
    session_done: usize,
    points_total: usize,
    start: Instant,
    last_emit: Option<Instant>,
}

impl Progress {
    /// Builds a reporter. `campaign_total`/`points_total` size the whole
    /// campaign; `session_total` is this shard's pending unit count.
    /// A disabled reporter never writes.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "stderr progress and ETA reporting only; rates and throttling never reach the result store"
    )]
    pub fn new(
        enabled: bool,
        campaign_total: usize,
        points_total: usize,
        session_total: usize,
    ) -> Self {
        Progress {
            enabled,
            campaign_total,
            session_total,
            session_done: 0,
            points_total,
            start: Instant::now(),
            last_emit: None,
        }
    }

    /// Records `count` persisted units (one group commit); emits a
    /// throttled status line with the store-wide completion, the session
    /// rate, the ETA for this shard's remaining units, and how many axis
    /// points are fully done.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the ETA is a finite, non-negative count of seconds"
    )]
    pub fn units_done(&mut self, count: usize, store_completed: usize, points_done: usize) {
        self.session_done += count;
        if !self.enabled {
            return;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "stderr progress and ETA reporting only; rates and throttling never reach the result store"
        )]
        let now = Instant::now();
        let due = self
            .last_emit
            .is_none_or(|t| now.duration_since(t) >= THROTTLE)
            || self.session_done == self.session_total;
        if !due {
            return;
        }
        self.last_emit = Some(now);
        let elapsed = now.duration_since(self.start).as_secs_f64().max(1e-9);
        let rate = self.session_done as f64 / elapsed;
        let remaining = self.session_total - self.session_done;
        let eta = remaining as f64 / rate.max(1e-9);
        let pct = if self.campaign_total == 0 {
            100.0
        } else {
            100.0 * store_completed as f64 / self.campaign_total as f64
        };
        eprintln!(
            "exp: {store_completed}/{} units ({pct:.1}%) | {rate:.1} units/s | ETA {}s | points done {points_done}/{}",
            self.campaign_total,
            eta.ceil() as u64,
            self.points_total,
        );
        let _ = std::io::stderr().flush();
    }

    /// Emits the final session summary line (always, when enabled, even
    /// if the last throttled line was recent).
    pub fn finish(&self, store_completed: usize) {
        if !self.enabled {
            return;
        }
        eprintln!("{}", self.finish_line(store_completed));
    }

    /// The final summary line. A resume session with nothing pending gets
    /// its own wording — "0/0 pending units in 0.0s" reads like a failure.
    fn finish_line(&self, store_completed: usize) -> String {
        if self.session_total == 0 {
            return format!(
                "exp: nothing pending for this shard; store already holds {store_completed}/{} units",
                self.campaign_total,
            );
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "stderr progress and ETA reporting only; rates and throttling never reach the result store"
        )]
        let elapsed = Instant::now().duration_since(self.start).as_secs_f64();
        format!(
            "exp: session ran {}/{} pending units in {elapsed:.1}s; store holds {store_completed}/{} units",
            self.session_done, self.session_total, self.campaign_total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_reporter_counts_but_stays_silent() {
        let mut p = Progress::new(false, 10, 2, 4);
        for i in 0..4 {
            p.units_done(1, i + 1, 0);
        }
        assert_eq!(p.session_done, 4);
        p.finish(4);
    }

    #[test]
    fn enabled_reporter_is_throttled() {
        let mut p = Progress::new(true, 100, 5, 50);
        p.units_done(1, 1, 0);
        let first = p.last_emit;
        assert!(first.is_some(), "first unit emits immediately");
        p.units_done(1, 2, 0);
        assert_eq!(p.last_emit, first, "second unit within 1s is suppressed");
    }

    #[test]
    fn zero_pending_session_reports_an_up_to_date_store() {
        // A fully-resumed shard: the campaign holds 10 units, all already
        // persisted, so this session had nothing to do.
        let p = Progress::new(true, 10, 2, 0);
        let line = p.finish_line(10);
        assert_eq!(
            line,
            "exp: nothing pending for this shard; store already holds 10/10 units"
        );
        assert!(!line.contains("0/0"), "no meaningless 0/0 counter: {line}");
    }

    #[test]
    fn non_empty_session_keeps_the_rate_summary() {
        let mut p = Progress::new(true, 10, 2, 4);
        for i in 0..4 {
            p.units_done(1, i + 1, 0);
        }
        let line = p.finish_line(4);
        assert!(
            line.contains("session ran 4/4 pending units"),
            "unexpected summary: {line}"
        );
    }

    #[test]
    fn last_unit_always_emits() {
        let mut p = Progress::new(true, 2, 1, 2);
        p.units_done(1, 1, 0);
        let first = p.last_emit;
        p.units_done(1, 2, 1);
        assert_ne!(p.last_emit, first, "final unit bypasses the throttle");
    }
}
