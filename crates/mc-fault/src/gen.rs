//! Seeded generators for the adversarial suites.
//!
//! Everything here is a pure function of the [`FaultRng`] it is handed,
//! so any failing case reproduces from the property harness's printed
//! case seed. The generators deliberately avoid
//! `mc_task::generate` (which draws through the vendored `rand` traits):
//! this crate stays on its own PRNG so it can sit below every crate it
//! tests.

use crate::rng::FaultRng;
use mc_task::time::Duration;
use mc_task::{Criticality, ExecutionProfile, McTask, TaskId, TaskSet};

/// The period ladder (milliseconds) used by [`mixed_taskset`]. Chosen so
/// random sets keep a small hyperperiod (≤ 200 ms here), which keeps the
/// differential simulations fast enough for thousands of cases.
pub const PERIOD_LADDER_MS: [u64; 5] = [5, 10, 20, 25, 50];

/// A random dual-criticality task set: 1–3 HC tasks and 0–3 LC tasks on
/// the [`PERIOD_LADDER_MS`], with per-task budgets scaled down by the
/// task count so a useful fraction of generated sets is schedulable
/// (an all-unschedulable stream would make "schedulable ⇒ no miss"
/// oracles vacuous).
#[must_use]
#[expect(
    clippy::cast_possible_truncation,
    reason = "every draw is bounded by a small constant: at most six tasks and a ladder index"
)]
pub fn mixed_taskset(rng: &mut FaultRng) -> TaskSet {
    let hc = rng.range_u64(1, 3) as usize;
    let lc = rng.below(4) as usize;
    let total = (hc + lc) as u64;
    let mut ts = TaskSet::new();
    for i in 0..hc + lc {
        let high = i < hc;
        let period_ms = PERIOD_LADDER_MS[rng.below(PERIOD_LADDER_MS.len() as u64) as usize];
        let period = Duration::from_millis(period_ms);
        // Cap each budget near period/(2·total) so U stays plausible.
        let cap = (period.as_nanos() / (2 * total)).max(2);
        let task = if high {
            let c_hi = rng.range_u64(2, cap.max(2));
            let c_lo = rng.range_u64(1, c_hi);
            McTask::builder(TaskId::new(i as u32))
                .name(format!("hc{i}"))
                .criticality(Criticality::Hi)
                .period(period)
                .c_lo(Duration::from_nanos(c_lo))
                .c_hi(Duration::from_nanos(c_hi))
                .build()
        } else {
            let c = rng.range_u64(1, cap.max(1));
            McTask::builder(TaskId::new(i as u32))
                .name(format!("lc{i}"))
                .criticality(Criticality::Lo)
                .period(period)
                .c_lo(Duration::from_nanos(c))
                .build()
        };
        ts.push(task.expect("generator respects builder invariants"))
            .expect("generator ids are unique");
    }
    ts
}

/// A single high-criticality task with an attached [`ExecutionProfile`]
/// and `C_LO = ⌈ACET + n·σ⌉` (the paper's Eq. 6 budget, clamped to
/// `[1, WCET_pes]`). The period leaves slack (`≥ 4 × WCET_pes`) so any
/// deadline miss in simulation is a scheduling bug, not overload.
#[must_use]
pub fn profiled_hc_task(rng: &mut FaultRng, id: u32, n: f64) -> McTask {
    let wcet_pes = rng.range_u64(10_000, 1_000_000); // 10 µs – 1 ms
    let acet = wcet_pes as f64 * rng.range_f64(0.10, 0.40);
    let sigma = acet * rng.range_f64(0.05, 0.30);
    let profile = ExecutionProfile::new(acet, sigma, wcet_pes as f64)
        .expect("generator respects profile invariants");
    #[expect(
        clippy::cast_possible_truncation,
        reason = "clamped to [1, wcet_pes], a u64"
    )]
    let c_lo = (acet + n * sigma).ceil().clamp(1.0, wcet_pes as f64) as u64;
    let period = Duration::from_nanos(wcet_pes * rng.range_u64(4, 20));
    McTask::builder(TaskId::new(id))
        .name(format!("profiled{id}"))
        .criticality(Criticality::Hi)
        .period(period)
        .c_lo(Duration::from_nanos(c_lo))
        .c_hi(Duration::from_nanos(wcet_pes))
        .profile(profile)
        .build()
        .expect("generator respects builder invariants")
}

/// The shape of a random campaign, expressed as plain data so `mc-exp`
/// (which sits *above* this crate) can turn it into a `CampaignSpec`
/// without a dependency cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecShape {
    /// Campaign seed.
    pub seed: u64,
    /// One parameter value per axis point (e.g. target utilizations).
    pub point_values: Vec<f64>,
    /// Replicas per point.
    pub replicas: usize,
}

/// A random campaign shape: 1–5 points, 1–4 replicas, values in
/// `[0.05, 0.95]` rounded to two decimals (keeps labels and JSON short).
#[must_use]
#[expect(
    clippy::cast_possible_truncation,
    reason = "the draws are at most 5 points and 4 replicas"
)]
pub fn spec_shape(rng: &mut FaultRng) -> SpecShape {
    let points = rng.range_u64(1, 5) as usize;
    let point_values = (0..points)
        .map(|_| (rng.range_f64(0.05, 0.95) * 100.0).round() / 100.0)
        .collect();
    SpecShape {
        seed: rng.next_u64(),
        point_values,
        replicas: rng.range_u64(1, 4) as usize,
    }
}

/// The distribution families [`exec_samples`] draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFamily {
    /// Gaussian clipped to stay positive.
    Normal,
    /// Heavy right tail (exponential of a Gaussian).
    LogNormal,
    /// Flat over a positive interval.
    Uniform,
    /// Two Gaussian modes — the cache-hit/cache-miss shape real
    /// execution-time traces show.
    Bimodal,
}

/// One standard-normal draw (Box–Muller; consumes two uniforms).
fn normal(rng: &mut FaultRng) -> f64 {
    // Map [0,1) → (0,1] so ln() is finite.
    let u1 = 1.0 - rng.f64();
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `count` positive execution-time samples (nanosecond scale) from a
/// randomly chosen [`TraceFamily`]. Returns the family alongside the
/// samples so oracles can report which shape failed.
#[must_use]
pub fn exec_samples(rng: &mut FaultRng, count: usize) -> (TraceFamily, Vec<f64>) {
    let family = match rng.below(4) {
        0 => TraceFamily::Normal,
        1 => TraceFamily::LogNormal,
        2 => TraceFamily::Uniform,
        _ => TraceFamily::Bimodal,
    };
    let mean = rng.range_f64(1_000.0, 100_000.0);
    let sigma = mean * rng.range_f64(0.05, 0.5);
    let samples = (0..count)
        .map(|_| {
            let x = match family {
                TraceFamily::Normal => mean + sigma * normal(rng),
                TraceFamily::LogNormal => mean * (0.4 * normal(rng)).exp(),
                TraceFamily::Uniform => rng.range_f64(mean - sigma, mean + sigma),
                TraceFamily::Bimodal => {
                    let centre = if rng.bool(0.7) { mean } else { mean * 2.0 };
                    centre + 0.2 * sigma * normal(rng)
                }
            };
            x.max(1.0)
        })
        .collect();
    (family, samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_tasksets_satisfy_the_model_invariants() {
        let mut rng = FaultRng::new(101);
        for _ in 0..300 {
            let ts = mixed_taskset(&mut rng);
            assert!(ts.hc_count() >= 1);
            assert!(ts.len() <= 6);
            for t in ts.iter() {
                assert!(t.c_lo() <= t.c_hi());
                assert!(t.c_hi() <= t.deadline());
                if !t.is_high() {
                    assert_eq!(t.c_lo(), t.c_hi());
                }
            }
            let hp = ts.hyperperiod().expect("ladder periods have an lcm");
            assert!(hp <= Duration::from_millis(200), "hyperperiod {hp:?}");
        }
    }

    #[test]
    fn taskset_generation_is_deterministic() {
        let a = mixed_taskset(&mut FaultRng::new(7));
        let b = mixed_taskset(&mut FaultRng::new(7));
        assert_eq!(a.tasks(), b.tasks());
    }

    #[test]
    fn profiled_tasks_keep_the_budget_inside_the_pessimistic_wcet() {
        let mut rng = FaultRng::new(5);
        for i in 0..200 {
            let t = profiled_hc_task(&mut rng, i, 3.0);
            let p = t.profile().expect("profiled task carries a profile");
            assert!(t.c_lo().as_nanos() as f64 >= p.acet());
            assert!(t.c_lo() <= t.c_hi());
            assert_eq!(t.c_hi().as_nanos() as f64, p.wcet_pes());
            assert!(t.period() >= t.c_hi().saturating_mul(4));
        }
    }

    #[test]
    fn spec_shapes_are_small_and_valid() {
        let mut rng = FaultRng::new(9);
        for _ in 0..200 {
            let s = spec_shape(&mut rng);
            assert!((1..=5).contains(&s.point_values.len()));
            assert!((1..=4).contains(&s.replicas));
            assert!(s.point_values.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn exec_samples_are_positive_and_family_shaped() {
        let mut rng = FaultRng::new(13);
        let mut families = std::collections::BTreeSet::new();
        for _ in 0..40 {
            let (family, xs) = exec_samples(&mut rng, 500);
            families.insert(format!("{family:?}"));
            assert_eq!(xs.len(), 500);
            assert!(xs.iter().all(|&x| x >= 1.0 && x.is_finite()));
        }
        assert!(
            families.len() >= 3,
            "sampler covers the families: {families:?}"
        );
    }
}
