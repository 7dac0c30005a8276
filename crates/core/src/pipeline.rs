//! Per-set evaluation behind the paper's Figs. 3–6 and the policy arena.
//!
//! Each figure averages a metric over many synthetic task sets per
//! utilisation point (1000 in the paper). The functions here handle one
//! set: they generate it from its seed (reproducibly), apply a
//! [`WcetPolicy`], and report design metrics ([`evaluate_policy_one_set`]),
//! an admission verdict ([`admit_lo_bounded_one_set`]) or an arena row
//! ([`evaluate_arena_one_set`]). They are the units of the `mc-exp`
//! catalog campaigns, whose runner does the averaging.

use crate::metrics::design_metrics;
use crate::policy::WcetPolicy;
use crate::CoreError;
use mc_sched::policy::{PolicySpec, SchedulingPolicy};
use mc_sched::sim::{SharedRuns, SimConfig};
use mc_task::automotive::{generate_automotive_taskset, AutomotiveConfig};
use mc_task::generate::{
    generate_hc_taskset, generate_lo_bounded_taskset, generate_mixed_taskset, GeneratorConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Derives the seed of the `set`-th task set at the `point`-th axis point
/// from a campaign base seed. SplitMix-style mixing keeps the streams
/// independent across points and sets. This is the seed contract of the
/// `mc-exp` campaign runners: any process that re-derives `(point, set)`
/// gets bit-identical task sets, which is what makes sharded and resumed
/// runs reproducible.
#[must_use]
pub fn derive_set_seed(base_seed: u64, point: usize, set: usize) -> u64 {
    let mut z = base_seed.wrapping_add(
        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + point as u64 * 65_537 + set as u64),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Design metrics of one generated-and-designed task set — the per-unit
/// quantity the Figs. 3–5 campaigns average.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SetEvaluation {
    /// Mode-switch probability bound (Eq. 10).
    pub p_ms: f64,
    /// `max(U_LC^LO)` (Eqs. 11–12).
    pub max_u_lc_lo: f64,
    /// Eq. 13 objective.
    pub objective: f64,
}

/// Generates one HC-only task set at utilisation `u` from `seed`, applies
/// `policy` (re-seeded to the same `seed`, inner parallelism pinned to
/// `inner_threads`), and returns its design metrics.
///
/// # Errors
///
/// Propagates generation, assignment, and metric errors.
pub fn evaluate_policy_one_set(
    u: f64,
    policy: &WcetPolicy,
    generator: &GeneratorConfig,
    seed: u64,
    inner_threads: usize,
) -> Result<SetEvaluation, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = {
        let _span = mc_obs::span("pipeline.generate");
        generate_hc_taskset(u, generator, &mut rng).map_err(CoreError::Task)?
    };
    {
        let _span = mc_obs::span("pipeline.assign");
        reseed(policy, seed, inner_threads).assign(&mut ts)?;
    }
    let _span = mc_obs::span("pipeline.metrics");
    let m = design_metrics(&ts)?;
    Ok(SetEvaluation {
        p_ms: m.p_ms,
        max_u_lc_lo: m.max_u_lc_lo,
        objective: m.objective,
    })
}

/// Re-seeds a policy's internal randomness so every task set gets an
/// independent draw, and pins the policy's inner parallelism to
/// `inner_threads` (a campaign unit's share of the thread budget).
fn reseed(policy: &WcetPolicy, seed: u64, inner_threads: usize) -> WcetPolicy {
    match policy {
        WcetPolicy::LambdaRange { lambda_min, .. } => WcetPolicy::LambdaRange {
            lambda_min: *lambda_min,
            seed,
        },
        WcetPolicy::ChebyshevGa { ga, problem } => WcetPolicy::ChebyshevGa {
            ga: mc_opt::GaConfig {
                seed,
                threads: inner_threads,
                ..*ga
            },
            problem: *problem,
        },
        other => other.clone(),
    }
}

/// The Fig. 6 verdict on one task set: generates a set whose **LO-mode**
/// utilisation reaches `u_bound`, with HC tasks budgeted the λ-baseline way
/// (`C_LO = λᵢ·C_HI`, `λᵢ ∈ lambda_range`), and reports whether
/// `scheduling` admits it. With `scheme = None` the set is tested as
/// generated (the published approaches); with `scheme = Some(policy)` the
/// policy (re-seeded to `seed`, inner parallelism pinned to
/// `inner_threads`) re-derives every `C_LO` first (the "+ our scheme"
/// variants).
///
/// # Errors
///
/// Propagates generation (including validation of `lambda_range`),
/// assignment and admission errors.
pub fn admit_lo_bounded_one_set(
    u_bound: f64,
    scheme: Option<&WcetPolicy>,
    scheduling: &PolicySpec,
    lambda_range: (f64, f64),
    generator: &GeneratorConfig,
    seed: u64,
    inner_threads: usize,
) -> Result<bool, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = {
        let _span = mc_obs::span("pipeline.generate");
        generate_lo_bounded_taskset(u_bound, lambda_range, generator, &mut rng)
            .map_err(CoreError::Task)?
    };
    if let Some(policy) = scheme {
        let _span = mc_obs::span("pipeline.assign");
        reseed(policy, seed, inner_threads).assign(&mut ts)?;
    }
    let _span = mc_obs::span("pipeline.sched_test");
    Ok(scheduling.admit(&ts)?.schedulable)
}

/// What one scheduling policy did with one designed task set: the
/// design-time verdict plus the runtime rates of a simulation under the
/// policy's certified behaviour — the per-unit row of the `policy_arena`
/// campaign's cross-policy comparison table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArenaEvaluation {
    /// `1.0` when the policy's admission test accepted the set, else `0.0`
    /// (kept numeric so campaign aggregation can average it into an
    /// acceptance ratio).
    pub schedulable: f64,
    /// LC service fraction the policy guarantees in HI mode (`θ*` for
    /// flexible policies, the fixed fraction otherwise, `0` for drop-all).
    pub service_level: f64,
    /// System-level mode switches per released HC job.
    pub switch_rate: f64,
    /// Task-level contained overruns per released HC job (non-zero only
    /// under combined switching).
    pub task_switch_rate: f64,
    /// LC quality of service: `1 − lc_loss_rate` over the run.
    pub lc_qos: f64,
    /// HC deadline misses per released HC job (non-zero only when an
    /// unschedulable set is simulated anyway).
    pub hc_miss_rate: f64,
}

/// Races `policy` against one already-designed task set: runs the
/// admission test, then simulates the set under the policy's certified
/// runtime behaviour (`base` supplies horizon/exec-model; the policy
/// overrides LC handling and mode switching; `seed` drives execution-time
/// sampling). Unschedulable sets are simulated too — the arena table shows
/// what *would* happen, and `hc_miss_rate` makes the failure visible.
///
/// The simulation goes through `runs` under `key`, which must name this
/// set: the entrants raced on one set share every run that no overrun
/// made policy-dependent, and each gets what a fresh simulation returns.
///
/// # Errors
///
/// Returns [`CoreError::Sched`] for an empty task set or a diverging
/// simulation — campaign runners and `mc-serve` workers report these as
/// failed units instead of crashing.
pub fn evaluate_arena_set<K: Ord + Clone>(
    ts: &mc_task::TaskSet,
    policy: &PolicySpec,
    base: &SimConfig,
    seed: u64,
    runs: &SharedRuns<K>,
    key: K,
) -> Result<ArenaEvaluation, CoreError> {
    let verdict = {
        let _span = mc_obs::span("pipeline.admit");
        policy.admit(ts)?
    };
    let cfg = SimConfig {
        seed,
        ..policy.sim_config(ts, base)
    };
    let _span = mc_obs::span("pipeline.simulate");
    let m = runs.simulate(key, ts, &cfg)?;
    let per_hc = |n: u64| {
        if m.hc_released == 0 {
            0.0
        } else {
            n as f64 / m.hc_released as f64
        }
    };
    Ok(ArenaEvaluation {
        schedulable: if verdict.schedulable { 1.0 } else { 0.0 },
        service_level: verdict.service_level,
        switch_rate: m.switch_rate_per_hc_job(),
        task_switch_rate: per_hc(m.task_level_switches),
        lc_qos: 1.0 - m.lc_loss_rate(),
        hc_miss_rate: per_hc(m.hc_deadline_misses),
    })
}

/// The task-set family an arena unit races its policies on.
#[derive(Debug, Clone, PartialEq)]
pub enum ArenaWorkload {
    /// Mixed sets from the paper's Fig. 6 generator (`policy_arena`).
    Synthetic(GeneratorConfig),
    /// Bosch-calibrated sets with fitted Weibull execution times
    /// (`automotive`).
    Automotive(AutomotiveConfig),
}

/// Generates one `workload` task set at bound utilisation `u` from `seed`,
/// applies the WCET-assignment `wcet` policy (re-seeded to `seed`, inner
/// parallelism pinned to one thread — arena units are already the fan-out
/// axis; automotive sets keep their Weibull fits), and races `policy` on
/// it via [`evaluate_arena_set`], simulating through `runs` under `key`.
///
/// The `policy_arena` and `automotive` campaigns call this with
/// `seed = derive_set_seed(base, u_index, replica)` and the key
/// `(u_index, replica)` — note the seed does **not** depend on the policy,
/// so every policy in the arena sees bit-identical task sets and the
/// comparison is paired, not just distributional.
///
/// # Errors
///
/// Propagates generation, assignment, admission, and simulation errors.
#[expect(
    clippy::too_many_arguments,
    reason = "the set's coordinates, the policies raced on it and the store its runs share"
)]
pub fn evaluate_arena_one_set<K: Ord + Clone>(
    u: f64,
    wcet: &WcetPolicy,
    policy: &PolicySpec,
    workload: &ArenaWorkload,
    seed: u64,
    base: &SimConfig,
    runs: &SharedRuns<K>,
    key: K,
) -> Result<ArenaEvaluation, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = {
        let _span = mc_obs::span("pipeline.generate");
        match workload {
            ArenaWorkload::Synthetic(generator) => generate_mixed_taskset(u, generator, &mut rng),
            ArenaWorkload::Automotive(config) => generate_automotive_taskset(u, config, &mut rng),
        }
        .map_err(CoreError::Task)?
    };
    {
        let _span = mc_obs::span("pipeline.assign");
        reseed(wcet, seed, 1).assign(&mut ts)?;
    }
    evaluate_arena_set(&ts, policy, base, seed, runs, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_opt::{GaConfig, ProblemConfig};

    #[test]
    fn derived_seeds_are_spread_out() {
        let mut seen = std::collections::BTreeSet::new();
        for point in 0..8 {
            for set in 0..64 {
                assert!(seen.insert(derive_set_seed(7, point, set)));
            }
        }
    }

    #[test]
    fn fig6_sets_show_scheme_advantage_at_high_bounds() {
        // The paper's Fig. 6 shape: at a high LO-mode bound, the λ-designed
        // sets fail (hidden HI demand C_LO/λ) while the scheme-redesigned
        // ones keep passing. Seeds follow a campaign's stream at base seed 1.
        let accepted = |pi: usize, u: f64, scheme: Option<&WcetPolicy>| {
            (0..20)
                .filter(|&si| {
                    admit_lo_bounded_one_set(
                        u,
                        scheme,
                        &PolicySpec::EdfVdDropAll,
                        (0.25, 1.0),
                        &GeneratorConfig::default(),
                        derive_set_seed(1, pi, si),
                        1,
                    )
                    .unwrap()
                })
                .count()
        };
        let scheme = WcetPolicy::ChebyshevUniform { n: 3.0 };
        // Low bound: everything passes either way.
        assert_eq!(accepted(0, 0.6, None), 20);
        assert_eq!(accepted(0, 0.6, Some(&scheme)), 20);
        // High bound: the scheme strictly improves acceptance.
        let baseline = accepted(1, 0.95, None);
        let with_scheme = accepted(1, 0.95, Some(&scheme));
        assert!(
            with_scheme > baseline,
            "scheme {with_scheme} vs baseline {baseline}"
        );
    }

    #[test]
    fn misconfigured_ga_policy_fails_the_set() {
        let bad = WcetPolicy::ChebyshevGa {
            ga: GaConfig {
                generations: 0,
                tournament_size: 0,
                ..GaConfig::default()
            },
            problem: ProblemConfig::default(),
        };
        let err = admit_lo_bounded_one_set(
            0.5,
            Some(&bad),
            &PolicySpec::EdfVdDropAll,
            (0.25, 1.0),
            &GeneratorConfig::default(),
            1,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Opt(_)), "{err:?}");
    }

    fn arena_sim_base() -> SimConfig {
        SimConfig::new(mc_task::time::Duration::from_secs(2))
    }

    #[test]
    fn arena_empty_set_surfaces_as_a_structured_sched_error() {
        // The mc-serve worker path relies on this being an Err, not a
        // panic: a bad unit fails, the campaign continues.
        let err = evaluate_arena_set(
            &mc_task::TaskSet::new(),
            &PolicySpec::EdfVdDropAll,
            &arena_sim_base(),
            7,
            &SharedRuns::new(1),
            (),
        )
        .unwrap_err();
        assert_eq!(err, CoreError::Sched(mc_sched::SchedError::EmptyTaskSet));
    }

    #[test]
    fn arena_evaluation_is_reproducible_and_covers_the_roster() {
        let gen = ArenaWorkload::Synthetic(GeneratorConfig::default());
        let wcet = WcetPolicy::ChebyshevUniform { n: 3.0 };
        for policy in PolicySpec::arena_roster() {
            let a = evaluate_arena_one_set(
                0.7,
                &wcet,
                &policy,
                &gen,
                99,
                &arena_sim_base(),
                &SharedRuns::new(1),
                (),
            )
            .unwrap();
            let b = evaluate_arena_one_set(
                0.7,
                &wcet,
                &policy,
                &gen,
                99,
                &arena_sim_base(),
                &SharedRuns::new(1),
                (),
            )
            .unwrap();
            assert_eq!(a, b, "{} not reproducible", policy.name());
            assert!((0.0..=1.0).contains(&a.lc_qos), "{}", policy.name());
            assert!((0.0..=1.0).contains(&a.schedulable));
        }
    }

    #[test]
    fn arena_policies_see_identical_task_sets_at_one_seed() {
        // The paired-comparison contract: the set a policy is judged on
        // depends only on (u, wcet, generator, seed) — never the policy —
        // so the service-level column is the only legitimate source of
        // cross-policy QoS differences on an admitted, switch-free run.
        let gen = ArenaWorkload::Synthetic(GeneratorConfig::default());
        let wcet = WcetPolicy::ChebyshevUniform { n: 3.0 };
        let seed = derive_set_seed(5, 2, 11);
        let drop = evaluate_arena_one_set(
            0.5,
            &wcet,
            &PolicySpec::EdfVdDropAll,
            &gen,
            seed,
            &arena_sim_base(),
            &SharedRuns::new(1),
            (),
        )
        .unwrap();
        let degrade = evaluate_arena_one_set(
            0.5,
            &wcet,
            &PolicySpec::LiuDegrade { fraction: 0.5 },
            &gen,
            seed,
            &arena_sim_base(),
            &SharedRuns::new(1),
            (),
        )
        .unwrap();
        // Same sets, same sampled execution times ⇒ same switch behaviour.
        assert_eq!(drop.switch_rate.to_bits(), degrade.switch_rate.to_bits());
    }

    #[test]
    fn automotive_arena_is_paired_and_reproducible() {
        // The automotive campaign inherits the synthetic arena's seed
        // contract: the generated set depends only on (u, wcet, config,
        // seed), so roster entrants race on bit-identical workloads.
        let cfg = AutomotiveConfig {
            runnables: 120,
            ..AutomotiveConfig::default()
        };
        let wcet = WcetPolicy::ChebyshevUniform { n: 3.0 };
        let seed = derive_set_seed(23, 1, 4);
        let base = SimConfig::new(mc_task::time::Duration::from_secs(1));
        let drop = evaluate_arena_one_set(
            0.6,
            &wcet,
            &PolicySpec::EdfVdDropAll,
            &ArenaWorkload::Automotive(cfg.clone()),
            seed,
            &base,
            &SharedRuns::new(1),
            (),
        )
        .unwrap();
        let again = evaluate_arena_one_set(
            0.6,
            &wcet,
            &PolicySpec::EdfVdDropAll,
            &ArenaWorkload::Automotive(cfg.clone()),
            seed,
            &base,
            &SharedRuns::new(1),
            (),
        )
        .unwrap();
        assert_eq!(drop, again, "automotive arena unit not reproducible");
        // The one-set evaluator is exactly the generate → assign →
        // evaluate composition, so any policy fed the same seed races on
        // the bit-identical task set the manual pipeline produces.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ts = generate_automotive_taskset(0.6, &cfg, &mut rng).unwrap();
        reseed(&wcet, seed, 1).assign(&mut ts).unwrap();
        let manual = evaluate_arena_set(
            &ts,
            &PolicySpec::EdfVdDropAll,
            &base,
            seed,
            &SharedRuns::new(1),
            (),
        )
        .unwrap();
        assert_eq!(drop, manual, "one-set wrapper diverged from composition");
        assert!((0.0..=1.0).contains(&drop.lc_qos));
        // An invalid config surfaces as a structured Task error, not a panic.
        let bad = AutomotiveConfig {
            runnables: 3,
            ..AutomotiveConfig::default()
        };
        let err = evaluate_arena_one_set(
            0.6,
            &wcet,
            &PolicySpec::EdfVdDropAll,
            &ArenaWorkload::Automotive(bad),
            seed,
            &base,
            &SharedRuns::new(1),
            (),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Task(_)), "{err:?}");
    }
}
