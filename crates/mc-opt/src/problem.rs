//! The paper's optimisation problem (§IV-C).
//!
//! Decision variables: one Chebyshev factor `nᵢ ≥ 0` per HC task, which
//! fixes its optimistic WCET `Cᵢ_LO = ACETᵢ + nᵢ·σᵢ` (Eq. 6) subject to
//! `Cᵢ_LO ≤ WCETᵢ_pes` (Eq. 9). Objective (Eq. 13): maximise
//! `(1 − P_MS_sys) · max(U_LC^LO)` where `P_MS_sys` composes the per-task
//! Chebyshev bounds (Eq. 10) and `max(U_LC^LO)` is the EDF-VD bound of
//! Eqs. 11–12. Infeasible HC demand receives zero fitness (death penalty);
//! Eq. 9 is enforced structurally through the gene bounds (clamp repair).

use crate::ga::{GaConfig, GeneBounds};
use crate::incremental::ObjectiveCache;
use crate::incremental::{optimize_incremental, FlatPopulation};
use crate::OptError;
use mc_task::time::Duration;
use mc_task::{TaskId, TaskSet};
use serde::{Deserialize, Serialize};

/// Per-HC-task parameters extracted from a task set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HcTaskParams {
    /// The task's identifier in the originating set.
    pub id: TaskId,
    /// ACET in nanoseconds.
    pub acet: f64,
    /// Execution-time standard deviation in nanoseconds.
    pub sigma: f64,
    /// Pessimistic WCET in nanoseconds.
    pub wcet_pes: f64,
    /// Period in nanoseconds.
    pub period: f64,
}

impl HcTaskParams {
    /// `Cᵢ_LO = ACET + n·σ` in nanoseconds (Eq. 6).
    pub fn c_lo(&self, n: f64) -> f64 {
        self.acet + n * self.sigma
    }

    /// LO-mode utilisation contribution at factor `n`.
    pub fn u_lo(&self, n: f64) -> f64 {
        self.c_lo(n) / self.period
    }

    /// HI-mode utilisation contribution.
    pub fn u_hi(&self) -> f64 {
        self.wcet_pes / self.period
    }

    /// Largest factor satisfying Eq. 9.
    pub fn max_factor(&self) -> f64 {
        if self.sigma == 0.0 {
            f64::INFINITY
        } else {
            ((self.wcet_pes - self.acet) / self.sigma).max(0.0)
        }
    }
}

/// The value of the paper's objective at one factor assignment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveValue {
    /// System mode-switching probability bound (Eq. 10).
    pub p_ms: f64,
    /// Maximum LC utilisation admissible under EDF-VD (Eqs. 11–12).
    pub max_u_lc_lo: f64,
    /// `U_HC^LO` implied by the factors.
    pub u_hc_lo: f64,
    /// The Eq. 13 product `(1 − P_MS) · max(U_LC^LO)`.
    pub fitness: f64,
}

/// A solved factor assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Per-HC-task Chebyshev factors, in [`WcetProblem::tasks`] order.
    pub factors: Vec<f64>,
    /// The objective at those factors.
    pub objective: ObjectiveValue,
}

/// Configuration of the factor search space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProblemConfig {
    /// Upper cap on any factor, independent of Eq. 9 (the bound
    /// `1/(1+n²)` flattens out long before this; the paper's Fig. 2
    /// explores up to n ≈ 30).
    pub factor_cap: f64,
}

impl Default for ProblemConfig {
    fn default() -> Self {
        ProblemConfig { factor_cap: 50.0 }
    }
}

/// The WCET-assignment optimisation problem for one task set.
#[derive(Debug, Clone, PartialEq)]
pub struct WcetProblem {
    tasks: Vec<HcTaskParams>,
    u_hc_hi: f64,
    config: ProblemConfig,
    /// Derived hot-loop invariants (per-task coefficients in SoA layout
    /// plus the blocked-reduction machinery — see
    /// [`crate::incremental`]) — never serialized; rebuilt from `tasks`
    /// whenever a problem is constructed or deserialized.
    cache: ObjectiveCache,
}

/// Wire-format shadow of [`WcetProblem`]: exactly the serialized fields,
/// so the derived `cache` never leaks into (or gets read from) JSON and
/// the format stays identical to earlier releases.
#[derive(Serialize, Deserialize)]
struct WcetProblemWire {
    tasks: Vec<HcTaskParams>,
    u_hc_hi: f64,
    config: ProblemConfig,
}

impl Serialize for WcetProblem {
    fn to_value(&self) -> serde::Value {
        WcetProblemWire {
            tasks: self.tasks.clone(),
            u_hc_hi: self.u_hc_hi,
            config: self.config,
        }
        .to_value()
    }
}

impl Deserialize for WcetProblem {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let wire = WcetProblemWire::from_value(v)?;
        Ok(WcetProblem::from_parts(
            wire.tasks,
            wire.u_hc_hi,
            wire.config,
        ))
    }
}

impl WcetProblem {
    fn from_parts(tasks: Vec<HcTaskParams>, u_hc_hi: f64, config: ProblemConfig) -> Self {
        let cache = ObjectiveCache::new(&tasks, u_hc_hi);
        WcetProblem {
            tasks,
            u_hc_hi,
            config,
            cache,
        }
    }

    /// Extracts the problem from a task set. Every HC task must carry an
    /// execution profile.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::MissingProfile`] for an HC task without one.
    pub fn from_taskset(ts: &TaskSet, config: ProblemConfig) -> Result<Self, OptError> {
        let mut tasks = Vec::new();
        for t in ts.hc_tasks() {
            let p = t.profile().ok_or(OptError::MissingProfile { id: t.id() })?;
            tasks.push(HcTaskParams {
                id: t.id(),
                acet: p.acet(),
                sigma: p.sigma(),
                wcet_pes: p.wcet_pes(),
                period: t.period().as_nanos() as f64,
            });
        }
        let u_hc_hi = tasks.iter().map(HcTaskParams::u_hi).sum();
        Ok(WcetProblem::from_parts(tasks, u_hc_hi, config))
    }

    /// The per-task parameters, in chromosome order.
    pub fn tasks(&self) -> &[HcTaskParams] {
        &self.tasks
    }

    /// Number of decision variables (HC tasks).
    pub fn dimension(&self) -> usize {
        self.tasks.len()
    }

    /// `U_HC^HI` of the underlying set.
    pub fn u_hc_hi(&self) -> f64 {
        self.u_hc_hi
    }

    /// Gene bounds `[0, min(max_factor, cap)]` (Eq. 9 as clamp repair).
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidConfig`] when the cap is not positive.
    pub fn bounds(&self) -> Result<Vec<GeneBounds>, OptError> {
        if !self.config.factor_cap.is_finite() || self.config.factor_cap <= 0.0 {
            return Err(OptError::InvalidConfig {
                reason: "factor_cap must be finite and positive",
            });
        }
        self.tasks
            .iter()
            .map(|t| GeneBounds::new(0.0, t.max_factor().min(self.config.factor_cap)))
            .collect()
    }

    /// Gene bounds `[0, cap]` that deliberately ignore Eq. 9, leaving the
    /// constraint to the objective's death penalty. Used by the
    /// constraint-handling ablation (DESIGN.md §5) as the alternative to
    /// the default clamp-repair [`WcetProblem::bounds`].
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidConfig`] when the cap is not positive.
    pub fn bounds_penalty_only(&self) -> Result<Vec<GeneBounds>, OptError> {
        if !self.config.factor_cap.is_finite() || self.config.factor_cap <= 0.0 {
            return Err(OptError::InvalidConfig {
                reason: "factor_cap must be finite and positive",
            });
        }
        Ok(vec![
            GeneBounds::new(0.0, self.config.factor_cap)?;
            self.tasks.len()
        ])
    }

    /// Evaluates the paper's objective (Eqs. 10–13) at a factor vector.
    ///
    /// # Panics
    ///
    /// Panics when `factors.len() != self.dimension()`.
    pub fn objective(&self, factors: &[f64]) -> ObjectiveValue {
        assert_eq!(
            factors.len(),
            self.tasks.len(),
            "factor vector must have one entry per HC task"
        );
        self.cache.eval_iter(factors.iter().copied())
    }

    /// The precomputed hot-loop invariants behind [`WcetProblem::objective`]
    /// (per-task SoA coefficients plus blocked partial reductions). Hand
    /// this to [`optimize_incremental`] or the batch entry points to
    /// evaluate without going through the problem's convenience wrappers.
    pub fn objective_cache(&self) -> &ObjectiveCache {
        &self.cache
    }

    /// Evaluates the objective for every genome of a flat population in
    /// one contiguous pass (see [`ObjectiveCache::objective_batch`]).
    ///
    /// # Panics
    ///
    /// Panics on population/output dimension mismatches.
    pub fn objective_batch(&self, genomes: &FlatPopulation, out: &mut [ObjectiveValue]) {
        self.cache.objective_batch(genomes, out);
    }

    /// Evaluates the objective at a single uniform factor (Fig. 2/3 mode).
    /// Clamps per task to Eq. 9 and the cap, without materialising a
    /// factor vector — uniform sweeps call this in a tight loop.
    pub fn objective_uniform(&self, n: f64) -> ObjectiveValue {
        let cap = self.config.factor_cap;
        self.cache
            .eval_iter(self.tasks.iter().map(|t| n.min(t.max_factor()).min(cap)))
    }

    /// Solves for per-task factors with the genetic algorithm.
    ///
    /// A problem with no HC task has the trivial solution: empty factors,
    /// `P_MS = 0`, `max(U_LC^LO) = 1`.
    ///
    /// # Errors
    ///
    /// Propagates GA configuration errors.
    pub fn solve_ga(&self, cfg: &GaConfig) -> Result<Solution, OptError> {
        if self.tasks.is_empty() {
            return Ok(Self::trivial_solution());
        }
        let bounds = self.bounds()?;
        let (result, _stats) = optimize_incremental(&self.cache, &bounds, cfg)?;
        let objective = self.objective(&result.best);
        Ok(Solution {
            factors: result.best,
            objective,
        })
    }

    /// The no-HC-task solution: empty factors, `P_MS = 0`, full LC budget.
    fn trivial_solution() -> Solution {
        Solution {
            factors: Vec::new(),
            objective: ObjectiveValue {
                p_ms: 0.0,
                max_u_lc_lo: 1.0,
                u_hc_lo: 0.0,
                fitness: 1.0,
            },
        }
    }

    /// Applies a solved factor vector back onto the task set, setting each
    /// HC task's `C_LO` (rounded up to whole nanoseconds, conservatively).
    ///
    /// # Errors
    ///
    /// Returns [`OptError::DimensionMismatch`] when the factor count does
    /// not match the set's HC tasks, or [`OptError::Task`] when a computed
    /// `C_LO` violates the task invariants.
    pub fn apply(&self, ts: &mut TaskSet, factors: &[f64]) -> Result<(), OptError> {
        if factors.len() != self.tasks.len() {
            return Err(OptError::DimensionMismatch {
                expected: self.tasks.len(),
                got: factors.len(),
            });
        }
        for (params, &n) in self.tasks.iter().zip(factors) {
            let c_lo_ns = params.c_lo(n).min(params.wcet_pes);
            let c_lo = Duration::try_from_nanos_f64_ceil(c_lo_ns)
                .ok_or(OptError::InvalidConfig {
                    reason: "computed C_LO is not representable",
                })?
                .max(Duration::from_nanos(1));
            let task = ts
                .get_mut(params.id)
                .ok_or(OptError::UnknownTask { id: params.id })?;
            // Ceil rounding can land one nanosecond above C_HI; clamp.
            let c_lo = c_lo.min(task.c_hi());
            task.set_c_lo(c_lo).map_err(OptError::Task)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::time::Duration;
    use mc_task::{Criticality, ExecutionProfile, McTask};

    /// Two HC tasks with round numbers: periods 100 ms, WCET_pes 30/40 ms,
    /// ACET 3/4 ms, σ 0.5/1.0 ms.
    fn sample_taskset() -> TaskSet {
        let t0 = McTask::builder(TaskId::new(0))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(30))
            .c_hi(Duration::from_millis(30))
            .profile(ExecutionProfile::new(3.0e6, 0.5e6, 30.0e6).unwrap())
            .build()
            .unwrap();
        let t1 = McTask::builder(TaskId::new(1))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(40))
            .c_hi(Duration::from_millis(40))
            .profile(ExecutionProfile::new(4.0e6, 1.0e6, 40.0e6).unwrap())
            .build()
            .unwrap();
        let t2 = McTask::builder(TaskId::new(2))
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .build()
            .unwrap();
        TaskSet::from_tasks(vec![t0, t1, t2]).unwrap()
    }

    fn problem() -> WcetProblem {
        WcetProblem::from_taskset(&sample_taskset(), ProblemConfig::default()).unwrap()
    }

    #[test]
    fn extraction_pulls_hc_tasks_only() {
        let p = problem();
        assert_eq!(p.dimension(), 2);
        assert!((p.u_hc_hi() - 0.7).abs() < 1e-9);
        assert_eq!(p.tasks()[0].id, TaskId::new(0));
    }

    #[test]
    fn missing_profile_is_an_error() {
        let ts = TaskSet::from_tasks(vec![McTask::builder(TaskId::new(0))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .c_hi(Duration::from_millis(10))
            .build()
            .unwrap()])
        .unwrap();
        assert!(matches!(
            WcetProblem::from_taskset(&ts, ProblemConfig::default()).unwrap_err(),
            OptError::MissingProfile { .. }
        ));
    }

    #[test]
    fn objective_hand_computed() {
        let p = problem();
        // n = (2, 2): C_LO = 3+1=4 ms and 4+2=6 ms → u_hc_lo = 0.04+0.06 = 0.1.
        let o = p.objective(&[2.0, 2.0]);
        assert!((o.u_hc_lo - 0.1).abs() < 1e-9);
        // P_MS = 1 − 0.8·0.8 = 0.36 (Eq. 10 with bound 0.2 each).
        assert!((o.p_ms - 0.36).abs() < 1e-9);
        // max U_LC_LO = min(1 − 0.1, 0.3/(0.3+0.1)) = min(0.9, 0.75) = 0.75.
        assert!((o.max_u_lc_lo - 0.75).abs() < 1e-9);
        assert!((o.fitness - 0.64 * 0.75).abs() < 1e-9);
    }

    #[test]
    fn infeasible_factors_get_zero_fitness() {
        let p = problem();
        // Task 0's max factor is (30−3)/0.5 = 54 → n = 60 violates Eq. 9.
        let o = p.objective(&[60.0, 0.0]);
        assert_eq!(o.fitness, 0.0);
        let o = p.objective(&[-1.0, 0.0]);
        assert_eq!(o.fitness, 0.0);
        let o = p.objective(&[f64::NAN, 0.0]);
        assert_eq!(o.fitness, 0.0);
    }

    #[test]
    #[should_panic(expected = "one entry per HC task")]
    fn wrong_dimension_panics() {
        let p = problem();
        let _ = p.objective(&[1.0]);
    }

    #[test]
    fn bounds_respect_eq9_and_cap() {
        let p = problem();
        let b = p.bounds().unwrap();
        // Task 0: max factor 54 → capped at 50. Task 1: (40−4)/1 = 36.
        assert_eq!(b[0].hi, 50.0);
        assert_eq!(b[1].hi, 36.0);
        assert_eq!(b[0].lo, 0.0);

        let bad = WcetProblem {
            config: ProblemConfig { factor_cap: 0.0 },
            ..p
        };
        assert!(bad.bounds().is_err());
    }

    #[test]
    fn uniform_objective_clamps_per_task() {
        let p = problem();
        let o = p.objective_uniform(40.0);
        // Task 1 clamps to 36; neither task is infeasible.
        assert!(o.fitness > 0.0);
    }

    #[test]
    fn ga_solution_beats_extreme_uniform_choices() {
        let p = problem();
        let cfg = GaConfig {
            generations: 60,
            ..GaConfig::default()
        };
        let sol = p.solve_ga(&cfg).unwrap();
        assert!(sol.objective.fitness >= p.objective_uniform(0.0).fitness);
        assert!(sol.objective.fitness >= p.objective_uniform(50.0).fitness);
        // And it should essentially dominate every uniform choice.
        let best_uniform = (0..=50)
            .map(|n| p.objective_uniform(n as f64).fitness)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            sol.objective.fitness >= best_uniform - 1e-3,
            "GA {} vs best uniform {}",
            sol.objective.fitness,
            best_uniform
        );
    }

    #[test]
    fn empty_problem_has_trivial_solution() {
        let ts = TaskSet::from_tasks(vec![McTask::builder(TaskId::new(0))
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .build()
            .unwrap()])
        .unwrap();
        let p = WcetProblem::from_taskset(&ts, ProblemConfig::default()).unwrap();
        let sol = p.solve_ga(&GaConfig::default()).unwrap();
        assert!(sol.factors.is_empty());
        assert_eq!(sol.objective.fitness, 1.0);
    }

    #[test]
    fn apply_writes_c_lo_back() {
        let mut ts = sample_taskset();
        let p = problem();
        p.apply(&mut ts, &[2.0, 4.0]).unwrap();
        // C_LO(τ0) = 3 + 2·0.5 = 4 ms; C_LO(τ1) = 4 + 4·1 = 8 ms.
        assert_eq!(
            ts.get(TaskId::new(0)).unwrap().c_lo(),
            Duration::from_millis(4)
        );
        assert_eq!(
            ts.get(TaskId::new(1)).unwrap().c_lo(),
            Duration::from_millis(8)
        );
        // LC task untouched.
        assert_eq!(
            ts.get(TaskId::new(2)).unwrap().c_lo(),
            Duration::from_millis(10)
        );
        // And the set is EDF-VD schedulable afterwards.
        assert!(mc_sched::analysis::edf_vd::analyze(&ts).schedulable);
    }

    #[test]
    fn apply_rejects_wrong_dimension() {
        let mut ts = sample_taskset();
        let p = problem();
        assert!(matches!(
            p.apply(&mut ts, &[1.0]).unwrap_err(),
            OptError::DimensionMismatch { .. }
        ));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn objective_is_in_unit_square(n0 in 0.0..54.0f64, n1 in 0.0..36.0f64) {
                let p = problem();
                let o = p.objective(&[n0, n1]);
                prop_assert!((0.0..=1.0).contains(&o.p_ms));
                prop_assert!((0.0..=1.0).contains(&o.max_u_lc_lo));
                prop_assert!((0.0..=1.0).contains(&o.fitness));
            }

            #[test]
            fn p_ms_decreases_and_u_hc_lo_increases_with_n(
                n in 0.0..35.0f64,
                dn in 0.0..1.0f64,
            ) {
                let p = problem();
                let a = p.objective(&[n, n]);
                let b = p.objective(&[n + dn, n + dn]);
                prop_assert!(b.p_ms <= a.p_ms + 1e-12);
                prop_assert!(b.u_hc_lo >= a.u_hc_lo - 1e-12);
                prop_assert!(b.max_u_lc_lo <= a.max_u_lc_lo + 1e-12);
            }
        }
    }
}
