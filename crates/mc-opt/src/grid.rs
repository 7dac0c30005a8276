//! Grid-based search over Chebyshev factors.
//!
//! Two uses: the *uniform-n sweep* behind the paper's Figs. 2–3 (one shared
//! factor for all HC tasks), and a brute-force per-task grid search used in
//! tests as an independent cross-check of the GA.

use crate::problem::{ObjectiveValue, Solution, WcetProblem};
use crate::OptError;
use serde::{Deserialize, Serialize};

/// One point of a uniform-n sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The uniform factor applied to all HC tasks.
    pub n: f64,
    /// The objective at that factor.
    pub objective: ObjectiveValue,
}

/// Evaluates the objective at each uniform factor in `ns` (Fig. 2a/2b data).
///
/// # Errors
///
/// Returns [`OptError::InvalidConfig`] when `ns` is empty or contains a
/// negative/non-finite factor.
pub fn uniform_sweep(problem: &WcetProblem, ns: &[f64]) -> Result<Vec<SweepPoint>, OptError> {
    if ns.is_empty() {
        return Err(OptError::InvalidConfig {
            reason: "sweep requires at least one factor",
        });
    }
    if ns.iter().any(|&n| !n.is_finite() || n < 0.0) {
        return Err(OptError::InvalidConfig {
            reason: "sweep factors must be finite and non-negative",
        });
    }
    Ok(ns
        .iter()
        .map(|&n| SweepPoint {
            n,
            objective: problem.objective_uniform(n),
        })
        .collect())
}

/// The uniform factor (among `ns`) maximising Eq. 13 — the paper's
/// "optimum n" in Fig. 2b.
///
/// # Errors
///
/// Same conditions as [`uniform_sweep`], plus [`OptError::InvalidConfig`]
/// if the sweep comes back empty.
pub fn best_uniform(problem: &WcetProblem, ns: &[f64]) -> Result<SweepPoint, OptError> {
    let sweep = uniform_sweep(problem, ns)?;
    // `total_cmp` never panics, and demoting NaN to -inf first keeps a
    // pathological objective from *winning* the argmax (total order puts
    // positive NaN above +inf): bad points lose, the campaign survives.
    let key = |p: &SweepPoint| {
        let f = p.objective.fitness;
        if f.is_nan() {
            f64::NEG_INFINITY
        } else {
            f
        }
    };
    sweep
        .into_iter()
        .max_by(|a, b| key(a).total_cmp(&key(b)))
        .ok_or(OptError::InvalidConfig {
            reason: "uniform sweep produced no points",
        })
}

/// Integer sweep `0..=max_n`, the grid the paper plots.
///
/// # Errors
///
/// Same conditions as [`uniform_sweep`].
pub fn integer_sweep(problem: &WcetProblem, max_n: u32) -> Result<Vec<SweepPoint>, OptError> {
    let ns: Vec<f64> = (0..=max_n).map(f64::from).collect();
    uniform_sweep(problem, &ns)
}

/// Exhaustive per-task grid search: every combination of the given factor
/// grid across all HC tasks. Exponential in the task count — use only for
/// small problems (tests cross-check the GA against this).
///
/// # Errors
///
/// Returns [`OptError::InvalidConfig`] when the grid is empty or the search
/// space exceeds `10^7` combinations, and [`OptError::EmptyChromosome`] for
/// a problem with no HC tasks.
pub fn exhaustive_search(problem: &WcetProblem, grid: &[f64]) -> Result<Solution, OptError> {
    if grid.is_empty() {
        return Err(OptError::InvalidConfig {
            reason: "grid must be non-empty",
        });
    }
    let dim = problem.dimension();
    if dim == 0 {
        return Err(OptError::EmptyChromosome);
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the dimension is the HC task count, far below i32::MAX"
    )]
    let combos = (grid.len() as f64).powi(dim as i32);
    if combos > 1e7 {
        return Err(OptError::InvalidConfig {
            reason: "exhaustive search space too large",
        });
    }
    let mut indices = vec![0usize; dim];
    let mut best: Option<Solution> = None;
    loop {
        let factors: Vec<f64> = indices.iter().map(|&i| grid[i]).collect();
        let objective = problem.objective(&factors);
        let better = best
            .as_ref()
            .is_none_or(|b| objective.fitness > b.objective.fitness);
        if better {
            best = Some(Solution { factors, objective });
        }
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == dim {
                return Ok(best.expect("at least one combination evaluated"));
            }
            indices[k] += 1;
            if indices[k] < grid.len() {
                break;
            }
            indices[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::GaConfig;
    use crate::problem::ProblemConfig;
    use mc_task::time::Duration;
    use mc_task::{Criticality, ExecutionProfile, McTask, TaskId, TaskSet};

    fn problem() -> WcetProblem {
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
            .period(Duration::from_millis(200))
            .c_lo(Duration::from_millis(50))
            .c_hi(Duration::from_millis(50))
            .profile(ExecutionProfile::new(5.0e6, 2.0e6, 50.0e6).unwrap())
            .build()
            .unwrap();
        let ts = TaskSet::from_tasks(vec![t0, t1]).unwrap();
        WcetProblem::from_taskset(&ts, ProblemConfig::default()).unwrap()
    }

    #[test]
    fn sweep_evaluates_each_point() {
        let p = problem();
        let sweep = uniform_sweep(&p, &[0.0, 1.0, 2.0]).unwrap();
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep[0].n, 0.0);
        // n = 0 → P_MS = 1 → fitness 0.
        assert_eq!(sweep[0].objective.fitness, 0.0);
        assert!(sweep[1].objective.fitness > 0.0);
    }

    #[test]
    fn sweep_rejects_bad_input() {
        let p = problem();
        assert!(uniform_sweep(&p, &[]).is_err());
        assert!(uniform_sweep(&p, &[-1.0]).is_err());
        assert!(uniform_sweep(&p, &[f64::NAN]).is_err());
        // best_uniform surfaces the same errors instead of panicking on
        // an empty sweep.
        assert!(matches!(
            best_uniform(&p, &[]),
            Err(OptError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn p_ms_monotone_decreasing_along_sweep() {
        let p = problem();
        let sweep = integer_sweep(&p, 30).unwrap();
        for pair in sweep.windows(2) {
            assert!(pair[1].objective.p_ms <= pair[0].objective.p_ms + 1e-12);
            assert!(pair[1].objective.max_u_lc_lo <= pair[0].objective.max_u_lc_lo + 1e-12);
        }
    }

    #[test]
    fn best_uniform_is_the_argmax() {
        let p = problem();
        let ns: Vec<f64> = (0..=40).map(f64::from).collect();
        let best = best_uniform(&p, &ns).unwrap();
        for &n in &ns {
            assert!(
                best.objective.fitness >= p.objective_uniform(n).fitness - 1e-12,
                "uniform n = {n} beats the reported best"
            );
        }
        // The optimum is interior: better than both extremes.
        assert!(best.n > 0.0);
        assert!(best.n < 40.0);
    }

    #[test]
    fn exhaustive_matches_or_beats_uniform() {
        let p = problem();
        let grid: Vec<f64> = (0..=20).map(f64::from).collect();
        let ex = exhaustive_search(&p, &grid).unwrap();
        let bu = best_uniform(&p, &grid).unwrap();
        assert!(ex.objective.fitness >= bu.objective.fitness - 1e-12);
    }

    #[test]
    fn ga_finds_nearly_exhaustive_quality() {
        let p = problem();
        let grid: Vec<f64> = (0..=25).map(f64::from).collect();
        let ex = exhaustive_search(&p, &grid).unwrap();
        let ga = p
            .solve_ga(&GaConfig {
                generations: 120,
                population_size: 96,
                ..GaConfig::default()
            })
            .unwrap();
        // The GA works over a continuous space, so it must reach at least
        // ~99 % of the integer-grid optimum.
        assert!(
            ga.objective.fitness >= 0.99 * ex.objective.fitness,
            "GA {} vs exhaustive {}",
            ga.objective.fitness,
            ex.objective.fitness
        );
    }

    #[test]
    fn exhaustive_guards() {
        let p = problem();
        assert!(exhaustive_search(&p, &[]).is_err());
        // 10^8 combinations refused: grid of 10 over 8 tasks would pass,
        // simulate via huge grid on 2 tasks: 10^4 fine; use dim trick —
        // a 4000-point grid on 2 tasks is 1.6·10^7 > 10^7.
        let grid: Vec<f64> = (0..4_000).map(|i| i as f64 / 100.0).collect();
        assert!(exhaustive_search(&p, &grid).is_err());
    }
}
