//! Task-set linting (`T0xx` diagnostics): per-task model invariants,
//! Chebyshev preconditions, and set-level schedulability sanity.
//!
//! The pass accepts *any* [`TaskSet`], including ones deserialised without
//! revalidation, so a hand-edited workload with `C_LO > C_HI` is lintable
//! rather than merely rejected. Structural impossibilities are errors;
//! states that legitimate policies produce (an ACET above `C_LO` under a
//! λ-fraction baseline, `U^LO > 1` in an acceptance-ratio sweep) are
//! warnings.

use crate::diag::{Code, Diagnostic, LintReport};
use mc_sched::analysis::edf_vd;
use mc_task::{McTask, TaskSet};

fn task_source(t: &McTask) -> String {
    if t.name().is_empty() {
        format!("task {}", t.id())
    } else {
        format!("task {} ({})", t.id(), t.name())
    }
}

fn lint_task(t: &McTask, report: &mut LintReport) {
    let src = task_source(t);

    // T004: ordering of the timing parameters.
    if t.period().is_zero() {
        report.push(Diagnostic::new(Code::T004, src.clone(), "period is zero"));
    }
    if t.deadline().is_zero() {
        report.push(Diagnostic::new(Code::T004, src.clone(), "deadline is zero"));
    } else if t.deadline() > t.period() {
        report.push(Diagnostic::new(
            Code::T004,
            src.clone(),
            format!(
                "deadline {} exceeds period {} (the model is constrained-deadline)",
                t.deadline(),
                t.period(),
            ),
        ));
    }
    if t.c_lo().is_zero() {
        report.push(Diagnostic::new(
            Code::T004,
            src.clone(),
            "optimistic budget C_LO is zero",
        ));
    }
    if t.c_hi() > t.deadline() && !t.deadline().is_zero() {
        report.push(Diagnostic::new(
            Code::T004,
            src.clone(),
            format!(
                "pessimistic budget C_HI {} exceeds the deadline {}",
                t.c_hi(),
                t.deadline(),
            ),
        ));
    }

    // T001: inverted budgets make every mode-switch argument unsound.
    if t.c_lo() > t.c_hi() {
        report.push(Diagnostic::new(
            Code::T001,
            src.clone(),
            format!(
                "C_LO {} exceeds C_HI {}; LO-mode demand would exceed \
                 HI-mode demand",
                t.c_lo(),
                t.c_hi(),
            ),
        ));
    }

    match t.profile() {
        Some(p) => {
            if !t.is_high() {
                report.push(Diagnostic::new(
                    Code::T011,
                    src.clone(),
                    "low-criticality task carries an execution profile; \
                     WCET assignment ignores it",
                ));
            }
            // T003: the (ACET, σ) pair must describe a distribution.
            let finite = p.acet().is_finite() && p.sigma().is_finite() && p.wcet_pes().is_finite();
            if !finite {
                report.push(Diagnostic::new(
                    Code::T003,
                    src.clone(),
                    "profile contains non-finite values",
                ));
            } else {
                if p.acet() <= 0.0 {
                    report.push(Diagnostic::new(
                        Code::T003,
                        src.clone(),
                        format!("ACET {} must be strictly positive", p.acet()),
                    ));
                }
                if p.sigma() < 0.0 {
                    report.push(Diagnostic::new(
                        Code::T003,
                        src.clone(),
                        format!("σ {} must be non-negative", p.sigma()),
                    ));
                }
                // T005: Eq. 9 needs WCET_pes ≥ ACET, otherwise no
                // Chebyshev factor n ≥ 0 exists.
                if p.wcet_pes() < p.acet() && p.acet() > 0.0 {
                    report.push(Diagnostic::new(
                        Code::T005,
                        src.clone(),
                        format!(
                            "pessimistic WCET {} is below the ACET {}: the \
                             Chebyshev range [ACET, WCET_pes] is empty",
                            p.wcet_pes(),
                            p.acet(),
                        ),
                    ));
                }
                // T002: C_LO below the mean means the task overruns its
                // optimistic budget more often than not. Legitimate for
                // λ-fraction baselines, hence a warning.
                let c_lo_ns = t.c_lo().as_nanos() as f64;
                if p.acet() > 0.0 && p.acet() > c_lo_ns {
                    report.push(Diagnostic::new(
                        Code::T002,
                        src.clone(),
                        format!(
                            "ACET {:.0} ns exceeds C_LO {:.0} ns: the task \
                             overruns its optimistic budget on average",
                            p.acet(),
                            c_lo_ns,
                        ),
                    ));
                }
                // T012: profile and task disagree about the HI budget.
                let c_hi_ns = t.c_hi().as_nanos() as f64;
                if t.is_high() && (p.wcet_pes() - c_hi_ns).abs() > 1.0 {
                    report.push(Diagnostic::new(
                        Code::T012,
                        src.clone(),
                        format!(
                            "profile WCET_pes {:.0} ns disagrees with C_HI \
                             {:.0} ns",
                            p.wcet_pes(),
                            c_hi_ns,
                        ),
                    ));
                }
            }
        }
        None => {
            // T006: without (ACET, σ) the paper's scheme cannot assign
            // this task an optimistic WCET.
            if t.is_high() {
                report.push(Diagnostic::new(
                    Code::T006,
                    src.clone(),
                    "high-criticality task has no execution profile; \
                     Chebyshev WCET assignment must skip it",
                ));
            }
        }
    }
}

/// Lints a task set: every task individually, then set-level properties.
#[must_use]
pub fn lint_taskset(ts: &TaskSet) -> LintReport {
    let mut report = LintReport::new();

    // T007: duplicate ids (possible in raw-deserialised sets).
    for (i, a) in ts.iter().enumerate() {
        if ts.iter().skip(i + 1).any(|b| b.id() == a.id()) {
            report.push(Diagnostic::new(
                Code::T007,
                task_source(a),
                format!("task id {} appears more than once", a.id()),
            ));
        }
    }

    for t in ts.iter() {
        lint_task(t, &mut report);
    }

    // T008: nothing to schedule, or nothing for the MC argument to protect.
    if ts.is_empty() {
        report.push(Diagnostic::new(Code::T008, "task set", "task set is empty"));
    } else if ts.hc_count() == 0 {
        report.push(Diagnostic::new(
            Code::T008,
            "task set",
            "task set has no high-criticality tasks; mixed-criticality \
             analysis degenerates to plain EDF",
        ));
    }

    if !ts.is_empty() {
        // T009: overload already in LO mode.
        let u_lo = ts.u_total_lo();
        if u_lo > 1.0 + 1e-9 {
            report.push(Diagnostic::new(
                Code::T009,
                "task set",
                format!(
                    "total LO-mode utilization {u_lo:.3} exceeds 1: the set \
                     is EDF-infeasible before any mode switch",
                ),
            ));
        }

        // T010: EDF-VD's Eq. 8 preconditions, including the x ∈ (0, 1]
        // deadline-shrinking factor.
        if ts.hc_count() > 0 {
            let a = edf_vd::analyze(ts);
            if !a.schedulable {
                let detail = match a.x {
                    None => "no deadline-shrinking factor x in (0, 1] exists".to_string(),
                    Some(x) => format!("x = {x:.3} exists but Eq. 8 still fails"),
                };
                report.push(Diagnostic::new(
                    Code::T010,
                    "task set",
                    format!(
                        "EDF-VD preconditions fail (U_HC^LO = {:.3}, \
                         U_HC^HI = {:.3}, U_LC^LO = {:.3}): {detail}",
                        a.u_hc_lo, a.u_hc_hi, a.u_lc_lo,
                    ),
                ));
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::time::Duration;
    use mc_task::{Criticality, ExecutionProfile, McTask, TaskId, TaskSet};

    fn hc(id: u32, period_ms: u64, c_lo_ms: u64, c_hi_ms: u64) -> McTask {
        McTask::builder(TaskId::new(id))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(period_ms))
            .c_lo(Duration::from_millis(c_lo_ms))
            .c_hi(Duration::from_millis(c_hi_ms))
            .profile(
                ExecutionProfile::new(
                    c_lo_ms as f64 * 0.5e6,
                    c_lo_ms as f64 * 0.1e6,
                    c_hi_ms as f64 * 1e6,
                )
                .unwrap(),
            )
            .build()
            .unwrap()
    }

    fn lc(id: u32, period_ms: u64, c_ms: u64) -> McTask {
        McTask::builder(TaskId::new(id))
            .period(Duration::from_millis(period_ms))
            .c_lo(Duration::from_millis(c_ms))
            .build()
            .unwrap()
    }

    #[test]
    fn valid_set_is_clean() {
        let ts = TaskSet::from_tasks(vec![hc(0, 100, 10, 40), lc(1, 200, 20)]).unwrap();
        let report = lint_taskset(&ts);
        assert!(report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn inverted_budgets_via_raw_deserialisation_raise_t001() {
        let good = TaskSet::from_tasks(vec![hc(0, 100, 10, 40)]).unwrap();
        let json = serde_json::to_string(&good).unwrap();
        // c_lo 10 ms → 90 ms, past c_hi = 40 ms.
        let evil = json.replacen("10000000", "90000000", 1);
        let ts: TaskSet = serde_json::from_str(&evil).unwrap();
        let report = lint_taskset(&ts);
        assert!(report.iter().any(|d| d.code == Code::T001));
        // C_HI < C_LO also puts C_LO past the deadline? No — but ACET
        // moved below the new C_LO, so no T002 either way; just require
        // the error.
        assert!(report.has_errors());
    }

    #[test]
    fn hc_task_without_profile_warns_t006() {
        let t = McTask::builder(TaskId::new(0))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .c_hi(Duration::from_millis(40))
            .build()
            .unwrap();
        let ts = TaskSet::from_tasks(vec![t]).unwrap();
        let report = lint_taskset(&ts);
        assert!(report.iter().any(|d| d.code == Code::T006));
        assert!(!report.has_errors());
    }

    #[test]
    fn acet_above_c_lo_warns_t002() {
        // λ-style assignment: C_LO = 4 ms but ACET = 5 ms.
        let mut t = hc(0, 100, 10, 40);
        t.set_c_lo(Duration::from_millis(4)).unwrap();
        let ts = TaskSet::from_tasks(vec![t]).unwrap();
        let report = lint_taskset(&ts);
        let t002: Vec<_> = report.iter().filter(|d| d.code == Code::T002).collect();
        assert_eq!(t002.len(), 1, "{}", report.render_human());
        assert_eq!(t002[0].severity, crate::Severity::Warning);
    }

    #[test]
    fn duplicate_ids_raise_t007() {
        let good = TaskSet::from_tasks(vec![hc(0, 100, 10, 40), lc(1, 200, 20)]).unwrap();
        let json = serde_json::to_string(&good)
            .unwrap()
            .replace("\"id\":1", "\"id\":0");
        let ts: TaskSet = serde_json::from_str(&json).unwrap();
        let report = lint_taskset(&ts);
        assert!(report.iter().any(|d| d.code == Code::T007), "{json}");
    }

    #[test]
    fn empty_set_warns_t008() {
        let report = lint_taskset(&TaskSet::new());
        assert_eq!(report.codes(), vec![Code::T008]);
        assert!(!report.has_errors());
    }

    #[test]
    fn lc_only_set_warns_t008() {
        let ts = TaskSet::from_tasks(vec![lc(0, 100, 10)]).unwrap();
        let report = lint_taskset(&ts);
        assert!(report.iter().any(|d| d.code == Code::T008));
    }

    #[test]
    fn overload_warns_t009_and_t010() {
        let ts = TaskSet::from_tasks(vec![
            hc(0, 100, 60, 90),
            lc(1, 100, 60), // U_LO = 0.6 + 0.6 = 1.2
        ])
        .unwrap();
        let report = lint_taskset(&ts);
        assert!(report.iter().any(|d| d.code == Code::T009));
        assert!(report.iter().any(|d| d.code == Code::T010));
        assert!(!report.has_errors(), "overload is a warning, not an error");
    }

    #[test]
    fn edf_vd_schedulable_set_has_no_t010() {
        let ts = TaskSet::from_tasks(vec![hc(0, 100, 10, 40), lc(1, 200, 20)]).unwrap();
        assert!(!lint_taskset(&ts).iter().any(|d| d.code == Code::T010));
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};
        use mc_task::generate::{generate_mixed_taskset, GeneratorConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        /// Generated sets obey every *error*-level invariant; only
        /// warnings/infos may appear (e.g. T010 at high bounds).
        #[test]
        fn generated_sets_have_no_lint_errors() {
            assert_prop(
                &PropConfig::named("generated_sets_have_no_lint_errors").cases(24),
                |rng| (rng.below(5_000), rng.f64()),
                |&(seed, u_bound)| {
                    let bound = 0.1 + 1.3 * u_bound;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let ts = generate_mixed_taskset(bound, &GeneratorConfig::default(), &mut rng)
                        .unwrap();
                    let report = lint_taskset(&ts);
                    assert!(!report.has_errors(), "{}", report.render_human());
                    Ok(())
                },
            );
        }
    }
}
