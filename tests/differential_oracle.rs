//! Differential oracles for the scheduling stack, driven by the
//! `mc-fault` generators and property harness.
//!
//! Two independent implementations are pitted against each other:
//!
//! * the EDF-VD *analysis* (`analysis::edf_vd`, the paper's Eq. 8)
//!   versus the discrete-event *simulator* — whenever the analysis
//!   declares a random task set schedulable, the adversarial
//!   `FullHiBudget` execution model must produce zero HC deadline
//!   misses over full hyperperiods;
//! * the simulator's *empirical* mode-switch rate versus the
//!   Chebyshev/Cantelli *bound* (`mc_stats::chebyshev::one_sided_bound`)
//!   for profiled tasks whose `C_LO = ACET + n·σ` (the paper's Eq. 6).
//!
//! Any disagreement fails with a copy-pasteable reproducing seed.

use std::cell::Cell;

use chebymc::fault::gen::{mixed_taskset, profiled_hc_task};
use chebymc::fault::{assert_prop, FaultRng, PropConfig};
use chebymc::sched::analysis::edf_vd;
use chebymc::sched::sim::{simulate, JobExecModel, SimConfig};
use chebymc::stats::chebyshev::one_sided_bound;
use chebymc::task::TaskSet;

/// The analysis says "schedulable" ⇒ the simulator, running every HC job
/// to its full pessimistic budget (the worst case Eq. 8 certifies), must
/// meet every HC deadline.
#[test]
fn edf_vd_schedulable_implies_no_hc_miss_under_full_hi_budget() {
    let schedulable_cases = Cell::new(0u32);
    assert_prop(
        &PropConfig::named("edf-vd-vs-simulator").cases(300),
        |rng| rng.next_u64(),
        |&scenario| {
            let ts = mixed_taskset(&mut FaultRng::new(scenario));
            let analysis = edf_vd::analyze(&ts);
            if !analysis.schedulable {
                // Nothing certified, nothing to check. Non-vacuity of the
                // whole run is asserted below.
                return Ok(());
            }
            let x = analysis
                .x
                .ok_or("analysis says schedulable but offers no x factor")?;
            let hyperperiod = ts
                .hyperperiod()
                .ok_or("ladder task set must have a hyperperiod")?;
            let mut cfg = SimConfig::new(hyperperiod.saturating_mul(4));
            cfg.exec_model = JobExecModel::FullHiBudget;
            cfg.x_factor = Some(x);
            cfg.seed = scenario;
            let m = simulate(&ts, &cfg).map_err(|e| e.to_string())?;
            if m.hc_deadline_misses != 0 {
                return Err(format!(
                    "analysis certified {analysis:?} but simulation missed \
                     {} HC deadline(s) over {} released HC jobs",
                    m.hc_deadline_misses, m.hc_released
                ));
            }
            schedulable_cases.set(schedulable_cases.get() + 1);
            Ok(())
        },
    );
    assert!(
        schedulable_cases.get() >= 30,
        "oracle is nearly vacuous: only {} of 300 generated sets were schedulable",
        schedulable_cases.get()
    );
}

/// With `C_LO = ACET + n·σ`, Cantelli's inequality bounds the per-job
/// overrun (= mode-switch) probability by `1/(1+n²)` for *any*
/// distribution; the simulator draws from a normal profile, whose tail
/// sits far below that bound, so the empirical switch rate must too.
#[test]
fn empirical_switch_rate_stays_under_the_chebyshev_bound() {
    for n in [2.0_f64, 3.0] {
        let bound = one_sided_bound(n);
        let total_switches = Cell::new(0u64);
        assert_prop(
            &PropConfig::named("switch-rate-vs-cantelli").cases(25),
            |rng| rng.next_u64(),
            |&scenario| {
                let mut rng = FaultRng::new(scenario);
                let task = profiled_hc_task(&mut rng, 0, n);
                let period = task.period();
                let ts = TaskSet::from_tasks(vec![task]).map_err(|e| e.to_string())?;
                let mut cfg = SimConfig::new(period.saturating_mul(600));
                cfg.exec_model = JobExecModel::Profile;
                cfg.seed = scenario;
                let m = simulate(&ts, &cfg).map_err(|e| e.to_string())?;
                if m.hc_released < 500 {
                    return Err(format!("only {} HC jobs released", m.hc_released));
                }
                if m.hc_deadline_misses != 0 {
                    return Err(format!(
                        "slack-heavy single-task set missed {} deadline(s)",
                        m.hc_deadline_misses
                    ));
                }
                let rate = m.switch_rate_per_hc_job();
                if rate > bound {
                    return Err(format!(
                        "empirical switch rate {rate:.4} exceeds the n={n} \
                         Cantelli bound {bound:.4} ({} switches / {} jobs)",
                        m.mode_switches, m.hc_released
                    ));
                }
                total_switches.set(total_switches.get() + m.mode_switches);
                Ok(())
            },
        );
        // Non-vacuity: the normal tail at n·σ is small but not zero, so a
        // healthy run must have observed at least *some* switches.
        assert!(
            total_switches.get() > 0,
            "no mode switch observed across any n={n} case — the exec model \
             is not exercising the overrun path"
        );
    }
}

/// The analysis-side sanity direction: an x factor, when offered, must be
/// a valid deadline-shrinking factor in `(0, 1]` and must keep every
/// virtual deadline within the real one.
#[test]
fn offered_x_factors_are_valid_shrink_factors() {
    assert_prop(
        &PropConfig::named("x-factor-validity").cases(300),
        |rng| rng.next_u64(),
        |&scenario| {
            let ts = mixed_taskset(&mut FaultRng::new(scenario));
            let analysis = edf_vd::analyze(&ts);
            let Some(x) = analysis.x else {
                return Ok(());
            };
            if !(x > 0.0 && x <= 1.0) {
                return Err(format!("x factor {x} outside (0, 1]"));
            }
            for t in ts.iter().filter(|t| t.is_high()) {
                let vd = edf_vd::virtual_deadline(t, x);
                if vd > t.deadline() || vd.is_zero() {
                    return Err(format!(
                        "virtual deadline {vd:?} escapes (0, {:?}] for x={x}",
                        t.deadline()
                    ));
                }
            }
            Ok(())
        },
    );
}
