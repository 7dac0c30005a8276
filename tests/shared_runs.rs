//! The rule the policy arena shares simulator runs by: a run with no mode
//! switch and no contained overrun is the run every `(lc_policy,
//! mode_switch)` pair produces, so the entrants raced on one set can share
//! it. `SharedRuns` hands runs out under that rule, and the arena
//! campaigns send every simulation through it. A change to the event loop
//! that breaks the rule, or to the store that bends it, fails here.

use std::cell::Cell;

use chebymc::core::policy::WcetPolicy;
use chebymc::exp::catalog::{self, Campaign, CatalogOptions};
use chebymc::exp::{run_campaign, RunConfig, Store, UnitRecord};
use chebymc::fault::{assert_prop, FaultRng, PropConfig};
use chebymc::sched::policy::{PolicySpec, SchedulingPolicy};
use chebymc::sched::sim::{simulate, JobExecModel, LcPolicy, SharedRuns, SimConfig, SimMetrics};
use chebymc::sched::SchedError;
use chebymc::task::generate::{generate_mixed_taskset, GeneratorConfig};
use chebymc::task::time::Duration;
use chebymc::task::TaskSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every execution model, the stochastic ones at rates that make some
/// runs overrun and leave others clean.
const MODELS: [JobExecModel; 5] = [
    JobExecModel::FullLoBudget,
    JobExecModel::FullHiBudget,
    JobExecModel::FractionOfLo(0.7),
    JobExecModel::Profile,
    JobExecModel::OverrunWithProbability(0.02),
];

/// A mixed set at u ∈ [0.5, 1.4], designed with Chebyshev n ∈ {1, 2, 3}.
fn designed_set(scenario: u64) -> TaskSet {
    let mut rng = FaultRng::new(scenario);
    let u = rng.range_f64(0.5, 1.4);
    let n = rng.range_u64(1, 3) as f64;
    let mut ts = generate_mixed_taskset(
        u,
        &GeneratorConfig::default(),
        &mut StdRng::seed_from_u64(scenario),
    )
    .unwrap();
    WcetPolicy::ChebyshevUniform { n }.assign(&mut ts).unwrap();
    ts
}

/// Every base config of the property: each model, periodic and with
/// 5 ms release jitter, over a short horizon.
fn bases(seed: u64) -> impl Iterator<Item = SimConfig> {
    MODELS.into_iter().flat_map(move |exec_model| {
        [0, 5].map(|jitter_ms| SimConfig {
            exec_model,
            release_jitter: Duration::from_millis(jitter_ms),
            seed,
            ..SimConfig::new(Duration::from_millis(500))
        })
    })
}

/// The configs the arena's entrants simulate `ts` under.
fn entrant_configs(ts: &TaskSet, base: &SimConfig) -> Vec<SimConfig> {
    PolicySpec::arena_roster()
        .iter()
        .map(|p| p.sim_config(ts, base))
        .collect()
}

fn overrun_free(m: &SimMetrics) -> bool {
    m.mode_switches == 0 && m.task_level_switches == 0
}

#[test]
fn overrun_free_runs_are_the_same_under_every_entrant() {
    let (clean, overran) = (Cell::new(0u32), Cell::new(0u32));
    assert_prop(
        &PropConfig::named("shared-runs-rule").cases(24),
        |rng| rng.next_u64(),
        |&scenario| {
            let ts = designed_set(scenario);
            for base in bases(scenario) {
                let configs = entrant_configs(&ts, &base);
                let runs: Vec<SimMetrics> = configs
                    .iter()
                    .map(|cfg| simulate(&ts, cfg).map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
                for (cfg, run) in configs.iter().zip(&runs) {
                    if !overrun_free(run) {
                        overran.set(overran.get() + 1);
                        continue;
                    }
                    clean.set(clean.get() + 1);
                    for (other_cfg, other) in configs.iter().zip(&runs) {
                        if other != run {
                            return Err(format!(
                                "clean run under {cfg:?} is {run:?}, \
                                 but {other_cfg:?} gives {other:?}"
                            ));
                        }
                    }
                }
            }
            Ok(())
        },
    );
    assert!(
        clean.get() > 0 && overran.get() > 0,
        "vacuous: {} clean and {} overrunning runs",
        clean.get(),
        overran.get()
    );
}

#[test]
fn the_store_returns_what_simulate_returns() {
    for scenario in 0..6 {
        let ts = designed_set(scenario);
        for base in bases(scenario) {
            let configs = entrant_configs(&ts, &base);
            let fresh: Vec<SimMetrics> =
                configs.iter().map(|c| simulate(&ts, c).unwrap()).collect();
            // In roster order, in reverse, and looked up once more than
            // there are entrants (the last lookup finds the key dropped).
            let forward = SharedRuns::new(configs.len());
            let reverse = SharedRuns::new(configs.len());
            for (cfg, expected) in configs.iter().zip(&fresh) {
                assert_eq!(forward.simulate(7, &ts, cfg).unwrap(), *expected);
            }
            for (cfg, expected) in configs.iter().zip(&fresh).rev() {
                assert_eq!(reverse.simulate(7, &ts, cfg).unwrap(), *expected);
            }
            assert_eq!(forward.simulate(7, &ts, &configs[0]).unwrap(), fresh[0]);
        }
    }
}

/// A second lookup under the key of another set shows which lookups the
/// store answers from the stored run: exactly those the rule allows.
#[test]
fn the_store_shares_exactly_what_the_rule_allows() {
    let (hits, misses) = (Cell::new(0u32), Cell::new(0u32));
    for scenario in 0..6 {
        let (ts, decoy) = (designed_set(scenario), designed_set(scenario + 100));
        for base in bases(scenario) {
            let configs = entrant_configs(&ts, &base);
            let first = configs[0];
            let stored = simulate(&ts, &first).unwrap();
            for cfg in &configs {
                let store = SharedRuns::new(2);
                assert_eq!(store.simulate((), &ts, &first).unwrap(), stored);
                let got = store.simulate((), &decoy, cfg).unwrap();
                if *cfg == first || overrun_free(&stored) {
                    hits.set(hits.get() + 1);
                    assert_eq!(got, stored, "{cfg:?} should share {first:?}'s run");
                } else {
                    misses.set(misses.get() + 1);
                    assert_eq!(got, simulate(&decoy, cfg).unwrap(), "{cfg:?}");
                }
            }
        }
    }
    assert!(hits.get() > 0 && misses.get() > 0, "{hits:?} {misses:?}");
}

#[test]
fn a_stored_run_never_hides_an_error() {
    let ts = designed_set(3);
    let base = SimConfig::new(Duration::from_millis(500));
    let store = SharedRuns::new(5);
    store.simulate(0, &ts, &base).unwrap();
    for lc_policy in [LcPolicy::Degrade(1.5), LcPolicy::Degrade(f64::NAN)] {
        let bad = SimConfig { lc_policy, ..base };
        assert!(matches!(
            store.simulate(0, &ts, &bad),
            Err(SchedError::InvalidSimConfig { .. })
        ));
        assert_eq!(store.simulate(0, &ts, &bad), simulate(&ts, &bad));
    }
    assert_eq!(
        store.simulate(0, &TaskSet::new(), &base),
        Err(SchedError::EmptyTaskSet)
    );
}

fn tiny_arena() -> Campaign {
    let opts = CatalogOptions {
        sets: Some(3),
        points: Some(vec![0.8, 1.2]),
        ..CatalogOptions::default()
    };
    catalog::build("policy_arena", &opts).unwrap()
}

fn record(c: &Campaign, index: usize) -> UnitRecord {
    let unit = c.spec.unit(index);
    UnitRecord {
        unit: unit.index,
        point: unit.point,
        replica: unit.replica,
        seed: unit.seed,
        metrics: c.runner.run_unit(&unit, 1).unwrap(),
    }
}

/// The campaign's records with its units run in `order` on one runner,
/// sorted by unit.
fn shared_records(order: impl Iterator<Item = usize>) -> Vec<UnitRecord> {
    let c = tiny_arena();
    let mut records: Vec<UnitRecord> = order.map(|index| record(&c, index)).collect();
    records.sort_by_key(|r| r.unit);
    records
}

#[test]
fn arena_records_do_not_depend_on_unit_order_or_lanes() {
    let units = tiny_arena().spec.total_units();
    // A runner of its own per unit shares nothing.
    let alone: Vec<UnitRecord> = (0..units).map(|i| record(&tiny_arena(), i)).collect();
    assert_eq!(shared_records(0..units), alone);
    assert_eq!(shared_records((0..units).rev()), alone);

    let c = tiny_arena();
    let mut store = Store::in_memory(&c.spec);
    let cfg = RunConfig {
        threads: 4,
        ..RunConfig::default()
    };
    run_campaign(&c.spec, c.runner.as_ref(), &mut store, &cfg).unwrap();
    assert_eq!(store.records(), alone.as_slice());
}
