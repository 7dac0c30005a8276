//! The timing seams of the traced run. Every timer lives here, in the
//! benchmark, around public calls of the program:
//!
//! * [`TimedIo`] wraps the store's real file (`mc_fault::RealFile`) and
//!   times `write_all` and `sync_data`;
//! * [`TimedRunner`] recomputes each unit of `fig5`, `policy_arena` and
//!   `automotive` from the public calls the catalog runners make, timing
//!   each layer;
//! * [`TimedFactory`] hands a [`TimedRunner`] to a serve worker;
//! * [`CounterSink`] keeps the counters the program already emits through
//!   `mc-obs` (`ga.evals`, `ga.carried`).

use chebymc::core::metrics::design_metrics;
use chebymc::core::pipeline::derive_set_seed;
use chebymc::core::policy::WcetPolicy;
use chebymc::core::CoreError;
use chebymc::exp::catalog;
use chebymc::exp::store::ResumeInfo;
use chebymc::exp::{CampaignSpec, ExpError, Metric, Store, UnitRunner, WorkUnit};
use chebymc::fault::{RealFile, StoreIo};
use chebymc::opt::GaConfig;
use chebymc::sched::policy::{PolicySpec, SchedulingPolicy};
use chebymc::sched::sim::{simulate, SimConfig};
use chebymc::serve::RunnerFactory;
use chebymc::task::automotive::{generate_automotive_taskset, AutomotiveConfig};
use chebymc::task::generate::{generate_hc_taskset, generate_mixed_taskset, GeneratorConfig};
use chebymc::task::time::Duration as SimDuration;
use chebymc::task::TaskSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Simulation window of `policy_arena` units (the catalog's private
/// `ARENA_HORIZON_SECS`; the self-test catches drift).
const ARENA_HORIZON_SECS: u64 = 5;
/// Simulation window of `automotive` units (the catalog's private
/// `AUTOMOTIVE_HORIZON_SECS`).
const AUTOMOTIVE_HORIZON_SECS: u64 = 1;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a timing thread panicked")
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Store I/O seen through a [`TimedIo`].
#[derive(Debug, Default, Clone)]
pub struct IoTotals {
    /// `write_all` calls.
    pub writes: u64,
    /// Bytes written.
    pub bytes: u64,
    /// Time inside `write_all`.
    pub write_ns: u64,
    /// Time of each `sync_data`, in call order.
    pub sync_ns: Vec<u64>,
    /// When the last `sync_data` returned: the moment the last append
    /// became durable.
    pub last_sync: Option<Instant>,
}

/// A [`StoreIo`] over the store's real file that times the two calls an
/// append makes.
#[derive(Debug)]
pub struct TimedIo {
    file: RealFile,
    totals: Arc<Mutex<IoTotals>>,
}

impl StoreIo for TimedIo {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<()> {
        self.file.read_to_end(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let result = self.file.write_all(buf);
        let ns = nanos(t);
        let mut totals = lock(&self.totals);
        totals.writes += 1;
        totals.bytes += buf.len() as u64;
        totals.write_ns += ns;
        result
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let result = self.file.sync_data();
        let ns = nanos(t);
        let mut totals = lock(&self.totals);
        totals.sync_ns.push(ns);
        totals.last_sync = Some(Instant::now());
        result
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.truncate(len)
    }
}

/// [`Store::create_or_resume`] with the file behind a [`TimedIo`]: the
/// same open flags, then `Store::create_or_resume_io`.
pub fn open_timed_store(
    path: &Path,
    spec: &CampaignSpec,
    totals: &Arc<Mutex<IoTotals>>,
) -> Result<(Store, ResumeInfo), ExpError> {
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|source| ExpError::Io {
            path: path.display().to_string(),
            source,
        })?;
    let io = TimedIo {
        file: RealFile::new(file),
        totals: Arc::clone(totals),
    };
    Store::create_or_resume_io(Box::new(io), &path.display().to_string(), spec)
}

/// Per-layer work and time of the units a [`TimedRunner`] computed.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Wall time of each unit, from entry to return.
    pub unit_ns: Vec<u64>,
    /// Task-set generation (`mc-task`, incl. the Weibull fit).
    pub generate_ns: u64,
    /// Task sets generated.
    pub sets: u64,
    /// Tasks generated.
    pub tasks: u64,
    /// `WcetPolicy::assign` (`chebymc-core`, the GA in `mc-opt`).
    pub assign_ns: u64,
    /// `design_metrics`.
    pub metrics_ns: u64,
    /// Units whose assignment ran the GA.
    pub ga_runs: u64,
    /// `PolicySpec::admit` plus `sim_config`.
    pub admit_ns: u64,
    /// Admission calls.
    pub admit_calls: u64,
    /// `sim::simulate`.
    pub simulate_ns: u64,
    /// Jobs released in simulation (`SimMetrics::released`).
    pub sim_jobs: u64,
    /// System-level mode switches in simulation.
    pub mode_switches: u64,
}

/// Which catalog runner a [`TimedRunner`] reproduces.
enum Family {
    Fig5(Vec<WcetPolicy>),
    Arena(Vec<PolicySpec>),
    Automotive(Vec<PolicySpec>, AutomotiveConfig),
}

/// A [`UnitRunner`] that recomputes each unit from public calls — the
/// generator, `WcetPolicy::assign` with the catalog's reseeding, then
/// `design_metrics`, or `PolicySpec::admit` + `sim_config` +
/// `sim::simulate` — and times each call.
pub struct TimedRunner {
    family: Family,
    seed: u64,
    /// `(policy index, u, u index)` of every point, read from the spec.
    points: Vec<(usize, f64, usize)>,
    totals: Arc<Mutex<LayerTotals>>,
}

impl TimedRunner {
    /// A runner for `spec`, which must be a `fig5`, `policy_arena` or
    /// `automotive` campaign.
    ///
    /// # Errors
    ///
    /// [`ExpError::Config`] for other campaigns or points without the
    /// catalog's `policy`/`u`/`u_index` parameters.
    pub fn for_spec(
        spec: &CampaignSpec,
        totals: Arc<Mutex<LayerTotals>>,
    ) -> Result<Self, ExpError> {
        let family = match spec.name.as_str() {
            "fig5" => Family::Fig5(catalog::fig5_policies()),
            "policy_arena" => Family::Arena(PolicySpec::arena_roster()),
            "automotive" => {
                let runnables = spec
                    .params
                    .iter()
                    .find(|p| p.name == "runnables")
                    .map(|p| p.value.round() as usize)
                    .ok_or_else(|| ExpError::Config("automotive spec has no runnables".into()))?;
                let config = AutomotiveConfig {
                    runnables,
                    ..AutomotiveConfig::default()
                };
                Family::Automotive(PolicySpec::arena_roster(), config)
            }
            other => {
                return Err(ExpError::Config(format!(
                    "no timed runner for campaign `{other}`"
                )))
            }
        };
        let points = spec
            .points
            .iter()
            .map(|p| {
                let get = |name: &str| {
                    p.param(name).ok_or_else(|| {
                        ExpError::Config(format!("point `{}` has no `{name}`", p.label))
                    })
                };
                Ok((get("policy")? as usize, get("u")?, get("u_index")? as usize))
            })
            .collect::<Result<Vec<_>, ExpError>>()?;
        Ok(TimedRunner {
            family,
            seed: spec.seed,
            points,
            totals,
        })
    }
}

/// Times one call into `slot`.
fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += nanos(t);
    out
}

/// The catalog's per-set reseeding (`chebymc_core::pipeline::reseed` is
/// private): the unit's evaluation seed drives the policy's own draws,
/// and the GA's inner parallelism is pinned to the unit's thread share.
fn reseed(policy: &WcetPolicy, seed: u64, inner_threads: usize) -> WcetPolicy {
    match policy {
        WcetPolicy::LambdaRange { lambda_min, .. } => WcetPolicy::LambdaRange {
            lambda_min: *lambda_min,
            seed,
        },
        WcetPolicy::ChebyshevGa { ga, problem } => WcetPolicy::ChebyshevGa {
            ga: GaConfig {
                seed,
                threads: inner_threads,
                ..*ga
            },
            problem: *problem,
        },
        other => other.clone(),
    }
}

/// Admission and simulation of one designed set under `policy`, with the
/// metric columns of the arena campaigns.
fn race(
    ts: &TaskSet,
    policy: &PolicySpec,
    horizon_secs: u64,
    seed: u64,
    t: &mut LayerTotals,
) -> Result<Vec<Metric>, ExpError> {
    let (verdict, cfg) = timed(&mut t.admit_ns, || {
        let verdict = policy.admit(ts)?;
        let base = SimConfig::new(SimDuration::from_secs(horizon_secs));
        let cfg = SimConfig {
            seed,
            ..policy.sim_config(ts, &base)
        };
        Ok::<_, CoreError>((verdict, cfg))
    })?;
    t.admit_calls += 1;
    let m = timed(&mut t.simulate_ns, || simulate(ts, &cfg)).map_err(CoreError::from)?;
    t.sim_jobs += m.released();
    t.mode_switches += m.mode_switches;
    let per_hc = |n: u64| {
        if m.hc_released == 0 {
            0.0
        } else {
            n as f64 / m.hc_released as f64
        }
    };
    Ok(vec![
        Metric::new("schedulable", if verdict.schedulable { 1.0 } else { 0.0 }),
        Metric::new("service_level", verdict.service_level),
        Metric::new("switch_rate", m.switch_rate_per_hc_job()),
        Metric::new("task_switch_rate", per_hc(m.task_level_switches)),
        Metric::new("lc_qos", 1.0 - m.lc_loss_rate()),
        Metric::new("hc_miss_rate", per_hc(m.hc_deadline_misses)),
    ])
}

impl UnitRunner for TimedRunner {
    fn run_unit(&self, unit: &WorkUnit, inner_threads: usize) -> Result<Vec<Metric>, ExpError> {
        let start = Instant::now();
        let mut t = LayerTotals::default();
        let (policy_index, u, u_index) = self.points[unit.point];
        let seed = derive_set_seed(self.seed, u_index, unit.replica);
        let mut rng = StdRng::seed_from_u64(seed);
        let metrics = match &self.family {
            Family::Fig5(policies) => {
                let mut ts = timed(&mut t.generate_ns, || {
                    generate_hc_taskset(u, &GeneratorConfig::default(), &mut rng)
                })
                .map_err(CoreError::from)?;
                t.sets += 1;
                t.tasks += ts.len() as u64;
                let policy = reseed(&policies[policy_index], seed, inner_threads);
                if matches!(policy, WcetPolicy::ChebyshevGa { .. }) {
                    t.ga_runs += 1;
                }
                timed(&mut t.assign_ns, || policy.assign(&mut ts))?;
                let m = timed(&mut t.metrics_ns, || design_metrics(&ts))?;
                vec![
                    Metric::new("p_ms", m.p_ms),
                    Metric::new("max_u_lc_lo", m.max_u_lc_lo),
                    Metric::new("objective", m.objective),
                ]
            }
            Family::Arena(roster) | Family::Automotive(roster, _) => {
                let (generated, horizon) = match &self.family {
                    Family::Automotive(_, config) => (
                        timed(&mut t.generate_ns, || {
                            generate_automotive_taskset(u, config, &mut rng)
                        }),
                        AUTOMOTIVE_HORIZON_SECS,
                    ),
                    _ => (
                        timed(&mut t.generate_ns, || {
                            generate_mixed_taskset(u, &GeneratorConfig::default(), &mut rng)
                        }),
                        ARENA_HORIZON_SECS,
                    ),
                };
                let mut ts = generated.map_err(CoreError::from)?;
                t.sets += 1;
                t.tasks += ts.len() as u64;
                // The arenas' fixed design-time assignment (the catalog's
                // private `arena_wcet`), with one inner thread.
                let wcet = reseed(&WcetPolicy::ChebyshevUniform { n: 3.0 }, seed, 1);
                timed(&mut t.assign_ns, || wcet.assign(&mut ts))?;
                race(&ts, &roster[policy_index], horizon, seed, &mut t)?
            }
        };
        t.unit_ns.push(nanos(start));
        let mut totals = lock(&self.totals);
        totals.unit_ns.append(&mut t.unit_ns);
        totals.generate_ns += t.generate_ns;
        totals.sets += t.sets;
        totals.tasks += t.tasks;
        totals.assign_ns += t.assign_ns;
        totals.metrics_ns += t.metrics_ns;
        totals.ga_runs += t.ga_runs;
        totals.admit_ns += t.admit_ns;
        totals.admit_calls += t.admit_calls;
        totals.simulate_ns += t.simulate_ns;
        totals.sim_jobs += t.sim_jobs;
        totals.mode_switches += t.mode_switches;
        Ok(metrics)
    }
}

/// A serve worker's [`RunnerFactory`] that admits specs exactly like the
/// production `CatalogFactory` (they must rebuild from the catalog) and
/// computes their units with a [`TimedRunner`].
pub struct TimedFactory {
    /// Where the worker's runners accumulate.
    pub totals: Arc<Mutex<LayerTotals>>,
}

impl RunnerFactory for TimedFactory {
    fn runner_for(
        &self,
        spec: &CampaignSpec,
    ) -> Result<Box<dyn UnitRunner + Send + Sync>, ExpError> {
        catalog::rebuild(spec)?;
        Ok(Box::new(TimedRunner::for_spec(
            spec,
            Arc::clone(&self.totals),
        )?))
    }
}

/// An `mc-obs` writer that keeps the trace's `meta` and counter lines and
/// drops spans, values and histograms, so a traced run holds little in
/// memory.
#[derive(Debug, Clone, Default)]
pub struct CounterSink(Arc<Mutex<CounterLines>>);

#[derive(Debug, Default)]
struct CounterLines {
    partial: Vec<u8>,
    kept: String,
}

impl CounterSink {
    /// The kept lines, parseable by `mc_obs::summary::TraceSummary`.
    pub fn text(&self) -> String {
        lock(&self.0).kept.clone()
    }
}

impl Write for CounterSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut guard = lock(&self.0);
        let CounterLines { partial, kept } = &mut *guard;
        partial.extend_from_slice(buf);
        let mut start = 0;
        while let Some(len) = partial[start..].iter().position(|&b| b == b'\n') {
            let line = &partial[start..=start + len];
            if line.starts_with(b"{\"k\":\"ctr\"") || line.starts_with(b"{\"k\":\"meta\"") {
                kept.push_str(&String::from_utf8_lossy(line));
            }
            start += len + 1;
        }
        partial.drain(..start);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
