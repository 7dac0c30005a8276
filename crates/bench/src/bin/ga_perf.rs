//! GA hot-path performance tracking: wall-clock, raw and *effective*
//! objective throughput for `solve_ga`-shaped runs, emitted
//! machine-readably to `BENCH_ga.json`.
//!
//! Five configurations are timed on the paper-scale problem:
//!
//! * `baseline_serial` — a frozen copy of the pre-optimization GA
//!   (clone-heavy `Vec<Vec<f64>>` population, full sort for elitism, no
//!   memoization, serial evaluation), kept here so the perf trajectory
//!   is measurable on any machine without checking out old commits.
//! * `new_serial` / `new_parallel` — the closure backend with the memo
//!   cache, pinned to one thread / on all available cores.
//! * `incremental_serial` / `incremental_parallel` — the delta-fitness
//!   backend over the problem's `ObjectiveCache`, which re-folds only
//!   the blocks a child's crossover span or mutation touched.
//!
//! Every configuration consumes RNG draws in the same order, so all
//! five must return bit-identical results — the run aborts if not.
//!
//! Two throughput figures are reported per run and the speedup lines
//! quote the effective one:
//!
//! * `raw_evals_per_sec` — objective computations actually executed
//!   (full folds plus delta re-folds) per second.
//! * `effective_evals_per_sec` — candidate evaluations *served* per
//!   second, counting memo hits, batch duplicates and carried children.
//!   This is the number that decides how long a search takes.
//!
//! `CHEBYMC_GA_SCALING=smoke|full` appends a threads × population ×
//! task-count sweep (including a generated 1 000-task set) with
//! per-cell bit-identity flags; `off` (the default) skips it.
//!
//! After the timed (untraced) runs, two extra serial runs execute with
//! the mc-obs sink enabled to record each backend's `ga.run` time and
//! work counters (`stage_breakdown` in the JSON). The timed numbers are
//! never taken with tracing on. When `CHEBYMC_TRACE` is set, the
//! closure-path trace is also written to the named file for
//! `chebymc trace summary`.
//!
//! Run: `cargo run -p chebymc-bench --release --bin ga_perf`
//! Output path override: `CHEBYMC_BENCH_GA_JSON=/path/to/out.json`

#![warn(clippy::undocumented_unsafe_blocks, clippy::cast_possible_truncation)]

use mc_opt::ga::{optimize_with_stats, EvalStats, GaConfig, GaResult, GeneBounds};
use mc_opt::incremental::optimize_incremental;
use mc_opt::{ProblemConfig, WcetProblem};
use mc_task::generate::{generate_hc_taskset, GeneratorConfig};
use rand::SeedableRng;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Frozen pre-optimization GA, bit-compatible with the current one.
mod baseline {
    use mc_opt::ga::{GaConfig, GaResult, GeneBounds, GenerationStats};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample<R: Rng + ?Sized>(b: &GeneBounds, rng: &mut R) -> f64 {
        if b.hi > b.lo {
            rng.random_range(b.lo..=b.hi)
        } else {
            b.lo
        }
    }

    fn tournament<R: Rng + ?Sized>(scores: &[f64], k: usize, rng: &mut R) -> usize {
        let mut winner = rng.random_range(0..scores.len());
        for _ in 1..k {
            let challenger = rng.random_range(0..scores.len());
            if scores[challenger] > scores[winner] {
                winner = challenger;
            }
        }
        winner
    }

    fn two_point_crossover<R: Rng + ?Sized>(a: &mut [f64], b: &mut [f64], rng: &mut R) {
        let n = a.len();
        if n == 1 {
            std::mem::swap(&mut a[0], &mut b[0]);
            return;
        }
        let mut p1 = rng.random_range(0..n);
        let mut p2 = rng.random_range(0..n);
        if p1 > p2 {
            std::mem::swap(&mut p1, &mut p2);
        }
        for i in p1..=p2 {
            std::mem::swap(&mut a[i], &mut b[i]);
        }
    }

    pub fn optimize<F>(bounds: &[GeneBounds], fitness: F, cfg: &GaConfig) -> GaResult
    where
        F: Fn(&[f64]) -> f64,
    {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let genes = bounds.len();
        let eval = |c: &[f64]| {
            let f = fitness(c);
            if f.is_finite() {
                f
            } else {
                f64::NEG_INFINITY
            }
        };

        let mut population: Vec<Vec<f64>> = (0..cfg.population_size)
            .map(|_| bounds.iter().map(|b| sample(b, &mut rng)).collect())
            .collect();
        let mut scores: Vec<f64> = population.iter().map(|c| eval(c)).collect();

        let mut best = population[0].clone();
        let mut best_fitness = scores[0];
        let mut history = Vec::with_capacity(cfg.generations);

        for generation in 0..cfg.generations {
            let mut gen_best = f64::NEG_INFINITY;
            let mut sum = 0.0;
            for (c, &s) in population.iter().zip(&scores) {
                if s > best_fitness {
                    best_fitness = s;
                    best = c.clone();
                }
                gen_best = gen_best.max(s);
                sum += if s.is_finite() { s } else { 0.0 };
            }
            history.push(GenerationStats {
                generation,
                best: gen_best,
                mean: sum / population.len() as f64,
            });

            let mut order: Vec<usize> = (0..population.len()).collect();
            order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite scores"));
            let mut next: Vec<Vec<f64>> = order
                .iter()
                .take(cfg.elitism)
                .map(|&i| population[i].clone())
                .collect();

            while next.len() < cfg.population_size {
                let a = tournament(&scores, cfg.tournament_size, &mut rng);
                let b = tournament(&scores, cfg.tournament_size, &mut rng);
                let (mut child1, mut child2) = (population[a].clone(), population[b].clone());
                if rng.random::<f64>() < cfg.crossover_probability {
                    two_point_crossover(&mut child1, &mut child2, &mut rng);
                }
                for child in [&mut child1, &mut child2] {
                    if rng.random::<f64>() < cfg.mutation_probability {
                        let g = rng.random_range(0..genes);
                        child[g] = sample(&bounds[g], &mut rng);
                    }
                    for (x, b) in child.iter_mut().zip(bounds) {
                        *x = x.clamp(b.lo, b.hi);
                    }
                }
                next.push(child1);
                if next.len() < cfg.population_size {
                    next.push(child2);
                }
            }
            population = next;
            scores = population.iter().map(|c| eval(c)).collect();
        }

        for (c, &s) in population.iter().zip(&scores) {
            if s > best_fitness {
                best_fitness = s;
                best = c.clone();
            }
        }

        GaResult {
            best,
            best_fitness,
            history,
        }
    }
}

#[derive(Serialize)]
struct RunRecord {
    name: String,
    threads: usize,
    wall_s: f64,
    /// Candidate evaluations the GA asked for (elites excluded).
    considered: u64,
    /// Objective computations actually executed: full folds plus
    /// incremental re-folds.
    raw_objective_evals: u64,
    delta_evals: u64,
    carried: u64,
    memo_hits: u64,
    batch_dups: u64,
    genes_evaluated: u64,
    genes_total: u64,
    raw_evals_per_sec: f64,
    effective_evals_per_sec: f64,
    best_fitness: f64,
}

/// One cell of the `CHEBYMC_GA_SCALING` sweep.
#[derive(Serialize)]
struct ScalingCell {
    hc_tasks: usize,
    population_size: usize,
    generations: usize,
    threads: usize,
    backend: &'static str,
    wall_s: f64,
    considered: u64,
    raw_objective_evals: u64,
    raw_evals_per_sec: f64,
    effective_evals_per_sec: f64,
    best_fitness: f64,
    /// The cell's `GaResult` equals the 1-thread cell of the same
    /// backend, problem and population — thread count is a pure perf
    /// knob.
    bit_identical_vs_t1: bool,
}

/// One traced serial GA run per backend: its `ga.run` time and work
/// counters, measured by dedicated runs after the timed ones.
#[derive(Serialize)]
struct StageBreakdown {
    trace_events: u64,
    ga_run_ns: u64,
    objective_evals: u64,
    memo_hits: u64,
    incremental_ga_run_ns: u64,
    incremental_delta_evals: u64,
    incremental_carried: u64,
    incremental_genes_evaluated: u64,
}

#[derive(Serialize)]
struct BenchReport {
    schema_version: u32,
    machine_threads: usize,
    repeats: usize,
    hc_tasks: usize,
    population_size: usize,
    generations: usize,
    runs: Vec<RunRecord>,
    /// All speedups are ratios of *effective* evaluations per second.
    speedup_new_serial_vs_baseline: f64,
    speedup_parallel_vs_new_serial: f64,
    speedup_parallel_vs_baseline: f64,
    speedup_incremental_vs_new_serial: f64,
    speedup_incremental_vs_baseline: f64,
    results_bit_identical: bool,
    scaling_mode: String,
    scaling: Vec<ScalingCell>,
    stage_breakdown: StageBreakdown,
}

/// A boxed benchmark configuration: one full GA run returning its
/// result and eval accounting.
type Runner<'a> = Box<dyn Fn() -> (GaResult, EvalStats) + 'a>;

fn time_best<F: FnMut() -> (GaResult, EvalStats)>(
    repeats: usize,
    mut run: F,
) -> (GaResult, EvalStats, f64) {
    let mut best_wall = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats {
        #[expect(
            clippy::disallowed_methods,
            reason = "ga_perf times its own work: the wall clock is the measurement subject, never a result-table payload"
        )]
        let start = Instant::now();
        let (result, stats) = run();
        let wall = start.elapsed().as_secs_f64();
        best_wall = best_wall.min(wall);
        out = Some((result, stats));
    }
    let (result, stats) = out.expect("repeats >= 1");
    (result, stats, best_wall)
}

fn record(name: &str, threads: usize, wall: f64, stats: EvalStats, best_fitness: f64) -> RunRecord {
    let raw = stats.full_evals + stats.delta_evals;
    RunRecord {
        name: name.to_string(),
        threads,
        wall_s: wall,
        considered: stats.considered,
        raw_objective_evals: raw,
        delta_evals: stats.delta_evals,
        carried: stats.carried,
        memo_hits: stats.memo_hits,
        batch_dups: stats.batch_dups,
        genes_evaluated: stats.genes_evaluated,
        genes_total: stats.genes_total,
        raw_evals_per_sec: raw as f64 / wall,
        effective_evals_per_sec: stats.considered as f64 / wall,
        best_fitness,
    }
}

/// Builds the three sweep problems: the paper-scale generator default
/// plus synthetic 100- and 1 000-task sets (per-task utilisation scaled
/// down so the target system utilisation spreads over more tasks).
fn scaling_problems(full: bool) -> Result<Vec<WcetProblem>, Box<dyn std::error::Error>> {
    let mut specs: Vec<GeneratorConfig> = vec![GeneratorConfig::default()];
    if full {
        specs.push(GeneratorConfig {
            task_utilization: (0.004, 0.008),
            max_tasks: 4000,
            ..GeneratorConfig::default()
        });
    }
    specs.push(GeneratorConfig {
        task_utilization: (0.0004, 0.0008),
        max_tasks: 4000,
        ..GeneratorConfig::default()
    });
    let mut problems = Vec::new();
    for (i, gen_cfg) in specs.iter().enumerate() {
        let target = if i == 0 { 0.7 } else { 0.6 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(7 + i as u64);
        let ts = generate_hc_taskset(target, gen_cfg, &mut rng)?;
        problems.push(WcetProblem::from_taskset(&ts, ProblemConfig::default())?);
    }
    Ok(problems)
}

fn run_scaling(
    mode: &str,
    machine_threads: usize,
) -> Result<Vec<ScalingCell>, Box<dyn std::error::Error>> {
    let full = mode == "full";
    let (generations, repeats) = if full { (80, 5) } else { (30, 6) };
    let populations: &[usize] = if full { &[64, 256] } else { &[64] };
    let mut threads: Vec<usize> = vec![1, 2];
    if full && machine_threads > 2 {
        threads.push(machine_threads);
    }

    println!("\nscaling protocol ({mode}): gens {generations}, {repeats} repeat(s)");
    let mut cells = Vec::new();
    for problem in scaling_problems(full)? {
        let bounds: Vec<GeneBounds> = problem.bounds()?;
        let dim = problem.dimension();
        for &pop in populations {
            // Reference results at one thread, one per backend; every
            // other cell must reproduce them bitwise.
            let mut reference: Vec<(&str, GaResult)> = Vec::new();
            for &t in &threads {
                let cfg = GaConfig {
                    population_size: pop,
                    generations,
                    threads: t,
                    ..GaConfig::default()
                };
                let closure = |c: &[f64]| problem.objective(c).fitness;
                let backends: [(&'static str, Runner); 2] = [
                    (
                        "closure_memo",
                        Box::new(|| optimize_with_stats(&bounds, closure, &cfg).unwrap()),
                    ),
                    (
                        "incremental",
                        Box::new(|| {
                            optimize_incremental(problem.objective_cache(), &bounds, &cfg).unwrap()
                        }),
                    ),
                ];
                for (backend, run) in backends {
                    let (result, stats, wall) = time_best(repeats, &run);
                    let bit_identical_vs_t1 = if t == threads[0] {
                        reference.push((backend, result.clone()));
                        true
                    } else {
                        reference
                            .iter()
                            .find(|(b, _)| *b == backend)
                            .is_some_and(|(_, r)| *r == result)
                    };
                    let cell = ScalingCell {
                        hc_tasks: dim,
                        population_size: pop,
                        generations,
                        threads: t,
                        backend,
                        wall_s: wall,
                        considered: stats.considered,
                        raw_objective_evals: stats.full_evals + stats.delta_evals,
                        raw_evals_per_sec: (stats.full_evals + stats.delta_evals) as f64 / wall,
                        effective_evals_per_sec: stats.considered as f64 / wall,
                        best_fitness: result.best_fitness,
                        bit_identical_vs_t1,
                    };
                    println!(
                        "  {dim:>5} tasks  pop {pop:>3}  t{t}  {backend:>13}: \
                         {:>8.2} ms, {:>12.0} eff evals/s{}",
                        wall * 1e3,
                        cell.effective_evals_per_sec,
                        if bit_identical_vs_t1 {
                            ""
                        } else {
                            "  DIVERGED"
                        },
                    );
                    cells.push(cell);
                }
            }
            // The two backends must agree with each other, not only with
            // themselves across thread counts.
            assert!(
                reference.windows(2).all(|w| w[0].1 == w[1].1),
                "{dim}-task pop {pop}: closure and incremental backends diverged"
            );
        }
    }
    assert!(
        cells.iter().all(|c| c.bit_identical_vs_t1),
        "scaling sweep found thread-count-dependent results"
    );
    Ok(cells)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let repeats: usize = std::env::var("CHEBYMC_GA_REPEATS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let scaling_mode = std::env::var("CHEBYMC_GA_SCALING").unwrap_or_else(|_| "off".into());

    // A realistic problem: a synthetic HC task set at U_HC^HI = 0.7 with
    // the paper's generator defaults, solved by a default GaConfig
    // (pop = 64, gens = 80 — the §V settings).
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let ts = generate_hc_taskset(0.7, &GeneratorConfig::default(), &mut rng)?;
    let problem = WcetProblem::from_taskset(&ts, ProblemConfig::default())?;
    let bounds: Vec<GeneBounds> = problem.bounds()?;
    let cfg = GaConfig::default();
    let genes = problem.dimension() as u64;

    println!(
        "GA perf: {} HC tasks, pop {} x gens {}, {} repeats, {} core(s)\n",
        problem.dimension(),
        cfg.population_size,
        cfg.generations,
        repeats,
        machine_threads
    );

    let baseline_evals = AtomicU64::new(0);
    let counted_objective = |c: &[f64]| {
        baseline_evals.fetch_add(1, Ordering::Relaxed);
        problem.objective(c).fitness
    };
    let objective = |c: &[f64]| problem.objective(c).fitness;

    let mut runs = Vec::new();
    let mut results: Vec<GaResult> = Vec::new();
    let configs: Vec<(&str, usize, Runner)> = vec![
        (
            "baseline_serial",
            1,
            Box::new(|| {
                baseline_evals.store(0, Ordering::Relaxed);
                let r = baseline::optimize(&bounds, counted_objective, &cfg);
                let n = baseline_evals.load(Ordering::Relaxed);
                let stats = EvalStats {
                    considered: n,
                    full_evals: n,
                    genes_evaluated: n * genes,
                    genes_total: n * genes,
                    ..EvalStats::default()
                };
                (r, stats)
            }),
        ),
        (
            "new_serial",
            1,
            Box::new(|| {
                optimize_with_stats(&bounds, objective, &GaConfig { threads: 1, ..cfg }).unwrap()
            }),
        ),
        (
            "new_parallel",
            machine_threads,
            Box::new(|| {
                optimize_with_stats(&bounds, objective, &GaConfig { threads: 0, ..cfg }).unwrap()
            }),
        ),
        (
            "incremental_serial",
            1,
            Box::new(|| {
                optimize_incremental(
                    problem.objective_cache(),
                    &bounds,
                    &GaConfig { threads: 1, ..cfg },
                )
                .unwrap()
            }),
        ),
        (
            "incremental_parallel",
            machine_threads,
            Box::new(|| {
                optimize_incremental(
                    problem.objective_cache(),
                    &bounds,
                    &GaConfig { threads: 0, ..cfg },
                )
                .unwrap()
            }),
        ),
    ];
    for (name, threads, run) in configs {
        let (result, stats, wall) = time_best(repeats, &run);
        let rec = record(name, threads, wall, stats, result.best_fitness);
        println!(
            "{name:>20}: {:>7.2} ms wall, {:>5} raw / {:>5} effective evals, \
             {:>12.0} eff evals/s",
            wall * 1e3,
            rec.raw_objective_evals,
            rec.considered,
            rec.effective_evals_per_sec,
        );
        runs.push(rec);
        results.push(result);
    }

    let identical = results.iter().all(|r| *r == results[0]);
    assert!(
        identical,
        "GaResults diverged across implementations/thread counts"
    );

    // Two extra serial runs with the trace sink on, after all timing, to
    // attribute the wall clock to GA stages per backend. CHEBYMC_TRACE
    // redirects the closure-path trace to a file (still parseable here
    // after shutdown).
    let trace_text = {
        let env_path = std::env::var("CHEBYMC_TRACE").ok();
        let buf = mc_obs::SharedBuffer::new();
        match &env_path {
            Some(p) => mc_obs::init_file(std::path::Path::new(p))?,
            None => mc_obs::init_writer(Box::new(buf.clone()))?,
        }
        let traced = optimize_with_stats(&bounds, objective, &GaConfig { threads: 1, ..cfg });
        mc_obs::shutdown()?;
        let (traced, _) = traced?;
        assert_eq!(traced, results[0], "traced run diverged from timed runs");
        match &env_path {
            Some(p) => {
                eprintln!("(trace written to {p}; inspect with `chebymc trace summary`)");
                std::fs::read_to_string(p)?
            }
            None => buf.take_string(),
        }
    };
    let trace = mc_obs::summary::TraceSummary::parse(&trace_text)?;

    let inc_trace_text = {
        let buf = mc_obs::SharedBuffer::new();
        mc_obs::init_writer(Box::new(buf.clone()))?;
        let traced = optimize_incremental(
            problem.objective_cache(),
            &bounds,
            &GaConfig { threads: 1, ..cfg },
        );
        mc_obs::shutdown()?;
        let (traced, _) = traced?;
        assert_eq!(traced, results[0], "traced incremental run diverged");
        buf.take_string()
    };
    let inc_trace = mc_obs::summary::TraceSummary::parse(&inc_trace_text)?;

    let stage_breakdown = StageBreakdown {
        trace_events: trace.events + inc_trace.events,
        ga_run_ns: trace.span_total_ns("ga.run"),
        objective_evals: trace.counter_total("ga.evals"),
        memo_hits: trace.counter_total("ga.memo_hits"),
        incremental_ga_run_ns: inc_trace.span_total_ns("ga.run"),
        incremental_delta_evals: inc_trace.counter_total("ga.delta_evals"),
        incremental_carried: inc_trace.counter_total("ga.carried"),
        incremental_genes_evaluated: inc_trace.counter_total("ga.genes_evaluated"),
    };
    println!(
        "\nstage breakdown (traced serial runs): closure run {:.1} ms \
         ({} evals, {} memo hits), incremental run {:.1} ms \
         ({} deltas, {} carried, {} gene-terms folded)",
        stage_breakdown.ga_run_ns as f64 / 1e6,
        stage_breakdown.objective_evals,
        stage_breakdown.memo_hits,
        stage_breakdown.incremental_ga_run_ns as f64 / 1e6,
        stage_breakdown.incremental_delta_evals,
        stage_breakdown.incremental_carried,
        stage_breakdown.incremental_genes_evaluated,
    );

    let scaling = if scaling_mode == "off" {
        Vec::new()
    } else {
        run_scaling(&scaling_mode, machine_threads)?
    };

    let eff = |name: &str| {
        runs.iter()
            .find(|r| r.name == name)
            .map(|r| r.effective_evals_per_sec)
            .expect("run recorded")
    };
    let report = BenchReport {
        schema_version: 2,
        machine_threads,
        repeats,
        hc_tasks: problem.dimension(),
        population_size: cfg.population_size,
        generations: cfg.generations,
        speedup_new_serial_vs_baseline: eff("new_serial") / eff("baseline_serial"),
        speedup_parallel_vs_new_serial: eff("new_parallel") / eff("new_serial"),
        speedup_parallel_vs_baseline: eff("new_parallel") / eff("baseline_serial"),
        speedup_incremental_vs_new_serial: eff("incremental_serial") / eff("new_serial"),
        speedup_incremental_vs_baseline: eff("incremental_serial") / eff("baseline_serial"),
        results_bit_identical: identical,
        scaling_mode,
        scaling,
        stage_breakdown,
        runs,
    };

    let path = std::env::var("CHEBYMC_BENCH_GA_JSON").unwrap_or_else(|_| "BENCH_ga.json".into());
    std::fs::write(&path, serde_json::to_string_pretty(&report)? + "\n")?;
    println!(
        "\neffective-throughput speedups: new_serial vs baseline {:.2}x   \
         incremental vs new_serial {:.2}x   incremental vs baseline {:.2}x   \
         (written to {path})",
        report.speedup_new_serial_vs_baseline,
        report.speedup_incremental_vs_new_serial,
        report.speedup_incremental_vs_baseline,
    );
    Ok(())
}
