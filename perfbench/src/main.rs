//! perfbench — the chebymc campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig5|automotive_1k|arena_serve --seed N --seconds S --trace 0|1
//! ```
//!
//! One invocation measures one workload. It records the environment,
//! runs the self-tests, then repeats passes (see [`pass`]) for about
//! `--seconds` seconds, each in a fresh process with a fresh store, and
//! checks every store: against the pinned digest at the catalog's default
//! seed, and against the run's other passes at any seed. With `--trace 1`
//! it adds one traced pass that times each layer. It prints the
//! environment as a `perfbench-env` line, then one JSON result line. See
//! README.md for the workloads and metrics.

mod env;
mod pass;
mod selftest;
mod sha256;
mod stats;
mod timing;
mod workload;

use pass::PassArgs;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::Workload;

/// Thread budget of the default-thread runs (the host has two cores).
const DEFAULT_THREADS: usize = 2;
/// Fewest rounds of passes a run measures, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// No new round starts this long into a run.
const ROUND_CUTOFF: Duration = Duration::from_secs(100);
/// A pass still running this long into a run is killed.
const RUN_DEADLINE: Duration = Duration::from_secs(170);
/// A pass running this long is killed: every pass takes a few seconds,
/// so one this slow has hung (a served campaign whose worker failed).
const PASS_TIMEOUT: Duration = Duration::from_secs(45);

/// End-to-end metrics and their units, measured with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("units_per_s", "1/s"),
    ("units_per_s_1t", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, from the traced pass. A layer the
/// workload does not pass through reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("exp.setup.build_s", "s"),
    ("exp.setup.store_open_s", "s"),
    ("exp.run.overhead_s", "s"),
    ("exp.run.overhead_per_unit_us", "us"),
    ("exp.unit.compute_s", "s"),
    ("exp.unit.compute_p50_us", "us"),
    ("exp.unit.compute_p99_us", "us"),
    ("exp.store.appends", "count"),
    ("exp.store.bytes", "bytes"),
    ("exp.store.write_s", "s"),
    ("exp.store.fsync_s", "s"),
    ("exp.store.fsync_p50_us", "us"),
    ("exp.store.fsync_p99_us", "us"),
    ("exp.store.fsyncs_per_unit", "1/unit"),
    ("exp.aggregate_s", "s"),
    ("par.scaling_2t", "ratio"),
    ("task.generate_s", "s"),
    ("task.sets", "count"),
    ("task.tasks", "count"),
    ("task.tasks_per_set", "count"),
    ("core.assign_s", "s"),
    ("core.metrics_s", "s"),
    ("opt.ga_runs", "count"),
    ("opt.ga_evals", "count"),
    ("opt.ga_carried", "count"),
    ("sched.admit_s", "s"),
    ("sched.admit_calls", "count"),
    ("sched.simulate_s", "s"),
    ("sched.sim_jobs", "count"),
    ("sched.sim_ns_per_job", "ns"),
    ("sched.mode_switches", "count"),
    ("serve.leases", "count"),
    ("serve.records", "count"),
    ("serve.duplicates", "count"),
    ("serve.reclaims", "count"),
    ("serve.worker_compute_s", "s"),
    ("serve.worker_wait_s", "s"),
    ("serve.coord_store_s", "s"),
    ("serve.drain_s", "s"),
    ("obs.trace_overhead_s", "s"),
    ("unit_fail_ratio", "ratio"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--pass") {
        return pass::main(&args[1..]);
    }
    match Options::parse(&args).and_then(|opts| run(&opts)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The command line of a measuring run.
struct Options {
    workload: Workload,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut opts = Options {
            workload: Workload::Fig5,
            seed: None,
            seconds: 20,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload `{value}` (known: {})", names.join(", "))
                    })?);
                }
                "--seed" => opts.seed = Some(value.parse().map_err(bad)?),
                "--seconds" => opts.seconds = value.parse().map_err(bad)?,
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        opts.workload = workload.ok_or("--workload is required")?;
        Ok(opts)
    }
}

/// One finished pass and the `key value` lines it printed.
struct Pass {
    threads: usize,
    traced: bool,
    values: BTreeMap<String, String>,
}

impl Pass {
    fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).and_then(|v| v.parse().ok())
    }

    fn rate(&self) -> Option<f64> {
        Some(self.get("units")? / self.get("run_s")?)
    }
}

/// Runs one pass process, killing it at `deadline`.
fn spawn(args: &PassArgs, deadline: Instant) -> Result<BTreeMap<String, String>, String> {
    let exe = std::env::current_exe().map_err(err)?;
    let mut child = Command::new(exe)
        .args(args.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(err)?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => break Err("killed at the run deadline".to_string()),
            Err(e) => break Err(e.to_string()),
        }
    };
    if status.is_err() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let text = reader
        .join()
        .map_err(|_| "the stdout reader panicked".to_string())?
        .map_err(err)?;
    let status = status?;
    if !status.success() {
        return Err(format!("the pass exited with {status}"));
    }
    Ok(text
        .lines()
        .filter_map(|line| line.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

/// The passes of one run and their accounting.
struct Run {
    workload: Workload,
    seed: u64,
    total_units: u64,
    /// The digest every store must have: pinned at the default seed, else
    /// the first pass's.
    expected_digest: Option<String>,
    dir: PathBuf,
    deadline: Instant,
    passes: Vec<Pass>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Run {
    /// Runs one pass and checks its store. A pass that fails or whose
    /// store differs from the expected digest counts all its units as
    /// failed.
    fn pass(&mut self, threads: usize, traced: bool) {
        let index = self.passes.len() + self.problems.len();
        let dir = self.dir.join(format!("pass-{index}"));
        let args = PassArgs {
            workload: self.workload,
            seed: self.seed,
            threads,
            traced,
            dir: dir.clone(),
        };
        let deadline = self.deadline.min(Instant::now() + PASS_TIMEOUT);
        let result = std::fs::create_dir_all(&dir)
            .map_err(err)
            .and_then(|()| spawn(&args, deadline))
            .and_then(|values| self.check(values));
        // Stores never outlive their pass: a resumed store would skip
        // every unit.
        let _ = std::fs::remove_dir_all(&dir);
        self.attempted += self.total_units;
        match result {
            Ok(values) => {
                let pass = Pass {
                    threads,
                    traced,
                    values,
                };
                eprintln!(
                    "perfbench: pass {index} ({threads} thread(s){}): {:.3} units/s, \
                     wall {:.3} s, setup {:.6} s",
                    if traced { ", traced" } else { "" },
                    pass.rate().unwrap_or(0.0),
                    pass.get("wall_s").unwrap_or(0.0),
                    pass.get("setup_s").unwrap_or(0.0)
                );
                self.passes.push(pass);
            }
            Err(e) => {
                self.failed += self.total_units;
                let kind = if traced { "traced" } else { "untraced" };
                self.problems
                    .push(format!("{kind} pass at {threads} thread(s): {e}"));
            }
        }
    }

    fn check(
        &mut self,
        values: BTreeMap<String, String>,
    ) -> Result<BTreeMap<String, String>, String> {
        let recorded: u64 = values
            .get("recorded")
            .and_then(|v| v.parse().ok())
            .ok_or("no unit count")?;
        if recorded != self.total_units {
            return Err(format!("{recorded} of {} units recorded", self.total_units));
        }
        let digest = values.get("digest").ok_or("no store digest")?;
        match &self.expected_digest {
            Some(expected) if expected != digest => {
                return Err(format!("store digest {digest}, expected {expected}"))
            }
            Some(_) => {}
            None => self.expected_digest = Some(digest.clone()),
        }
        Ok(values)
    }

    fn untraced(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(|p| !p.traced)
    }

    /// Untraced passes at `threads` (every untraced pass when served: the
    /// one worker has one thread).
    fn at(&self, threads: usize) -> impl Iterator<Item = &Pass> {
        let served = self.workload.served();
        self.untraced()
            .filter(move |p| served || p.threads == threads)
    }

    fn median_of<'a>(
        passes: impl Iterator<Item = &'a Pass>,
        f: impl Fn(&Pass) -> Option<f64>,
    ) -> f64 {
        let values: Vec<f64> = passes.filter_map(f).collect();
        stats::median(&values).unwrap_or(0.0)
    }

    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        m.insert(
            "units_per_s",
            Self::median_of(self.at(DEFAULT_THREADS), Pass::rate),
        );
        m.insert("units_per_s_1t", Self::median_of(self.at(1), Pass::rate));
        m.insert(
            "wall_s",
            Self::median_of(self.at(DEFAULT_THREADS), |p| p.get("wall_s")),
        );
        m.insert(
            "setup_s",
            Self::median_of(self.untraced(), |p| p.get("setup_s")),
        );
        m.insert(
            "peak_rss_mb",
            Self::median_of(self.at(DEFAULT_THREADS), |p| p.get("peak_rss_mb")),
        );
        m
    }

    fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let e2e = self.end_to_end();
        let traced = self.passes.iter().find(|p| p.traced);
        let mut m: BTreeMap<&'static str, f64> = PER_LAYER
            .iter()
            .map(|&(name, _)| (name, traced.and_then(|p| p.get(name)).unwrap_or(0.0)))
            .collect();
        let median = |key: &str| Self::median_of(self.untraced(), |p| p.get(key));
        m.insert("exp.setup.build_s", median("build_s"));
        m.insert("exp.setup.store_open_s", median("store_open_s"));
        m.insert(
            "exp.aggregate_s",
            Self::median_of(self.at(DEFAULT_THREADS), |p| p.get("aggregate_s")),
        );
        if self.workload.served() {
            m.insert("serve.drain_s", median("serve.drain_s"));
        }
        if e2e["units_per_s_1t"] > 0.0 {
            m.insert("par.scaling_2t", e2e["units_per_s"] / e2e["units_per_s_1t"]);
        }
        if let Some(traced_wall) = traced.and_then(|p| p.get("wall_s")) {
            let untraced_wall = Self::median_of(self.at(1), |p| p.get("wall_s"));
            m.insert("obs.trace_overhead_s", traced_wall - untraced_wall);
        }
        m.insert(
            "unit_fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        m
    }
}

/// Formats a measured value as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(opts: &Options) -> Result<bool, String> {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = manifest_dir
        .parent()
        .ok_or("the benchmark has no parent directory")?;
    let dir =
        manifest_dir
            .join(".work")
            .join(format!("{}-{}", opts.workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = measure(opts, repo, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(opts: &Options, repo: &Path, dir: &Path) -> Result<bool, String> {
    let started = Instant::now();
    let w = opts.workload;
    let default_seed = w.default_seed()?;
    let seed = opts.seed.unwrap_or(default_seed);
    let total_units = chebymc::exp::catalog::build(w.campaign(), &w.options(Some(seed)))
        .map_err(err)?
        .spec
        .total_units() as u64;
    println!("perfbench-env {}", env::record(dir, repo, DEFAULT_THREADS)?);

    let mut run = Run {
        workload: w,
        seed,
        total_units,
        expected_digest: (seed == default_seed).then(|| w.pinned_digest().to_string()),
        dir: dir.to_path_buf(),
        deadline: started + RUN_DEADLINE,
        passes: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    if let Err(e) = selftest::run(w, seed, dir) {
        run.problems.push(format!("self-test: {e}"));
    }

    let thread_counts: &[usize] = if w.served() {
        &[pass::WORKER_THREADS]
    } else {
        &[DEFAULT_THREADS, 1]
    };
    let measuring = Instant::now();
    let mut rounds = 0;
    loop {
        for &threads in thread_counts {
            run.pass(threads, false);
        }
        rounds += 1;
        let elapsed = measuring.elapsed();
        // A failed pass already makes the run incorrect; stop early.
        if (rounds >= MIN_ROUNDS && elapsed.as_secs() >= opts.seconds)
            || started.elapsed() >= ROUND_CUTOFF
            || run.failed > 0
        {
            break;
        }
    }
    if opts.trace && run.failed == 0 {
        run.pass(1, true);
    }

    let (metrics, units) = if opts.trace {
        (run.per_layer(), &PER_LAYER[..])
    } else {
        (run.end_to_end(), &END_TO_END[..])
    };
    for problem in &run.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    eprintln!(
        "perfbench: {} seed {seed}: {} passes in {:.1} s",
        w.name(),
        run.passes.len(),
        started.elapsed().as_secs_f64()
    );
    let fields: Vec<String> = units
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            eprintln!("perfbench:   {name:<32} {value:>16.6} {unit}");
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    let correct = run.problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.attempted,
        run.failed,
        fields.join(",")
    );
    Ok(correct)
}
