//! One measured pass, run in a process of its own so that peak memory
//! and stores never carry over between passes. A pass builds the
//! campaign, opens a fresh store, runs the campaign to its user-visible
//! result through the same public calls as `chebymc exp run` or
//! `chebymc serve` + `chebymc worker`, and prints what it measured as
//! `key value` lines.

use crate::sha256;
use crate::stats;
use crate::timing::{
    open_timed_store, CounterSink, IoTotals, LayerTotals, TimedFactory, TimedRunner,
};
use crate::workload::Workload;
use chebymc::exp::catalog;
use chebymc::exp::{
    aggregate, export_points_csv, run_campaign, RunConfig, Shard, Store, UnitRunner,
};
use chebymc::lint::lint_campaign;
use chebymc::obs::summary::TraceSummary;
use chebymc::serve::{
    run_worker, AddrSource, CatalogFactory, Coordinator, CoordinatorConfig, RunnerFactory,
    StoreOpener, WorkerConfig,
};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Leases per served campaign (the `chebymc serve` default).
pub const SERVE_LEASES: usize = 8;
/// Heartbeat timeout of the coordinator (the `chebymc serve` default).
pub const SERVE_HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(5000);
/// Heartbeat interval of the worker (the `chebymc worker` default).
pub const WORKER_HEARTBEAT: Duration = Duration::from_millis(1000);
/// Thread budget of the one serve worker.
pub const WORKER_THREADS: usize = 1;

/// What one pass runs.
#[derive(Debug, Clone)]
pub struct PassArgs {
    /// The workload.
    pub workload: Workload,
    /// Campaign seed.
    pub seed: u64,
    /// Thread budget of `run_campaign` (ignored by the served workload).
    pub threads: usize,
    /// Whether to time each layer.
    pub traced: bool,
    /// A fresh directory for the pass's store and CSV.
    pub dir: PathBuf,
}

impl PassArgs {
    /// The child's command-line arguments.
    pub fn to_args(&self) -> Vec<String> {
        vec![
            "--pass".to_string(),
            "--workload".into(),
            self.workload.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--threads".into(),
            self.threads.to_string(),
            "--traced".into(),
            u8::from(self.traced).to_string(),
            "--dir".into(),
            self.dir.display().to_string(),
        ]
    }

    fn parse(args: &[String]) -> Result<Self, String> {
        let mut pass = PassArgs {
            workload: Workload::Fig5,
            seed: 0,
            threads: 1,
            traced: false,
            dir: PathBuf::new(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    pass.workload = Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?;
                }
                "--seed" => pass.seed = value.parse().map_err(bad)?,
                "--threads" => pass.threads = value.parse().map_err(bad)?,
                "--traced" => pass.traced = value == "1",
                "--dir" => pass.dir = PathBuf::from(value),
                other => return Err(format!("unknown pass flag {other}")),
            }
        }
        Ok(pass)
    }
}

/// Entry point of a pass process (`perfbench --pass ...`).
pub fn main(args: &[String]) -> ExitCode {
    let result = PassArgs::parse(args).and_then(|pass| {
        if pass.workload.served() {
            served(&pass)
        } else {
            local(&pass)
        }
    });
    match result {
        Ok(report) => {
            for (key, value) in report.lines {
                println!("{key} {value}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench pass: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `key value` lines a pass prints.
#[derive(Debug, Default)]
struct Report {
    lines: Vec<(String, String)>,
}

impl Report {
    fn put(&mut self, key: &str, value: impl Display) {
        self.lines.push((key.to_string(), value.to_string()));
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn err(e: impl Display) -> String {
    e.to_string()
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Starts collecting the program's own `mc-obs` counters.
fn start_counters() -> Result<CounterSink, String> {
    let sink = CounterSink::default();
    chebymc::obs::init_writer(Box::new(sink.clone())).map_err(err)?;
    Ok(sink)
}

fn finish_counters(sink: &CounterSink) -> Result<TraceSummary, String> {
    chebymc::obs::shutdown().map_err(err)?;
    TraceSummary::parse(&sink.text()).map_err(err)
}

fn lint(campaign: &catalog::Campaign, store: &Path, csv: Option<&Path>) -> Result<(), String> {
    let store = store.display().to_string();
    let csv = csv.map(|p| p.display().to_string());
    let report = lint_campaign(&campaign.spec.check(0, 1, Some(&store), csv.as_deref()));
    if report.has_errors() {
        return Err(format!("campaign failed lint:\n{}", report.render_human()));
    }
    Ok(())
}

fn take_io(io: &Mutex<IoTotals>) -> IoTotals {
    std::mem::take(&mut *io.lock().expect("store i/o totals poisoned"))
}

/// A local campaign: `catalog::build`, `lint_campaign`,
/// `Store::create_or_resume`, `run_campaign`, `aggregate`,
/// `export_points_csv`.
fn local(pass: &PassArgs) -> Result<Report, String> {
    let store_path = pass.dir.join("store.jsonl");
    let csv_path = pass.dir.join("points.csv");
    let io = Arc::new(Mutex::new(IoTotals::default()));
    let layers = Arc::new(Mutex::new(LayerTotals::default()));
    let counters = pass.traced.then(start_counters).transpose()?;

    let t0 = Instant::now();
    let campaign = catalog::build(
        pass.workload.campaign(),
        &pass.workload.options(Some(pass.seed)),
    )
    .map_err(err)?;
    let build_s = secs(t0);
    lint(&campaign, &store_path, Some(&csv_path))?;
    let t_open = Instant::now();
    let (mut store, info) = if pass.traced {
        open_timed_store(&store_path, &campaign.spec, &io)
    } else {
        Store::create_or_resume(&store_path, &campaign.spec)
    }
    .map_err(err)?;
    let store_open_s = secs(t_open);
    let setup_s = secs(t0);
    if info.resumed {
        return Err("the store already held records; a resumed store skips every unit".into());
    }
    // The header write belongs to set-up, not to the campaign's appends.
    take_io(&io);

    let timed_runner;
    let runner: &dyn UnitRunner = if pass.traced {
        timed_runner = TimedRunner::for_spec(&campaign.spec, Arc::clone(&layers)).map_err(err)?;
        &timed_runner
    } else {
        campaign.runner.as_ref()
    };
    let t_run = Instant::now();
    let summary = run_campaign(
        &campaign.spec,
        runner,
        &mut store,
        &RunConfig {
            threads: pass.threads,
            shard: Shard::default(),
            progress: false,
        },
    )
    .map_err(err)?;
    let run_s = secs(t_run);
    let t_agg = Instant::now();
    let aggs = aggregate(&campaign.spec, store.records()).map_err(err)?;
    std::fs::write(&csv_path, export_points_csv(&aggs)).map_err(err)?;
    let aggregate_s = secs(t_agg);
    let wall_s = secs(t0);
    let trace = counters.as_ref().map(finish_counters).transpose()?;

    // What is durable on disk must be the canonical store itself: an
    // uninterrupted single-shard run flushes records in unit order.
    let bytes = std::fs::read(&store_path).map_err(err)?;
    if bytes != store.canonical_lines().as_bytes() {
        return Err("the store file differs from its canonical form".into());
    }
    let mut r = Report::default();
    r.put("units", summary.ran);
    r.put("recorded", store.completed_count());
    r.put("digest", sha256::hex(&bytes));
    r.put("wall_s", wall_s);
    r.put("setup_s", setup_s);
    r.put("build_s", build_s);
    r.put("store_open_s", store_open_s);
    r.put("run_s", run_s);
    r.put("aggregate_s", aggregate_s);
    r.put("peak_rss_mb", peak_rss_mb()?);
    if let Some(trace) = trace {
        let io = take_io(&io);
        let layers = layers.lock().expect("layer totals poisoned").clone();
        let compute_s = put_layers(&mut r, &layers, &io, &trace);
        let overhead_s = run_s - compute_s - io_s(&io);
        r.put("exp.run.overhead_s", overhead_s);
        r.put(
            "exp.run.overhead_per_unit_us",
            overhead_s * 1e6 / summary.ran.max(1) as f64,
        );
    }
    Ok(r)
}

/// Seconds of store I/O (writes plus fsyncs).
fn io_s(io: &IoTotals) -> f64 {
    (io.write_ns + io.sync_ns.iter().sum::<u64>()) as f64 / 1e9
}

/// Prints the per-layer work and time of a traced pass; returns the summed
/// unit compute time in seconds.
fn put_layers(r: &mut Report, layers: &LayerTotals, io: &IoTotals, trace: &TraceSummary) -> f64 {
    let ns = |v: u64| v as f64 / 1e9;
    let units = layers.unit_ns.len().max(1) as f64;
    let compute_s = ns(layers.unit_ns.iter().sum());
    r.put("exp.unit.compute_s", compute_s);
    r.put(
        "exp.unit.compute_p50_us",
        stats::quantile(&layers.unit_ns, 0.5) as f64 / 1e3,
    );
    r.put(
        "exp.unit.compute_p99_us",
        stats::tail(&layers.unit_ns) as f64 / 1e3,
    );
    r.put("exp.store.appends", io.writes);
    r.put("exp.store.bytes", io.bytes);
    r.put("exp.store.write_s", ns(io.write_ns));
    r.put("exp.store.fsync_s", ns(io.sync_ns.iter().sum()));
    r.put(
        "exp.store.fsync_p50_us",
        stats::quantile(&io.sync_ns, 0.5) as f64 / 1e3,
    );
    r.put(
        "exp.store.fsync_p99_us",
        stats::tail(&io.sync_ns) as f64 / 1e3,
    );
    r.put("exp.store.fsyncs_per_unit", io.sync_ns.len() as f64 / units);
    r.put("task.generate_s", ns(layers.generate_ns));
    r.put("task.sets", layers.sets);
    r.put("task.tasks", layers.tasks);
    r.put(
        "task.tasks_per_set",
        layers.tasks as f64 / layers.sets.max(1) as f64,
    );
    r.put("core.assign_s", ns(layers.assign_ns));
    r.put("core.metrics_s", ns(layers.metrics_ns));
    r.put("opt.ga_runs", layers.ga_runs);
    r.put("opt.ga_evals", trace.counter_total("ga.evals"));
    r.put("opt.ga_carried", trace.counter_total("ga.carried"));
    r.put("sched.admit_s", ns(layers.admit_ns));
    r.put("sched.admit_calls", layers.admit_calls);
    r.put("sched.simulate_s", ns(layers.simulate_ns));
    r.put("sched.sim_jobs", layers.sim_jobs);
    r.put(
        "sched.sim_ns_per_job",
        if layers.sim_jobs == 0 {
            0.0
        } else {
            layers.simulate_ns as f64 / layers.sim_jobs as f64
        },
    );
    r.put("sched.mode_switches", layers.mode_switches);
    compute_s
}

/// The served campaign: `catalog::build`, `lint_campaign`,
/// `Coordinator::bind` / `preload` / `run` with one in-process
/// `run_worker` over loopback, then the merged canonical store.
fn served(pass: &PassArgs) -> Result<Report, String> {
    let store_path = pass.dir.join("checkpoint.jsonl");
    let io = Arc::new(Mutex::new(IoTotals::default()));
    let layers = Arc::new(Mutex::new(LayerTotals::default()));
    let open_ns = Arc::new(AtomicU64::new(0));
    let counters = pass.traced.then(start_counters).transpose()?;

    let t0 = Instant::now();
    let campaign = catalog::build(
        pass.workload.campaign(),
        &pass.workload.options(Some(pass.seed)),
    )
    .map_err(err)?;
    let build_s = secs(t0);
    lint(&campaign, &store_path, None)?;
    // The coordinator reports no completion time, so even untraced passes
    // open the checkpoint through `TimedIo`: the end of its last fsync is
    // the campaign's last durable record. That costs a clock read and a
    // push per append, against an fsync of ~80 µs.
    let opener: StoreOpener = {
        let (path, io, open_ns) = (store_path.clone(), Arc::clone(&io), Arc::clone(&open_ns));
        Box::new(move |spec| {
            let t = Instant::now();
            let opened = open_timed_store(&path, spec, &io);
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            open_ns.store(ns, Ordering::Relaxed);
            opened
        })
    };
    let coordinator = Coordinator::bind(
        CoordinatorConfig {
            listen: "127.0.0.1:0".into(),
            leases: SERVE_LEASES,
            heartbeat_timeout: SERVE_HEARTBEAT_TIMEOUT,
            ..CoordinatorConfig::default()
        },
        opener,
    )
    .map_err(err)?;
    let (total, done) = coordinator.preload(&campaign.spec).map_err(err)?;
    let setup_s = secs(t0);
    if done > 0 {
        return Err("the checkpoint already held records; a resumed store skips every unit".into());
    }
    take_io(&io);

    let addr = AddrSource::Fixed(coordinator.local_addr().to_string());
    let worker_cfg = WorkerConfig {
        name: "perfbench-worker".into(),
        threads: WORKER_THREADS,
        heartbeat: WORKER_HEARTBEAT,
        retry: Duration::from_secs(10),
        ..WorkerConfig::default()
    };
    let factory: Box<dyn RunnerFactory> = if pass.traced {
        Box::new(TimedFactory {
            totals: Arc::clone(&layers),
        })
    } else {
        Box::new(CatalogFactory)
    };
    let t_run = Instant::now();
    let (outcome, run_end, worker) = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let summary = run_worker(&addr, &worker_cfg, factory.as_ref());
            if let Err(e) = &summary {
                // The coordinator would wait for another worker forever:
                // end the pass now.
                eprintln!("perfbench pass: the worker failed: {e}");
                std::process::exit(1);
            }
            summary
        });
        let outcome = coordinator.run();
        let run_end = Instant::now();
        (outcome, run_end, worker.join())
    });
    let outcome = outcome.map_err(err)?;
    let worker_summary = worker
        .map_err(|_| "the worker thread panicked")?
        .map_err(err)?;
    let t_merge = Instant::now();
    let canonical = coordinator
        .canonical_lines()
        .ok_or("no campaign was activated")?;
    let merge_s = secs(t_merge);
    let wall_s = secs(t0);
    let trace = counters.as_ref().map(finish_counters).transpose()?;

    if !outcome.completed {
        return Err(format!(
            "the coordinator stopped with {}/{} units",
            outcome.completed_units, total
        ));
    }
    // The durable checkpoint must replay to the merged result.
    let replayed = Store::load(&store_path, Some(&campaign.spec)).map_err(err)?;
    if replayed.canonical_lines() != canonical {
        return Err("the checkpoint does not replay to the merged store".into());
    }
    let io = take_io(&io);
    let last_durable = io.last_sync.ok_or("no record became durable")?;
    let session_s = last_durable.saturating_duration_since(t_run).as_secs_f64();
    let mut r = Report::default();
    r.put("units", outcome.records);
    r.put("recorded", outcome.completed_units);
    r.put("digest", sha256::hex(canonical.as_bytes()));
    r.put("wall_s", wall_s);
    r.put("setup_s", setup_s);
    r.put("build_s", build_s);
    r.put("store_open_s", open_ns.load(Ordering::Relaxed) as f64 / 1e9);
    r.put("run_s", session_s);
    r.put("aggregate_s", merge_s);
    r.put(
        "serve.drain_s",
        run_end
            .saturating_duration_since(last_durable)
            .as_secs_f64(),
    );
    r.put("serve.leases", worker_summary.leases);
    r.put("serve.records", outcome.records);
    r.put("serve.duplicates", outcome.duplicates);
    r.put("serve.reclaims", outcome.reclaims);
    r.put("peak_rss_mb", peak_rss_mb()?);
    if let Some(trace) = trace {
        let layers = layers.lock().expect("layer totals poisoned").clone();
        let compute_s = put_layers(&mut r, &layers, &io, &trace);
        r.put("serve.worker_compute_s", compute_s);
        r.put("serve.worker_wait_s", session_s - compute_s);
        r.put("serve.coord_store_s", io_s(&io));
    }
    Ok(r)
}
