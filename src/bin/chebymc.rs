//! `chebymc` — command-line front end for the workspace.
//!
//! ```text
//! chebymc generate --u 0.7 --seed 1 -o workload.json
//! chebymc analyze  workload.json
//! chebymc design   workload.json --seed 1 -o designed.json
//! chebymc design   workload.json --uniform-n 5 -o designed.json
//! chebymc simulate designed.json --seconds 60 --policy degrade:0.5 --model profile
//! chebymc lint     bundle.json --format json
//! chebymc lint     --workload workload.json --benchmark all
//! chebymc exp run fig5 --store fig5.jsonl --sets 50
//! chebymc exp status fig5.jsonl
//! ```
//!
//! Workload files are the validated JSON format of
//! [`mc_task::workload::Workload`].

#![warn(clippy::undocumented_unsafe_blocks, clippy::cast_possible_truncation)]

use chebymc::prelude::*;
use chebymc::task::workload::Workload;
use rand::SeedableRng;
use std::process::ExitCode;

const USAGE: &str = "\
chebymc — Chebyshev-based WCET assignment for mixed-criticality systems

USAGE:
  chebymc generate [--family synthetic|automotive] [--u <bound>] [--seed <n>]
                   [--p-high <p>] [--runnables <n>] [-o <file>]
      Generate a dual-criticality workload (default --u 0.7). The
      default `synthetic` family follows the paper's §V generator;
      `automotive` draws --runnables tasks (default 1000) from the
      Bosch period/share bins with fitted Weibull execution times.

  chebymc analyze <workload.json>
      Print design metrics (Eq. 8 schedulability, P_MS, max U_LC^LO).

  chebymc design <workload.json> [--seed <n>] [--uniform-n <n>] [-o <file>]
      Assign optimistic WCETs with the Chebyshev scheme (GA by default,
      or one uniform factor with --uniform-n) and report the metrics.

  chebymc simulate <workload.json> [--seconds <s>] [--seed <n>]
                   [--policy drop|degrade:<f>|combined:<f>] [--model profile|lo|hi|p:<prob>]
      Run the discrete-event simulator and report runtime behaviour.

  chebymc wcet <program.prog>
      Statically analyse a program model written in the mc-exec DSL
      (block/loop/if; see fixtures/*.prog) and print BCET/ACET/WCET.

  chebymc lint [bundle.json] [--workload <w.json>] [--program <p.prog>]
               [--benchmark <name>|all] [--format human|json] [--json]
               [-o <file>]
      Static analysis of inputs: CFG structure (unbounded/irreducible
      loops, unreachable blocks), task-set invariants, and scheme,
      generator and automotive configuration. Diagnostics carry stable
      codes; the run fails when any finding has error severity. The
      workspace's own Rust sources are checked by `cargo clippy`
      instead (root clippy.toml).

  chebymc exp list
      List the built-in experiment campaigns.

  chebymc exp run <campaign> [--store <file.jsonl>] [--sets <n>]
                  [--samples <n>] [--seed <n>] [--runnables <n>]
                  [--threads <n>] [--shard <i/n>] [--csv <file.csv>]
                  [--trace <file.jsonl>] [--quiet]
      Run (or resume) a campaign against a crash-safe JSONL result
      store: completed units are skipped on restart, shards split the
      units across processes, and every record is fsync'd before it
      counts. `--csv` exports the per-point means once the campaign is
      complete. `--trace` records an observability trace (spans,
      counters, histograms) of the run to a JSONL file; inspect it with
      `chebymc trace summary`.

  chebymc exp status <store.jsonl> [--shards <n>]
      Describe a result store: campaign, fingerprint, completed units.
      --shards breaks completion down per `i/n` stripe — the same
      striping `exp run --shard` and the campaign service use.

  chebymc exp merge -o <out.jsonl> <store.jsonl>...
      Merge shard stores of one campaign into a canonical store
      (records sorted by unit; conflicting records are an error).

  chebymc exp export-csv <store.jsonl> [-o <file.csv>] [--per-unit]
      Export per-point means (or raw per-unit rows) as CSV.

  chebymc serve <campaign> --store <file.jsonl> [--listen <addr>]
                [--leases <n>] [--timeout-ms <n>] [--addr-file <file>]
                [--sets <n>] [--samples <n>] [--seed <n>] [--runnables <n>]
                [-o <merged.jsonl>]
                [--trace <file.jsonl>] [--quiet]
      Coordinate a distributed run of a catalog campaign: listen for
      workers, lease out `i/n` stripes, reclaim leases from dead or
      silent workers, and checkpoint every record to the crash-safe
      store — killing the coordinator and rerunning the same command
      resumes mid-campaign. Prints `listening on <addr>` at startup;
      --addr-file additionally publishes the address to a file that
      workers can poll (it is emptied on completion, telling workers to
      exit). -o writes the canonical merged store once complete —
      byte-identical to a serial `exp run` of the same campaign.

  chebymc worker --connect <addr> | --connect-file <file>
                 [--threads <n>] [--name <s>] [--heartbeat-ms <n>]
                 [--retry-ms <n>] [--throttle-ms <n>]
                 [--trace <file.jsonl>] [--quiet]
      Execute leases for a coordinator. --connect-file re-reads the
      file before every connection attempt, so workers follow a
      restarted coordinator to its new address; an emptied file tells
      the worker to exit cleanly. Workers are stateless — all context
      arrives with each assignment — and reconnect within --retry-ms
      after a lost coordinator.

  chebymc trace summary <trace.jsonl>
      Summarize an observability trace produced by `exp run --trace`
      (or CHEBYMC_TRACE with the ga_perf bench): per-span durations,
      counters, tracked values, and latency histogram quantiles.

  chebymc fault sweep [--seed <n>] [--count <n>] [--ops <m>]
      Drive the result store through <count> seed-derived crash schedules
      (run → crash → resume → merge on a simulated disk, each session
      crashing within its first <m> I/O operations) and check the crash
      invariant plus canonical byte identity. A quarter of the seeds
      group-commit their units in seed-derived batches. Any violation is
      printed with the schedule seed that reproduces it; exits non-zero.

  chebymc --version
      Print the version.

Workload files are validated JSON; see `chebymc generate` for a template.
";

fn main() -> ExitCode {
    restore_default_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Restores the default `SIGPIPE` disposition, which the Rust runtime
/// sets to "ignore". A closed stdout (`chebymc generate | head -2`) then
/// ends the process quietly, as it does any Unix filter, instead of
/// making the next `println!` panic on `EPIPE`. Sockets are unaffected:
/// the standard library sends with `MSG_NOSIGNAL` (`SO_NOSIGPIPE` on
/// Apple targets), so `serve` and `worker` still see a hung-up peer as a
/// write error.
#[cfg(unix)]
fn restore_default_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` only swaps the process-wide disposition of SIGPIPE
    // for the default one. It runs first thing in `main`, before any
    // thread exists, and installs no handler of ours.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_default_sigpipe() {}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(command) = args.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    match command.as_str() {
        "generate" => cmd_generate(rest),
        "analyze" => cmd_analyze(rest),
        "design" => cmd_design(rest),
        "simulate" => cmd_simulate(rest),
        "wcet" => cmd_wcet(rest),
        "lint" => cmd_lint(rest),
        "exp" => cmd_exp(rest),
        "serve" => cmd_serve(rest),
        "worker" => cmd_worker(rest),
        "trace" => cmd_trace(rest),
        "fault" => cmd_fault(rest),
        "version" | "--version" | "-V" => {
            println!("chebymc {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => match suggest_subcommand(other) {
            Some(near) => {
                Err(format!("unknown subcommand `{other}` (did you mean `{near}`?)").into())
            }
            None => Err(format!("unknown subcommand `{other}`").into()),
        },
    }
}

/// The dispatchable subcommand names, for typo suggestions.
const SUBCOMMANDS: &[&str] = &[
    "generate", "analyze", "design", "simulate", "wcet", "lint", "exp", "serve", "worker", "trace",
    "fault", "help", "version",
];

/// Suggests the nearest valid subcommand when the typo is close enough
/// (edit distance at most 2, and less than the typed word's length).
fn suggest_subcommand(typed: &str) -> Option<&'static str> {
    SUBCOMMANDS
        .iter()
        .map(|&cmd| (edit_distance(typed, cmd), cmd))
        .min()
        .filter(|&(d, _)| d <= 2 && d < typed.chars().count())
        .map(|(_, cmd)| cmd)
}

/// Levenshtein distance between two short strings.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut current = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            current.push(sub.min(prev[j + 1] + 1).min(current[j] + 1));
        }
        prev = current;
    }
    prev[b.len()]
}

/// Pulls `--flag value` out of `args`, returning the remaining positional
/// arguments.
fn parse_flags(
    args: &[String],
    flags: &mut [(&str, &mut Option<String>)],
) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    let mut positional = Vec::new();
    let mut i = 0;
    'outer: while i < args.len() {
        for (name, slot) in flags.iter_mut() {
            if args[i] == *name {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag {name} needs a value"))?;
                **slot = Some(value.clone());
                i += 2;
                continue 'outer;
            }
        }
        if args[i].starts_with('-') {
            return Err(format!("unknown flag `{}`", args[i]).into());
        }
        positional.push(args[i].clone());
        i += 1;
    }
    Ok(positional)
}

fn load_workload(path: &str) -> Result<Workload, Box<dyn std::error::Error>> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok(Workload::load_json(&json)?)
}

fn write_or_print(out: Option<String>, json: &str) -> Result<(), Box<dyn std::error::Error>> {
    match out {
        Some(path) => {
            std::fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("written to {path}");
            Ok(())
        }
        None => {
            println!("{json}");
            Ok(())
        }
    }
}

fn print_metrics(m: &DesignMetrics) {
    println!("  U_HC^LO      = {:.4}", m.u_hc_lo);
    println!("  U_HC^HI      = {:.4}", m.u_hc_hi);
    println!("  U_LC^LO      = {:.4}", m.u_lc_lo);
    println!("  P_MS bound   = {:.4}", m.p_ms);
    println!("  max U_LC^LO  = {:.4}", m.max_u_lc_lo);
    println!("  objective    = {:.4}", m.objective);
    println!("  schedulable  = {}", m.schedulable);
    for t in &m.per_task {
        println!(
            "    {}: C_LO = {:.3} ms, n = {:.2}, overrun bound = {:.4}",
            t.id,
            t.c_lo / 1e6,
            t.factor,
            t.overrun_bound
        );
    }
}

fn cmd_generate(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (mut family, mut u, mut seed, mut p_high, mut runnables, mut out) =
        (None, None, None, None, None, None);
    let positional = parse_flags(
        args,
        &mut [
            ("--family", &mut family),
            ("--u", &mut u),
            ("--seed", &mut seed),
            ("--p-high", &mut p_high),
            ("--runnables", &mut runnables),
            ("-o", &mut out),
        ],
    )?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]).into());
    }
    let u: f64 = u.as_deref().unwrap_or("0.7").parse()?;
    let seed: u64 = seed.as_deref().unwrap_or("0").parse()?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let workload = match family.as_deref().unwrap_or("synthetic") {
        "synthetic" => {
            if runnables.is_some() {
                return Err("--runnables only applies to --family automotive".into());
            }
            let mut cfg = GeneratorConfig::default();
            if let Some(p) = p_high {
                cfg.p_high = p.parse()?;
            }
            let ts = generate_mixed_taskset(u, &cfg, &mut rng)?;
            Workload::new(
                format!("synthetic-u{u}-seed{seed}"),
                format!(
                    "synthetic dual-criticality workload, bound utilisation {u}, \
                     {} tasks ({} HC / {} LC), periods 100-900 ms, 1 GHz (1 cycle = 1 ns)",
                    ts.len(),
                    ts.hc_count(),
                    ts.lc_count()
                ),
                ts,
            )
        }
        "automotive" => {
            let mut cfg = AutomotiveConfig::default();
            if let Some(p) = p_high {
                cfg.p_high = p.parse()?;
            }
            if let Some(r) = runnables {
                cfg.runnables = r.parse()?;
            }
            let ts = generate_automotive_taskset(u, &cfg, &mut rng)?;
            Workload::new(
                format!("automotive-u{u}-seed{seed}"),
                format!(
                    "Bosch-calibrated automotive workload, bound utilisation {u}, \
                     {} runnables ({} HC / {} LC), period bins 1-1000 ms, fitted \
                     Weibull execution times, 1 GHz (1 cycle = 1 ns)",
                    ts.len(),
                    ts.hc_count(),
                    ts.lc_count()
                ),
                ts,
            )
        }
        other => {
            return Err(format!("unknown family `{other}` (known: synthetic, automotive)").into())
        }
    };
    write_or_print(out, &workload.to_json()?)
}

fn cmd_analyze(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let positional = parse_flags(args, &mut [])?;
    let [path] = positional.as_slice() else {
        return Err("analyze needs exactly one workload file".into());
    };
    let workload = load_workload(path)?;
    println!(
        "workload `{}`: {} tasks ({} HC / {} LC)",
        workload.name,
        workload.tasks.len(),
        workload.tasks.hc_count(),
        workload.tasks.lc_count()
    );
    let m = design_metrics(&workload.tasks)?;
    print_metrics(&m);
    let vd = edf_vd::analyze(&workload.tasks);
    if let Some(x) = vd.x {
        println!("  EDF-VD x     = {x:.4}");
    }
    Ok(())
}

fn cmd_design(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (mut seed, mut uniform_n, mut out) = (None, None, None);
    let positional = parse_flags(
        args,
        &mut [
            ("--seed", &mut seed),
            ("--uniform-n", &mut uniform_n),
            ("-o", &mut out),
        ],
    )?;
    let [path] = positional.as_slice() else {
        return Err("design needs exactly one workload file".into());
    };
    let mut workload = load_workload(path)?;
    let seed: u64 = seed.as_deref().unwrap_or("0").parse()?;
    let report = match uniform_n {
        Some(n) => {
            let n: f64 = n.parse()?;
            ChebyshevScheme::with_seed(seed).design_uniform(&mut workload.tasks, n)?
        }
        None => ChebyshevScheme::with_seed(seed).design(&mut workload.tasks)?,
    };
    println!("designed `{}`:", workload.name);
    print_metrics(&report.metrics);
    workload.description = format!(
        "{} | designed by chebymc (seed {seed}, P_MS bound {:.4})",
        workload.description, report.metrics.p_ms
    );
    if out.is_some() {
        write_or_print(out, &workload.to_json()?)?;
    }
    Ok(())
}

fn cmd_wcet(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let positional = parse_flags(args, &mut [])?;
    let [path] = positional.as_slice() else {
        return Err("wcet needs exactly one .prog file".into());
    };
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let program = chebymc::exec::parse::parse_program(&src)?;
    let report = chebymc::exec::wcet::analyze(&program)?;
    println!("program `{path}`:");
    println!("  basic blocks  = {}", report.block_count);
    println!("  CFG nodes     = {}", report.cfg_node_count);
    println!("  BCET          = {} cycles", report.bcet);
    println!("  ACET estimate = {:.1} cycles", report.acet_estimate);
    println!(
        "  WCET          = {} cycles (tree and CFG analyses agree)",
        report.wcet
    );
    println!("  WCET/ACET gap = {:.1}x", report.wcet_acet_ratio());
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    // The boolean `--json` comes out before the `--flag value` parser runs.
    let json_flag = args.iter().any(|a| a == "--json");
    let args: Vec<String> = args.iter().filter(|a| *a != "--json").cloned().collect();
    let (mut workload, mut program, mut benchmark, mut format, mut out) =
        (None, None, None, None, None);
    let positional = parse_flags(
        &args,
        &mut [
            ("--workload", &mut workload),
            ("--program", &mut program),
            ("--benchmark", &mut benchmark),
            ("--format", &mut format),
            ("-o", &mut out),
        ],
    )?;
    if json_flag {
        match format.as_deref() {
            None | Some("json") => format = Some("json".to_string()),
            Some(other) => {
                return Err(format!("--json conflicts with --format {other}").into());
            }
        }
    }
    let mut report = chebymc::lint::LintReport::new();
    let mut inputs = 0usize;

    match positional.as_slice() {
        [] => {}
        [path] => {
            let json =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let bundle = chebymc::lint::LintBundle::from_json(&json)
                .map_err(|e| format!("`{path}` is not a lint bundle: {e}"))?;
            report.merge(bundle.lint());
            inputs += 1;
        }
        _ => return Err("lint takes at most one bundle file".into()),
    }
    if let Some(path) = workload {
        let json =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        // Deliberately *not* Workload::load_json: invalid workloads must be
        // lintable, not rejected at parse time.
        report.merge(
            chebymc::lint::lint_workload_json(&json)
                .map_err(|e| format!("`{path}` is not a workload: {e}"))?,
        );
        inputs += 1;
    }
    if let Some(path) = program {
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let cfg = chebymc::exec::parse::parse_program(&src)?.to_cfg()?;
        report.merge(chebymc::lint::lint_cfg(&cfg, &path));
        inputs += 1;
    }
    if let Some(name) = benchmark {
        let benches = if name == "all" {
            benchmarks::all()?
        } else {
            vec![benchmarks::by_name(&name)?]
        };
        for b in &benches {
            let cfg = b.program().to_cfg()?;
            report.merge(chebymc::lint::lint_benchmark_cfg(b.name(), &cfg));
        }
        inputs += 1;
    }
    if inputs == 0 {
        return Err("lint needs at least one input (bundle, --workload, \
                    --program, or --benchmark)"
            .into());
    }

    let rendered = match format.as_deref().unwrap_or("human") {
        "human" => report.render_human(),
        "json" => report.render_json()?,
        other => return Err(format!("unknown format `{other}`").into()),
    };
    write_or_print(out, rendered.trim_end())?;
    let errors = report.count(chebymc::lint::Severity::Error);
    if errors > 0 {
        return Err(format!("lint found {errors} deny-level finding(s)").into());
    }
    Ok(())
}

fn cmd_exp(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(sub) = args.first() else {
        return Err("exp needs a subcommand: list, run, status, merge, or export-csv".into());
    };
    let rest = &args[1..];
    match sub.as_str() {
        "list" => exp_list(),
        "run" => exp_run(rest),
        "status" => exp_status(rest),
        "merge" => exp_merge(rest),
        "export-csv" => exp_export_csv(rest),
        other => Err(format!(
            "unknown exp subcommand `{other}` (expected list, run, status, merge, or export-csv)"
        )
        .into()),
    }
}

/// Starts tracing to `path` when given; pairs with [`finish_trace`].
fn start_trace(path: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(trace_path) = path {
        chebymc::obs::init_file(std::path::Path::new(trace_path))
            .map_err(|e| format!("cannot open trace file `{trace_path}`: {e}"))?;
    }
    Ok(())
}

/// Finalizes a trace started by [`start_trace`] without letting a
/// trace-flush error mask the traced operation's own error.
fn finish_trace<T, E>(
    path: Option<&str>,
    result: Result<T, E>,
) -> Result<T, Box<dyn std::error::Error>>
where
    E: Into<Box<dyn std::error::Error>>,
{
    if path.is_some() {
        let flushed = chebymc::obs::shutdown();
        if result.is_ok() {
            flushed.map_err(|e| format!("cannot finalize trace: {e}"))?;
        }
    }
    let value = result.map_err(Into::into)?;
    if let Some(trace_path) = path {
        eprintln!("trace written to {trace_path} (inspect with `chebymc trace summary`)");
    }
    Ok(value)
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use chebymc::exp::{catalog, Store};
    use chebymc::serve::{Coordinator, CoordinatorConfig};
    let mut args = args.to_vec();
    let quiet = take_switch(&mut args, "--quiet");
    let (mut store_path, mut sets, mut samples, mut seed, mut runnables) =
        (None, None, None, None, None);
    let (mut listen, mut leases, mut timeout_ms, mut addr_file, mut out, mut trace) =
        (None, None, None, None, None, None);
    let positional = parse_flags(
        &args,
        &mut [
            ("--store", &mut store_path),
            ("--sets", &mut sets),
            ("--samples", &mut samples),
            ("--seed", &mut seed),
            ("--runnables", &mut runnables),
            ("--listen", &mut listen),
            ("--leases", &mut leases),
            ("--timeout-ms", &mut timeout_ms),
            ("--addr-file", &mut addr_file),
            ("-o", &mut out),
            ("--trace", &mut trace),
        ],
    )?;
    let [name] = positional.as_slice() else {
        return Err("serve needs exactly one campaign name (see `chebymc exp list`)".into());
    };
    let opts = catalog::CatalogOptions {
        sets: sets.as_deref().map(str::parse).transpose()?,
        samples: samples.as_deref().map(str::parse).transpose()?,
        seed: seed.as_deref().map(str::parse).transpose()?,
        points: None,
        runnables: runnables.as_deref().map(str::parse).transpose()?,
    };
    let campaign = catalog::build(name, &opts)?;
    let store_path = store_path.ok_or("serve needs --store <file.jsonl>")?;

    let report = chebymc::lint::lint_campaign(&campaign.spec.check(0, 1, Some(&store_path), None));
    if report.has_errors() {
        eprintln!("{}", report.render_human().trim_end());
        return Err(format!(
            "campaign failed static analysis with {} error(s)",
            report.count(chebymc::lint::Severity::Error)
        )
        .into());
    }

    let cfg = CoordinatorConfig {
        listen: listen.unwrap_or_else(|| "127.0.0.1:0".into()),
        leases: leases.as_deref().unwrap_or("8").parse()?,
        heartbeat_timeout: std::time::Duration::from_millis(
            timeout_ms.as_deref().unwrap_or("5000").parse()?,
        ),
        ..CoordinatorConfig::default()
    };
    let checkpoint = std::path::PathBuf::from(&store_path);
    let coordinator = Coordinator::bind(
        cfg,
        Box::new(move |spec| Store::create_or_resume(&checkpoint, spec)),
    )?;
    let (total, done) = coordinator.preload(&campaign.spec)?;
    if done > 0 && !quiet {
        eprintln!("serve: resuming {store_path}: {done} of {total} units already complete");
    }
    let addr = coordinator.local_addr();
    println!("listening on {addr}");
    if let Some(file) = addr_file.as_deref() {
        std::fs::write(file, format!("{addr}\n"))
            .map_err(|e| format!("cannot write `{file}`: {e}"))?;
    }

    start_trace(trace.as_deref())?;
    let result = coordinator.run();
    let outcome = finish_trace(trace.as_deref(), result)?;

    if let Some(file) = addr_file.as_deref() {
        // Withdraw the address: workers polling the file exit cleanly.
        std::fs::write(file, "").map_err(|e| format!("cannot clear `{file}`: {e}"))?;
    }
    if !quiet {
        println!(
            "campaign `{name}`: {}/{} units complete ({} records accepted, \
             {} duplicates absorbed, {} leases reclaimed)",
            outcome.completed_units,
            outcome.total_units,
            outcome.records,
            outcome.duplicates,
            outcome.reclaims
        );
    }
    if let Some(out) = out {
        let canonical = coordinator
            .canonical_lines()
            .ok_or("no campaign was activated")?;
        std::fs::write(&out, canonical).map_err(|e| format!("cannot write `{out}`: {e}"))?;
        println!("merged store written to {out}");
    }
    Ok(())
}

fn cmd_worker(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use chebymc::serve::{run_worker, AddrSource, CatalogFactory, WorkerConfig};
    let mut args = args.to_vec();
    let quiet = take_switch(&mut args, "--quiet");
    let (mut connect, mut connect_file, mut threads, mut name) = (None, None, None, None);
    let (mut heartbeat_ms, mut retry_ms, mut throttle_ms, mut trace) = (None, None, None, None);
    let positional = parse_flags(
        &args,
        &mut [
            ("--connect", &mut connect),
            ("--connect-file", &mut connect_file),
            ("--threads", &mut threads),
            ("--name", &mut name),
            ("--heartbeat-ms", &mut heartbeat_ms),
            ("--retry-ms", &mut retry_ms),
            ("--throttle-ms", &mut throttle_ms),
            ("--trace", &mut trace),
        ],
    )?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]).into());
    }
    let source = match (connect, connect_file) {
        (Some(addr), None) => AddrSource::Fixed(addr),
        (None, Some(file)) => AddrSource::File(file.into()),
        _ => return Err("worker needs exactly one of --connect or --connect-file".into()),
    };
    let cfg = WorkerConfig {
        name: name.unwrap_or_else(|| format!("worker-{}", std::process::id())),
        threads: threads.as_deref().unwrap_or("0").parse()?,
        heartbeat: std::time::Duration::from_millis(
            heartbeat_ms.as_deref().unwrap_or("1000").parse()?,
        ),
        retry: std::time::Duration::from_millis(retry_ms.as_deref().unwrap_or("10000").parse()?),
        throttle: std::time::Duration::from_millis(throttle_ms.as_deref().unwrap_or("0").parse()?),
        ..WorkerConfig::default()
    };

    start_trace(trace.as_deref())?;
    let result = run_worker(&source, &cfg, &CatalogFactory);
    let summary = finish_trace(trace.as_deref(), result)?;
    if !quiet {
        println!(
            "worker done: {} leases streamed, {} records, {} reconnects",
            summary.leases, summary.records, summary.reconnects
        );
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(sub) = args.first() else {
        return Err("trace needs a subcommand: summary".into());
    };
    match sub.as_str() {
        "summary" => trace_summary(&args[1..]),
        other => Err(format!("unknown trace subcommand `{other}` (expected summary)").into()),
    }
}

fn trace_summary(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use chebymc::obs::summary::TraceSummary;
    let positional = parse_flags(args, &mut [])?;
    let [path] = positional.as_slice() else {
        return Err("trace summary needs exactly one trace file".into());
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
    let summary = TraceSummary::parse(&text)
        .map_err(|e| format!("`{path}` is not a valid chebymc trace: {e}"))?;
    print!("{}", summary.render());
    Ok(())
}

fn cmd_fault(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(sub) = args.first() else {
        return Err("fault needs a subcommand: sweep".into());
    };
    match sub.as_str() {
        "sweep" => fault_sweep(&args[1..]),
        other => Err(format!("unknown fault subcommand `{other}` (expected sweep)").into()),
    }
}

fn fault_sweep(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use chebymc::exp::fault::{sweep, SweepConfig};
    let (mut seed, mut count, mut ops) = (None, None, None);
    let positional = parse_flags(
        args,
        &mut [
            ("--seed", &mut seed),
            ("--count", &mut count),
            ("--ops", &mut ops),
        ],
    )?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]).into());
    }
    let seed: u64 = seed.as_deref().unwrap_or("0").parse()?;
    let count: u64 = count.as_deref().unwrap_or("100").parse()?;
    let ops: u64 = ops.as_deref().unwrap_or("16").parse()?;
    if count == 0 {
        return Err("--count must be at least 1".into());
    }
    if ops == 0 {
        return Err("--ops must be at least 1 (each session must be able to crash)".into());
    }

    let cfg = SweepConfig {
        ops,
        ..SweepConfig::new(seed, count)
    };
    let report = sweep(&cfg);
    println!(
        "fault sweep: {} schedules, {} sessions, {} crashes, {} injected errors, {} batch commits",
        report.schedules,
        report.cycles,
        report.crashes,
        report.injected_errors,
        report.batch_commits
    );
    if report.ok() {
        println!("invariant held across every schedule");
        Ok(())
    } else {
        for v in &report.violations {
            eprintln!("VIOLATION: {v}");
            eprintln!(
                "  reproduce: chebymc fault sweep --seed {} --count 1 --ops {ops}",
                v.seed
            );
        }
        Err(format!(
            "{} invariant violation(s) across {} schedules",
            report.violations.len(),
            report.schedules
        )
        .into())
    }
}

/// Removes a boolean `--flag` from `args`, reporting whether it was there.
fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() < before
}

fn exp_list() -> Result<(), Box<dyn std::error::Error>> {
    use chebymc::exp::catalog;
    for name in catalog::names() {
        let c = catalog::build(name, &catalog::CatalogOptions::default())?;
        println!(
            "{name:24} {} points × {} replicas = {} units (default scale)",
            c.spec.points.len(),
            c.spec.replicas,
            c.spec.total_units()
        );
    }
    Ok(())
}

fn exp_run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use chebymc::exp::{
        aggregate, catalog, export_points_csv, run_campaign, RunConfig, Shard, Store,
    };
    let mut args = args.to_vec();
    let quiet = take_switch(&mut args, "--quiet");
    let (mut store_path, mut sets, mut samples, mut seed, mut threads, mut shard, mut csv) =
        (None, None, None, None, None, None, None);
    let (mut trace, mut runnables) = (None, None);
    let positional = parse_flags(
        &args,
        &mut [
            ("--store", &mut store_path),
            ("--sets", &mut sets),
            ("--samples", &mut samples),
            ("--seed", &mut seed),
            ("--runnables", &mut runnables),
            ("--threads", &mut threads),
            ("--shard", &mut shard),
            ("--csv", &mut csv),
            ("--trace", &mut trace),
        ],
    )?;
    let [name] = positional.as_slice() else {
        return Err("exp run needs exactly one campaign name (see `chebymc exp list`)".into());
    };
    let opts = catalog::CatalogOptions {
        sets: sets.as_deref().map(str::parse).transpose()?,
        samples: samples.as_deref().map(str::parse).transpose()?,
        seed: seed.as_deref().map(str::parse).transpose()?,
        points: None,
        runnables: runnables.as_deref().map(str::parse).transpose()?,
    };
    let campaign = catalog::build(name, &opts)?;
    let threads: usize = threads.as_deref().unwrap_or("0").parse()?;
    let shard = match shard.as_deref() {
        Some(s) => Shard::parse(s)?,
        None => Shard::default(),
    };
    let store_path = store_path.unwrap_or_else(|| format!("{name}.jsonl"));

    // Fail fast with named E0xx diagnostics (including the CSV collision
    // check the runner itself cannot see).
    let report = chebymc::lint::lint_campaign(&campaign.spec.check(
        shard.index,
        shard.count,
        Some(&store_path),
        csv.as_deref(),
    ));
    if report.has_errors() {
        eprintln!("{}", report.render_human().trim_end());
        return Err(format!(
            "campaign failed static analysis with {} error(s)",
            report.count(chebymc::lint::Severity::Error)
        )
        .into());
    }

    let (mut store, info) =
        Store::create_or_resume(std::path::Path::new(&store_path), &campaign.spec)?;
    if info.resumed {
        eprintln!(
            "exp: resuming {store_path}: {} of {} units already complete{}",
            store.completed_count(),
            campaign.spec.total_units(),
            if info.truncated_bytes > 0 {
                format!(" (recovered a torn tail of {} bytes)", info.truncated_bytes)
            } else {
                String::new()
            }
        );
    }
    start_trace(trace.as_deref())?;
    let result = run_campaign(
        &campaign.spec,
        campaign.runner.as_ref(),
        &mut store,
        &RunConfig {
            threads,
            shard,
            progress: !quiet,
        },
    );
    let summary = finish_trace(trace.as_deref(), result)?;
    println!(
        "campaign `{name}` (shard {shard}): ran {} units, skipped {} already-complete, \
         store {store_path} holds {}/{} units",
        summary.ran,
        summary.skipped,
        store.completed_count(),
        summary.total_units
    );
    if let Some(csv_path) = csv {
        if store.completed_count() == campaign.spec.total_units() {
            let aggs = aggregate(&campaign.spec, store.records())?;
            std::fs::write(&csv_path, export_points_csv(&aggs))
                .map_err(|e| format!("cannot write `{csv_path}`: {e}"))?;
            println!("per-point csv written to {csv_path}");
        } else {
            eprintln!(
                "exp: store holds {}/{} units; run the remaining shards before \
                 exporting (csv skipped)",
                store.completed_count(),
                campaign.spec.total_units()
            );
        }
    }
    Ok(())
}

fn exp_status(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use chebymc::exp::{points_complete, shard_progress, Store};
    let mut shards = None;
    let positional = parse_flags(args, &mut [("--shards", &mut shards)])?;
    let [path] = positional.as_slice() else {
        return Err("exp status needs exactly one store file".into());
    };
    let store = Store::load(std::path::Path::new(path), None)?;
    let spec = store.spec();
    let points_done = points_complete(spec, |u| store.is_complete(u));
    println!("store       {path}");
    println!("campaign    {} (seed {})", spec.name, spec.seed);
    println!("fingerprint {}", store.header().fingerprint);
    println!(
        "axis        {} points × {} replicas = {} units",
        spec.points.len(),
        spec.replicas,
        spec.total_units()
    );
    println!(
        "complete    {}/{} units; {points_done}/{} points fully done",
        store.completed_count(),
        spec.total_units(),
        spec.points.len()
    );
    if let Some(n) = shards {
        let n: usize = n.parse()?;
        if n == 0 {
            return Err("--shards must be at least 1".into());
        }
        for p in shard_progress(spec.total_units(), n, |u| store.is_complete(u)) {
            println!(
                "  shard {}  {}/{} units{}",
                p.shard,
                p.done,
                p.units,
                if p.is_complete() { "  (complete)" } else { "" }
            );
        }
    }
    Ok(())
}

fn exp_merge(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use chebymc::exp::Store;
    let mut out = None;
    let positional = parse_flags(args, &mut [("-o", &mut out)])?;
    let Some(out) = out else {
        return Err("exp merge needs -o <out.jsonl>".into());
    };
    if positional.is_empty() {
        return Err("exp merge needs at least one input store".into());
    }
    let mut stores = Vec::new();
    for path in &positional {
        let expected = stores.first().map(|s: &Store| s.spec().clone());
        stores.push(Store::load(std::path::Path::new(path), expected.as_ref())?);
    }
    let merged = Store::merge(&stores)?;
    std::fs::write(&out, merged.canonical_lines())
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!(
        "merged {} store(s) into {out}: {}/{} units",
        positional.len(),
        merged.completed_count(),
        merged.spec().total_units()
    );
    Ok(())
}

fn exp_export_csv(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use chebymc::exp::{aggregate, export_points_csv, export_units_csv, Store};
    let mut args = args.to_vec();
    let per_unit = take_switch(&mut args, "--per-unit");
    let mut out = None;
    let positional = parse_flags(&args, &mut [("-o", &mut out)])?;
    let [path] = positional.as_slice() else {
        return Err("exp export-csv needs exactly one store file".into());
    };
    let store = Store::load(std::path::Path::new(path), None)?;
    let csv = if per_unit {
        export_units_csv(store.spec(), store.records())?
    } else {
        let aggs = aggregate(store.spec(), store.records())?;
        export_points_csv(&aggs)
    };
    write_or_print(out, csv.trim_end())
}

fn cmd_simulate(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (mut seconds, mut seed, mut policy, mut model) = (None, None, None, None);
    let positional = parse_flags(
        args,
        &mut [
            ("--seconds", &mut seconds),
            ("--seed", &mut seed),
            ("--policy", &mut policy),
            ("--model", &mut model),
        ],
    )?;
    let [path] = positional.as_slice() else {
        return Err("simulate needs exactly one workload file".into());
    };
    let workload = load_workload(path)?;
    let seconds: u64 = seconds.as_deref().unwrap_or("60").parse()?;
    let seed: u64 = seed.as_deref().unwrap_or("0").parse()?;
    let policy: PolicySpec = policy.as_deref().unwrap_or("drop").parse()?;
    let exec_model = match model.as_deref().unwrap_or("profile") {
        "profile" => JobExecModel::Profile,
        "lo" => JobExecModel::FullLoBudget,
        "hi" => JobExecModel::FullHiBudget,
        s if s.starts_with("p:") => JobExecModel::OverrunWithProbability(s["p:".len()..].parse()?),
        other => return Err(format!("unknown execution model `{other}`").into()),
    };
    let base = SimConfig {
        exec_model,
        seed,
        ..SimConfig::new(Duration::from_secs(seconds))
    };
    let cfg = policy.sim_config(&workload.tasks, &base);
    let m = simulate(&workload.tasks, &cfg)?;
    println!("simulated `{}` for {seconds} s:", workload.name);
    println!(
        "  jobs released        = {} HC + {} LC",
        m.hc_released, m.lc_released
    );
    println!("  mode switches        = {}", m.mode_switches);
    if cfg.mode_switch == ModeSwitchPolicy::TaskLevelThenSystem {
        println!("  task-level switches  = {}", m.task_level_switches);
    }
    println!("  HC deadline misses   = {}", m.hc_deadline_misses);
    println!("  LC deadline misses   = {}", m.lc_deadline_misses);
    println!("  LC lost to HI mode   = {}", m.lc_lost());
    println!("  LC degraded          = {}", m.lc_degraded);
    println!("  time in HI mode      = {:.2} %", m.hi_fraction() * 100.0);
    println!("  processor busy       = {:.2} %", m.utilization() * 100.0);
    Ok(())
}
