//! End-to-end tests of the `chebymc` command-line binary: generate a
//! workload file, analyze, design, and simulate it through real process
//! invocations.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn chebymc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chebymc"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("chebymc-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn closed_stdout_ends_the_process_quietly() {
    // A 1000-runnable workload is several hundred kilobytes, far more than
    // a pipe buffers, so writes continue after the reader hangs up.
    let mut child = Command::new(env!("CARGO_BIN_EXE_chebymc"))
        .args([
            "generate",
            "--family",
            "automotive",
            "--u",
            "0.7",
            "--seed",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_line(&mut first)
        .expect("first line arrives");
    // The reader is dropped: the pipe is closed mid-output.
    let out = child.wait_with_output().expect("process ends");
    assert_eq!(first.trim(), "{");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert!(
            out.status.success() || out.status.signal() == Some(13),
            "{:?}",
            out.status
        );
    }
}

#[test]
fn help_prints_usage() {
    let out = chebymc(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("generate"));
    assert!(text.contains("simulate"));
    assert!(text.contains("chebymc exp run"), "help must list exp");
}

#[test]
fn version_flag_prints_the_version() {
    for flag in ["--version", "-V", "version"] {
        let out = chebymc(&[flag]);
        assert!(out.status.success(), "{flag} must succeed");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.trim().starts_with("chebymc 0."),
            "{flag} printed {text:?}"
        );
    }
}

#[test]
fn typos_suggest_the_nearest_subcommand() {
    let cases = [
        ("desing", "design"),
        ("analyse", "analyze"),
        ("simluate", "simulate"),
        ("exps", "exp"),
    ];
    for (typo, expected) in cases {
        let out = chebymc(&[typo]);
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("did you mean `{expected}`?")),
            "`{typo}` should suggest `{expected}`: {err}"
        );
    }
    // Nothing close → no suggestion.
    let out = chebymc(&["frobnicate"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("did you mean"), "{err}");
}

#[test]
fn missing_subcommand_fails_with_usage() {
    let out = chebymc(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing subcommand"));
    assert!(err.contains("USAGE"));
}

#[test]
fn unknown_subcommand_fails() {
    let out = chebymc(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn generate_analyze_design_simulate_pipeline() {
    let raw = tmp("raw.json");
    let designed = tmp("designed.json");

    // generate
    let out = chebymc(&[
        "generate",
        "--u",
        "0.6",
        "--seed",
        "3",
        "-o",
        raw.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(raw.exists());

    // analyze (pessimistic start: P_MS = 1 because C_LO = C_HI < ACET+nσ? no:
    // C_LO = C_HI is the max level, bound < 1; just check the fields print).
    let out = chebymc(&["analyze", raw.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("P_MS bound"));
    assert!(text.contains("schedulable"));

    // design (GA) and write the designed workload.
    let out = chebymc(&[
        "design",
        raw.to_str().unwrap(),
        "--seed",
        "1",
        "-o",
        designed.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("schedulable  = true"), "{text}");
    assert!(designed.exists());

    // The designed file re-loads as a valid workload with lower U_HC^LO.
    let designed_json = std::fs::read_to_string(&designed).unwrap();
    let w = chebymc::task::workload::Workload::load_json(&designed_json).unwrap();
    assert!(w.tasks.u_hc_lo() < w.tasks.u_hc_hi());

    // simulate the designed system.
    let out = chebymc(&[
        "simulate",
        designed.to_str().unwrap(),
        "--seconds",
        "10",
        "--policy",
        "degrade:0.5",
        "--model",
        "profile",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("HC deadline misses   = 0"), "{text}");

    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&designed);
}

#[test]
fn design_uniform_n_reports_factor() {
    let raw = tmp("uniform.json");
    let out = chebymc(&[
        "generate",
        "--u",
        "0.5",
        "--seed",
        "9",
        "-o",
        raw.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = chebymc(&["design", raw.to_str().unwrap(), "--uniform-n", "4"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("n = 4.00"), "{text}");
    let _ = std::fs::remove_file(&raw);
}

#[test]
fn design_handles_lc_only_workloads() {
    // A workload with no HC tasks has the trivial design (empty factor
    // vector); the CLI must not crash on it.
    let path = tmp("lc-only.json");
    let out = chebymc(&[
        "generate",
        "--u",
        "0.4",
        "--seed",
        "5",
        "--p-high",
        "0.0",
        "-o",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = chebymc(&["design", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("P_MS bound   = 0.0000"), "{text}");
    assert!(text.contains("schedulable  = true"), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exp_run_trace_and_trace_summary_round_trip() {
    let store = tmp("trace-store.jsonl");
    let trace = tmp("trace-out.jsonl");
    for p in [&store, &trace] {
        let _ = std::fs::remove_file(p);
    }
    let out = chebymc(&[
        "exp",
        "run",
        "fig5",
        "--sets",
        "1",
        "--threads",
        "1",
        "--quiet",
        "--store",
        store.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("trace written to"),
        "stderr should point at the trace file"
    );

    // Every trace line is an object with a known kind, led by the meta
    // header.
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.lines().next().unwrap().contains("\"k\":\"meta\""));
    assert!(text.lines().count() > 1, "trace must hold events");

    let out = chebymc(&["trace", "summary", trace.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rendered = String::from_utf8_lossy(&out.stdout);
    assert!(rendered.contains("schema 1"), "{rendered}");
    assert!(rendered.contains("exp.unit"), "{rendered}");
    assert!(rendered.contains("store.fsync"), "{rendered}");

    for p in [&store, &trace] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn trace_summary_rejects_garbage() {
    let out = chebymc(&["trace", "summary", "/nonexistent/missing.jsonl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let bad = tmp("not-a-trace.jsonl");
    std::fs::write(&bad, "{\"hello\": 1}\n").unwrap();
    let out = chebymc(&["trace", "summary", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not a valid chebymc trace"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn simulate_rejects_bad_flags() {
    let raw = tmp("badflags.json");
    let out = chebymc(&["generate", "-o", raw.to_str().unwrap()]);
    assert!(out.status.success());
    let out = chebymc(&["simulate", raw.to_str().unwrap(), "--policy", "nonsense"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
    let out = chebymc(&["simulate", raw.to_str().unwrap(), "--model", "warp"]);
    assert!(!out.status.success());
    let out = chebymc(&["analyze"]);
    assert!(!out.status.success());
    let out = chebymc(&["analyze", "/nonexistent/definitely-missing.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    let _ = std::fs::remove_file(&raw);
}

/// The full `simulate` report of each `--policy` spelling on one designed
/// workload, so a change in how the flag maps onto the simulator shows up
/// as a diff.
#[test]
fn simulate_policies_print_pinned_reports() {
    let raw = tmp("policies-raw.json");
    let designed = tmp("policies-designed.json");
    let (raw_s, designed_s) = (raw.to_str().unwrap(), designed.to_str().unwrap());
    let out = chebymc(&["generate", "--u", "0.7", "--seed", "4", "-o", raw_s]);
    assert!(out.status.success());
    let out = chebymc(&["design", raw_s, "--uniform-n", "2", "-o", designed_s]);
    assert!(out.status.success());
    let head = "simulated `synthetic-u0.7-seed4` for 20 s:\n  \
                jobs released        = 171 HC + 109 LC\n";
    let tail = "  time in HI mode      = 0.00 %\n  processor busy       = 22.31 %\n";
    let cases = [
        (
            "drop",
            "  mode switches        = 4\n  \
             HC deadline misses   = 0\n  \
             LC deadline misses   = 0\n  \
             LC lost to HI mode   = 1\n  \
             LC degraded          = 0\n",
        ),
        (
            "degrade:0.5",
            "  mode switches        = 4\n  \
             HC deadline misses   = 0\n  \
             LC deadline misses   = 0\n  \
             LC lost to HI mode   = 0\n  \
             LC degraded          = 1\n",
        ),
        (
            "combined:0.5",
            "  mode switches        = 0\n  \
             task-level switches  = 4\n  \
             HC deadline misses   = 0\n  \
             LC deadline misses   = 0\n  \
             LC lost to HI mode   = 0\n  \
             LC degraded          = 0\n",
        ),
    ];
    for (policy, body) in cases {
        let out = chebymc(&[
            "simulate",
            designed_s,
            "--seconds",
            "20",
            "--seed",
            "3",
            "--policy",
            policy,
        ]);
        assert!(out.status.success(), "{policy}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout, format!("{head}{body}{tail}"), "--policy {policy}");
    }
    for (policy, offending) in [("degrade:1.5", "`1.5`"), ("combined:NaN", "`NaN`")] {
        let out = chebymc(&["simulate", designed_s, "--policy", policy]);
        assert!(!out.status.success(), "{policy} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(offending), "{policy}: {first}");
    }
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&designed);
}

#[test]
fn fault_sweep_runs_clean_and_reports_counts() {
    let out = chebymc(&[
        "fault", "sweep", "--seed", "3", "--count", "30", "--ops", "12",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("30 schedules"), "{text}");
    assert!(text.contains("invariant held"), "{text}");
    // A sweep that never crashed or never injected an error would be
    // vacuous — the report makes that visible, so check it here too.
    let crashes: u64 = text
        .split(", ")
        .find_map(|part| part.strip_suffix(" crashes"))
        .and_then(|n| n.trim().parse().ok())
        .expect("report lists crashes");
    assert!(crashes > 0, "{text}");
}

#[test]
fn fault_sweep_rejects_bad_flags() {
    let out = chebymc(&["fault"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("sweep"));

    let out = chebymc(&["fault", "resect"]);
    assert!(!out.status.success());

    let out = chebymc(&["fault", "sweep", "--count", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--count"));

    let out = chebymc(&["fault", "sweep", "--ops", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--ops"));

    let out = chebymc(&["fault", "sweep", "--bogus", "1"]);
    assert!(!out.status.success());
}

#[test]
fn help_lists_fault_sweep() {
    let out = chebymc(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("chebymc fault sweep"), "help must list fault");
    assert!(text.contains("reproduces"), "{text}");
}

#[test]
fn serve_with_real_worker_processes_matches_a_serial_run() {
    use std::io::{BufRead, Read, Write};

    let serial = tmp("serve-serial.jsonl");
    let ckpt = tmp("serve-ckpt.jsonl");
    let merged = tmp("serve-merged.jsonl");
    let addr_file = tmp("serve-addr.txt");
    for p in [&serial, &ckpt, &merged, &addr_file] {
        let _ = std::fs::remove_file(p);
    }

    // The byte-identity reference: the same campaign run serially.
    let out = chebymc(&[
        "exp",
        "run",
        "table2",
        "--samples",
        "150",
        "--store",
        serial.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut serve = Command::new(env!("CARGO_BIN_EXE_chebymc"))
        .args([
            "serve",
            "table2",
            "--samples",
            "150",
            "--store",
            ckpt.to_str().unwrap(),
            "--addr-file",
            addr_file.to_str().unwrap(),
            "-o",
            merged.to_str().unwrap(),
            "--leases",
            "4",
            "--timeout-ms",
            "2000",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");
    // Keep the stdout pipe open for serve's whole lifetime — dropping it
    // would make its completion summary a broken-pipe panic.
    let mut serve_stdout = std::io::BufReader::new(serve.stdout.take().expect("piped stdout"));
    let mut first_line = String::new();
    serve_stdout
        .read_line(&mut first_line)
        .expect("serve announces its address");
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement {first_line:?}"))
        .to_string();

    // Hostile clients first: a frame nested 20 000 levels deep, then a
    // bare 16 MiB length prefix with 3 payload bytes and a hang-up. The
    // coordinator must drop both connections and keep serving.
    for frame in [
        format!("20000\n{}\n", "[".repeat(20_000)).into_bytes(),
        b"16777216\nabc".to_vec(),
    ] {
        let mut conn = std::net::TcpStream::connect(addr.as_str()).expect("coordinator accepts");
        conn.write_all(&frame).expect("frame sent");
        conn.shutdown(std::net::Shutdown::Write).expect("hang up");
        // Returns once the coordinator has closed its end.
        let _ = conn.read(&mut [0u8; 1]);
    }

    // One worker by fixed address, one discovering it through the file.
    // Units are throttled so the campaign outlives both process startups
    // — otherwise one fast worker could drain it before the other ever
    // connects.
    let workers: Vec<_> = [
        vec![
            "worker",
            "--connect",
            addr.as_str(),
            "--throttle-ms",
            "10",
            "--quiet",
        ],
        vec![
            "worker",
            "--connect-file",
            addr_file.to_str().unwrap(),
            "--throttle-ms",
            "10",
            "--quiet",
        ],
    ]
    .into_iter()
    .map(|args| {
        Command::new(env!("CARGO_BIN_EXE_chebymc"))
            .args(&args)
            .spawn()
            .expect("worker spawns")
    })
    .collect();

    let serve_status = serve.wait().expect("serve exits");
    drop(serve_stdout);
    assert!(serve_status.success(), "serve failed");
    for mut w in workers {
        let status = w.wait().expect("worker exits");
        assert!(status.success(), "worker failed");
    }

    let merged_bytes = std::fs::read(&merged).expect("merged store written");
    let serial_bytes = std::fs::read(&serial).expect("serial store written");
    assert_eq!(
        merged_bytes, serial_bytes,
        "distributed merge must be byte-identical to the serial run"
    );
    assert_eq!(
        std::fs::read_to_string(&addr_file).unwrap(),
        "",
        "completion withdraws the published address"
    );

    for p in [&serial, &ckpt, &merged, &addr_file] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn serve_rejects_bad_invocations() {
    let out = chebymc(&["serve"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("campaign name"));

    let out = chebymc(&["serve", "table2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--store"));

    let out = chebymc(&["worker"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--connect"));

    let out = chebymc(&["worker", "--connect", "1.2.3.4:1", "--connect-file", "x"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly one"));
}

#[test]
fn exp_status_breaks_completion_down_per_shard() {
    let store = tmp("status-shards.jsonl");
    let _ = std::fs::remove_file(&store);

    // Run only stripe 0/2: status must show it complete and 1/2 empty.
    let out = chebymc(&[
        "exp",
        "run",
        "table2",
        "--samples",
        "150",
        "--store",
        store.to_str().unwrap(),
        "--shard",
        "0/2",
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = chebymc(&["exp", "status", store.to_str().unwrap(), "--shards", "2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("shard 0/2  13/13 units  (complete)"),
        "{text}"
    );
    assert!(text.contains("shard 1/2  0/12 units"), "{text}");

    let out = chebymc(&["exp", "status", store.to_str().unwrap(), "--shards", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shards"));

    let _ = std::fs::remove_file(&store);
}
