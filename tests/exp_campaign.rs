//! End-to-end tests of the experiment-campaign subsystem through real
//! `chebymc exp` process invocations: crash-safe resume (truncation at a
//! record boundary and mid-record), shard determinism (merged shards ==
//! single-process run, byte for byte), status/export, and the `E0xx`
//! fail-fast diagnostics.
//!
//! The campaign under test is `table2` at a tiny sample count — 25 units
//! of pure trace sampling, fast and bit-deterministic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

fn chebymc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chebymc"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("chebymc-exp-test-{}-{name}", std::process::id()));
    p
}

/// Runs the tiny table2 campaign into `store`, asserting success.
fn run_tiny(store: &Path, extra: &[&str]) -> Output {
    let mut args = vec![
        "exp",
        "run",
        "table2",
        "--samples",
        "300",
        "--store",
        store.to_str().unwrap(),
        "--quiet",
    ];
    args.extend_from_slice(extra);
    let out = chebymc(&args);
    assert!(
        out.status.success(),
        "exp run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The uninterrupted reference store for this process, built once: the
/// tests run on parallel threads, and each rebuilding it at the same
/// temp path would delete the others' store mid-run.
fn reference_store() -> Vec<u8> {
    static REFERENCE: OnceLock<Vec<u8>> = OnceLock::new();
    REFERENCE
        .get_or_init(|| {
            let store = tmp("reference.jsonl");
            let _ = std::fs::remove_file(&store);
            run_tiny(&store, &[]);
            let bytes = std::fs::read(&store).expect("store written");
            std::fs::remove_file(&store).unwrap();
            bytes
        })
        .clone()
}

#[test]
fn resume_after_truncation_at_record_boundary_rebuilds_identical_store() {
    let reference = reference_store();
    let store = tmp("boundary.jsonl");
    let _ = std::fs::remove_file(&store);
    run_tiny(&store, &[]);

    // Cut the store back to roughly half its records, on a line boundary —
    // the state after a clean kill between two units.
    let text = String::from_utf8(std::fs::read(&store).unwrap()).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let keep: String = lines[..1 + (lines.len() - 1) / 2].concat();
    std::fs::write(&store, &keep).unwrap();

    let out = run_tiny(&store, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("skipped 12 already-complete"),
        "resume must skip the surviving records: {stdout}"
    );
    assert_eq!(
        std::fs::read(&store).unwrap(),
        reference,
        "resumed store must be byte-identical to an uninterrupted run"
    );
    std::fs::remove_file(&store).unwrap();
}

#[test]
fn resume_after_mid_record_truncation_drops_the_torn_tail_and_recovers() {
    let reference = reference_store();
    let store = tmp("midrecord.jsonl");
    let _ = std::fs::remove_file(&store);
    run_tiny(&store, &[]);

    // Cut mid-way through a record line — the state after a crash during
    // a write: keep the header, five full records, and the first few
    // bytes of the sixth, so the tail is genuinely torn.
    let text = String::from_utf8(std::fs::read(&store).unwrap()).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let mut keep = lines[..6].concat();
    keep.push_str(&lines[6][..8]);
    std::fs::write(&store, &keep).unwrap();

    let out = run_tiny(&store, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("recovered a torn tail"),
        "the torn tail must be reported: {stderr}"
    );
    assert_eq!(
        std::fs::read(&store).unwrap(),
        reference,
        "recovered store must be byte-identical to an uninterrupted run"
    );
    std::fs::remove_file(&store).unwrap();
}

#[test]
fn shards_merge_to_the_single_process_store_byte_for_byte() {
    let reference = reference_store();
    let shard0 = tmp("shard0.jsonl");
    let shard1 = tmp("shard1.jsonl");
    let merged = tmp("merged.jsonl");
    for p in [&shard0, &shard1, &merged] {
        let _ = std::fs::remove_file(p);
    }
    run_tiny(&shard0, &["--shard", "0/2"]);
    run_tiny(&shard1, &["--shard", "1/2"]);

    let out = chebymc(&[
        "exp",
        "merge",
        "-o",
        merged.to_str().unwrap(),
        shard0.to_str().unwrap(),
        shard1.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "merge failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&merged).unwrap(),
        reference,
        "merged shard stores must equal the single-process store"
    );
    for p in [&shard0, &shard1, &merged] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn status_and_export_describe_a_store() {
    let store = tmp("status.jsonl");
    let _ = std::fs::remove_file(&store);
    run_tiny(&store, &[]);

    let out = chebymc(&["exp", "status", store.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("table2"), "{text}");
    assert!(text.contains("25/25 units"), "{text}");
    assert!(text.contains("25/25 points fully done"), "{text}");

    let out = chebymc(&["exp", "export-csv", store.to_str().unwrap()]);
    assert!(out.status.success());
    let csv = String::from_utf8_lossy(&out.stdout);
    assert!(csv.starts_with("point,label,replicas,analysis_bound,overrun_rate"));
    assert_eq!(csv.lines().count(), 26, "header + one row per point");

    let out = chebymc(&["exp", "export-csv", "--per-unit", store.to_str().unwrap()]);
    assert!(out.status.success());
    let csv = String::from_utf8_lossy(&out.stdout);
    assert!(csv.starts_with("unit,point,label,replica,seed,"));
    std::fs::remove_file(&store).unwrap();
}

#[test]
fn invalid_shard_fails_fast_with_a_named_diagnostic() {
    let store = tmp("badshard.jsonl");
    let _ = std::fs::remove_file(&store);
    let out = chebymc(&[
        "exp",
        "run",
        "table2",
        "--store",
        store.to_str().unwrap(),
        "--shard",
        "3/2",
        "--quiet",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("E003"),
        "shard error must carry its code: {err}"
    );
    assert!(
        !store.exists(),
        "a campaign that fails static analysis must not create a store"
    );
}

#[test]
fn store_csv_collision_fails_fast() {
    let store = tmp("collide.jsonl");
    let out = chebymc(&[
        "exp",
        "run",
        "table2",
        "--store",
        store.to_str().unwrap(),
        "--csv",
        store.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("E005"), "{err}");
}

#[test]
fn a_store_cannot_be_resumed_under_a_different_campaign() {
    let store = tmp("wrongspec.jsonl");
    let _ = std::fs::remove_file(&store);
    run_tiny(&store, &[]);
    // Same campaign, different scale → different fingerprint.
    let out = chebymc(&[
        "exp",
        "run",
        "table2",
        "--samples",
        "400",
        "--store",
        store.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("different campaign"), "{err}");
    std::fs::remove_file(&store).unwrap();
}

#[test]
fn exp_list_names_the_catalog() {
    let out = chebymc(&["exp", "list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let catalog: Vec<&str> = chebymc::exp::catalog::names().collect();
    assert_eq!(listed, catalog, "{text}");
}
