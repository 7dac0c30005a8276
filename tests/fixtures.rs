//! The committed `.prog` fixtures parse, validate, and analyse cleanly —
//! and the `chebymc wcet` CLI agrees with the library analysis.

use chebymc::exec::parse::{parse_program, to_source};
use chebymc::exec::wcet::analyze;
use std::path::PathBuf;
use std::process::Command;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn fixture_paths() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures directory exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "prog"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no fixtures found");
    paths
}

#[test]
fn all_fixtures_parse_and_analyse() {
    for path in fixture_paths() {
        let src = std::fs::read_to_string(&path).unwrap();
        let program = parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report = analyze(&program).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(report.wcet > 0, "{}: zero WCET", path.display());
        assert!(
            report.bcet as f64 <= report.acet_estimate
                && report.acet_estimate <= report.wcet as f64,
            "{}: analyses out of order",
            path.display()
        );
    }
}

#[test]
fn fixtures_round_trip_through_the_printer() {
    for path in fixture_paths() {
        let src = std::fs::read_to_string(&path).unwrap();
        let p1 = parse_program(&src).unwrap();
        let p2 = parse_program(&to_source(&p1)).unwrap();
        assert_eq!(p1.wcet(), p2.wcet(), "{}", path.display());
        assert_eq!(p1.bcet(), p2.bcet(), "{}", path.display());
    }
}

#[test]
fn image_kernel_wcet_is_the_hand_computed_value() {
    let src = std::fs::read_to_string(fixtures_dir().join("image_kernel.prog")).unwrap();
    let p = parse_program(&src).unwrap();
    // init + rows(65 headers) + 64 · (cols: 65 headers · 2 + 64·(2+180)) + commit.
    let per_row = 65 * 2 + 64 * (2 + 180);
    assert_eq!(p.wcet(), Ok(120 + 65 * 4 + 64 * per_row + 40));
}

#[test]
fn cli_wcet_matches_library_analysis() {
    let path = fixtures_dir().join("state_machine.prog");
    let src = std::fs::read_to_string(&path).unwrap();
    let report = analyze(&parse_program(&src).unwrap()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_chebymc"))
        .arg("wcet")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains(&format!("WCET          = {} cycles", report.wcet)),
        "{text}"
    );
}

#[test]
fn committed_workload_fixture_designs_and_simulates() {
    use chebymc::prelude::*;
    let json = std::fs::read_to_string(fixtures_dir().join("synthetic_u075.json")).unwrap();
    let mut w = Workload::load_json(&json).unwrap();
    assert_eq!(w.tasks.len(), 7);
    assert_eq!(w.tasks.hc_count(), 4);
    let report = ChebyshevScheme::with_seed(1).design(&mut w.tasks).unwrap();
    assert!(report.metrics.schedulable);
    let sim = simulate(&w.tasks, &SimConfig::new(Duration::from_secs(10))).unwrap();
    assert_eq!(sim.hc_deadline_misses, 0);
}

#[test]
fn cli_wcet_reports_parse_errors_with_position() {
    let bad = std::env::temp_dir().join(format!("chebymc-bad-{}.prog", std::process::id()));
    std::fs::write(&bad, "loop l 1 { block b 2; }").unwrap(); // missing bound
    let out = Command::new(env!("CARGO_BIN_EXE_chebymc"))
        .arg("wcet")
        .arg(&bad)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bound"));
    let _ = std::fs::remove_file(&bad);
}
