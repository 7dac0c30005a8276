//! Integration tests for the mc-lint subsystem and the `chebymc lint`
//! subcommand: the defect fixture must produce one diagnostic per planted
//! defect, every shipped benchmark must lint clean, and the JSON renderer
//! must round-trip through `serde_json`.

use chebymc::lint::{Code, LintBundle, LintReport, Severity};
use std::process::{Command, Output};

const DEFECTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/lint_defects.json");

fn chebymc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chebymc"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// The headline acceptance test: a fixture with an unbounded loop, an
/// unreachable block, and a task with `C_LO > C_HI` yields exactly the
/// three matching diagnostic codes.
#[test]
fn defect_fixture_emits_one_code_per_planted_defect() {
    let json = std::fs::read_to_string(DEFECTS).unwrap();
    let report = LintBundle::from_json(&json).unwrap().lint();
    assert_eq!(
        report.codes(),
        vec![Code::C003, Code::C005, Code::T001],
        "unexpected diagnostics:\n{}",
        report.render_human()
    );
    assert_eq!(report.count(Severity::Error), 3);
    assert!(report.has_errors());
}

#[test]
fn cli_lint_reports_the_defects_and_exits_nonzero() {
    let out = chebymc(&["lint", DEFECTS]);
    assert!(!out.status.success(), "defective bundle must fail the lint");
    let text = String::from_utf8_lossy(&out.stdout);
    for code in ["C003", "C005", "T001"] {
        assert!(text.contains(code), "missing {code} in:\n{text}");
    }
    assert!(String::from_utf8_lossy(&out.stderr).contains("lint found 3 deny-level finding(s)"));
}

#[test]
fn cli_lint_json_output_round_trips_through_serde() {
    let out = chebymc(&["lint", DEFECTS, "--format", "json"]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed: LintReport = serde_json::from_str(&text).expect("valid JSON report");
    assert_eq!(parsed.codes(), vec![Code::C003, Code::C005, Code::T001]);
    // Full round-trip: re-serialise and parse again to the same value.
    let again: LintReport = serde_json::from_str(&serde_json::to_string(&parsed).unwrap()).unwrap();
    assert_eq!(again, parsed);
}

#[test]
fn cli_lint_clean_inputs_exit_zero() {
    let out = chebymc(&["lint", "--benchmark", "all"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    let out = chebymc(&["lint", "--benchmark", "nonsense"]);
    assert!(!out.status.success());

    let out = chebymc(&["lint"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least one input"));
}

/// Every benchmark CFG the workspace ships is lint-clean — the structural
/// analyser and the WCET analyser agree that these graphs are well-formed.
#[test]
fn every_benchmark_cfg_lints_clean() {
    for b in chebymc::exec::benchmarks::all().unwrap() {
        let cfg = b.program().to_cfg().unwrap();
        let report = chebymc::lint::lint_cfg(&cfg, b.name());
        assert!(
            report.is_clean(),
            "benchmark {} is not lint-clean:\n{}",
            b.name(),
            report.render_human()
        );
    }
}

/// The shipped `.prog` fixtures lint clean through the `--program` path.
#[test]
fn program_fixtures_lint_clean() {
    for prog in [
        "image_kernel.prog",
        "sort_kernel.prog",
        "state_machine.prog",
    ] {
        let path = format!("{}/fixtures/{prog}", env!("CARGO_MANIFEST_DIR"));
        let out = chebymc(&["lint", "--program", &path]);
        assert!(
            out.status.success(),
            "{prog}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A lint bundle holding one CFG: nodes are `(name, loop_bound, alive)`,
/// each costing one cycle, and the `succ`/`pred` rows follow `edges`.
fn cfg_bundle(
    nodes: &[(&str, Option<u64>, bool)],
    edges: &[(usize, usize)],
    entry: Option<usize>,
    exit: Option<usize>,
) -> String {
    let mut succ = vec![Vec::new(); nodes.len()];
    let mut pred = vec![Vec::new(); nodes.len()];
    for &(from, to) in edges {
        succ[from].push(to);
        pred[to].push(from);
    }
    let json = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
    let nodes: Vec<String> = nodes
        .iter()
        .map(|(name, bound, alive)| {
            format!(
                r#"{{"name":"{name}","cost":1,"loop_bound":{},"alive":{alive}}}"#,
                json(*bound)
            )
        })
        .collect();
    format!(
        r#"{{"cfg":{{"nodes":[{}],"succ":{succ:?},"pred":{pred:?},"entry":{},"exit":{}}}}}"#,
        nodes.join(","),
        json(entry.map(|i| i as u64)),
        json(exit.map(|i| i as u64)),
    )
}

/// `chebymc lint --format json` output for CFGs whose findings hang on
/// the traversal: two loops whose back edges come in another order by
/// reverse postorder than by node index (the C005/C009 order and the
/// latch list), an irreducible cycle, a dead block, a dead entry (its
/// edges lead nowhere, so its loop is unreachable, not unbounded) and a
/// missing exit.
#[test]
fn cli_lint_json_output_is_pinned() {
    let cases = [
        (
            "two_loops",
            cfg_bundle(
                &[
                    ("entry", None, true),
                    ("h2", Some(0), true),
                    ("b2", None, true),
                    ("h1", None, true),
                    ("b1", None, true),
                    ("exit", None, true),
                    ("c1", None, true),
                ],
                &[
                    (0, 3),
                    (3, 1),
                    (3, 4),
                    (3, 6),
                    (4, 3),
                    (6, 3),
                    (1, 2),
                    (2, 1),
                    (1, 5),
                ],
                Some(0),
                Some(5),
            ),
            r#"{
  "diagnostics": [
    {
      "code": "C005",
      "severity": "Error",
      "source": "cfg:bundle/h1 (n3)",
      "message": "loop header h1 (n3) (back edge from c1 (n6), b1 (n4)) has no loop bound; WCET analysis cannot bound this loop"
    },
    {
      "code": "C009",
      "severity": "Info",
      "source": "cfg:bundle/h2 (n1)",
      "message": "loop at h2 (n1) has bound 0: the body never executes"
    }
  ]
}
"#,
        ),
        (
            "irreducible",
            cfg_bundle(
                &[
                    ("entry", None, true),
                    ("b", Some(3), true),
                    ("c", None, true),
                    ("exit", None, true),
                ],
                &[(0, 1), (0, 2), (1, 2), (2, 1), (1, 3)],
                Some(0),
                Some(3),
            ),
            r#"{
  "diagnostics": [
    {
      "code": "C008",
      "severity": "Warning",
      "source": "cfg:bundle/b (n1)",
      "message": "block b (n1) carries a loop bound but heads no loop"
    },
    {
      "code": "C006",
      "severity": "Error",
      "source": "cfg:bundle",
      "message": "irreducible control flow: a cycle remains after removing all dominator back edges (multiple-entry loop)"
    }
  ]
}
"#,
        ),
        (
            "dead_node",
            cfg_bundle(
                &[
                    ("entry", None, true),
                    ("a", None, true),
                    ("d", Some(2), false),
                    ("exit", None, true),
                ],
                &[(0, 1), (1, 3), (0, 2), (2, 3)],
                Some(0),
                Some(3),
            ),
            r#"{
  "diagnostics": [
    {
      "code": "C007",
      "severity": "Warning",
      "source": "cfg:bundle/n0->n2",
      "message": "edge n0 -> n2 touches a collapsed block (n2 dead); the analyser ignores it"
    },
    {
      "code": "C007",
      "severity": "Warning",
      "source": "cfg:bundle/n2->n3",
      "message": "edge n2 -> n3 touches a collapsed block (n2 dead); the analyser ignores it"
    }
  ]
}
"#,
        ),
        (
            "dead_entry",
            cfg_bundle(
                &[
                    ("entry", None, false),
                    ("h", None, true),
                    ("b", None, true),
                    ("exit", None, true),
                ],
                &[(0, 1), (1, 2), (2, 1), (1, 3)],
                Some(0),
                Some(3),
            ),
            r#"{
  "diagnostics": [
    {
      "code": "C007",
      "severity": "Warning",
      "source": "cfg:bundle/n0->n1",
      "message": "edge n0 -> n1 touches a collapsed block (n0 dead); the analyser ignores it"
    },
    {
      "code": "C003",
      "severity": "Error",
      "source": "cfg:bundle/h (n1)",
      "message": "block h (n1) is unreachable from the entry"
    },
    {
      "code": "C003",
      "severity": "Error",
      "source": "cfg:bundle/b (n2)",
      "message": "block b (n2) is unreachable from the entry"
    },
    {
      "code": "C003",
      "severity": "Error",
      "source": "cfg:bundle/exit (n3)",
      "message": "block exit (n3) is unreachable from the entry"
    }
  ]
}
"#,
        ),
        (
            "no_exit",
            cfg_bundle(
                &[("entry", None, true), ("h", None, true), ("b", None, true)],
                &[(0, 1), (1, 2), (2, 1)],
                Some(0),
                None,
            ),
            r#"{
  "diagnostics": [
    {
      "code": "C002",
      "severity": "Error",
      "source": "cfg:bundle",
      "message": "no exit block is set; call set_exit before analysis"
    },
    {
      "code": "C005",
      "severity": "Error",
      "source": "cfg:bundle/h (n1)",
      "message": "loop header h (n1) (back edge from b (n2)) has no loop bound; WCET analysis cannot bound this loop"
    }
  ]
}
"#,
        ),
    ];
    for (name, bundle, want) in cases {
        let path = std::env::temp_dir().join(format!(
            "chebymc-lint-golden-{}-{name}.json",
            std::process::id()
        ));
        std::fs::write(&path, bundle).unwrap();
        let out = chebymc(&["lint", path.to_str().unwrap(), "--format", "json"]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "{name}");
    }
}
