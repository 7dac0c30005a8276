//! Seeded fuzzing of every input that crosses a trust boundary: wire
//! frames, workload JSON, store files, `.prog` models and lint bundles,
//! plus fixed cases for escapes, repeated fields, profiles, trace
//! integers and JSON laxities, the retired `val` trace kind and a
//! repeated `Hello`.
//!
//! Each property mutates checked-in inputs with bit flips, byte inserts,
//! deletes, truncations and runs of the format's nesting opener, and
//! requires the parser to return `Ok` or `Err`. A panic fails the property
//! with its reproducing seed; a stack overflow aborts the test binary.

use chebymc::exec::parse::parse_program;
use chebymc::exec::wcet::analyze;
use chebymc::exp::catalog::{self, CatalogOptions};
use chebymc::exp::spec::{CampaignSpec, PointSpec, WorkUnit};
use chebymc::exp::store::ResumeInfo;
use chebymc::exp::UnitRunner;
use chebymc::exp::{run_campaign, ExpError, Metric, RunConfig, Store, UnitRecord};
use chebymc::fault::{assert_prop, FaultRng, PropConfig};
use chebymc::lint::LintBundle;
use chebymc::obs::summary::TraceSummary;
use chebymc::obs::ObsError;
use chebymc::serve::{
    read_frame, run_worker, write_frame, AddrSource, Coordinator, CoordinatorConfig, Message,
    RunnerFactory, ServeError, WorkerConfig,
};
use chebymc::task::workload::Workload;
use chebymc::task::TaskError;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

/// One raw edit: a kind, a position and an argument. Every triple maps to
/// a valid edit, so shrinking an edit list never leaves the domain.
type Edit = (u64, u64, u64);

/// One to eight raw edits.
fn edits(rng: &mut FaultRng) -> Vec<Edit> {
    let n = rng.range_u64(1, 8);
    (0..n)
        .map(|_| (rng.next_u64(), rng.next_u64(), rng.next_u64()))
        .collect()
}

/// Applies `edits` to `base` in order. A nesting run repeats `opener`
/// 1 to 8 192 times: far past every parser's depth limit, and deep enough
/// to overflow the stack of an uncapped recursive parser.
fn mutate(base: &[u8], edits: &[Edit], opener: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for &(kind, at, arg) in edits {
        let at = (at % (bytes.len() as u64 + 1)) as usize;
        match kind % 5 {
            0 if at < bytes.len() => bytes[at] ^= 1 << (arg % 8),
            1 => bytes.insert(at, arg as u8),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            4 => {
                let run = opener.repeat(1 << (arg % 14));
                bytes.splice(at..at, run);
            }
            _ => {}
        }
    }
    bytes
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn wire_frames_fail_cleanly() {
    let spec = catalog::build("table2", &CatalogOptions::default())
        .unwrap()
        .spec;
    let unit = spec.unit(0);
    let messages = [
        Message::Hello {
            worker: "w0".into(),
            threads: 1,
        },
        Message::Submit { spec },
        Message::Record {
            lease: 0,
            record: UnitRecord {
                unit: unit.index,
                point: unit.point,
                replica: unit.replica,
                seed: unit.seed,
                metrics: vec![Metric::new("value", 0.5)],
            },
        },
        Message::Heartbeat,
    ];
    let payloads: Vec<String> = messages
        .iter()
        .map(|m| serde_json::to_string(m).unwrap())
        .collect();
    assert_prop(
        &PropConfig::named("wire-frames").cases(1000),
        // Payload edits keep a matching length prefix, so nested JSON
        // reaches the parser; stream edits break the framing itself.
        |rng| (edits(rng), edits(rng)),
        |(payload_edits, stream_edits)| {
            let mut stream = Vec::new();
            for payload in &payloads {
                let payload = mutate(payload.as_bytes(), payload_edits, b"[");
                stream.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
                stream.extend_from_slice(&payload);
                stream.push(b'\n');
            }
            let stream = mutate(&stream, stream_edits, b"[");
            let mut r = &stream[..];
            while let Ok(Some(_)) = read_frame(&mut r) {}
            Ok(())
        },
    );
}

/// A connection registers one worker: a repeated `Hello` closes it, and
/// the registration's lease is reclaimed at once, not when the heartbeat
/// sweeper would time it out.
#[test]
fn a_second_hello_closes_the_connection_and_reclaims_its_lease() {
    struct SeedFactory;
    impl RunnerFactory for SeedFactory {
        fn runner_for(
            &self,
            _spec: &CampaignSpec,
        ) -> Result<Box<dyn UnitRunner + Send + Sync>, ExpError> {
            Ok(Box::new(|unit: &WorkUnit, _inner: usize| {
                Ok(vec![Metric::new("seed", (unit.seed % 1000) as f64)])
            }))
        }
    }
    let spec = CampaignSpec {
        name: "double-hello".into(),
        seed: 3,
        params: vec![],
        points: vec![PointSpec::new("p", vec![])],
        replicas: 8,
    };
    let coordinator = Coordinator::bind(
        CoordinatorConfig {
            leases: 4,
            heartbeat_timeout: Duration::from_secs(2),
            ..CoordinatorConfig::default()
        },
        Box::new(|spec: &CampaignSpec| Ok((Store::in_memory(spec), ResumeInfo::default()))),
    )
    .unwrap();
    coordinator.preload(&spec).unwrap();
    let addr = coordinator.local_addr().to_string();
    let (seen, outcome) = std::thread::scope(|t| {
        let run = t.spawn(|| coordinator.run());
        let mut conn = TcpStream::connect(&addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let hello = Message::Hello {
            worker: "twice".into(),
            threads: 1,
        };
        write_frame(&mut conn, &hello).unwrap();
        write_frame(&mut conn, &hello).unwrap();
        // Until the coordinator closes the connection (or, if it keeps it
        // open, until the read times out).
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut seen = Vec::new();
        while let Ok(Some(msg)) = read_frame(&mut reader) {
            seen.push(msg);
        }
        drop((reader, conn));
        let cfg = WorkerConfig::default();
        let worker = run_worker(&AddrSource::Fixed(addr.clone()), &cfg, &SeedFactory).unwrap();
        assert_eq!(worker.records, 8);
        (seen, run.join().unwrap().unwrap())
    });
    assert!(
        matches!(
            seen.as_slice(),
            [
                Message::Welcome { worker_id: 0 },
                Message::Assign { lease: 0, .. }
            ]
        ),
        "{seen:?}"
    );
    assert!(outcome.completed);
    assert_eq!(
        outcome.reclaims, 1,
        "lease 0 went back when the socket closed"
    );
}

#[test]
fn workload_json_fails_cleanly() {
    let fixtures = [
        include_str!("../fixtures/synthetic_u075.json"),
        include_str!("../fixtures/automotive_u070_seed1.json"),
    ];
    assert_prop(
        &PropConfig::named("workload-json").cases(2000),
        edits,
        |edits| {
            for fixture in fixtures {
                let _ = Workload::load_json(&text(&mutate(fixture.as_bytes(), edits, b"[")));
            }
            Ok(())
        },
    );
}

/// `\u` escapes that must fail: a high surrogate followed by another high
/// surrogate (an unchecked subtraction overflows on it), by anything but
/// a low half, and a sign where a hex digit belongs (`from_str_radix`
/// takes one).
const BAD_ESCAPES: [&str; 3] = [r"\uDBFF\uDBFF", r"\uD800\uDBFF", r"\u+041"];

#[test]
fn bad_unicode_escapes_fail_cleanly() {
    let fixture = include_str!("../fixtures/synthetic_u075.json");
    let named = |escape: &str| {
        fixture.replacen(
            "\"name\": \"synthetic-",
            &format!("\"name\": \"synthetic{escape}-"),
            1,
        )
    };
    let frame = |escape: &str| {
        let payload = format!(r#"{{"Hello":{{"worker":"w{escape}","threads":1}}}}"#);
        format!("{}\n{payload}\n", payload.len())
    };
    // The same spots take a sound escape.
    assert_eq!(
        Workload::load_json(&named(r"\u0041")).unwrap().name,
        "syntheticA-u0.75-seed2026"
    );
    assert_eq!(
        read_frame(&mut frame(r"\uDBFF\uDFFF").as_bytes()).unwrap(),
        Some(Message::Hello {
            worker: "w\u{10FFFF}".into(),
            threads: 1
        })
    );
    for escape in BAD_ESCAPES {
        assert!(
            matches!(
                Workload::load_json(&named(escape)),
                Err(TaskError::InvalidGeneratorConfig { .. })
            ),
            "{escape}"
        );
        assert!(
            matches!(
                read_frame(&mut frame(escape).as_bytes()),
                Err(ServeError::Protocol(_))
            ),
            "{escape}"
        );
    }
}

/// Raw control characters a string must escape (RFC 8259 §7).
const RAW_CONTROLS: [&str; 3] = ["\u{0}", "\u{1}", "\u{1f}"];

/// Numbers outside RFC 8259's grammar (leading zeros, a fraction without
/// digits) or beyond `f64`'s range.
const BAD_NUMBERS: [&str; 7] = ["01", "-01", "00", "1.", "1.e5", "1e999", "-1e999"];

/// `text` with the value after the first `key` replaced by `value`.
fn with_first_value(text: &str, key: &str, value: &str) -> String {
    let at = text.find(key).unwrap() + key.len();
    let end = at + text[at..].find([',', '}']).unwrap();
    format!("{}{value}{}", &text[..at], &text[end..])
}

/// A store, a wire frame and a workload that break RFC 8259 fail to
/// parse: each case puts a raw control character into a string, or a
/// malformed number where a number stands.
#[test]
fn rfc_8259_laxities_are_refused() {
    let workload = include_str!("../fixtures/synthetic_u075.json");
    let framed = |payload: &str| format!("{}\n{payload}\n", payload.len());
    let record = |value: &str| {
        framed(&format!(
            r#"{{"Record":{{"lease":0,"record":{{"unit":0,"point":0,"replica":0,"seed":1,"metrics":[{{"name":"m","value":{value}}}]}}}}}}"#
        ))
    };
    let hello = |worker: &str| {
        framed(&format!(
            r#"{{"Hello":{{"worker":"{worker}","threads":1}}}}"#
        ))
    };
    let tiny = CatalogOptions {
        sets: Some(2),
        points: Some(vec![0.8]),
        ..CatalogOptions::default()
    };
    let c = catalog::build("policy_arena", &tiny).unwrap();
    let submit = serde_json::to_string(&Message::Submit {
        spec: c.spec.clone(),
    })
    .unwrap();
    let mut store = Store::in_memory(&c.spec);
    run_campaign(
        &c.spec,
        c.runner.as_ref(),
        &mut store,
        &RunConfig::default(),
    )
    .unwrap();
    let lines = store.canonical_lines();
    let (header, records) = lines.split_once('\n').unwrap();
    let path = std::env::temp_dir().join(format!("chebymc-rfc8259-{}.jsonl", std::process::id()));
    // Every edit lands in the first record, so a garbled line is never
    // dropped as a torn tail.
    let load = |edited: String| {
        std::fs::write(&path, format!("{header}\n{edited}")).unwrap();
        Store::load(&path, None)
    };
    let malformed = |e: &ExpError| {
        let ExpError::Store { detail, .. } = e else {
            return false;
        };
        detail.contains("does not parse")
    };
    let bad_json = |w: Result<Workload, TaskError>| {
        let reason = "workload JSON is malformed";
        matches!(w, Err(TaskError::InvalidGeneratorConfig { reason: r }) if r == reason)
    };
    let protocol =
        |m: Result<Option<Message>, ServeError>| matches!(m, Err(ServeError::Protocol(_)));

    // The same spots take sound input.
    assert!(Workload::load_json(workload).is_ok());
    assert!(matches!(
        read_frame(&mut hello("w").as_bytes()),
        Ok(Some(_))
    ));
    assert!(matches!(
        read_frame(&mut record("1e05").as_bytes()),
        Ok(Some(_))
    ));
    assert!(matches!(
        read_frame(&mut framed(&submit).as_bytes()),
        Ok(Some(_))
    ));
    assert_eq!(
        load(records.to_string()).unwrap().records(),
        store.records()
    );
    for raw in RAW_CONTROLS {
        let named = workload.replacen("synthetic-", &format!("synthetic{raw}-"), 1);
        assert!(bad_json(Workload::load_json(&named)), "{raw:?}");
        assert!(
            protocol(read_frame(&mut hello(&format!("w{raw}")).as_bytes())),
            "{raw:?}"
        );
        let stored = load(records.replacen(r#""name":""#, &format!(r#""name":"{raw}"#), 1));
        assert!(stored.as_ref().is_err_and(malformed), "{raw:?}: {stored:?}");
    }
    for number in BAD_NUMBERS {
        let acet = with_first_value(workload, r#""acet": "#, number);
        assert!(bad_json(Workload::load_json(&acet)), "{number}");
        assert!(
            protocol(read_frame(&mut record(number).as_bytes())),
            "{number}"
        );
        let stored = load(with_first_value(records, r#""value":"#, number));
        assert!(
            stored.as_ref().is_err_and(malformed),
            "{number}: {stored:?}"
        );
        let spec = with_first_value(&submit, r#""value":"#, number);
        assert!(
            protocol(read_frame(&mut framed(&spec).as_bytes())),
            "{number}"
        );
    }
    // A repeated field is refused, as upstream's derive refuses it, where
    // a lookup by key would read the first value and drop the second.
    let renamed = workload.replacen(r#""description": "#, r#""name": "x", "description": "#, 1);
    assert!(bad_json(Workload::load_json(&renamed)));
    let twice = framed(r#"{"Hello":{"worker":"w","threads":1,"threads":2}}"#);
    assert!(protocol(read_frame(&mut twice.as_bytes())));
    let reseeded = load(records.replacen(r#""metrics":"#, r#""seed":7,"metrics":"#, 1));
    assert!(reseeded.as_ref().is_err_and(malformed), "{reseeded:?}");
    let recounted =
        "{\"k\":\"meta\",\"schema\":1}\n{\"k\":\"ctr\",\"name\":\"c\",\"tid\":0,\"n\":1,\"n\":7}\n";
    assert!(matches!(
        TraceSummary::parse(recounted),
        Err(ObsError::Parse { line: 2, .. })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn hand_edited_profiles_are_refused() {
    let fixture = include_str!("../fixtures/automotive_u070_seed1.json");
    assert!(Workload::load_json(fixture).is_ok());
    let evil = fixture.replacen("\"sigma\": ", "\"sigma\": -", 1);
    assert_ne!(evil, fixture);
    assert!(matches!(
        Workload::load_json(&evil),
        Err(TaskError::InvalidProfile { .. })
    ));
}

#[test]
fn store_files_fail_cleanly() {
    let tiny = CatalogOptions {
        samples: Some(200),
        ..CatalogOptions::default()
    };
    let c = catalog::build("table2", &tiny).unwrap();
    let mut store = Store::in_memory(&c.spec);
    run_campaign(
        &c.spec,
        c.runner.as_ref(),
        &mut store,
        &RunConfig::default(),
    )
    .unwrap();
    let lines = store.canonical_lines();
    let path = std::env::temp_dir().join(format!(
        "chebymc-trust-boundaries-{}.jsonl",
        std::process::id()
    ));
    assert_prop(
        &PropConfig::named("store-files").cases(500),
        edits,
        |edits| {
            std::fs::write(&path, mutate(lines.as_bytes(), edits, b"[")).unwrap();
            let _ = Store::load(&path, None);
            Ok(())
        },
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn prog_sources_fail_cleanly() {
    let fixtures = [
        include_str!("../fixtures/image_kernel.prog"),
        include_str!("../fixtures/sort_kernel.prog"),
        include_str!("../fixtures/state_machine.prog"),
    ];
    assert_prop(
        &PropConfig::named("prog-sources").cases(500),
        edits,
        |edits| {
            for fixture in fixtures {
                let mutated = mutate(fixture.as_bytes(), edits, b"loop l 1 bound=1 {");
                if let Ok(program) = parse_program(&text(&mutated)) {
                    let _ = analyze(&program);
                }
            }
            Ok(())
        },
    );
}

/// A lint bundle's CFG is hand-written JSON that the builder never
/// checked: mutations of the defect fixture fail to parse or lint, and a
/// graph whose entry, exit or `succ` rows do not fit its node list fails
/// to parse instead of panicking the pass.
#[test]
fn lint_bundles_fail_cleanly() {
    let fixture = include_str!("../fixtures/lint_defects.json");
    let node = r#"{"name":"n","cost":1,"loop_bound":null,"alive":true}"#;
    let past_end = [
        fixture.replacen(r#""entry": 0"#, r#""entry": 8"#, 1),
        fixture.replacen(r#""exit": 3"#, r#""exit": 9"#, 1),
        format!(
            r#"{{"cfg":{{"nodes":[{node},{node}],"succ":[[1]],"pred":[[],[0]],"entry":0,"exit":1}}}}"#
        ),
    ];
    assert!(LintBundle::from_json(fixture).is_ok());
    for bundle in &past_end {
        assert_ne!(bundle, fixture);
        if let Ok(parsed) = LintBundle::from_json(bundle) {
            panic!(
                "{bundle} parsed and linted: {}",
                parsed.lint().render_human()
            );
        }
    }
    assert_prop(
        &PropConfig::named("lint-bundles").cases(1000),
        edits,
        |edits| {
            let mutated = text(&mutate(fixture.as_bytes(), edits, b"["));
            if let Ok(bundle) = LintBundle::from_json(&mutated) {
                let _ = bundle.lint();
            }
            Ok(())
        },
    );
}

/// Every trace integer is read exactly: a negative, fractional,
/// exponent-form or out-of-range value, a bucket index past the last
/// bucket, and a total past `u64::MAX` each fail with the 1-based line
/// that holds them.
#[test]
fn trace_integers_out_of_range_are_refused() {
    const MAX: &str = "18446744073709551615";
    let trace = |lines: &[&str]| format!("{{\"k\":\"meta\",\"schema\":1}}\n{}\n", lines.join("\n"));
    let ctr = |n: &str| format!(r#"{{"k":"ctr","name":"c","tid":0,"n":{n}}}"#);
    let hist = |bucket: &str| format!(r#"{{"k":"hist","name":"h","tid":0,"buckets":[{bucket}]}}"#);
    let span = |t1: &str| format!(r#"{{"k":"span","name":"s","tid":0,"t0":0,"t1":{t1}}}"#);

    let sound = trace(&[&ctr(MAX), &hist("[63,2]"), &span("7")]);
    let summary = TraceSummary::parse(&sound).unwrap();
    assert_eq!(summary.counter_total("c"), u64::MAX);
    assert_eq!(summary.hists[0].buckets[63], 2);
    assert_eq!(summary.span_total_ns("s"), 7);

    let cases = [
        (trace(&[&ctr("1e19"), &ctr("1e19")]), 2),
        (trace(&[&ctr(MAX), &ctr("1")]), 3),
        (trace(&[&ctr("18446744073709551616")]), 2),
        (trace(&[&ctr("-5")]), 2),
        (trace(&[&ctr("2.9")]), 2),
        (trace(&[&hist("[-1,1]")]), 2),
        (trace(&[&hist("[0.5,1]")]), 2),
        (trace(&[&hist("[64,1]")]), 2),
        (trace(&[&hist(&format!("[0,{MAX}],[1,1]"))]), 2),
        (trace(&[&span("1e300")]), 2),
        ("{\"k\":\"meta\",\"schema\":1.5}\n".to_owned(), 1),
    ];
    for (text, want) in cases {
        match TraceSummary::parse(&text) {
            Err(ObsError::Parse { line, .. }) => assert_eq!(line, want, "{text}"),
            other => panic!("{text} parsed as {other:?}"),
        }
    }
}

/// A trace line is RFC 8259 JSON: a leading zero, a raw control
/// character in a name, a lone surrogate escape and a fraction without
/// digits (here in a field no kind reads) each fail with their line.
#[test]
fn trace_json_laxities_are_refused() {
    let trace = |line: &str| format!("{{\"k\":\"meta\",\"schema\":1}}\n{line}\n");
    let ctr =
        |name: &str, rest: &str| format!(r#"{{"k":"ctr","name":"{name}","tid":0,"n":7{rest}}}"#);
    let sound = TraceSummary::parse(&trace(&ctr("c", r#","x":1.5"#))).unwrap();
    assert_eq!(sound.counter_total("c"), 7);
    for line in [
        ctr("c", "").replace(":7", ":007"),
        ctr("c\u{1}", ""),
        ctr(r"c\ud800", ""),
        ctr("c", r#","x":1."#),
    ] {
        match TraceSummary::parse(&trace(&line)) {
            Err(ObsError::Parse { line: 2, .. }) => {}
            other => panic!("{line} parsed as {other:?}"),
        }
    }
}

/// The trace schema has three event kinds; a `val` line, a kind the sink
/// no longer writes, fails with the line that holds it.
#[test]
fn a_val_trace_line_is_refused() {
    let text = concat!(
        "{\"k\":\"meta\",\"schema\":1}\n",
        "{\"k\":\"span\",\"name\":\"s\",\"tid\":0,\"t0\":0,\"t1\":7}\n",
        "{\"k\":\"val\",\"name\":\"ga.gen_best\",\"tid\":0,\"t\":3,\"v\":0.5}\n",
    );
    match TraceSummary::parse(text) {
        Err(ObsError::Parse { line, reason }) => {
            assert_eq!(line, 3);
            assert!(reason.contains("\"val\""), "{reason}");
        }
        other => panic!("a val line parsed as {other:?}"),
    }
}
