//! Pins the serializer's bytes: compact `UnitRecord` lines, one wire
//! frame per `Message` variant, a `StoreHeader`, pretty JSON, and the
//! fingerprint of every catalog campaign. A store line, a frame or a
//! fingerprint that drifts by one byte re-keys every store and makes every
//! resume refuse its file, so each expected string here is literal.
//!
//! A seeded property adds that `from_str(&to_string(&r))` returns every
//! finite record bit for bit.

use chebymc::exp::catalog::{self, CatalogOptions};
use chebymc::exp::{
    CampaignSpec, Metric, Param, PointSpec, StoreHeader, UnitRecord, SCHEMA_VERSION,
};
use chebymc::fault::{assert_prop, FaultRng, PropConfig};
use chebymc::serve::{write_frame, Message};

/// Floats whose shortest forms run long, short, negative-zero and subnormal.
const VALUES: [f64; 7] = [1.0, -0.0, 0.1, 1e21, 1e-7, 5e-324, f64::MAX];

/// Names that need every escape, and one that needs none beyond UTF-8.
const NAMES: [&str; 8] = [
    "quote\"d",
    "back\\slash",
    "new\nline",
    "tab\there",
    "\u{1}",
    "\u{1f}",
    "cr\r bs\u{8} ff\u{c}",
    "ünïcødé €😀",
];

fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "pin".into(),
        seed: 7,
        params: vec![Param::new("samples", 300.0)],
        points: vec![
            PointSpec::new("a/u0.50", vec![Param::new("u", 0.5), Param::new("n", 3.0)]),
            PointSpec::new("b", vec![]),
        ],
        replicas: 2,
    }
}

/// Record `i` carries `VALUES[i]` under `NAMES[i]` and its negation under
/// the non-ASCII name.
fn records() -> Vec<UnitRecord> {
    VALUES
        .iter()
        .enumerate()
        .map(|(i, &v)| UnitRecord {
            unit: i,
            point: i / 2,
            replica: i % 2,
            seed: u64::MAX - i as u64,
            metrics: vec![Metric::new(NAMES[i], v), Metric::new(NAMES[7], -v)],
        })
        .collect()
}

/// `5e-324` and `f64::MAX` in the positional notation the serializer
/// prints for every float.
fn tiny() -> String {
    format!("0.{}5", "0".repeat(323))
}

fn max() -> String {
    format!("17976931348623157{}.0", "0".repeat(292))
}

#[test]
fn record_lines_are_pinned() {
    let n = NAMES[7];
    let expected = [
        format!(
            r#"{{"unit":0,"point":0,"replica":0,"seed":18446744073709551615,"metrics":[{{"name":"quote\"d","value":1.0}},{{"name":"{n}","value":-1.0}}]}}"#
        ),
        format!(
            r#"{{"unit":1,"point":0,"replica":1,"seed":18446744073709551614,"metrics":[{{"name":"back\\slash","value":-0.0}},{{"name":"{n}","value":0.0}}]}}"#
        ),
        format!(
            r#"{{"unit":2,"point":1,"replica":0,"seed":18446744073709551613,"metrics":[{{"name":"new\nline","value":0.1}},{{"name":"{n}","value":-0.1}}]}}"#
        ),
        format!(
            r#"{{"unit":3,"point":1,"replica":1,"seed":18446744073709551612,"metrics":[{{"name":"tab\there","value":1000000000000000000000.0}},{{"name":"{n}","value":-1000000000000000000000.0}}]}}"#
        ),
        format!(
            r#"{{"unit":4,"point":2,"replica":0,"seed":18446744073709551611,"metrics":[{{"name":"\u0001","value":0.0000001}},{{"name":"{n}","value":-0.0000001}}]}}"#
        ),
        format!(
            r#"{{"unit":5,"point":2,"replica":1,"seed":18446744073709551610,"metrics":[{{"name":"\u001f","value":{t}}},{{"name":"{n}","value":-{t}}}]}}"#,
            t = tiny()
        ),
        format!(
            r#"{{"unit":6,"point":3,"replica":0,"seed":18446744073709551609,"metrics":[{{"name":"cr\r bs\b ff\f","value":{m}}},{{"name":"{n}","value":-{m}}}]}}"#,
            m = max()
        ),
    ];
    for (record, expected) in records().iter().zip(&expected) {
        assert_eq!(&serde_json::to_string(record).unwrap(), expected);
    }
}

#[test]
fn frames_are_pinned() {
    let s = spec();
    let spec_json = r#"{"name":"pin","seed":7,"params":[{"name":"samples","value":300.0}],"points":[{"label":"a/u0.50","params":[{"name":"u","value":0.5},{"name":"n","value":3.0}]},{"label":"b","params":[]}],"replicas":2}"#;
    let record_json = serde_json::to_string(&records()[6]).unwrap();
    let cases = [
        (
            Message::Hello {
                worker: "w0".into(),
                threads: 2,
            },
            r#"37
{"Hello":{"worker":"w0","threads":2}}
"#
            .to_string(),
        ),
        (
            Message::Welcome {
                worker_id: u64::MAX,
            },
            r#"46
{"Welcome":{"worker_id":18446744073709551615}}
"#
            .to_string(),
        ),
        (
            Message::Submit { spec: s.clone() },
            format!("218\n{{\"Submit\":{{\"spec\":{spec_json}}}}}\n"),
        ),
        (
            Message::Accepted {
                fingerprint: s.fingerprint(),
                total_units: 4,
                completed: 1,
            },
            r#"77
{"Accepted":{"fingerprint":"c956310d1aa2cb14","total_units":4,"completed":1}}
"#
            .to_string(),
        ),
        (
            Message::Rejected {
                reason: "busy: \"other\" campaign".into(),
            },
            r#"50
{"Rejected":{"reason":"busy: \"other\" campaign"}}
"#
            .to_string(),
        ),
        (
            Message::Assign {
                lease: 3,
                spec: s,
                shard_index: 1,
                shard_count: 2,
                done: vec![1, 3],
            },
            format!(
                "273\n{{\"Assign\":{{\"lease\":3,\"spec\":{spec_json},\"shard_index\":1,\"shard_count\":2,\"done\":[1,3]}}}}\n"
            ),
        ),
        (
            Message::Record {
                lease: 3,
                record: records().remove(6),
            },
            format!("802\n{{\"Record\":{{\"lease\":3,\"record\":{record_json}}}}}\n"),
        ),
        (
            Message::LeaseDone { lease: 3 },
            "25\n{\"LeaseDone\":{\"lease\":3}}\n".to_string(),
        ),
        (Message::Heartbeat, "11\n\"Heartbeat\"\n".to_string()),
        (Message::Shutdown, "10\n\"Shutdown\"\n".to_string()),
    ];
    for (msg, expected) in cases {
        let mut frame = Vec::new();
        write_frame(&mut frame, &msg).unwrap();
        assert_eq!(String::from_utf8(frame).unwrap(), expected, "{msg:?}");
    }
}

#[test]
fn store_header_is_pinned() {
    let s = spec();
    let header = StoreHeader {
        schema_version: SCHEMA_VERSION,
        fingerprint: s.fingerprint(),
        spec: s,
    };
    assert_eq!(
        serde_json::to_string(&header).unwrap(),
        r#"{"schema_version":1,"fingerprint":"c956310d1aa2cb14","spec":{"name":"pin","seed":7,"params":[{"name":"samples","value":300.0}],"points":[{"label":"a/u0.50","params":[{"name":"u","value":0.5},{"name":"n","value":3.0}]},{"label":"b","params":[]}],"replicas":2}}"#
    );
}

#[test]
fn pretty_json_is_pinned() {
    let tree: serde_json::Value = serde_json::from_str(
        r#"{"a":[],"b":{},"c":[1,-2,[3.5,{}],{"d":[[]],"e":"x\ny"}],"f":{"g":{"h":null,"i":true}},"j":false}"#,
    )
    .unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&tree).unwrap(),
        r#"{
  "a": [],
  "b": {},
  "c": [
    1,
    -2,
    [
      3.5,
      {}
    ],
    {
      "d": [
        []
      ],
      "e": "x\ny"
    }
  ],
  "f": {
    "g": {
      "h": null,
      "i": true
    }
  },
  "j": false
}"#
    );
    assert_eq!(
        serde_json::to_string_pretty(&spec()).unwrap(),
        r#"{
  "name": "pin",
  "seed": 7,
  "params": [
    {
      "name": "samples",
      "value": 300.0
    }
  ],
  "points": [
    {
      "label": "a/u0.50",
      "params": [
        {
          "name": "u",
          "value": 0.5
        },
        {
          "name": "n",
          "value": 3.0
        }
      ]
    },
    {
      "label": "b",
      "params": []
    }
  ],
  "replicas": 2
}"#
    );
}

#[test]
fn catalog_fingerprints_are_pinned() {
    let expected = [
        ("table1", "b082849503d5c20a"),
        ("table2", "0414c536d6d81e21"),
        ("fig1", "083c662572373a2a"),
        ("fig2", "8a1108ef6c4d5f4c"),
        ("fig3", "667fc38820690668"),
        ("fig4", "c2ff4d765932c5df"),
        ("fig5", "390eb6960b314a70"),
        ("fig6", "51d2b19ff2f8974f"),
        ("runtime", "ee5ef1ed4e13ab6c"),
        ("ablation_optimizers", "2945e3bf4eb46a0b"),
        ("ablation_constraints", "975ce91c756ca9fe"),
        ("ablation_distributions", "096094a14ad23e22"),
        ("ablation_evt", "47f16bb34a351c93"),
        ("ablation_sigma", "d7874a14a8be6f90"),
        ("ablation_noise", "70e88500aa4bdda9"),
        ("convergence", "bc2a0ff1b5c8f86e"),
        ("convergence_population", "9d5b7efa158f0000"),
        ("multi_sweep", "da05294f14b0711c"),
        ("multi_runtime", "bce866a226663cc1"),
        ("policy_arena", "ca6b41203908c53e"),
        ("automotive", "211f089ab4e45a6d"),
    ];
    let got: Vec<(&str, String)> = catalog::names()
        .map(|name| {
            let c = catalog::build(name, &CatalogOptions::default()).unwrap();
            (name, c.spec.fingerprint())
        })
        .collect();
    let expected: Vec<(&str, String)> = expected
        .iter()
        .map(|&(name, fp)| (name, fp.to_string()))
        .collect();
    assert_eq!(got, expected);
}

/// A string of up to 12 characters drawn from escapes, ASCII and
/// multi-byte UTF-8.
fn name(rng: &mut FaultRng) -> String {
    const CHARS: [char; 12] = [
        'a', 'Z', '0', '"', '\\', '\n', '\u{0}', '\u{1f}', '\u{7f}', 'é', '€', '😀',
    ];
    (0..rng.below(13))
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
        .collect()
}

/// Any finite `f64`, from its bits.
fn finite(rng: &mut FaultRng) -> f64 {
    loop {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            return x;
        }
    }
}

#[test]
fn finite_records_round_trip_bit_for_bit() {
    assert_prop(
        &PropConfig::named("record-round-trip").cases(500),
        |rng| rng.next_u64(),
        |&seed| {
            let mut rng = FaultRng::new(seed);
            let record = UnitRecord {
                unit: rng.next_u64() as usize,
                point: rng.below(1 << 20) as usize,
                replica: rng.below(1 << 20) as usize,
                seed: rng.next_u64(),
                metrics: (0..rng.below(6))
                    .map(|_| Metric::new(name(&mut rng), finite(&mut rng)))
                    .collect(),
            };
            let text = serde_json::to_string(&record).map_err(|e| e.to_string())?;
            let back: UnitRecord = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            let bits = |r: &UnitRecord| -> Vec<(String, u64)> {
                r.metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.value.to_bits()))
                    .collect()
            };
            if (back.unit, back.point, back.replica, back.seed)
                != (record.unit, record.point, record.replica, record.seed)
                || bits(&back) != bits(&record)
            {
                return Err(format!("{text} read back as {back:?}"));
            }
            Ok(())
        },
    );
}
