//! Pins the vendored JSON codec's rules.
//!
//! * Writing: a float prints as `format!("{x}")`, plus `.0` when that text
//!   has no `.`, `e` or `E`, and `null` when it is not finite; an integer
//!   prints as `to_string` prints it. Seeded properties compare the two.
//! * Reading: each case runs through `serde_json::from_str`, a wire frame
//!   (`read_frame`) and a store file (`Store::load`). An unknown key holding
//!   any well-formed value is skipped; the same value made malformed is
//!   refused; an escaped key names its field; an enum object holds one
//!   key; integer text reads as a `u64` if it fits, else as an `i64`, else
//!   as a float; and a number beyond `f64`'s range is refused.

use chebymc::exp::{CampaignSpec, ExpError, Metric, Param, PointSpec, Store, UnitRecord};
use chebymc::fault::FaultRng;
use chebymc::serve::{read_frame, Message, ServeError};

/// How deeply arrays and objects may nest in any document.
const MAX_DEPTH: usize = 128;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// The float text the writer must print.
fn float_rule(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let text = format!("{x}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        text + ".0"
    }
}

fn check_float(x: f64) {
    assert_eq!(
        serde_json::to_string(&x).unwrap(),
        float_rule(x),
        "bits {:#018x}",
        x.to_bits()
    );
}

#[test]
fn floats_print_by_the_display_rule() {
    let mut rng = FaultRng::new(0x6a73_6f6e_636f_6465);
    for _ in 0..200_000 {
        check_float(f64::from_bits(rng.next_u64()));
    }
    // Integers around ±2^53, where `f64` stops holding every integer.
    let two_53 = 1i64 << 53;
    for k in -4096..=4096 {
        for base in [0, two_53, -two_53] {
            check_float((base + k) as f64);
        }
    }
    // Integral floats of every magnitude, and their neighbours.
    for _ in 0..100_000 {
        let n = rng.next_u64() >> rng.below(64);
        for x in [n as f64, -(n as f64)] {
            check_float(x);
            check_float(f64::from_bits(x.to_bits().wrapping_add(1)));
            check_float(f64::from_bits(x.to_bits().wrapping_sub(1)));
        }
    }
    // Signed zeros, subnormals and the decades where `Display` has the
    // most digits to place.
    for x in [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::MAX,
        f64::MIN,
    ] {
        check_float(x);
    }
    for _ in 0..20_000 {
        let sub = f64::from_bits(rng.below(1 << 52));
        check_float(sub);
        check_float(-sub);
    }
    for e in 15..=22 {
        let decade = 10f64.powi(e);
        for m in 1..=999 {
            let x = decade * f64::from(m) / 100.0;
            for y in [x, -x, f64::from_bits(x.to_bits() + 1), x + 0.5] {
                check_float(y);
            }
        }
        check_float(rng.range_f64(decade, decade * 10.0));
    }
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        check_float(x);
    }
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(serde_json::to_string(&1.5f32).unwrap(), "1.5");
}

#[test]
fn integers_print_as_to_string() {
    let mut rng = FaultRng::new(0x696e_7473);
    let mut unsigned = vec![0, u64::MAX, u64::MAX - 1, i64::MAX as u64, 1 << 63];
    let mut signed = vec![i64::MIN, i64::MIN + 1, i64::MAX, -1, 0];
    for p in 0..20 {
        let t = 10u64.pow(p);
        unsigned.extend([t - 1, t, t + 1]);
        if let Ok(t) = i64::try_from(t) {
            signed.extend([t - 1, t, t + 1, 1 - t, -t, -t - 1]);
        }
    }
    for _ in 0..100_000 {
        unsigned.push(rng.next_u64() >> rng.below(64));
        signed.push((rng.next_u64() as i64) >> rng.below(64));
    }
    for n in unsigned {
        assert_eq!(serde_json::to_string(&n).unwrap(), n.to_string());
    }
    for n in signed {
        assert_eq!(serde_json::to_string(&n).unwrap(), n.to_string());
    }
    for (text, n) in [
        (serde_json::to_string(&u8::MAX), u8::MAX.to_string()),
        (serde_json::to_string(&i8::MIN), i8::MIN.to_string()),
        (serde_json::to_string(&u32::MAX), u32::MAX.to_string()),
        (serde_json::to_string(&i32::MIN), i32::MIN.to_string()),
        (serde_json::to_string(&usize::MAX), usize::MAX.to_string()),
        (serde_json::to_string(&isize::MIN), isize::MIN.to_string()),
    ] {
        assert_eq!(text.unwrap(), n);
    }
}

// ---------------------------------------------------------------------------
// Reading: fixtures and the three readers
// ---------------------------------------------------------------------------

fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "codec".into(),
        seed: 11,
        params: vec![Param::new("samples", 300.0), Param::new("tag", -0.5)],
        points: vec![
            PointSpec::new("a/u0.50", vec![Param::new("u", 0.5)]),
            PointSpec::new("b\"q", vec![Param::new("u", 0.75), Param::new("n", 3.0)]),
        ],
        replicas: 2,
    }
}

/// A store file of `spec()` with every unit: the header line, then one
/// line per record.
fn store_lines() -> (String, Vec<String>) {
    let spec = spec();
    let mut store = Store::in_memory(&spec);
    for i in 0..spec.total_units() {
        let unit = spec.unit(i);
        store
            .append(UnitRecord {
                unit: unit.index,
                point: unit.point,
                replica: unit.replica,
                seed: unit.seed,
                metrics: vec![
                    Metric::new("acc", 0.1 * i as f64),
                    Metric::new("n\u{e9}", -(i as f64)),
                    Metric::new("big", 1e21 + i as f64),
                ],
            })
            .unwrap();
    }
    let text = store.canonical_lines();
    let mut lines = text.lines().map(str::to_string);
    let header = lines.next().unwrap();
    (header, lines.collect())
}

/// A `Record` frame's payload around a record line.
fn record_payload(line: &str) -> String {
    format!(r#"{{"Record":{{"lease":3,"record":{line}}}}}"#)
}

fn frame(payload: &str) -> Result<Message, ServeError> {
    let framed = format!("{}\n{payload}\n", payload.len());
    read_frame(&mut framed.as_bytes()).map(|m| m.expect("one whole frame"))
}

/// Loads a store file made of `header` and `records`; each test passes
/// its own `name`, so tests running at once use their own files.
fn load(name: &str, header: &str, records: &[String]) -> Result<Store, ExpError> {
    let path =
        std::env::temp_dir().join(format!("chebymc-codec-{name}-{}.jsonl", std::process::id()));
    let mut text = format!("{header}\n");
    for r in records {
        text.push_str(r);
        text.push('\n');
    }
    std::fs::write(&path, text).unwrap();
    let loaded = Store::load(&path, None);
    let _ = std::fs::remove_file(&path);
    loaded
}

fn does_not_parse(loaded: &Result<Store, ExpError>) -> bool {
    matches!(loaded, Err(ExpError::Store { detail, .. }) if detail.contains("does not parse"))
}

fn protocol(m: &Result<Message, ServeError>) -> bool {
    matches!(m, Err(ServeError::Protocol(_)))
}

/// The byte offsets just past each `{` or `,` that opens an object entry,
/// with the number of containers open there.
fn key_positions(doc: &str) -> Vec<(usize, usize)> {
    let mut stack = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    let mut out = Vec::new();
    for (i, b) in doc.bytes().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => {
                stack.push(b);
                if b == b'{' {
                    out.push((i + 1, stack.len()));
                }
            }
            b'}' | b']' => {
                stack.pop();
            }
            b',' if stack.last() == Some(&b'{') => out.push((i + 1, stack.len())),
            _ => {}
        }
    }
    out
}

/// `doc` with `"junk":value,` inserted at a random entry position at
/// least `min_depth` containers deep; `value` makes the value from the
/// number of levels it may still open there.
fn with_junk(
    doc: &str,
    rng: &mut FaultRng,
    min_depth: usize,
    value: impl FnOnce(&mut FaultRng, usize) -> String,
) -> String {
    let positions: Vec<_> = key_positions(doc)
        .into_iter()
        .filter(|&(_, depth)| depth >= min_depth)
        .collect();
    let (at, depth) = positions[rng.below(positions.len() as u64) as usize];
    let value = value(rng, MAX_DEPTH - depth);
    format!(r#"{}"junk":{value},{}"#, &doc[..at], &doc[at..])
}

/// Strings that use every escape, and keys the readers know.
const STRINGS: [&str; 8] = [
    r#""""#,
    r#""plain""#,
    r#""\" \\ \/ \b \f \n \r \t""#,
    r#""\u0041\u00e9\u20AC \ud83d\ude00 é€😀""#,
    r#""unit""#,
    r#""\u0075nit""#,
    r#""Record""#,
    r#""\u0000\u001f""#,
];

const NUMBERS: [&str; 8] = [
    "0",
    "-0",
    "12",
    "-3.5e-7",
    "1E+2",
    "0.25",
    "18446744073709551616",
    "1e-999",
];

/// A random well-formed JSON value that opens at most `room` containers.
fn junk(rng: &mut FaultRng, room: usize, level: usize, out: &mut String) {
    let pick =
        |rng: &mut FaultRng, xs: &[&str]| xs[rng.below(xs.len() as u64) as usize].to_string();
    match rng.below(if room == 0 { 3 } else { 6 }) {
        0 => out.push_str(&pick(rng, &STRINGS)),
        1 => out.push_str(&pick(rng, &NUMBERS)),
        2 => out.push_str(&pick(rng, &["null", "true", "false"])),
        // Arrays nested up to the cap.
        3 if level >= 2 || rng.bool(0.3) => {
            let n = rng.range_u64(1, room as u64) as usize;
            out.push_str(&"[".repeat(n));
            out.push_str(&"]".repeat(n));
        }
        3 | 4 => {
            out.push('[');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                junk(rng, room - 1, level + 1, out);
            }
            out.push(']');
        }
        _ => {
            // Keys repeat inside an unknown value, and may name fields.
            out.push('{');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&pick(rng, &STRINGS[1..]));
                out.push(':');
                junk(rng, room - 1, level + 1, out);
            }
            out.push('}');
        }
    }
}

fn junk_value(rng: &mut FaultRng, room: usize) -> String {
    let mut out = String::new();
    junk(rng, room, 0, &mut out);
    out
}

/// A malformed value that would open at most `room` containers if it
/// were well formed: a bad escape, a leading zero, a raw U+0001, or
/// nesting one level past the cap.
fn bad_value(rng: &mut FaultRng, room: usize) -> String {
    let flaw = match rng.below(4) {
        0 => r#""bad \q escape""#,
        1 => "01",
        2 => "\"raw \u{1} char\"",
        _ => return format!("{}{}", "[".repeat(room + 1), "]".repeat(room + 1)),
    };
    // Half the time the flaw follows a sound value inside an array.
    if room > 0 && rng.bool(0.5) {
        format!("[{},{flaw}]", junk_value(rng, (room - 1).min(3)))
    } else {
        flaw.to_string()
    }
}

// ---------------------------------------------------------------------------
// Reading: the rules
// ---------------------------------------------------------------------------

#[test]
fn an_unknown_key_with_any_value_is_skipped() {
    let mut rng = FaultRng::new(0x0075_6e6b_6e6f_776e);
    let (header, lines) = store_lines();
    let stored = load("skip-base", &header, &lines).unwrap();
    for case in 0..300 {
        // A record line.
        let at = case % lines.len();
        let line = &lines[at];
        let edited = with_junk(line, &mut rng, 1, junk_value);
        let expected: UnitRecord = serde_json::from_str(line).unwrap();
        assert_eq!(
            serde_json::from_str::<UnitRecord>(&edited).as_ref(),
            Ok(&expected),
            "{edited}"
        );
        // A `Record` frame, anywhere below the variant's tag.
        let payload = record_payload(line);
        let edited_frame = with_junk(&payload, &mut rng, 2, junk_value);
        let message = frame(&edited_frame).unwrap_or_else(|e| panic!("{edited_frame}: {e}"));
        assert_eq!(message, frame(&payload).unwrap());
        // A store header, and the first record line of the store.
        let edited_header = with_junk(&header, &mut rng, 1, junk_value);
        let mut records = lines.clone();
        records[at] = edited.clone();
        let loaded = load("skip", &edited_header, &records)
            .unwrap_or_else(|e| panic!("{edited_header}\n{edited}: {e}"));
        assert_eq!(loaded.header(), stored.header());
        assert_eq!(loaded.records(), stored.records());
    }
}

#[test]
fn the_same_junk_made_malformed_is_refused() {
    let mut rng = FaultRng::new(0x006d_616c_666f_726d);
    let (header, lines) = store_lines();
    for case in 0..200 {
        // Not the last line, which a load drops as a torn tail.
        let at = case % (lines.len() - 1);
        let line = &lines[at];
        let edited = with_junk(line, &mut rng, 1, bad_value);
        assert!(
            serde_json::from_str::<UnitRecord>(&edited).is_err(),
            "{edited}"
        );
        let mut records = lines.clone();
        records[at] = edited.clone();
        let loaded = load("bad-line", &header, &records);
        assert!(does_not_parse(&loaded), "{edited}: {:?}", loaded.err());

        let payload = record_payload(line);
        let edited = with_junk(&payload, &mut rng, 2, bad_value);
        assert!(protocol(&frame(&edited)), "{edited}");

        let edited = with_junk(&header, &mut rng, 1, bad_value);
        let loaded = load("bad-header", &edited, &lines);
        assert!(does_not_parse(&loaded), "{edited}: {:?}", loaded.err());
    }
}

#[test]
fn a_key_repeated_inside_an_unknown_value_is_not_a_duplicate() {
    let (header, lines) = store_lines();
    let line = &lines[0];
    let expected: UnitRecord = serde_json::from_str(line).unwrap();
    let nested = line.replacen(
        r#""seed":"#,
        r#""junk":{"unit":1,"unit":[2],"seed":{"seed":3}},"seed":"#,
        1,
    );
    assert_eq!(serde_json::from_str::<UnitRecord>(&nested), Ok(expected));
    assert_eq!(
        frame(&record_payload(&nested)).unwrap(),
        frame(&record_payload(line)).unwrap()
    );
    let mut records = lines.clone();
    records[0] = nested;
    assert!(load("nested-dup", &header, &records).is_ok());
    // The same key repeated in the record itself is refused.
    let twice = line.replacen(r#""seed":"#, r#""unit":1,"seed":"#, 1);
    assert!(serde_json::from_str::<UnitRecord>(&twice).is_err());
    assert!(protocol(&frame(&record_payload(&twice))));
    records[0] = twice;
    assert!(does_not_parse(&load("dup", &header, &records)));
}

#[test]
fn an_escaped_key_names_its_field() {
    let (header, lines) = store_lines();
    let line = &lines[0];
    let escaped = line.replacen(r#""unit""#, r#""\u0075nit""#, 1);
    assert_ne!(&escaped, line);
    assert_eq!(
        serde_json::from_str::<UnitRecord>(&escaped),
        serde_json::from_str::<UnitRecord>(line)
    );
    let payload = record_payload(line);
    let expected = frame(&payload).unwrap();
    assert_eq!(frame(&record_payload(&escaped)).unwrap(), expected);
    // An escaped variant name selects its variant too.
    let tag = payload.replacen(r#""Record""#, r#""\u0052ecord""#, 1);
    assert_eq!(frame(&tag).unwrap(), expected);
    assert_eq!(frame(r#""\u0048eartbeat""#).unwrap(), Message::Heartbeat);
    let mut records = lines.clone();
    records[0] = escaped;
    let header = header.replacen(r#""spec""#, r#""\u0073pec""#, 1);
    let loaded = load("escaped", &header, &records).unwrap();
    assert_eq!(
        loaded.records(),
        load("plain", &header, &lines).unwrap().records()
    );
}

#[test]
fn an_enum_object_holds_exactly_one_key() {
    let (_, lines) = store_lines();
    let payload = record_payload(&lines[0]);
    assert!(frame(&payload).is_ok());
    let done = r#"{"LeaseDone":{"lease":3}}"#;
    assert_eq!(frame(done).unwrap(), Message::LeaseDone { lease: 3 });
    for two in [
        format!(r#"{}, "Heartbeat":null}}"#, &payload[..payload.len() - 1]),
        r#"{"LeaseDone":{"lease":3},"LeaseDone":{"lease":3}}"#.to_string(),
        r#"{"LeaseDone":{"lease":3},"junk":1}"#.to_string(),
        "{}".to_string(),
    ] {
        assert!(serde_json::from_str::<Message>(&two).is_err(), "{two}");
        assert!(protocol(&frame(&two)), "{two}");
    }
}

#[test]
fn integer_text_reads_as_u64_then_i64_then_f64() {
    let f = |s: &str| serde_json::from_str::<f64>(s);
    let u = |s: &str| serde_json::from_str::<u64>(s);
    let i = |s: &str| serde_json::from_str::<i64>(s);
    // `-0` is the integer 0: +0.0 as a float, refused as unsigned.
    assert_eq!(f("-0").unwrap().to_bits(), 0);
    assert_eq!(f("-0.0").unwrap().to_bits(), (-0.0f64).to_bits());
    assert_eq!(i("-0"), Ok(0));
    assert!(u("-0").is_err());
    for not_u64 in ["1e2", "1.0", "-1", "18446744073709551616"] {
        assert!(u(not_u64).is_err(), "{not_u64}");
    }
    assert_eq!(u("18446744073709551615"), Ok(u64::MAX));
    assert_eq!(f("18446744073709551616"), Ok(1.8446744073709552e19));
    assert_eq!(i("-9223372036854775808"), Ok(i64::MIN));
    assert!(i("-9223372036854775809").is_err());
    assert!(i("9223372036854775808").is_err());
    assert_eq!(f("-9223372036854775809"), Ok(-9.223372036854776e18));
    assert_eq!(f("9007199254740993"), Ok(9007199254740992.0));
    assert_eq!(serde_json::from_str::<u8>("255"), Ok(255));
    assert!(serde_json::from_str::<u8>("256").is_err());

    // The same readings in a frame and a store line.
    let (header, lines) = store_lines();
    let line = &lines[0];
    let zero = line.replacen(r#""value":0.0"#, r#""value":-0"#, 1);
    assert_ne!(&zero, line);
    let Message::Record { record, .. } = frame(&record_payload(&zero)).unwrap() else {
        panic!("a Record frame");
    };
    assert_eq!(record.metrics[0].value.to_bits(), 0);
    let mut records = lines.clone();
    records[0] = zero;
    let loaded = load("zero", &header, &records).unwrap();
    assert_eq!(loaded.records()[0].metrics[0].value.to_bits(), 0);
    let wide = line.replacen(r#""value":0.0"#, r#""value":18446744073709551616"#, 1);
    let Message::Record { record, .. } = frame(&record_payload(&wide)).unwrap() else {
        panic!("a Record frame");
    };
    assert_eq!(record.metrics[0].value, 1.8446744073709552e19);
    for unit in ["-0", "0.0", "0e0", "18446744073709551616"] {
        let bad = line.replacen(r#""unit":0"#, &format!(r#""unit":{unit}"#), 1);
        assert_ne!(&bad, line);
        assert!(serde_json::from_str::<UnitRecord>(&bad).is_err(), "{unit}");
        assert!(protocol(&frame(&record_payload(&bad))), "{unit}");
        records[0] = bad;
        assert!(does_not_parse(&load("unit", &header, &records)), "{unit}");
    }
}

/// Upstream serde_json refuses a number beyond `f64`'s range ("number out
/// of range") and reads an underflow as zero.
#[test]
fn a_number_beyond_f64_is_refused() {
    for text in ["1e999", "-1e999", "1e309", "179769313486231580000e289"] {
        assert!(serde_json::from_str::<f64>(text).is_err(), "{text}");
        assert!(
            serde_json::from_str::<serde_json::Value>(text).is_err(),
            "{text}"
        );
        assert!(serde_json::from_str::<u64>(text).is_err(), "{text}");
    }
    assert!(serde_json::from_str::<f64>(&format!("1{}", "0".repeat(309))).is_err());
    assert_eq!(serde_json::from_str::<f64>("1e-999"), Ok(0.0));
    assert_eq!(
        serde_json::from_str::<f64>("1.7976931348623157e308"),
        Ok(f64::MAX)
    );

    let (header, lines) = store_lines();
    let line = &lines[0];
    for value in ["1e999", "-1e999"] {
        let huge = line.replacen(r#""value":0.0"#, &format!(r#""value":{value}"#), 1);
        assert!(protocol(&frame(&record_payload(&huge))), "{value}");
        let mut records = lines.clone();
        records[0] = huge;
        assert!(does_not_parse(&load("huge", &header, &records)), "{value}");
        let spec = header.replacen(r#""value":300.0"#, &format!(r#""value":{value}"#), 1);
        assert!(does_not_parse(&load("huge-spec", &spec, &lines)), "{value}");
    }
    let tiny = line.replacen(r#""value":0.0"#, r#""value":1e-999"#, 1);
    assert!(frame(&record_payload(&tiny)).is_ok());
}
