//! The bytes of a trace, pinned: one line of each kind the sink writes,
//! with the key order and the string escapes that readers of the JSONL
//! rely on (perfbench keeps counter lines by their `{"k":"ctr"` prefix).
//! One `#[test]` only, because the mc-obs sink is process-wide state.

use chebymc::obs;

/// `text` with the digits after every `"t0":` and `"t1":` replaced by
/// `T`: span timestamps are the only bytes that vary between runs.
fn mask_timestamps(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = ["\"t0\":", "\"t1\":"]
        .iter()
        .filter_map(|key| rest.find(key).map(|i| i + key.len()))
        .min()
    {
        out.push_str(&rest[..at]);
        out.push('T');
        rest = rest[at..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn trace_lines_are_pinned() {
    let sink = obs::SharedBuffer::new();
    obs::init_writer(Box::new(sink.clone())).unwrap();
    {
        let _span = obs::span("pin.\"quoted\"\\span");
        obs::counter("pin.ctr\\\"", 2);
        obs::counter("pin.ctr\\\"", 3);
        for v in [0.5, 3.0, 2.5, 1500.0] {
            obs::record_f64("pin.hist_ns", v);
        }
    }
    obs::shutdown().unwrap();
    assert_eq!(
        mask_timestamps(&sink.take_string()),
        concat!(
            "{\"k\":\"meta\",\"schema\":1}\n",
            "{\"k\":\"span\",\"name\":\"pin.\\\"quoted\\\"\\\\span\",\"tid\":0,\"t0\":T,\"t1\":T}\n",
            "{\"k\":\"ctr\",\"name\":\"pin.ctr\\\\\\\"\",\"tid\":0,\"n\":5}\n",
            "{\"k\":\"hist\",\"name\":\"pin.hist_ns\",\"tid\":0,\"buckets\":[[0,1],[2,2],[11,1]]}\n",
        )
    );
}
