//! Trace aggregation: parse a JSONL trace back into per-stage statistics.
//!
//! The parser is a minimal recursive-descent JSON reader covering exactly
//! the subset the sink emits (flat objects of strings, numbers and arrays
//! of numbers) — the crate stays dependency-free in both directions.
//! [`TraceSummary`] backs both `chebymc trace summary` and the `ga_perf`
//! stage breakdown.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::{bucket_floor, ObsError, HIST_BUCKETS, TRACE_SCHEMA_VERSION};

/// Aggregated statistics for one span name.
#[derive(Debug, Clone)]
pub struct SpanStat {
    /// Span name as recorded.
    pub name: String,
    /// Number of recorded intervals.
    pub count: u64,
    /// Sum of `t1 - t0` over all intervals, in nanoseconds.
    pub total_ns: u64,
    /// Shortest interval, ns.
    pub min_ns: u64,
    /// Longest interval, ns.
    pub max_ns: u64,
    /// Trace-local thread ids that recorded this span.
    pub tids: BTreeSet<u64>,
}

/// Aggregated total for one counter name.
#[derive(Debug, Clone)]
pub struct CounterStat {
    /// Counter name as recorded.
    pub name: String,
    /// Sum over all threads and flushes.
    pub total: u64,
}

/// Merged log-scale histogram for one name.
#[derive(Debug, Clone)]
pub struct HistStat {
    /// Histogram name as recorded.
    pub name: String,
    /// Total sample count across all buckets.
    pub count: u64,
    /// Per-bucket counts; see [`crate::bucket_index`] for the layout.
    pub buckets: Box<[u64; HIST_BUCKETS]>,
}

impl HistStat {
    /// Lower edge of the bucket where the cumulative count first reaches
    /// quantile `q` (clamped to `[0, 1]`). `0.0` for an empty histogram.
    #[must_use]
    pub fn quantile_floor(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "q is clamped to [0, 1], so the rounded-up product lies in [1, count]"
        )]
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_floor(i);
            }
        }
        bucket_floor(HIST_BUCKETS - 1)
    }
}

/// A fully aggregated trace: what `chebymc trace summary` prints.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Schema version from the `meta` header.
    pub schema: u64,
    /// Number of event records (everything except `meta` lines).
    pub events: u64,
    /// Per-span aggregates, sorted by descending total time.
    pub spans: Vec<SpanStat>,
    /// Counter totals, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Histogram aggregates, sorted by name.
    pub hists: Vec<HistStat>,
    /// Earliest timestamp observed in the trace, ns.
    pub t_min: u64,
    /// Latest timestamp observed in the trace, ns.
    pub t_max: u64,
}

impl TraceSummary {
    /// Wall-clock extent covered by the trace's timestamps, ns.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.t_max.saturating_sub(self.t_min)
    }

    /// Number of recorded intervals for span `name` (0 if absent).
    #[must_use]
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.count)
    }

    /// Total nanoseconds spent in span `name` (0 if absent).
    #[must_use]
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.total_ns)
    }

    /// Total for counter `name` (0 if absent).
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.total)
    }

    /// Parses a JSONL trace produced by this crate's sink.
    ///
    /// The trace must carry a `meta` record with the current
    /// [`TRACE_SCHEMA_VERSION`]; unknown record kinds are rejected so
    /// schema drift fails loudly instead of silently dropping data.
    ///
    /// # Errors
    ///
    /// [`ObsError::Parse`], naming the line, for malformed JSON, a missing
    /// or mistyped field, an integer field (schema, thread id, timestamp,
    /// count, bucket) that is not written as an integer in `[0, 2⁶⁴)`,
    /// and a total that overflows a `u64`.
    pub fn parse(text: &str) -> Result<Self, ObsError> {
        let mut schema = None;
        let mut events = 0u64;
        let mut spans: Vec<SpanStat> = Vec::new();
        let mut counters: Vec<CounterStat> = Vec::new();
        let mut hists: Vec<HistStat> = Vec::new();
        let mut t_min = u64::MAX;
        let mut t_max = 0u64;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let fields = parse_flat_object(line).map_err(|reason| ObsError::Parse {
                line: lineno,
                reason,
            })?;
            let kind = fields.str_field("k").map_err(|reason| ObsError::Parse {
                line: lineno,
                reason,
            })?;
            let fail = |reason: String| ObsError::Parse {
                line: lineno,
                reason,
            };
            let sum = |total: u64, n: u64, name: &str| {
                total
                    .checked_add(n)
                    .ok_or_else(|| fail(format!("the total of {name:?} overflows a u64")))
            };
            match kind {
                "meta" => {
                    let v = fields.int_field("schema").map_err(fail)?;
                    if v != TRACE_SCHEMA_VERSION {
                        return Err(ObsError::Parse {
                            line: lineno,
                            reason: format!(
                                "unsupported schema {v} (this build reads {TRACE_SCHEMA_VERSION})"
                            ),
                        });
                    }
                    schema = Some(v);
                }
                "span" => {
                    events += 1;
                    let name = fields.str_field("name").map_err(fail)?;
                    let tid = fields.int_field("tid").map_err(fail)?;
                    let t0 = fields.int_field("t0").map_err(fail)?;
                    let t1 = fields.int_field("t1").map_err(fail)?;
                    let dur = t1.saturating_sub(t0);
                    t_min = t_min.min(t0);
                    t_max = t_max.max(t1);
                    match spans.iter_mut().find(|s| s.name == name) {
                        Some(s) => {
                            s.count += 1;
                            s.total_ns = sum(s.total_ns, dur, name)?;
                            s.min_ns = s.min_ns.min(dur);
                            s.max_ns = s.max_ns.max(dur);
                            s.tids.insert(tid);
                        }
                        None => spans.push(SpanStat {
                            name: name.to_owned(),
                            count: 1,
                            total_ns: dur,
                            min_ns: dur,
                            max_ns: dur,
                            tids: BTreeSet::from([tid]),
                        }),
                    }
                }
                "ctr" => {
                    events += 1;
                    let name = fields.str_field("name").map_err(fail)?;
                    let n = fields.int_field("n").map_err(fail)?;
                    match counters.iter_mut().find(|c| c.name == name) {
                        Some(c) => c.total = sum(c.total, n, name)?,
                        None => counters.push(CounterStat {
                            name: name.to_owned(),
                            total: n,
                        }),
                    }
                }
                "hist" => {
                    events += 1;
                    let name = fields.str_field("name").map_err(fail)?;
                    let pairs = fields.arr_field("buckets").map_err(fail)?;
                    let stat = match hists.iter_mut().find(|h| h.name == name) {
                        Some(h) => h,
                        None => {
                            hists.push(HistStat {
                                name: name.to_owned(),
                                count: 0,
                                buckets: Box::new([0; HIST_BUCKETS]),
                            });
                            hists.last_mut().expect("just pushed")
                        }
                    };
                    for pair in pairs {
                        let Val::Arr(pair) = pair else {
                            return Err(ObsError::Parse {
                                line: lineno,
                                reason: "histogram buckets must be [index, count] pairs".into(),
                            });
                        };
                        let (Some(Val::Int(i)), Some(&Val::Int(c))) = (pair.first(), pair.get(1))
                        else {
                            return Err(ObsError::Parse {
                                line: lineno,
                                reason: "histogram bucket pair must hold two integers".into(),
                            });
                        };
                        let Some(bucket) = usize::try_from(*i)
                            .ok()
                            .and_then(|i| stat.buckets.get_mut(i))
                        else {
                            return Err(ObsError::Parse {
                                line: lineno,
                                reason: format!("bucket index {i} out of range"),
                            });
                        };
                        *bucket = sum(*bucket, c, name)?;
                        stat.count = sum(stat.count, c, name)?;
                    }
                }
                other => {
                    return Err(ObsError::Parse {
                        line: lineno,
                        reason: format!("unknown record kind {other:?}"),
                    });
                }
            }
        }

        let Some(schema) = schema else {
            return Err(ObsError::Parse {
                line: 0,
                reason: "trace has no meta record (empty or truncated file?)".into(),
            });
        };

        spans.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        hists.sort_by(|a, b| a.name.cmp(&b.name));
        if t_min == u64::MAX {
            t_min = 0;
        }
        Ok(TraceSummary {
            schema,
            events,
            spans,
            counters,
            hists,
            t_min,
            t_max,
        })
    }

    /// Whether the trace carries campaign-service (`serve.*`)
    /// instrumentation from `chebymc serve` or `chebymc worker`.
    #[must_use]
    pub fn has_serve_events(&self) -> bool {
        self.spans.iter().any(|s| s.name.starts_with("serve."))
            || self.counters.iter().any(|c| c.name.starts_with("serve."))
    }

    /// Renders the human-readable per-stage breakdown.
    ///
    /// `%wall` is each span's total time against the trace's wall-clock
    /// extent; spans running concurrently on several threads can exceed
    /// 100%. Traces from the campaign service additionally get a
    /// coordinator-health digest of the `serve.*` events.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let wall = self.wall_ns();
        let _ = writeln!(
            out,
            "trace summary: schema {}, {} events, wall {}",
            self.schema,
            self.events,
            fmt_ns(wall as f64)
        );
        if !self.spans.is_empty() {
            let _ = writeln!(out, "\nspans (per-stage time breakdown):");
            let _ = writeln!(
                out,
                "  {:<24} {:>9} {:>10} {:>10} {:>10} {:>10} {:>7} {:>4}",
                "name", "count", "total", "mean", "min", "max", "%wall", "thr"
            );
            for s in &self.spans {
                let mean = s.total_ns as f64 / s.count as f64;
                let pct = if wall == 0 {
                    0.0
                } else {
                    100.0 * s.total_ns as f64 / wall as f64
                };
                let _ = writeln!(
                    out,
                    "  {:<24} {:>9} {:>10} {:>10} {:>10} {:>10} {:>6.1}% {:>4}",
                    s.name,
                    s.count,
                    fmt_ns(s.total_ns as f64),
                    fmt_ns(mean),
                    fmt_ns(s.min_ns as f64),
                    fmt_ns(s.max_ns as f64),
                    pct,
                    s.tids.len(),
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for c in &self.counters {
                let _ = writeln!(out, "  {:<24} {:>14}", c.name, c.total);
            }
        }
        if self.has_serve_events() {
            let _ = writeln!(out, "\ncoordinator health (serve.*):");
            for (label, total) in [
                ("records accepted", self.counter_total("serve.records")),
                (
                    "duplicates absorbed",
                    self.counter_total("serve.duplicates"),
                ),
                (
                    "heartbeats received",
                    self.counter_total("serve.heartbeats"),
                ),
                ("leases reclaimed", self.counter_total("serve.reclaims")),
                ("lease assignments", self.span_count("serve.assign")),
                ("queued assignments", self.counter_total("serve.queued")),
                ("lease sessions run", self.span_count("serve.lease")),
                ("records streamed", self.counter_total("serve.sent")),
            ] {
                let _ = writeln!(out, "  {label:<24} {total:>14}");
            }
            let wait = fmt_ns(self.span_total_ns("serve.wait") as f64);
            let _ = writeln!(out, "  {:<24} {wait:>14}", "worker wait for frames");
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                out,
                "\nhistograms (log-scale buckets, quantile lower bounds):"
            );
            for h in &self.hists {
                // Only `*_ns` histograms carry time units; the rest are
                // plain magnitudes (queue depths, counts).
                let q = |p: f64| {
                    let floor = h.quantile_floor(p);
                    if h.name.ends_with("_ns") {
                        fmt_ns(floor)
                    } else {
                        format!("{floor:.0}")
                    }
                };
                let _ = writeln!(
                    out,
                    "  {:<24} count {:>7}  p50 >= {}  p90 >= {}  p99 >= {}",
                    h.name,
                    h.count,
                    q(0.50),
                    q(0.90),
                    q(0.99),
                );
            }
        }
        out
    }
}

/// Formats a nanosecond quantity with an adaptive unit. Histogram sample
/// units are nominally ns throughout the workspace instrumentation.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// A parsed JSON value — exactly the subset the sink emits.
#[derive(Debug, Clone)]
enum Val {
    /// A number written as plain decimal digits that fits a `u64`: the
    /// form the sink writes every integer in.
    Int(u64),
    /// Any other JSON number.
    Num,
    Str(String),
    Arr(Vec<Val>),
}

struct Fields(Vec<(String, Val)>);

impl Fields {
    fn get(&self, key: &str) -> Option<&Val> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Val::Str(s)) => Ok(s),
            Some(_) => Err(format!("field {key:?} is not a string")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn int_field(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(&Val::Int(n)) => Ok(n),
            Some(_) => Err(format!("field {key:?} is not an integer in [0, 2^64)")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn arr_field(&self, key: &str) -> Result<&[Val], String> {
        match self.get(key) {
            Some(Val::Arr(a)) => Ok(a),
            Some(_) => Err(format!("field {key:?} is not an array")),
            None => Err(format!("missing field {key:?}")),
        }
    }
}

/// Parses one line as a flat JSON object.
fn parse_flat_object(line: &str) -> Result<Fields, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let val = p.parse_value(1)?;
            fields.push((key, val));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after JSON object".into());
    }
    Ok(Fields(fields))
}

/// How deeply a record's arrays may nest, counting the record itself: the
/// parser recurses once per level, so without a cap a hostile trace would
/// choose the stack depth. Traces nest 3 levels; 128 matches `serde_json`.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Parses one value inside `depth` enclosing objects and arrays.
    fn parse_value(&mut self, depth: usize) -> Result<Val, String> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.parse_string()?)),
            Some(b'[') if depth == MAX_DEPTH => {
                Err(format!("arrays nest more than {MAX_DEPTH} levels deep"))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => break,
                        other => return Err(format!("expected ',' or ']', got {other:?}")),
                    }
                }
                Ok(Val::Arr(items))
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn parse_number(&mut self) -> Result<Val, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "number is not utf-8".to_owned())?;
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Val::Int(n));
            }
        }
        text.parse::<f64>()
            .map(|_| Val::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char).to_digit(16).ok_or("bad \\u escape digit")?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode a multi-byte UTF-8 sequence from the source.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "bad utf-8 in string".to_owned())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"k":"meta","schema":1}
{"k":"span","name":"exp.unit","tid":0,"t0":100,"t1":1100}
{"k":"span","name":"exp.unit","tid":1,"t0":200,"t1":700}
{"k":"span","name":"store.fsync","tid":0,"t0":1100,"t1":1200}
{"k":"ctr","name":"ga.evals","tid":0,"n":40}
{"k":"ctr","name":"ga.evals","tid":1,"n":2}
{"k":"hist","name":"par.chunk_ns","tid":1,"buckets":[[3,5],[10,1]]}
"#;

    #[test]
    fn parses_and_aggregates_every_record_kind() {
        let s = TraceSummary::parse(SAMPLE).unwrap();
        assert_eq!(s.schema, 1);
        assert_eq!(s.events, 6);
        assert_eq!(s.span_count("exp.unit"), 2);
        assert_eq!(s.span_total_ns("exp.unit"), 1500);
        assert_eq!(s.span_total_ns("store.fsync"), 100);
        assert_eq!(s.counter_total("ga.evals"), 42);
        assert_eq!(s.wall_ns(), 1100);
        let h = s.hists.iter().find(|h| h.name == "par.chunk_ns").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.buckets[3], 5);
        assert_eq!(h.quantile_floor(0.5), bucket_floor(3));
        assert_eq!(h.quantile_floor(1.0), bucket_floor(10));
    }

    #[test]
    fn deeply_nested_arrays_are_an_error() {
        let deep = format!("{{\"k\":\"meta\",\"x\":{}", "[".repeat(200_000));
        let err = TraceSummary::parse(&deep).unwrap_err().to_string();
        assert!(err.contains("more than 128 levels"), "{err}");
    }

    #[test]
    fn spans_sort_by_descending_total_time() {
        let s = TraceSummary::parse(SAMPLE).unwrap();
        assert_eq!(s.spans[0].name, "exp.unit");
        assert_eq!(s.spans[1].name, "store.fsync");
    }

    #[test]
    fn render_mentions_every_section() {
        let text = TraceSummary::parse(SAMPLE).unwrap().render();
        for needle in [
            "trace summary",
            "spans (per-stage time breakdown)",
            "exp.unit",
            "counters:",
            "ga.evals",
            "histograms",
            "par.chunk_ns",
        ] {
            assert!(
                text.contains(needle),
                "render output misses {needle:?}:\n{text}"
            );
        }
    }

    #[test]
    fn serve_traces_get_a_coordinator_health_digest() {
        let plain = TraceSummary::parse(SAMPLE).unwrap();
        assert!(!plain.has_serve_events());
        assert!(!plain.render().contains("coordinator health"));

        let serve_trace = concat!(
            "{\"k\":\"meta\",\"schema\":1}\n",
            "{\"k\":\"span\",\"name\":\"serve.assign\",\"tid\":0,\"t0\":10,\"t1\":20}\n",
            "{\"k\":\"ctr\",\"name\":\"serve.records\",\"tid\":0,\"n\":25}\n",
            "{\"k\":\"ctr\",\"name\":\"serve.duplicates\",\"tid\":0,\"n\":3}\n",
            "{\"k\":\"ctr\",\"name\":\"serve.reclaims\",\"tid\":0,\"n\":1}\n",
            "{\"k\":\"ctr\",\"name\":\"serve.queued\",\"tid\":0,\"n\":6}\n",
            "{\"k\":\"span\",\"name\":\"serve.wait\",\"tid\":1,\"t0\":0,\"t1\":1500}\n",
            "{\"k\":\"span\",\"name\":\"serve.wait\",\"tid\":1,\"t0\":2000,\"t1\":4000}\n",
        );
        let s = TraceSummary::parse(serve_trace).unwrap();
        assert!(s.has_serve_events());
        let text = s.render();
        for needle in [
            "coordinator health (serve.*):",
            "records accepted",
            "duplicates absorbed",
            "leases reclaimed",
            "  queued assignments                    6\n",
            "  worker wait for frames          3.500us\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn missing_meta_and_wrong_schema_are_rejected() {
        let no_meta = "{\"k\":\"ctr\",\"name\":\"x\",\"tid\":0,\"n\":1}\n";
        assert!(matches!(
            TraceSummary::parse(no_meta),
            Err(ObsError::Parse { .. })
        ));
        let bad_schema = "{\"k\":\"meta\",\"schema\":999}\n";
        let err = TraceSummary::parse(bad_schema).unwrap_err();
        assert!(err.to_string().contains("unsupported schema 999"), "{err}");
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        let text = "{\"k\":\"meta\",\"schema\":1}\nnot json\n";
        match TraceSummary::parse(text) {
            Err(ObsError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        let unknown = "{\"k\":\"meta\",\"schema\":1}\n{\"k\":\"mystery\"}\n";
        assert!(
            TraceSummary::parse(unknown).is_err(),
            "unknown kinds fail loudly"
        );
    }
}
