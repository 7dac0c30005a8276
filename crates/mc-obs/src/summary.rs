//! Trace aggregation: parse a JSONL trace back into per-stage statistics.
//!
//! Each line is read by the vendored `serde_json` into one derived record
//! type, so a trace is held to the same RFC 8259 grammar, nesting limit,
//! exact integer reads and refusal of a repeated field as every other
//! JSON input. [`TraceSummary`] backs both `chebymc trace summary` and the
//! `ga_perf` stage breakdown.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use serde::Deserialize;

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
    /// [`ObsError::Parse`], naming the line, for malformed JSON, a
    /// repeated, missing or mistyped field, an integer field (schema,
    /// thread id, timestamp, count, bucket) that is not written as an
    /// integer in `[0, 2⁶⁴)`, and a total that overflows a `u64`.
    pub fn parse(text: &str) -> Result<Self, ObsError> {
        let mut schema = None;
        let mut events = 0u64;
        let mut spans: Vec<SpanStat> = Vec::new();
        let mut counters: Vec<CounterStat> = Vec::new();
        let mut hists: Vec<HistStat> = Vec::new();
        let mut t_min = u64::MAX;
        let mut t_max = 0u64;

        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let fail = |reason: String| ObsError::Parse {
                line: idx + 1,
                reason,
            };
            let sum = |total: u64, n: u64, name: &str| {
                total
                    .checked_add(n)
                    .ok_or_else(|| fail(format!("the total of {name:?} overflows a u64")))
            };
            let record: Record = serde_json::from_str(line).map_err(|e| fail(e.to_string()))?;
            match record.k.as_str() {
                "meta" => {
                    let v = required(record.schema, "schema").map_err(fail)?;
                    if v != TRACE_SCHEMA_VERSION {
                        return Err(fail(format!(
                            "unsupported schema {v} (this build reads {TRACE_SCHEMA_VERSION})"
                        )));
                    }
                    schema = Some(v);
                }
                "span" => {
                    events += 1;
                    let name = required(record.name, "name").map_err(fail)?;
                    let tid = required(record.tid, "tid").map_err(fail)?;
                    let t0 = required(record.t0, "t0").map_err(fail)?;
                    let t1 = required(record.t1, "t1").map_err(fail)?;
                    let dur = t1.saturating_sub(t0);
                    t_min = t_min.min(t0);
                    t_max = t_max.max(t1);
                    match spans.iter_mut().find(|s| s.name == name) {
                        Some(s) => {
                            s.count += 1;
                            s.total_ns = sum(s.total_ns, dur, &name)?;
                            s.min_ns = s.min_ns.min(dur);
                            s.max_ns = s.max_ns.max(dur);
                            s.tids.insert(tid);
                        }
                        None => spans.push(SpanStat {
                            name,
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
                    let name = required(record.name, "name").map_err(fail)?;
                    let n = required(record.n, "n").map_err(fail)?;
                    match counters.iter_mut().find(|c| c.name == name) {
                        Some(c) => c.total = sum(c.total, n, &name)?,
                        None => counters.push(CounterStat { name, total: n }),
                    }
                }
                "hist" => {
                    events += 1;
                    let name = required(record.name, "name").map_err(fail)?;
                    let pairs = required(record.buckets, "buckets").map_err(fail)?;
                    let stat = match hists.iter_mut().find(|h| h.name == name) {
                        Some(h) => h,
                        None => {
                            hists.push(HistStat {
                                name: name.clone(),
                                count: 0,
                                buckets: Box::new([0; HIST_BUCKETS]),
                            });
                            hists.last_mut().expect("just pushed")
                        }
                    };
                    for (i, c) in pairs {
                        let Some(bucket) = usize::try_from(i)
                            .ok()
                            .and_then(|i| stat.buckets.get_mut(i))
                        else {
                            return Err(fail(format!("bucket index {i} out of range")));
                        };
                        *bucket = sum(*bucket, c, &name)?;
                        stat.count = sum(stat.count, c, &name)?;
                    }
                }
                other => return Err(fail(format!("unknown record kind {other:?}"))),
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

/// One trace line: its kind `k` and every field some kind carries.
/// [`TraceSummary::parse`] requires the fields the kind needs.
#[derive(Deserialize)]
struct Record {
    k: String,
    schema: Option<u64>,
    name: Option<String>,
    tid: Option<u64>,
    t0: Option<u64>,
    t1: Option<u64>,
    n: Option<u64>,
    buckets: Option<Vec<(u64, u64)>>,
}

/// A field the line's kind needs.
fn required<T>(value: Option<T>, field: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("missing field {field:?}"))
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
        assert!(err.contains("recursion limit exceeded"), "{err}");
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
