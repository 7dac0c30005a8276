//! Per-point aggregation and CSV export.
//!
//! Aggregation sums each metric over a point's replicas *in replica
//! order* before dividing, so a campaign mean is bit-identical whatever
//! order the units ran in, on any thread count, shard split or worker.

use crate::spec::{CampaignSpec, Param};
use crate::store::{Metric, UnitRecord};
use crate::ExpError;

/// The per-point means of a completed campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct PointAggregate {
    /// Axis-point index.
    pub point: usize,
    /// The point's label.
    pub label: String,
    /// The point's parameters.
    pub params: Vec<Param>,
    /// Replicas averaged.
    pub replicas: usize,
    /// Mean of every metric, in the metric order of the records.
    pub means: Vec<Metric>,
}

impl PointAggregate {
    /// Looks up a mean by metric name.
    #[must_use]
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.means.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Aggregates a campaign's records into per-point means. Every point must
/// be complete (exactly `spec.replicas` records) and every record of a
/// point must carry the same metric names in the same order.
///
/// # Errors
///
/// [`ExpError::Incomplete`] for missing replicas,
/// [`ExpError::Store`] for inconsistent metric sets.
pub fn aggregate(
    spec: &CampaignSpec,
    records: &[UnitRecord],
) -> Result<Vec<PointAggregate>, ExpError> {
    let mut by_point: Vec<Vec<Option<&UnitRecord>>> =
        vec![vec![None; spec.replicas]; spec.points.len()];
    for r in records {
        if r.point >= spec.points.len() || r.replica >= spec.replicas {
            return Err(ExpError::Store {
                path: "<records>".into(),
                detail: format!("record for unit {} is outside the campaign", r.unit),
            });
        }
        by_point[r.point][r.replica] = Some(r);
    }
    let mut out = Vec::with_capacity(spec.points.len());
    for (p, slots) in by_point.iter().enumerate() {
        let missing = slots.iter().filter(|s| s.is_none()).count();
        if missing > 0 {
            return Err(ExpError::Incomplete(format!(
                "point {p} (`{}`) is missing {missing} of {} replicas",
                spec.points[p].label, spec.replicas
            )));
        }
        let first = slots[0].expect("checked complete");
        let names: Vec<&str> = first.metrics.iter().map(|m| m.name.as_str()).collect();
        let mut sums = vec![0.0f64; names.len()];
        for slot in slots {
            let r = slot.expect("checked complete");
            let ok = r.metrics.len() == names.len()
                && r.metrics.iter().zip(&names).all(|(m, n)| m.name == *n);
            if !ok {
                return Err(ExpError::Store {
                    path: "<records>".into(),
                    detail: format!(
                        "unit {} reports different metrics than its point's first replica",
                        r.unit
                    ),
                });
            }
            for (sum, m) in sums.iter_mut().zip(&r.metrics) {
                *sum += m.value;
            }
        }
        out.push(PointAggregate {
            point: p,
            label: spec.points[p].label.clone(),
            params: spec.points[p].params.clone(),
            replicas: spec.replicas,
            means: names
                .iter()
                .zip(&sums)
                .map(|(n, s)| Metric::new(*n, s / spec.replicas as f64))
                .collect(),
        });
    }
    Ok(out)
}

/// Escapes one CSV cell (labels can contain commas in principle).
fn csv_cell(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Flat per-unit CSV: `unit,point,label,replica,seed,<metrics...>`,
/// sorted by unit index. Metric columns come from the first record;
/// every record must match ([`aggregate`]'s uniformity rule applies per
/// campaign here, since the export is unit-wise).
///
/// # Errors
///
/// [`ExpError::Store`] when records disagree on their metric names.
pub fn export_units_csv(spec: &CampaignSpec, records: &[UnitRecord]) -> Result<String, ExpError> {
    let mut sorted: Vec<&UnitRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.unit);
    let names: Vec<&str> = sorted
        .first()
        .map(|r| r.metrics.iter().map(|m| m.name.as_str()).collect())
        .unwrap_or_default();
    let mut out = String::from("unit,point,label,replica,seed");
    for n in &names {
        out.push(',');
        out.push_str(&csv_cell(n));
    }
    out.push('\n');
    for r in sorted {
        let ok = r.metrics.len() == names.len()
            && r.metrics.iter().zip(&names).all(|(m, n)| m.name == *n);
        if !ok {
            return Err(ExpError::Store {
                path: "<records>".into(),
                detail: format!("unit {} reports a different metric set", r.unit),
            });
        }
        let label = spec
            .points
            .get(r.point)
            .map(|p| p.label.as_str())
            .unwrap_or("");
        out.push_str(&format!(
            "{},{},{},{},{}",
            r.unit,
            r.point,
            csv_cell(label),
            r.replica,
            r.seed
        ));
        for m in &r.metrics {
            out.push_str(&format!(",{}", m.value));
        }
        out.push('\n');
    }
    Ok(out)
}

/// Aggregated CSV: `point,label,replicas,<metric means...>`.
#[must_use]
pub fn export_points_csv(aggregates: &[PointAggregate]) -> String {
    let names: Vec<&str> = aggregates
        .first()
        .map(|a| a.means.iter().map(|m| m.name.as_str()).collect())
        .unwrap_or_default();
    let mut out = String::from("point,label,replicas");
    for n in &names {
        out.push(',');
        out.push_str(&csv_cell(n));
    }
    out.push('\n');
    for a in aggregates {
        out.push_str(&format!(
            "{},{},{}",
            a.point,
            csv_cell(&a.label),
            a.replicas
        ));
        for m in &a.means {
            out.push_str(&format!(",{}", m.value));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PointSpec;
    use crate::store::Store;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "agg-test".into(),
            seed: 3,
            params: vec![],
            points: vec![
                PointSpec::new("p0", vec![Param::new("u", 0.4)]),
                PointSpec::new("p1", vec![Param::new("u", 0.5)]),
            ],
            replicas: 3,
        }
    }

    fn filled_store(s: &CampaignSpec) -> Store {
        let mut store = Store::in_memory(s);
        for i in 0..s.total_units() {
            let u = s.unit(i);
            store
                .append(UnitRecord {
                    unit: u.index,
                    point: u.point,
                    replica: u.replica,
                    seed: u.seed,
                    metrics: vec![Metric::new("a", (i + 1) as f64), Metric::new("b", 0.5)],
                })
                .unwrap();
        }
        store
    }

    #[test]
    fn means_average_in_replica_order() {
        let s = spec();
        let store = filled_store(&s);
        let aggs = aggregate(&s, store.records()).unwrap();
        assert_eq!(aggs.len(), 2);
        // Point 0 holds units 0,1,2 → metric `a` values 1,2,3.
        assert_eq!(aggs[0].mean("a"), Some((1.0 + 2.0 + 3.0) / 3.0));
        assert_eq!(aggs[1].mean("a"), Some((4.0 + 5.0 + 6.0) / 3.0));
        assert_eq!(aggs[0].mean("b"), Some(0.5));
        assert_eq!(aggs[0].label, "p0");
        assert_eq!(aggs[0].mean("missing"), None);
    }

    #[test]
    fn incomplete_points_are_reported_by_label() {
        let s = spec();
        let store = filled_store(&s);
        let partial: Vec<UnitRecord> = store
            .records()
            .iter()
            .filter(|r| r.unit != 4)
            .cloned()
            .collect();
        let err = aggregate(&s, &partial).unwrap_err();
        assert!(matches!(err, ExpError::Incomplete(_)));
        assert!(err.to_string().contains("p1"), "{err}");
    }

    #[test]
    fn inconsistent_metrics_are_rejected() {
        let s = spec();
        let mut records: Vec<UnitRecord> = filled_store(&s).records().to_vec();
        records[2].metrics[0].name = "other".into();
        assert!(matches!(
            aggregate(&s, &records).unwrap_err(),
            ExpError::Store { .. }
        ));
    }

    #[test]
    fn unit_csv_is_sorted_and_labelled() {
        let s = spec();
        let store = filled_store(&s);
        let mut records = store.records().to_vec();
        records.reverse();
        let csv = export_units_csv(&s, &records).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "unit,point,label,replica,seed,a,b");
        assert!(lines[1].starts_with("0,0,p0,0,"));
        assert!(lines[6].starts_with("5,1,p1,2,"));
        assert_eq!(lines.len(), 7);
    }

    #[test]
    fn point_csv_lists_means() {
        let s = spec();
        let aggs = aggregate(&s, filled_store(&s).records()).unwrap();
        let csv = export_points_csv(&aggs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "point,label,replicas,a,b");
        assert_eq!(lines[1], "0,p0,3,2,0.5");
    }

    #[test]
    fn csv_cells_escape_commas_and_quotes() {
        assert_eq!(csv_cell("plain"), "plain");
        assert_eq!(csv_cell("a,b"), "\"a,b\"");
        assert_eq!(csv_cell("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
