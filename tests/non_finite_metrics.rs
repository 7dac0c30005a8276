//! A NaN or infinite metric is refused with a structured error before
//! any byte of its record is written or framed. JSON carries such a value
//! as `null`, which no reader accepts as a number: a store holding one
//! would refuse to load, and a served worker sending one would have its
//! connection dropped and the unit reassigned, forever. A frame whose
//! number overflows to infinity is refused where it is read.

use chebymc::exp::{
    run_campaign, CampaignSpec, ExpError, Metric, Param, PointSpec, RunConfig, Store, UnitRecord,
    UnitRunner, WorkUnit,
};
use chebymc::serve::{
    read_frame, run_worker, AddrSource, Coordinator, CoordinatorConfig, RunnerFactory, ServeError,
    WorkerConfig,
};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The unit whose metric goes bad.
const BAD_UNIT: usize = 3;

fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "non-finite".into(),
        seed: 4,
        params: vec![],
        points: vec![
            PointSpec::new("a", vec![Param::new("u", 0.5)]),
            PointSpec::new("b", vec![Param::new("u", 0.9)]),
        ],
        replicas: 3,
    }
}

/// Metric `value` of unit `index`, or `bad` for [`BAD_UNIT`].
fn metrics(index: usize, bad: Option<f64>) -> Vec<Metric> {
    let value = match bad {
        Some(x) if index == BAD_UNIT => x,
        _ => index as f64 / 8.0,
    };
    vec![Metric::new("objective", 1.0), Metric::new("value", value)]
}

fn record(spec: &CampaignSpec, index: usize, bad: Option<f64>) -> UnitRecord {
    let u = spec.unit(index);
    UnitRecord {
        unit: u.index,
        point: u.point,
        replica: u.replica,
        seed: u.seed,
        metrics: metrics(index, bad),
    }
}

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "chebymc-non-finite-{name}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn assert_names_the_bad_metric(err: &ExpError) {
    assert!(
        matches!(
            err,
            ExpError::NonFiniteMetric { unit: BAD_UNIT, metric, .. } if metric == "value"
        ),
        "{err:?}"
    );
}

#[test]
fn a_refused_append_leaves_a_loadable_store() {
    let s = spec();
    let path = tmp("append");
    let (mut store, _) = Store::create_or_resume(&path, &s).unwrap();
    store.append(record(&s, 0, None)).unwrap();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = store.append(record(&s, BAD_UNIT, Some(bad))).unwrap_err();
        assert_names_the_bad_metric(&err);
        // A batch holding one bad record writes none of its records.
        let err = store
            .append_batch(vec![record(&s, 1, None), record(&s, BAD_UNIT, Some(bad))])
            .unwrap_err();
        assert_names_the_bad_metric(&err);
    }
    drop(store);

    let loaded = Store::load(&path, Some(&s)).unwrap();
    assert_eq!(loaded.completed_count(), 1);
    let (resumed, info) = Store::create_or_resume(&path, &s).unwrap();
    assert_eq!((info.replayed, info.truncated_bytes), (1, 0));
    assert_eq!(resumed.records(), &[record(&s, 0, None)]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn run_campaign_returns_the_error() {
    let s = spec();
    let path = tmp("run");
    let runner = |unit: &WorkUnit, _: usize| Ok(metrics(unit.index, Some(f64::NAN)));
    for threads in [1, 2] {
        let _ = std::fs::remove_file(&path);
        let (mut store, _) = Store::create_or_resume(&path, &s).unwrap();
        let err = run_campaign(
            &s,
            &runner,
            &mut store,
            &RunConfig {
                threads,
                ..RunConfig::default()
            },
        )
        .unwrap_err();
        assert_names_the_bad_metric(&err);
        drop(store);
        let loaded = Store::load(&path, Some(&s)).unwrap();
        assert!(!loaded.is_complete(BAD_UNIT), "threads {threads}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Builds runners whose [`BAD_UNIT`] metric is `bad`.
struct Factory {
    bad: Option<f64>,
}

impl RunnerFactory for Factory {
    fn runner_for(
        &self,
        _spec: &CampaignSpec,
    ) -> Result<Box<dyn UnitRunner + Send + Sync>, ExpError> {
        let bad = self.bad;
        Ok(Box::new(move |unit: &WorkUnit, _: usize| {
            Ok(metrics(unit.index, bad))
        }))
    }
}

#[test]
fn run_worker_returns_the_error_instead_of_reconnecting() {
    let s = spec();
    let coordinator = Arc::new(
        Coordinator::bind(
            CoordinatorConfig {
                leases: 1,
                ..CoordinatorConfig::default()
            },
            Box::new(|spec: &CampaignSpec| Ok((Store::in_memory(spec), Default::default()))),
        )
        .unwrap(),
    );
    coordinator.preload(&s).unwrap();
    let addr = AddrSource::Fixed(coordinator.local_addr().to_string());
    let cfg = WorkerConfig {
        retry: Duration::from_secs(2),
        ..WorkerConfig::default()
    };
    // Neither thread is joined before the verdict: a worker that retries
    // the unit forever keeps the campaign, and so the coordinator, running.
    let served = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || coordinator.run())
    };
    let (tx, rx) = mpsc::channel();
    let (bad_addr, bad_cfg) = (addr.clone(), cfg.clone());
    std::thread::spawn(move || {
        let _ = tx.send(run_worker(
            &bad_addr,
            &bad_cfg,
            &Factory {
                bad: Some(f64::NAN),
            },
        ));
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the worker must stop at the NaN, not retry it");
    match outcome {
        Err(ServeError::Exp(err)) => assert_names_the_bad_metric(&err),
        other => panic!("expected the NaN error, got {other:?}"),
    }

    // A sound worker then completes the campaign.
    let summary = run_worker(&addr, &cfg, &Factory { bad: None }).unwrap();
    assert!(summary.leases >= 1);
    let outcome = served.join().unwrap().unwrap();
    assert!(outcome.completed);
    assert_eq!(outcome.completed_units, s.total_units());
}

#[test]
fn a_frame_whose_metric_overflows_is_a_protocol_error() {
    let s = spec();
    let frame = |value: &str| {
        let u = s.unit(BAD_UNIT);
        let json = format!(
            r#"{{"Record":{{"lease":0,"record":{{"unit":{},"point":{},"replica":{},"seed":{},"metrics":[{{"name":"value","value":{value}}}]}}}}}}"#,
            u.index, u.point, u.replica, u.seed
        );
        format!("{}\n{json}\n", json.len())
    };
    assert!(read_frame(&mut frame("1e300").as_bytes()).is_ok());
    // The JSON reader refuses `1e999` as out of range, so the frame does
    // not parse: the coordinator must drop its connection, not store it or
    // end the campaign over it.
    for value in ["1e999", "-1e999"] {
        assert!(
            matches!(
                read_frame(&mut frame(value).as_bytes()),
                Err(ServeError::Protocol(_))
            ),
            "{value}"
        );
    }
}
