//! Self-tests of the benchmark, run before every measurement:
//!
//! * a tiny campaign of the workload's family writes the same store bytes
//!   with and without the timing wrappers;
//! * the public-call recomputation of the first and last unit of the
//!   full-size campaign matches the catalog runner bit for bit, which
//!   catches drift in the catalog's private horizons or reseeding.

use crate::timing::{open_timed_store, IoTotals, LayerTotals, TimedRunner};
use crate::workload::Workload;
use chebymc::exp::{catalog, run_campaign, RunConfig, Store, UnitRunner};
use std::path::Path;
use std::sync::{Arc, Mutex};

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs both self-tests for `workload` at `seed`, using `dir` for scratch
/// stores.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn run(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let serial = RunConfig {
        threads: 1,
        ..RunConfig::default()
    };
    let tiny = catalog::build(workload.campaign(), &workload.tiny_options(seed)).map_err(err)?;
    let plain_path = dir.join("selftest-plain.jsonl");
    let timed_path = dir.join("selftest-timed.jsonl");
    {
        let (mut store, _) = Store::create_or_resume(&plain_path, &tiny.spec).map_err(err)?;
        run_campaign(&tiny.spec, tiny.runner.as_ref(), &mut store, &serial).map_err(err)?;
    }
    {
        let io = Arc::new(Mutex::new(IoTotals::default()));
        let (mut store, _) = open_timed_store(&timed_path, &tiny.spec, &io).map_err(err)?;
        let runner =
            TimedRunner::for_spec(&tiny.spec, Arc::new(Mutex::new(LayerTotals::default())))
                .map_err(err)?;
        run_campaign(&tiny.spec, &runner, &mut store, &serial).map_err(err)?;
    }
    let plain = std::fs::read(&plain_path).map_err(err)?;
    let timed = std::fs::read(&timed_path).map_err(err)?;
    std::fs::remove_file(&plain_path).map_err(err)?;
    std::fs::remove_file(&timed_path).map_err(err)?;
    if plain != timed {
        return Err(format!(
            "the timing wrappers changed the bytes of a tiny `{}` campaign",
            workload.campaign()
        ));
    }

    let full = catalog::build(workload.campaign(), &workload.options(Some(seed))).map_err(err)?;
    let runner = TimedRunner::for_spec(&full.spec, Arc::new(Mutex::new(LayerTotals::default())))
        .map_err(err)?;
    for index in [0, full.spec.total_units() - 1] {
        let unit = full.spec.unit(index);
        let expected = full.runner.run_unit(&unit, 1).map_err(err)?;
        let recomputed = runner.run_unit(&unit, 1).map_err(err)?;
        let same = expected.len() == recomputed.len()
            && expected
                .iter()
                .zip(&recomputed)
                .all(|(a, b)| a.name == b.name && a.value.to_bits() == b.value.to_bits());
        if !same {
            return Err(format!(
                "unit {index} of `{}`: the public-call recomputation {recomputed:?} differs \
                 from the catalog runner {expected:?}",
                workload.campaign()
            ));
        }
    }
    Ok(())
}
