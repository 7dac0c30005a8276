//! Property tests for the store's canonical-byte contract, driven by the
//! mc-fault harness: `canonical_lines` must be invariant under any
//! permutation of record completion order and any shard striping.

use chebymc::exp::fault::spec_from_shape;
use chebymc::exp::{CampaignSpec, Metric, Store, UnitRecord};
use chebymc::fault::gen::spec_shape;
use chebymc::fault::{assert_prop, FaultRng, FaultSchedule, PropConfig, SimDisk};

fn unit_record(spec: &CampaignSpec, index: usize) -> UnitRecord {
    let u = spec.unit(index);
    UnitRecord {
        unit: u.index,
        point: u.point,
        replica: u.replica,
        seed: u.seed,
        metrics: vec![Metric::new("objective", (u.seed % 997) as f64 / 997.0)],
    }
}

/// Reference rendering: every unit appended in index order, in memory.
fn reference_canonical(spec: &CampaignSpec) -> String {
    let mut store = Store::in_memory(spec);
    for index in 0..spec.total_units() {
        store.append(unit_record(spec, index)).unwrap();
    }
    store.canonical_lines()
}

#[test]
fn canonical_lines_invariant_under_completion_order() {
    assert_prop(
        &PropConfig::named("canonical-vs-permutation").cases(100),
        |rng| rng.next_u64(),
        |&scenario| {
            let mut rng = FaultRng::new(scenario);
            let spec = spec_from_shape("perm-prop", &spec_shape(&mut rng));
            let perm = rng.permutation(spec.total_units());

            // Drive the permuted run through a (fault-free) simulated
            // disk so the full resume/append I/O path is exercised, not
            // just the in-memory bookkeeping.
            let disk = SimDisk::new();
            disk.set_schedule(FaultSchedule::none());
            let (mut store, _) = Store::create_or_resume_io(Box::new(disk.open()), "<perm>", &spec)
                .map_err(|e| e.to_string())?;
            for &index in &perm {
                store
                    .append(unit_record(&spec, index))
                    .map_err(|e| e.to_string())?;
            }
            if store.canonical_lines() != reference_canonical(&spec) {
                return Err(format!(
                    "canonical bytes depend on completion order {perm:?}"
                ));
            }
            // And a resume of the permuted store renders identically too.
            drop(store);
            disk.recover();
            let (resumed, info) =
                Store::create_or_resume_io(Box::new(disk.open()), "<perm>", &spec)
                    .map_err(|e| e.to_string())?;
            if !info.resumed || info.replayed != spec.total_units() {
                return Err(format!("resume replayed {} units", info.replayed));
            }
            if resumed.canonical_lines() != reference_canonical(&spec) {
                return Err("resumed store renders different canonical bytes".into());
            }
            Ok(())
        },
    );
}

#[test]
fn canonical_lines_invariant_under_shard_striping() {
    assert_prop(
        &PropConfig::named("canonical-vs-striping").cases(100),
        |rng| rng.next_u64(),
        |&scenario| {
            let mut rng = FaultRng::new(scenario);
            let spec = spec_from_shape("stripe-prop", &spec_shape(&mut rng));
            let shards = rng.range_u64(1, 4) as usize;
            // Arbitrary striping: every unit goes to a random shard, and
            // each shard completes its units in a random order.
            let assignment: Vec<usize> = (0..spec.total_units())
                .map(|_| rng.below(shards as u64) as usize)
                .collect();
            let mut stores = Vec::new();
            for shard in 0..shards {
                let mut units: Vec<usize> = (0..spec.total_units())
                    .filter(|&u| assignment[u] == shard)
                    .collect();
                let perm = rng.permutation(units.len());
                units = perm.iter().map(|&i| units[i]).collect();
                let mut store = Store::in_memory(&spec);
                for index in units {
                    store
                        .append(unit_record(&spec, index))
                        .map_err(|e| e.to_string())?;
                }
                stores.push(store);
            }
            let merged = Store::merge(&stores).map_err(|e| e.to_string())?;
            if merged.canonical_lines() != reference_canonical(&spec) {
                return Err(format!(
                    "canonical bytes depend on striping {assignment:?} over {shards} shards"
                ));
            }
            Ok(())
        },
    );
}
