//! Property tests for the workspace seed contract.
//!
//! `derive_set_seed(base, point, set)` is the one function every driver —
//! the `mc-exp` campaign runner, its catalog units and `mc-serve` workers —
//! must agree on for results to be reproducible and mergeable.
//! These properties pin the contract: determinism, sensitivity to every
//! argument, and collision-freedom over realistic campaign grids.

use std::collections::BTreeSet;

use chebymc_core::pipeline::derive_set_seed;
use mc_fault::{assert_prop, FaultRng, PropConfig};

#[test]
fn derived_seeds_are_deterministic_and_argument_sensitive() {
    assert_prop(
        &PropConfig::named("seed-contract-sensitivity").cases(300),
        |rng| (rng.next_u64(), rng.below(1 << 16), rng.below(1 << 16)),
        |&(base, point, set)| {
            let (point, set) = (point as usize, set as usize);
            let seed = derive_set_seed(base, point, set);
            if seed != derive_set_seed(base, point, set) {
                return Err("derive_set_seed is not a pure function".into());
            }
            // Flipping any single argument must change the output — a
            // stuck argument would silently reuse task sets across points
            // or replicas.
            if derive_set_seed(base.wrapping_add(1), point, set) == seed {
                return Err("insensitive to the base seed".into());
            }
            if derive_set_seed(base, point + 1, set) == seed {
                return Err("insensitive to the point index".into());
            }
            if derive_set_seed(base, point, set + 1) == seed {
                return Err("insensitive to the set index".into());
            }
            Ok(())
        },
    );
}

#[test]
fn derived_seeds_are_collision_free_over_campaign_grids() {
    assert_prop(
        &PropConfig::named("seed-contract-grid-injectivity").cases(60),
        |rng| {
            (
                rng.next_u64(),
                rng.range_u64(1, 32) as usize,
                rng.range_u64(1, 32) as usize,
            )
        },
        |&(base, points, sets)| {
            let mut rng = FaultRng::new(base);
            let mut seen = BTreeSet::new();
            for point in 0..points {
                for set in 0..sets {
                    let seed = derive_set_seed(base, point, set);
                    if !seen.insert(seed) {
                        return Err(format!(
                            "collision at (point {point}, set {set}) on a \
                             {points}×{sets} grid"
                        ));
                    }
                }
            }
            // Two unrelated base seeds must not share a grid either.
            let other_base = rng.next_u64();
            if other_base != base {
                let overlap = (0..points.min(4))
                    .flat_map(|p| (0..sets.min(4)).map(move |s| (p, s)))
                    .filter(|&(p, s)| seen.contains(&derive_set_seed(other_base, p, s)))
                    .count();
                if overlap > 0 {
                    return Err(format!(
                        "{overlap} seed(s) shared between base {base:#x} and \
                         {other_base:#x}"
                    ));
                }
            }
            Ok(())
        },
    );
}

/// The campaign runner's `unit_seed` must remain a thin wrapper over
/// `derive_set_seed`, so the workspace keeps one seed contract: the seed a
/// store records for a unit is the one `derive_set_seed` gives its
/// `(point, replica)`.
#[test]
fn exp_unit_seed_agrees_with_the_core_contract() {
    assert_prop(
        &PropConfig::named("seed-contract-exp-agreement").cases(200),
        |rng| (rng.next_u64(), rng.below(64), rng.below(64)),
        |&(base, point, replica)| {
            let (point, replica) = (point as usize, replica as usize);
            let expected = derive_set_seed(base, point, replica);
            let got = mc_exp::unit_seed(base, point, replica);
            if got != expected {
                return Err(format!(
                    "unit_seed diverged: {got:#x} vs derive_set_seed {expected:#x}"
                ));
            }
            Ok(())
        },
    );
}
