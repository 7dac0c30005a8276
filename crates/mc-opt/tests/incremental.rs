//! The incremental evaluation engine's external contract: delta-fitness,
//! batch SoA evaluation, the memo cache, the auto-serial fallback and the
//! thread count are all *pure performance knobs* — no combination may
//! change one bit of any objective value or GA result. These tests drive
//! the engine the way the GA does (random variation sequences over random
//! task sets) and compare every path against a from-scratch evaluation.

use mc_opt::ga::{optimize, optimize_with_stats, GaConfig, GeneBounds};
use mc_opt::incremental::{optimize_incremental, Block, FlatPopulation, ObjectiveCache, BLOCK_LEN};
use mc_opt::problem::HcTaskParams;
use mc_opt::ObjectiveValue;
use mc_par::WorkerPool;
use mc_task::TaskId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits_eq(a: ObjectiveValue, b: ObjectiveValue) -> bool {
    a.p_ms.to_bits() == b.p_ms.to_bits()
        && a.max_u_lc_lo.to_bits() == b.max_u_lc_lo.to_bits()
        && a.u_hc_lo.to_bits() == b.u_hc_lo.to_bits()
        && a.fitness.to_bits() == b.fitness.to_bits()
}

/// A random but plausible HC task set: periods 50–900 ms, WCET a few
/// percent of the period, occasional σ = 0 tasks (the deterministic
/// special case of Eq. 9).
fn random_cache(rng: &mut StdRng, n: usize) -> ObjectiveCache {
    let tasks: Vec<HcTaskParams> = (0..n)
        .map(|i| {
            let period = rng.random_range(5.0e7..9.0e8);
            let wcet_pes = period * rng.random_range(0.01..0.2);
            let acet = wcet_pes * rng.random_range(0.05..0.5);
            let sigma = if rng.random::<f64>() < 0.1 {
                0.0
            } else {
                acet * rng.random_range(0.05..0.4)
            };
            HcTaskParams {
                id: TaskId::new(i as u32),
                acet,
                sigma,
                wcet_pes,
                period,
            }
        })
        .collect();
    let u_hc_hi = tasks.iter().map(HcTaskParams::u_hi).sum();
    ObjectiveCache::new(&tasks, u_hc_hi)
}

/// Random GA-shaped variation: an optional crossover span (now and then
/// starting or ending on a block boundary) and an optional single mutated
/// gene (now and then just outside the span), with new values drawn from
/// a range that straddles the feasibility threshold so infeasible
/// children occur regularly.
fn vary(rng: &mut StdRng, parent: &[f64]) -> (Vec<f64>, Option<(usize, usize)>, Option<usize>) {
    let n = parent.len();
    let mut child = parent.to_vec();
    // Sometimes the "mate" carries the identical gene value.
    let draw = |rng: &mut StdRng, x: &mut f64| {
        if rng.random::<f64>() < 0.8 {
            *x = rng.random_range(-1.0..60.0);
        }
    };
    let crossover = (rng.random::<f64>() < 0.8).then(|| {
        let (mut lo, mut hi) = (rng.random_range(0..n), rng.random_range(0..n));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        match rng.random_range(0..4) {
            0 => lo -= lo % BLOCK_LEN,
            1 => hi = (hi | (BLOCK_LEN - 1)).min(n - 1),
            _ => {}
        }
        for x in &mut child[lo..=hi] {
            draw(rng, x);
        }
        (lo, hi)
    });
    let mutated = (rng.random::<f64>() < 0.5).then(|| {
        let g = match crossover {
            Some((lo, _)) if lo > 0 && rng.random::<f64>() < 0.25 => lo - 1,
            Some((_, hi)) if hi + 1 < n && rng.random::<f64>() < 0.25 => hi + 1,
            _ => rng.random_range(0..n),
        };
        draw(rng, &mut child[g]);
        g
    });
    (child, crossover, mutated)
}

/// The blocks in which `child` differs bitwise from `parent`, and the
/// genes they hold.
fn changed_blocks(child: &[f64], parent: &[f64]) -> (u32, u32) {
    let differs =
        |b: &(&[f64], &[f64])| b.0.iter().zip(b.1).any(|(c, p)| c.to_bits() != p.to_bits());
    child
        .chunks(BLOCK_LEN)
        .zip(parent.chunks(BLOCK_LEN))
        .filter(differs)
        .fold((0, 0), |(blocks, genes), (c, _)| {
            (blocks + 1, genes + c.len() as u32)
        })
}

#[test]
fn random_mutation_sequences_are_bit_identical_to_full_recomputation() {
    // The satellite property: chains of GA-shaped variations, delta-
    // evaluated step after step (each child becomes the next parent,
    // inheriting *patched* partials, so errors would compound), always
    // match a from-scratch evaluation bitwise — across the single-block
    // regime, block-boundary dimensions and many-block genomes.
    for dim in [3usize, 16, 17, 40, 100] {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE + dim as u64);
        let cache = random_cache(&mut rng, dim);
        let nb = cache.n_blocks();
        let mut parent: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..30.0)).collect();
        let mut parent_blocks = vec![Block::default(); nb];
        let mut parent_value = cache.eval_full(&parent, &mut parent_blocks);
        let mut child_blocks = vec![Block::default(); nb];
        let mut carried = 0u32;
        for step in 0..300 {
            let (child, crossover, mutated) = vary(&mut rng, &parent);
            if crossover.is_none() && mutated.is_none() {
                continue;
            }
            let d = cache.eval_delta(
                &child,
                &parent,
                &parent_blocks,
                &mut child_blocks,
                crossover,
                mutated,
            );
            let reference = cache.eval(&child);
            let value = match d.value {
                Some(v) => v,
                None => {
                    carried += 1;
                    parent_value
                }
            };
            assert!(
                bits_eq(value, reference),
                "dim {dim} step {step}: delta {value:?} vs full {reference:?}"
            );
            // The patched partials are a valid basis for the next delta.
            assert!(bits_eq(cache.combine(&child_blocks), reference));
            // Exactly the blocks that differ anywhere were re-folded, once
            // each, so `EvalStats` count the same work as a whole-block
            // compare would.
            let (blocks, genes) = changed_blocks(&child, &parent);
            assert_eq!(
                (d.blocks_recomputed, d.genes_recomputed),
                (blocks, genes),
                "dim {dim} step {step}: span {crossover:?}, mutated {mutated:?}"
            );
            parent = child;
            std::mem::swap(&mut parent_blocks, &mut child_blocks);
            parent_value = value;
        }
        // The variation scheme produces bitwise-identical children often
        // enough that the carried path is genuinely exercised.
        assert!(carried > 0, "dim {dim}: no carried children in 300 steps");
    }
}

#[test]
fn batch_objective_is_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(7);
    for dim in [6usize, 33, 64] {
        let cache = random_cache(&mut rng, dim);
        let individuals = 53;
        let mut pop = FlatPopulation::zeroed(individuals, dim);
        for i in 0..individuals {
            for x in pop.genome_mut(i) {
                *x = rng.random_range(-2.0..60.0);
            }
        }
        let zero = ObjectiveValue {
            p_ms: 0.0,
            max_u_lc_lo: 0.0,
            u_hc_lo: 0.0,
            fitness: 0.0,
        };
        let mut serial = vec![zero; individuals];
        cache.objective_batch(&pop, &mut serial);
        for (i, v) in serial.iter().enumerate() {
            assert!(bits_eq(*v, cache.eval(pop.genome(i))), "dim {dim} row {i}");
        }
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let mut out = vec![zero; individuals];
            cache.objective_batch_with_pool(&pool, &pop, &mut out);
            assert!(
                serial.iter().zip(&out).all(|(a, b)| bits_eq(*a, *b)),
                "dim {dim}, {threads} threads diverged"
            );
        }
    }
}

#[test]
fn incremental_ga_matches_closure_ga_for_every_knob_combination() {
    // The tentpole equality: the incremental backend and the memoised
    // closure backend must return byte-identical GaResults for any thread
    // count and any serial-fallback threshold. threshold 0 forces pool
    // dispatch even for this small problem, so the parallel delta path is
    // genuinely exercised.
    let mut rng = StdRng::seed_from_u64(42);
    for dim in [6usize, 24] {
        let cache = random_cache(&mut rng, dim);
        let bounds = vec![GeneBounds::new(0.0, 30.0).unwrap(); dim];
        let base = GaConfig {
            population_size: 32,
            generations: 25,
            threads: 1,
            ..GaConfig::default()
        };
        let closure = |c: &[f64]| cache.eval(c).fitness;
        let reference = optimize(&bounds, closure, &base).unwrap();
        for threads in [1usize, 2, 4] {
            for serial_eval_threshold in [0usize, 8192] {
                let cfg = GaConfig {
                    threads,
                    serial_eval_threshold,
                    ..base
                };
                let ctx = format!("dim {dim} threads {threads} threshold {serial_eval_threshold}");
                let r = optimize(&bounds, closure, &cfg).unwrap();
                assert_eq!(r, reference, "closure path diverged: {ctx}");
                let (ri, stats) = optimize_incremental(&cache, &bounds, &cfg).unwrap();
                assert_eq!(ri, reference, "incremental path diverged: {ctx}");
                // Every considered slot was served exactly one way.
                assert_eq!(
                    stats.considered,
                    stats.full_evals + stats.delta_evals + stats.carried,
                    "{ctx}"
                );
                assert_eq!(stats.memo_hits, 0, "{ctx}");
                // Gen 0 is the only full-evaluation generation.
                assert_eq!(stats.full_evals, 32, "{ctx}");
                assert!(stats.delta_evals > 0, "{ctx}");
                // The whole point: most gene-terms are never re-folded.
                assert!(stats.genes_evaluated < stats.genes_total, "{ctx}");
            }
        }
    }
}

#[test]
fn incremental_stats_count_the_actual_work() {
    let mut rng = StdRng::seed_from_u64(9);
    let dim = 48;
    let cache = random_cache(&mut rng, dim);
    let bounds = vec![GeneBounds::new(0.0, 30.0).unwrap(); dim];
    let cfg = GaConfig {
        population_size: 40,
        generations: 40,
        threads: 1,
        ..GaConfig::default()
    };
    let (_, stats) = optimize_incremental(&cache, &bounds, &cfg).unwrap();
    assert_eq!(stats.considered, 40 + 40 * (40 - 2));
    assert_eq!(stats.genes_total, stats.considered * dim as u64);
    // Full evaluations fold whole genomes; deltas at most the candidate
    // blocks (≤ 3 blocks of 16 for a span + a far mutation — but never
    // more than the genome).
    assert!(stats.genes_evaluated >= stats.full_evals * dim as u64);
    assert!(
        stats.genes_evaluated <= stats.full_evals * dim as u64 + stats.delta_evals * dim as u64
    );
    // A uniform crossover span averages dim/3 genes but block granularity
    // rounds it up to whole blocks, so on a 3-block genome the expected
    // delta re-fold is ≈ 60% of the genome. Assert it stays clearly below
    // a full re-fold; the ratio shrinks as block count grows.
    let delta_genes = stats.genes_evaluated - stats.full_evals * dim as u64;
    assert!(
        delta_genes * 4 < stats.delta_evals * dim as u64 * 3,
        "average delta re-folds {} of {dim} genes",
        delta_genes as f64 / stats.delta_evals as f64
    );
}

#[test]
fn closure_stats_account_memo_and_dups() {
    let bounds = vec![GeneBounds::new(0.0, 5.0).unwrap(); 4];
    let cfg = GaConfig {
        population_size: 24,
        generations: 20,
        threads: 1,
        ..GaConfig::default()
    };
    let f = |c: &[f64]| c.iter().map(|x| x * (4.0 - x)).sum::<f64>();
    let (_, stats) = optimize_with_stats(&bounds, f, &cfg).unwrap();
    assert_eq!(
        stats.considered,
        stats.full_evals + stats.memo_hits + stats.batch_dups
    );
    assert!(stats.memo_hits > 0);
    assert_eq!(stats.delta_evals, 0);
    assert_eq!(stats.carried, 0);
}
