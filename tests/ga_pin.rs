//! Pins the genetic algorithm's output bit for bit.
//!
//! The GA picks every HC task's factor on every set of Figs. 3–6, so a
//! change to selection, variation, elitism or scoring that shifts one bit
//! moves the results. These tests hash every bit of a run's output (best
//! genome, best fitness, per-generation history, and the incremental
//! backend's evaluation counts) and compare it with constants recorded
//! from the implementation that sorted for its elites and compared whole
//! 16-gene blocks, so a rewrite of the hot path must keep every bit:
//!
//! - `optimize_incremental` on seeded problems of 1, 6, 16, 17 and 40
//!   genes, on both sides of the 16-gene reduction block;
//! - one closure-backend `optimize` run;
//! - the `fig5` campaign at 10 sets per point, in memory.
//!
//! A reduced copy of `mc-opt`'s variation-chain property runs here too, so
//! the delta evaluator's bit-identity is checked by the root test suite.

use chebymc::exp::catalog::{self, CatalogOptions};
use chebymc::exp::{run_campaign, RunConfig, Store};
use chebymc::opt::ga::{optimize, GaConfig, GaResult, GeneBounds};
use chebymc::opt::incremental::{optimize_incremental, Block, ObjectiveCache, BLOCK_LEN};
use chebymc::opt::problem::HcTaskParams;
use chebymc::opt::{EvalStats, ObjectiveValue};
use chebymc::task::TaskId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over bytes; a word hashes as its little-endian bytes.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn result(&mut self, r: &GaResult) {
        self.word(r.best.len() as u64);
        for x in &r.best {
            self.word(x.to_bits());
        }
        self.word(r.best_fitness.to_bits());
        self.word(r.history.len() as u64);
        for g in &r.history {
            self.word(g.generation as u64);
            self.word(g.best.to_bits());
            self.word(g.mean.to_bits());
        }
    }

    fn stats(&mut self, s: &EvalStats) {
        for w in [
            s.considered,
            s.full_evals,
            s.delta_evals,
            s.carried,
            s.memo_hits,
            s.batch_dups,
            s.genes_evaluated,
            s.genes_total,
        ] {
            self.word(w);
        }
    }
}

/// A random but plausible HC task set: periods 50–900 ms, WCET a few
/// percent of the period, occasional σ = 0 tasks.
fn random_tasks(rng: &mut StdRng, n: usize) -> Vec<HcTaskParams> {
    (0..n)
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
        .collect()
}

fn random_cache(rng: &mut StdRng, n: usize) -> ObjectiveCache {
    let tasks = random_tasks(rng, n);
    let u_hc_hi = tasks.iter().map(HcTaskParams::u_hi).sum();
    ObjectiveCache::new(&tasks, u_hc_hi)
}

/// The GA dimensions the pins and the chain smoke cover.
const DIMS: [usize; 5] = [1, 6, 16, 17, 40];

#[test]
fn incremental_ga_output_is_pinned() {
    const PINNED: [u64; 5] = [
        0x22cc_313c_7157_1b00,
        0xba7f_10ce_c555_c524,
        0xd9b8_e58f_ab79_a0a2,
        0x24f5_6eca_3f6b_6536,
        0x50dc_5a93_ae2a_5650,
    ];
    let mut got = [0u64; 5];
    for (slot, &dim) in got.iter_mut().zip(&DIMS) {
        let mut rng = StdRng::seed_from_u64(0x61_7069 + dim as u64);
        let tasks = random_tasks(&mut rng, dim);
        let u_hc_hi = tasks.iter().map(HcTaskParams::u_hi).sum();
        let cache = ObjectiveCache::new(&tasks, u_hc_hi);
        // Clamp-repair bounds as `WcetProblem::bounds` builds them (Eq. 9
        // capped at 10), with every fifth gene pinned to one value, and
        // penalty-only bounds that let children break Eq. 9.
        let repair: Vec<GeneBounds> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let hi = t.max_factor().min(10.0);
                let lo = if i % 5 == 4 { hi } else { 0.0 };
                GeneBounds::new(lo, hi).unwrap()
            })
            .collect();
        let penalty = vec![GeneBounds::new(0.0, 30.0).unwrap(); dim];
        let mut digest = Digest::new();
        for (bounds, seed) in [(&repair, dim as u64), (&penalty, 100 + dim as u64)] {
            let cfg = GaConfig {
                seed,
                threads: 1,
                ..GaConfig::default()
            };
            let (result, stats) = optimize_incremental(&cache, bounds, &cfg).unwrap();
            digest.result(&result);
            digest.stats(&stats);
        }
        *slot = digest.0;
    }
    assert_eq!(
        got, PINNED,
        "the incremental GA's output moved: {got:#018x?}"
    );
}

#[test]
fn closure_ga_output_is_pinned() {
    const PINNED: u64 = 0xec36_ac94_4bdc_cb5d;
    // A multimodal objective with a NaN region, so sanitising and the memo
    // table are on the path.
    let bounds: Vec<GeneBounds> = (0..5)
        .map(|i| GeneBounds::new(-2.0 - i as f64, 3.0 + i as f64).unwrap())
        .collect();
    let fitness = |c: &[f64]| {
        if c[0] < -1.5 {
            return f64::NAN;
        }
        c.iter()
            .enumerate()
            .map(|(i, x)| (x * (1.0 + i as f64)).sin() - 0.1 * x * x)
            .sum::<f64>()
    };
    let cfg = GaConfig {
        seed: 23,
        threads: 1,
        generations: 60,
        population_size: 48,
        ..GaConfig::default()
    };
    let result = optimize(&bounds, fitness, &cfg).unwrap();
    let mut digest = Digest::new();
    digest.result(&result);
    assert_eq!(
        digest.0, PINNED,
        "the closure GA's output moved: {:#018x}",
        digest.0
    );
}

#[test]
fn fig5_store_is_pinned() {
    const PINNED: u64 = 0xaa97_ecc7_6d29_faea;
    let options = CatalogOptions {
        sets: Some(10),
        ..CatalogOptions::default()
    };
    let campaign = catalog::build("fig5", &options).unwrap();
    let mut store = Store::in_memory(&campaign.spec);
    run_campaign(
        &campaign.spec,
        campaign.runner.as_ref(),
        &mut store,
        &RunConfig::default(),
    )
    .unwrap();
    let mut digest = Digest::new();
    digest.bytes(store.canonical_lines().as_bytes());
    assert_eq!(digest.0, PINNED, "fig5's store moved: {:#018x}", digest.0);
}

fn bits_eq(a: ObjectiveValue, b: ObjectiveValue) -> bool {
    a.p_ms.to_bits() == b.p_ms.to_bits()
        && a.max_u_lc_lo.to_bits() == b.max_u_lc_lo.to_bits()
        && a.u_hc_lo.to_bits() == b.u_hc_lo.to_bits()
        && a.fitness.to_bits() == b.fitness.to_bits()
}

/// A GA-shaped variation of `parent`: an optional crossover span (now and
/// then starting or ending on a block boundary) and an optional mutated
/// gene (now and then just outside the span). Changed genes straddle the
/// feasibility threshold, and some keep the parent's value bitwise.
fn vary(rng: &mut StdRng, parent: &[f64]) -> (Vec<f64>, Option<(usize, usize)>, Option<usize>) {
    let n = parent.len();
    let mut child = parent.to_vec();
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

#[test]
fn variation_chains_match_full_recomputation() {
    for dim in DIMS {
        let mut rng = StdRng::seed_from_u64(0x5EED + dim as u64);
        let cache = random_cache(&mut rng, dim);
        let nb = cache.n_blocks();
        let mut parent: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..30.0)).collect();
        let mut parent_blocks = vec![Block::default(); nb];
        let mut parent_value = cache.eval_full(&parent, &mut parent_blocks);
        let mut child_blocks = vec![Block::default(); nb];
        let mut carried = 0;
        for step in 0..120 {
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
            let value = d.value.unwrap_or_else(|| {
                carried += 1;
                parent_value
            });
            assert!(
                bits_eq(value, reference),
                "dim {dim} step {step}: delta {value:?} vs full {reference:?}"
            );
            assert!(bits_eq(cache.combine(&child_blocks), reference));
            // Each block that differs anywhere is re-folded exactly once.
            let changed = child
                .chunks(BLOCK_LEN)
                .zip(parent.chunks(BLOCK_LEN))
                .filter(|(c, p)| c.iter().zip(*p).any(|(c, p)| c.to_bits() != p.to_bits()))
                .count();
            assert_eq!(
                d.blocks_recomputed as usize, changed,
                "dim {dim} step {step}"
            );
            parent = child;
            std::mem::swap(&mut parent_blocks, &mut child_blocks);
            parent_value = value;
        }
        assert!(carried > 0, "dim {dim}: no carried child in 120 steps");
    }
}
