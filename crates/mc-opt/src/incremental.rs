//! Incremental, batch-oriented evaluation of the paper's objective.
//!
//! The GA's hot loop evaluates Eq. 13 millions of times, but two-point
//! crossover and single-gene mutation change only a *contiguous slice* of
//! each child — most per-task terms are inherited bitwise from a parent
//! whose objective is already known. This module exploits that:
//!
//! * [`ObjectiveCache`] holds the per-task invariants (`ACET/T`, `σ/T`,
//!   the Eq. 9 feasibility threshold on `n`) in struct-of-arrays layout,
//!   and defines the objective's **canonical reduction order** over fixed
//!   16-gene *blocks*: each block folds its genes left-to-right into a
//!   partial (utilisation sum, no-switch product, feasibility break), and
//!   the block partials fold left-to-right into the final value. Float
//!   addition is not associative, so blocking is a *reassociation* — the
//!   blocked order is therefore the definition, used identically by every
//!   path (scalar, batch, delta, any thread count), and all paths agree
//!   bitwise. For ≤ 16 genes — a full paper-scale problem — one block
//!   covers the genome and the blocked order coincides bitwise with the
//!   plain left-to-right loop the objective historically used (`0.0 + x`
//!   and `1.0 × x` are exact); beyond that, regrouping shifts results by
//!   at most the usual last-ulp reassociation noise.
//! * [`ObjectiveCache::eval_delta`] re-derives a child's value from its
//!   parent's stored block partials: the candidate genes (the crossover
//!   span and the mutated gene) are compared bitwise against the parent
//!   and each block holding a differing one is re-folded once.
//!   Identical-by-construction to a full evaluation, and cross-checked by
//!   a debug-mode shadow full recompute.
//! * [`FlatPopulation`] is the strided SoA genome buffer shared with the
//!   GA, and [`ObjectiveCache::objective_batch`] evaluates a whole
//!   population against it in one contiguous pass (optionally fanned out
//!   over an [`mc_par::WorkerPool`], bit-identical for any thread count).
//!
//! The GA entry point [`optimize_incremental`] runs the standard GA loop
//! with the incremental backend and reports [`EvalStats`] — how many
//! evaluations were full folds, delta patches, or carried scores.

use crate::ga::{run_ga, EvalStats, GaConfig, GaResult, GeneBounds, IncrementalBackend};
use crate::problem::{HcTaskParams, ObjectiveValue};
use crate::OptError;
use mc_par::{DisjointSlice, ThreadBudget, WorkerPool};
use mc_sched::analysis::edf_vd;
use mc_stats::chebyshev;

/// Genes per reduction block. Small enough that a single mutated gene
/// re-folds at most 16 terms; large enough that the per-block bookkeeping
/// (24 bytes) stays a fraction of the genes it summarises.
pub const BLOCK_LEN: usize = 16;

/// In-block sentinel: no gene in the block failed Eq. 9.
const NO_BREAK: u32 = u32::MAX;

/// Partial reduction of one 16-gene block: the LO-utilisation sum and
/// no-switch product over the block's genes, folded left-to-right, plus
/// the in-block index of the first infeasible gene (if any; folding stops
/// there, matching the plain loop's early exit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    sum: f64,
    prod: f64,
    brk: u32,
}

impl Default for Block {
    /// The empty-block identity: zero sum, unit product, no break.
    fn default() -> Self {
        Block {
            sum: 0.0,
            prod: 1.0,
            brk: NO_BREAK,
        }
    }
}

/// Outcome of one [`ObjectiveCache::eval_delta`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaEval {
    /// The child's objective, or `None` when every candidate block was
    /// bitwise identical to the parent's — the parent's score (and its
    /// copied block row) stand unchanged.
    pub value: Option<ObjectiveValue>,
    /// Blocks re-folded by this call.
    pub blocks_recomputed: u32,
    /// Genes visited by those re-folds (the delta's actual work).
    pub genes_recomputed: u32,
}

/// A population of genomes in flat strided (struct-of-arrays) layout:
/// individual `i` occupies `[i·genes, (i+1)·genes)` of one contiguous
/// buffer, so batch evaluation walks memory sequentially and per-row
/// parallel writes never alias.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatPopulation {
    data: Vec<f64>,
    genes: usize,
}

impl FlatPopulation {
    /// An all-zero population of `individuals × genes`.
    ///
    /// # Panics
    ///
    /// Panics when `genes == 0`.
    pub fn zeroed(individuals: usize, genes: usize) -> Self {
        assert!(genes > 0, "a genome must have at least one gene");
        FlatPopulation {
            data: vec![0.0; individuals * genes],
            genes,
        }
    }

    /// Number of individuals.
    pub fn individuals(&self) -> usize {
        self.data.len() / self.genes
    }

    /// Genes per individual.
    pub fn genes(&self) -> usize {
        self.genes
    }

    /// Individual `i`'s genome.
    pub fn genome(&self, i: usize) -> &[f64] {
        &self.data[i * self.genes..(i + 1) * self.genes]
    }

    /// Mutable access to individual `i`'s genome.
    pub fn genome_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.genes..(i + 1) * self.genes]
    }

    /// The whole buffer, individual-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the whole buffer, individual-major.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterates the genomes in order.
    pub fn genomes(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.genes)
    }
}

/// Per-task objective invariants in struct-of-arrays layout, plus the
/// blocked-reduction machinery built on them. See the
/// [module docs](self) for the layout and the bit-identity argument.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveCache {
    /// `ACET/T` per task: the constant term of the LO utilisation.
    u_acet: Vec<f64>,
    /// `σ/T` per task: the per-factor slope of the LO utilisation.
    u_sigma: Vec<f64>,
    /// Largest factor passing Eq. 9's tolerance band
    /// (`ACET + n·σ ≤ WCET_pes + 1e-6`). `INFINITY` when σ = 0 and the
    /// ACET already fits; `NEG_INFINITY` when no factor can be feasible.
    n_max: Vec<f64>,
    /// `U_HC^HI` of the underlying set (fixed by the task set, needed by
    /// the Eq. 11–12 EDF-VD bound).
    u_hc_hi: f64,
}

impl ObjectiveCache {
    /// Precomputes the invariants for one task list.
    pub fn new(tasks: &[HcTaskParams], u_hc_hi: f64) -> Self {
        let mut cache = ObjectiveCache {
            u_acet: Vec::with_capacity(tasks.len()),
            u_sigma: Vec::with_capacity(tasks.len()),
            n_max: Vec::with_capacity(tasks.len()),
            u_hc_hi,
        };
        for t in tasks {
            let slack = t.wcet_pes + 1e-6 - t.acet;
            let n_max = if t.sigma > 0.0 {
                slack / t.sigma
            } else if slack >= 0.0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
            cache.u_acet.push(t.acet / t.period);
            cache.u_sigma.push(t.sigma / t.period);
            cache.n_max.push(n_max);
        }
        cache
    }

    /// Number of decision variables.
    pub fn dimension(&self) -> usize {
        self.u_acet.len()
    }

    /// Blocks per genome (`⌈dimension / 16⌉`).
    pub fn n_blocks(&self) -> usize {
        self.dimension().div_ceil(BLOCK_LEN)
    }

    /// `U_HC^HI` the cache was built with.
    pub fn u_hc_hi(&self) -> f64 {
        self.u_hc_hi
    }

    /// The gene index range of block `b`.
    fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        b * BLOCK_LEN..((b + 1) * BLOCK_LEN).min(self.dimension())
    }

    /// Evaluates the objective at a factor vector.
    ///
    /// # Panics
    ///
    /// Panics when `factors.len() != self.dimension()`.
    pub fn eval(&self, factors: &[f64]) -> ObjectiveValue {
        assert_eq!(factors.len(), self.dimension());
        self.eval_iter(factors.iter().copied())
    }

    /// The reference evaluation loop: one streaming pass, multiply-add per
    /// task, no allocation, accumulating in the canonical *blocked* order
    /// (16-gene partials folded left-to-right — see the module docs).
    /// Every other evaluation path in this module is bitwise identical to
    /// this one; for ≤ 16 genes the blocked order coincides bitwise with
    /// the plain left-to-right fold the objective historically used.
    pub(crate) fn eval_iter(&self, factors: impl Iterator<Item = f64>) -> ObjectiveValue {
        let mut u_hc_lo = 0.0;
        let mut no_switch = 1.0;
        let mut block_sum = 0.0;
        let mut block_prod = 1.0;
        for (i, n) in factors.enumerate() {
            if i % BLOCK_LEN == 0 && i > 0 {
                u_hc_lo += block_sum;
                no_switch *= block_prod;
                block_sum = 0.0;
                block_prod = 1.0;
            }
            // Eq. 9 as a precomputed threshold on `n` (death penalty —
            // bounds normally repair this already). The finiteness check
            // also guards the σ = 0 case, where `n_max` is infinite and
            // an infinite factor would otherwise slip through.
            if !n.is_finite() || n < 0.0 || n > self.n_max[i] {
                // Fold the broken block's partial sum (matching
                // `combine`'s early exit); its product is never consumed.
                u_hc_lo += block_sum;
                return ObjectiveValue {
                    p_ms: 1.0,
                    max_u_lc_lo: 0.0,
                    u_hc_lo,
                    fitness: 0.0,
                };
            }
            block_sum += self.u_acet[i] + n * self.u_sigma[i];
            block_prod *= 1.0 - chebyshev::one_sided_bound(n);
        }
        u_hc_lo += block_sum;
        no_switch *= block_prod;
        let p_ms = 1.0 - no_switch;
        let max_u_lc_lo = edf_vd::max_u_lc_lo(u_hc_lo, self.u_hc_hi);
        ObjectiveValue {
            p_ms,
            max_u_lc_lo,
            u_hc_lo,
            fitness: (1.0 - p_ms) * max_u_lc_lo,
        }
    }

    /// Folds block `b` of `genome`. Pure in the block's genes: the result
    /// never depends on other blocks, which is what makes per-block
    /// patching sound.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a block spans at most 16 genes"
    )]
    fn eval_block(&self, b: usize, genome: &[f64]) -> Block {
        let range = self.block_range(b);
        let start = range.start;
        let mut sum = 0.0;
        let mut prod = 1.0;
        for i in range {
            let n = genome[i];
            if !n.is_finite() || n < 0.0 || n > self.n_max[i] {
                // Partial fold up to the break, matching the reference
                // loop's early exit; the product past a break is never
                // consumed (see `combine`).
                return Block {
                    sum,
                    prod,
                    brk: (i - start) as u32,
                };
            }
            sum += self.u_acet[i] + n * self.u_sigma[i];
            prod *= 1.0 - chebyshev::one_sided_bound(n);
        }
        Block {
            sum,
            prod,
            brk: NO_BREAK,
        }
    }

    /// Folds stored block partials into the objective. Identical additions
    /// and multiplications as [`ObjectiveCache::eval`]: `0.0 + x` and
    /// `1.0 × x` are exact, so seeding the fold with the identities and
    /// then folding per-block partials reproduces the flat loop bit for
    /// bit.
    #[inline]
    pub fn combine(&self, blocks: &[Block]) -> ObjectiveValue {
        assert_eq!(blocks.len(), self.n_blocks());
        let mut u_hc_lo = 0.0;
        let mut no_switch = 1.0;
        for blk in blocks {
            u_hc_lo += blk.sum;
            if blk.brk != NO_BREAK {
                return ObjectiveValue {
                    p_ms: 1.0,
                    max_u_lc_lo: 0.0,
                    u_hc_lo,
                    fitness: 0.0,
                };
            }
            no_switch *= blk.prod;
        }
        let p_ms = 1.0 - no_switch;
        let max_u_lc_lo = edf_vd::max_u_lc_lo(u_hc_lo, self.u_hc_hi);
        ObjectiveValue {
            p_ms,
            max_u_lc_lo,
            u_hc_lo,
            fitness: (1.0 - p_ms) * max_u_lc_lo,
        }
    }

    /// Full evaluation that also materialises the genome's block partials
    /// into `blocks` (for later delta patching). Every block is folded —
    /// even past an infeasibility break, so a future delta that repairs
    /// the break finds the later partials valid.
    ///
    /// # Panics
    ///
    /// Panics on genome/buffer dimension mismatch.
    pub fn eval_full(&self, genome: &[f64], blocks: &mut [Block]) -> ObjectiveValue {
        assert_eq!(genome.len(), self.dimension());
        assert_eq!(blocks.len(), self.n_blocks());
        for (b, blk) in blocks.iter_mut().enumerate() {
            *blk = self.eval_block(b, genome);
        }
        let value = self.combine(blocks);
        debug_assert!(bits_eq(value, self.eval_iter(genome.iter().copied())));
        value
    }

    /// Derives a child's objective from its parent's block partials.
    ///
    /// `child` may differ from `parent` only at the candidate genes: the
    /// inclusive `crossover` gene span and the `mutated` gene (this is
    /// exactly what the GA's variation operators guarantee — clamping is
    /// the identity on already-in-bounds genes). The parent's partials are
    /// copied into `child_blocks`, the candidate genes are compared
    /// bitwise (`to_bits`, so the compare is exact and never panics), each
    /// block holding a differing one is re-folded once, and the partials
    /// are re-combined. By block purity this is bit-identical to a full
    /// evaluation; debug builds assert it against a shadow full
    /// recompute.
    ///
    /// Returns [`DeltaEval::value`]` = None` when nothing differed: the
    /// child is bitwise the parent, and the parent's score carries over.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches or out-of-range candidate indices.
    #[inline]
    pub fn eval_delta(
        &self,
        child: &[f64],
        parent: &[f64],
        parent_blocks: &[Block],
        child_blocks: &mut [Block],
        crossover: Option<(usize, usize)>,
        mutated: Option<usize>,
    ) -> DeltaEval {
        let dim = self.dimension();
        assert_eq!(child.len(), dim);
        assert_eq!(parent.len(), dim);
        child_blocks.copy_from_slice(parent_blocks);
        let differs = |g: usize| child[g].to_bits() != parent[g].to_bits();
        let mut blocks_recomputed = 0u32;
        let mut genes_recomputed = 0u32;
        // The first and last blocks re-folded for the span: a mutated gene
        // outside the span shares a block with it only at its ends.
        let mut folded = (usize::MAX, usize::MAX);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a block spans at most 16 genes"
        )]
        let mut refold = |b: usize| {
            child_blocks[b] = self.eval_block(b, child);
            blocks_recomputed += 1;
            genes_recomputed += self.block_range(b).len() as u32;
        };
        let span = crossover.map(|(lo, hi)| {
            assert!(lo <= hi && hi < dim);
            let mut g = lo;
            while g <= hi {
                if differs(g) {
                    let b = g / BLOCK_LEN;
                    refold(b);
                    folded = (folded.0.min(b), b);
                    g = (b + 1) * BLOCK_LEN;
                } else {
                    g += 1;
                }
            }
            lo..=hi
        });
        if let Some(g) = mutated {
            assert!(g < dim);
            let b = g / BLOCK_LEN;
            let covered =
                span.is_some_and(|span| span.contains(&g)) || b == folded.0 || b == folded.1;
            if !covered && differs(g) {
                refold(b);
            }
        }
        let value = if blocks_recomputed > 0 {
            Some(self.combine(child_blocks))
        } else {
            None
        };
        // Shadow full recompute: the patched partials must reproduce a
        // from-scratch evaluation bit for bit — this also catches a child
        // that differs from its parent *outside* the declared candidate
        // ranges (a provenance bug upstream).
        #[cfg(debug_assertions)]
        {
            let shadow = self.eval_iter(child.iter().copied());
            let got = self.combine(child_blocks);
            debug_assert!(
                bits_eq(got, shadow),
                "delta evaluation diverged from full recompute: {got:?} vs {shadow:?}"
            );
            debug_assert!(
                value.is_some()
                    || child
                        .iter()
                        .zip(parent)
                        .all(|(c, p)| c.to_bits() == p.to_bits()),
                "carried child differs from its parent outside the candidate ranges"
            );
        }
        DeltaEval {
            value,
            blocks_recomputed,
            genes_recomputed,
        }
    }

    /// Evaluates every genome of `genomes` into `out`, serially, in one
    /// contiguous pass over the SoA buffer.
    ///
    /// # Panics
    ///
    /// Panics when the population's gene count differs from the cache
    /// dimension or `out` is not one slot per individual.
    pub fn objective_batch(&self, genomes: &FlatPopulation, out: &mut [ObjectiveValue]) {
        assert_eq!(genomes.genes(), self.dimension());
        assert_eq!(out.len(), genomes.individuals());
        for (genome, slot) in genomes.genomes().zip(out.iter_mut()) {
            *slot = self.eval_iter(genome.iter().copied());
        }
    }

    /// [`ObjectiveCache::objective_batch`] fanned out over a worker pool.
    /// Bit-identical to the serial pass for any thread count: each slot is
    /// a pure function of its own genome.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ObjectiveCache::objective_batch`].
    pub fn objective_batch_with_pool(
        &self,
        pool: &WorkerPool,
        genomes: &FlatPopulation,
        out: &mut [ObjectiveValue],
    ) {
        assert_eq!(genomes.genes(), self.dimension());
        assert_eq!(out.len(), genomes.individuals());
        let slots = DisjointSlice::new(out);
        let slots = &slots;
        pool.for_each(genomes.individuals(), |i| {
            let value = self.eval_iter(genomes.genome(i).iter().copied());
            // SAFETY: the pool claims each index exactly once, so this
            // thread is the sole writer of slot `i`.
            unsafe { slots.write(i, value) };
        });
    }
}

/// Bitwise equality of two objective values (all four fields).
fn bits_eq(a: ObjectiveValue, b: ObjectiveValue) -> bool {
    a.p_ms.to_bits() == b.p_ms.to_bits()
        && a.max_u_lc_lo.to_bits() == b.max_u_lc_lo.to_bits()
        && a.u_hc_lo.to_bits() == b.u_hc_lo.to_bits()
        && a.fitness.to_bits() == b.fitness.to_bits()
}

/// Runs the GA with the incremental delta-fitness backend: children are
/// evaluated by patching their parent's block partials instead of a full
/// objective pass, and bitwise-unchanged children carry the parent's
/// score outright. Results are bit-identical to
/// [`optimize`](crate::ga::optimize) over the plain objective closure —
/// the backend changes evaluation *cost*, never values.
///
/// Returns the GA result plus the evaluation statistics (full vs delta vs
/// carried counts).
///
/// # Errors
///
/// Same conditions as [`optimize`](crate::ga::optimize), plus
/// [`OptError::DimensionMismatch`] when `bounds` does not match the cache
/// dimension.
pub fn optimize_incremental(
    cache: &ObjectiveCache,
    bounds: &[GeneBounds],
    cfg: &GaConfig,
) -> Result<(GaResult, EvalStats), OptError> {
    if !bounds.is_empty() && bounds.len() != cache.dimension() {
        return Err(OptError::DimensionMismatch {
            expected: cache.dimension(),
            got: bounds.len(),
        });
    }
    let pool = WorkerPool::with_budget(ThreadBudget::explicit(cfg.threads));
    let mut backend = IncrementalBackend::new(cache, cfg.serial_eval_threshold);
    run_ga(bounds, cfg, &pool, &mut backend)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(acet: f64, sigma: f64, wcet_pes: f64, period: f64) -> HcTaskParams {
        HcTaskParams {
            id: mc_task::TaskId::new(0),
            acet,
            sigma,
            wcet_pes,
            period,
        }
    }

    fn cache(n: usize) -> ObjectiveCache {
        let tasks: Vec<HcTaskParams> = (0..n)
            .map(|i| {
                let period = 1.0e8 + (i as f64) * 1.0e6;
                task(3.0e6, 0.5e6 + (i as f64) * 1.0e4, 3.0e7, period)
            })
            .collect();
        let u_hc_hi: f64 = tasks.iter().map(HcTaskParams::u_hi).sum();
        ObjectiveCache::new(&tasks, u_hc_hi)
    }

    #[test]
    fn blocked_full_matches_reference_across_dimensions() {
        // The bit-identity claim, checked across the single-block and
        // multi-block regimes (including exact multiples of 16).
        for n in [1usize, 2, 6, 15, 16, 17, 31, 32, 33, 40] {
            let c = cache(n);
            let genome: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37) % 9.0).collect();
            let mut blocks = vec![Block::default(); c.n_blocks()];
            let full = c.eval_full(&genome, &mut blocks);
            let reference = c.eval_iter(genome.iter().copied());
            assert!(bits_eq(full, reference), "dim {n}");
            assert!(bits_eq(c.combine(&blocks), reference), "dim {n}");
        }
    }

    #[test]
    fn infeasible_gene_matches_reference_partial_sum() {
        for n in [6usize, 20, 35] {
            let c = cache(n);
            for bad in [0, n / 2, n - 1] {
                let mut genome: Vec<f64> = vec![1.0; n];
                genome[bad] = -1.0; // fails the n ≥ 0 check
                let mut blocks = vec![Block::default(); c.n_blocks()];
                let full = c.eval_full(&genome, &mut blocks);
                let reference = c.eval_iter(genome.iter().copied());
                assert!(bits_eq(full, reference), "dim {n} bad {bad}");
                assert_eq!(full.fitness, 0.0);
                assert_eq!(full.p_ms, 1.0);
            }
        }
    }

    #[test]
    fn delta_patches_are_bit_identical_to_full() {
        let n = 40;
        let c = cache(n);
        let parent: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.1).collect();
        let mut parent_blocks = vec![Block::default(); c.n_blocks()];
        c.eval_full(&parent, &mut parent_blocks);
        let mut child_blocks = vec![Block::default(); c.n_blocks()];
        // A crossover span crossing a block boundary plus a far mutation.
        let mut child = parent.clone();
        for (g, x) in child.iter_mut().enumerate().take(19).skip(14) {
            *x = 5.0 + g as f64 * 0.01;
        }
        child[39] = 0.25;
        let d = c.eval_delta(
            &child,
            &parent,
            &parent_blocks,
            &mut child_blocks,
            Some((14, 18)),
            Some(39),
        );
        let value = d.value.expect("the child differs");
        assert!(bits_eq(value, c.eval_iter(child.iter().copied())));
        assert_eq!(d.blocks_recomputed, 3); // blocks 0, 1 and 2
                                            // Re-fold again from the child's own blocks: partials round-trip.
        assert!(bits_eq(c.combine(&child_blocks), value));
    }

    #[test]
    fn delta_detects_unchanged_children() {
        let n = 20;
        let c = cache(n);
        let parent: Vec<f64> = vec![2.0; n];
        let mut parent_blocks = vec![Block::default(); c.n_blocks()];
        let parent_value = c.eval_full(&parent, &mut parent_blocks);
        let mut child_blocks = vec![Block::default(); c.n_blocks()];
        // Crossover with an identical mate + mutation resampling the same
        // value: bitwise no-op, must be detected as carried.
        let d = c.eval_delta(
            &parent.clone(),
            &parent,
            &parent_blocks,
            &mut child_blocks,
            Some((3, 17)),
            Some(5),
        );
        assert_eq!(d.value, None);
        assert_eq!(d.blocks_recomputed, 0);
        assert!(bits_eq(c.combine(&child_blocks), parent_value));
    }

    #[test]
    fn delta_repairs_infeasibility_breaks() {
        // Parent is infeasible in block 0; the delta makes it feasible,
        // which forces the later blocks' stored partials to matter.
        let n = 35;
        let c = cache(n);
        let mut parent: Vec<f64> = vec![1.5; n];
        parent[2] = -3.0;
        let mut parent_blocks = vec![Block::default(); c.n_blocks()];
        let pv = c.eval_full(&parent, &mut parent_blocks);
        assert_eq!(pv.fitness, 0.0);
        let mut child = parent.clone();
        child[2] = 1.5;
        let mut child_blocks = vec![Block::default(); c.n_blocks()];
        let d = c.eval_delta(
            &child,
            &parent,
            &parent_blocks,
            &mut child_blocks,
            None,
            Some(2),
        );
        let value = d.value.expect("the child differs");
        // Feasibility is repaired (the later blocks' stored products were
        // consumed), even though 35 tasks at n = 1.5 overload EDF-VD and
        // keep the fitness itself at zero.
        assert!(value.p_ms < 1.0);
        assert!(bits_eq(value, c.eval_iter(child.iter().copied())));
    }

    #[test]
    fn batch_matches_scalar_and_threads() {
        let n = 33;
        let c = cache(n);
        let individuals = 37;
        let mut pop = FlatPopulation::zeroed(individuals, n);
        for i in 0..individuals {
            for (g, x) in pop.genome_mut(i).iter_mut().enumerate() {
                *x = ((i * 31 + g * 7) % 90) as f64 * 0.1;
            }
        }
        let zero = ObjectiveValue {
            p_ms: 0.0,
            max_u_lc_lo: 0.0,
            u_hc_lo: 0.0,
            fitness: 0.0,
        };
        let mut serial = vec![zero; individuals];
        c.objective_batch(&pop, &mut serial);
        for (i, v) in serial.iter().enumerate() {
            assert!(bits_eq(*v, c.eval(pop.genome(i))), "row {i}");
        }
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let mut out = vec![zero; individuals];
            c.objective_batch_with_pool(&pool, &pop, &mut out);
            for (a, b) in serial.iter().zip(&out) {
                assert!(bits_eq(*a, *b), "{threads} threads diverged");
            }
        }
    }

    #[test]
    fn flat_population_layout() {
        let mut p = FlatPopulation::zeroed(3, 4);
        assert_eq!(p.individuals(), 3);
        assert_eq!(p.genes(), 4);
        p.genome_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.genome(1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.genome(0), &[0.0; 4]);
        assert_eq!(p.genomes().count(), 3);
        assert_eq!(p.as_slice().len(), 12);
    }
}
