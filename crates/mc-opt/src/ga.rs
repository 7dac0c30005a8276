//! A from-scratch genetic algorithm.
//!
//! The paper solves its WCET-assignment problem (Eq. 13) with DEAP using
//! two-point crossover, single-point mutation, and tournament selection
//! with five participants (§V: `p_c = 0.8`, `p_m = 0.2`). This module
//! implements exactly that algorithm over bounded real-valued chromosomes,
//! generic in the fitness function, fully deterministic per seed.
//!
//! # Hot-path architecture
//!
//! The inner loop is allocation-free and parallel:
//!
//! * The population lives in one flat strided [`FlatPopulation`]
//!   (individual `i` occupies `[i·genes, (i+1)·genes)`), double-buffered
//!   across generations — variation writes offspring straight into the
//!   back buffer and the buffers swap, so no per-individual `Vec` is ever
//!   cloned.
//! * Fitness evaluation goes through a pluggable backend. The generic
//!   closure backend memoises genome → fitness and fans misses out over a
//!   shared [`mc_par::WorkerPool`] (`F: Sync`). The incremental backend
//!   (see [`crate::incremental`]) instead tracks each child's
//!   *provenance* — parent, crossover span, mutated gene — and patches
//!   the parent's cached partial reductions, or carries the parent's
//!   score outright when the variation was a bitwise no-op.
//! * All randomness stays confined to the serial variation phase, so
//!   results are **bit-identical for any thread count**
//!   ([`GaConfig::threads`]), and identical across backends (a backend
//!   changes evaluation cost, never values).
//! * When a generation's evaluation work (`pending genomes × genes`)
//!   falls below [`GaConfig::serial_eval_threshold`], dispatch stays on
//!   the calling thread even on a multi-thread pool — paper-scale
//!   problems are far cheaper than a wake/park cycle.

use crate::incremental::{Block, FlatPopulation, ObjectiveCache};
use crate::OptError;
use mc_par::{DisjointSlice, ThreadBudget, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Inclusive bounds for one gene.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneBounds {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound (≥ `lo`).
    pub hi: f64,
}

impl GeneBounds {
    /// Creates bounds after validating `lo ≤ hi` and finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidConfig`] on violation.
    pub fn new(lo: f64, hi: f64) -> Result<Self, OptError> {
        let bounds = GeneBounds { lo, hi };
        bounds.validate()?;
        Ok(bounds)
    }

    /// The checks of [`GeneBounds::new`], for bounds built another way
    /// (a struct literal or deserialization).
    fn validate(&self) -> Result<(), OptError> {
        if !self.lo.is_finite() || !self.hi.is_finite() || self.lo > self.hi {
            return Err(OptError::InvalidConfig {
                reason: "gene bounds must be finite with lo <= hi",
            });
        }
        Ok(())
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.hi > self.lo {
            rng.random_range(self.lo..=self.hi)
        } else {
            self.lo
        }
    }

    /// `f64::clamp` without its per-call `lo <= hi` assert, which
    /// [`run_ga`] checks once per run: the same comparisons in the same
    /// order, so NaN stays NaN and a signed zero keeps its sign.
    fn clamp(&self, x: f64) -> f64 {
        let x = if x < self.lo { self.lo } else { x };
        if x > self.hi {
            self.hi
        } else {
            x
        }
    }
}

/// GA hyper-parameters. Defaults match the paper's §V setup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Individuals per generation.
    pub population_size: usize,
    /// Number of generations to evolve.
    pub generations: usize,
    /// Probability that a selected pair undergoes two-point crossover.
    pub crossover_probability: f64,
    /// Probability that an offspring undergoes single-point mutation.
    pub mutation_probability: f64,
    /// Participants per tournament.
    pub tournament_size: usize,
    /// Best individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for fitness evaluation: `0` = all available cores,
    /// `1` = serial. A pure performance knob — results are bit-identical
    /// for any value because the RNG never leaves the serial variation
    /// phase. Campaign units, which already fan out over task sets, set
    /// this to their share of the campaign's [`mc_par::ThreadBudget`]
    /// (usually 1) so the two layers never oversubscribe the machine.
    #[serde(default)]
    pub threads: usize,
    /// Per-generation evaluation work (`pending genomes × genes`) below
    /// which dispatch stays serial even on a multi-thread pool, because
    /// the work is cheaper than waking the workers. `0` disables the
    /// fallback (always dispatch to the pool). Results are bit-identical
    /// either way; deserialized configs that omit the field get `0` (the
    /// historical always-dispatch behaviour), while
    /// [`GaConfig::default`] enables the fallback at a threshold
    /// comfortably above paper-scale generations (64 × 6 = 384).
    #[serde(default)]
    pub serial_eval_threshold: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population_size: 64,
            generations: 80,
            crossover_probability: 0.8,
            mutation_probability: 0.2,
            tournament_size: 5,
            elitism: 2,
            seed: 0,
            threads: 0,
            serial_eval_threshold: 8192,
        }
    }
}

impl GaConfig {
    fn validate(&self) -> Result<(), OptError> {
        let err = |reason| Err(OptError::InvalidConfig { reason });
        if self.population_size < 2 {
            return err("population_size must be at least 2");
        }
        if self.generations == 0 {
            return err("generations must be non-zero");
        }
        for (p, name) in [
            (self.crossover_probability, "crossover_probability"),
            (self.mutation_probability, "mutation_probability"),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                let _ = name;
                return err("probabilities must be in [0, 1]");
            }
        }
        if self.tournament_size == 0 || self.tournament_size > self.population_size {
            return err("tournament_size must be in [1, population_size]");
        }
        if self.elitism >= self.population_size {
            return err("elitism must be smaller than the population");
        }
        Ok(())
    }
}

/// Per-generation statistics, for convergence plots and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Best fitness in the generation.
    pub best: f64,
    /// Mean fitness of the generation.
    pub mean: f64,
}

/// Result of a GA run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaResult {
    /// The best chromosome found across all generations.
    pub best: Vec<f64>,
    /// Its fitness.
    pub best_fitness: f64,
    /// Per-generation convergence statistics.
    pub history: Vec<GenerationStats>,
}

/// How a run's objective evaluations were served. `considered` counts
/// every slot the GA asked a score for
/// (`full_evals + delta_evals + carried + memo_hits + batch_dups`);
/// `genes_evaluated / genes_total` is the fraction of gene-terms actually
/// folded — the incremental backend's work saving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalStats {
    /// Score requests across all generations (elites excluded — their
    /// scores carry over structurally).
    pub considered: u64,
    /// Full objective evaluations (every gene folded).
    pub full_evals: u64,
    /// Incremental evaluations (only changed blocks re-folded).
    pub delta_evals: u64,
    /// Children bitwise identical to their parent: score copied, nothing
    /// folded.
    pub carried: u64,
    /// Memo-cache hits on the closure path.
    pub memo_hits: u64,
    /// Within-generation duplicate genomes served from the batch table.
    pub batch_dups: u64,
    /// Gene-terms folded (full evaluations contribute their whole genome,
    /// deltas only the re-folded blocks).
    pub genes_evaluated: u64,
    /// Gene-terms a full-recompute evaluator would have folded
    /// (`considered × genes`).
    pub genes_total: u64,
}

/// Index sentinel in [`Provenance`]: no crossover / no mutation.
const NO_INDEX: u32 = u32::MAX;

/// Where one next-generation individual came from: its first parent and
/// the gene ranges variation may have touched. Genes outside the
/// crossover span and the mutated gene are bitwise inherited from the
/// parent (clamping is the identity on in-bounds genes), which is what
/// lets the incremental backend patch instead of recompute.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Provenance {
    parent: u32,
    x_lo: u32,
    x_hi: u32,
    mutated: u32,
}

impl Provenance {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "population and genome indices stay far below u32::MAX"
    )]
    fn child_of(parent: usize) -> Self {
        Provenance {
            parent: parent as u32,
            x_lo: NO_INDEX,
            x_hi: NO_INDEX,
            mutated: NO_INDEX,
        }
    }

    fn parent(self) -> usize {
        self.parent as usize
    }

    /// The inclusive crossover gene span, if the pair was crossed.
    fn crossover(self) -> Option<(usize, usize)> {
        (self.x_lo != NO_INDEX).then_some((self.x_lo as usize, self.x_hi as usize))
    }

    /// The mutated gene, if the child was mutated.
    fn mutation(self) -> Option<usize> {
        (self.mutated != NO_INDEX).then_some(self.mutated as usize)
    }
}

/// The previous generation, as the evaluation backends see it: genomes,
/// scores, and the provenance of every current-generation individual
/// (indexed by *current* slot; parents index into `pop`/`scores`).
pub(crate) struct PrevGen<'a> {
    pub pop: &'a FlatPopulation,
    pub scores: &'a [f64],
    pub prov: &'a [Provenance],
}

/// One generation's fitness evaluation. Implementations must be pure in
/// the genomes: `scores[i]` may depend only on genome `i` (and, through
/// carried scores, on bitwise-identical ancestors), never on thread
/// count or evaluation order.
pub(crate) trait EvalBackend {
    /// Writes `scores[i]` for every `i ≥ skip` (slots below `skip` hold
    /// carried-over elite scores). `prev` is `None` for the initial
    /// population and the previous generation afterwards.
    fn evaluate(
        &mut self,
        pool: &WorkerPool,
        pop: &FlatPopulation,
        prev: Option<PrevGen<'_>>,
        scores: &mut [f64],
        skip: usize,
        stats: &mut EvalStats,
    );
}

/// Maximises `fitness` over chromosomes bounded by `bounds`.
///
/// Fitness values must be finite; non-finite values are treated as
/// `f64::NEG_INFINITY` (never selected).
///
/// # Errors
///
/// Returns [`OptError::InvalidConfig`] for invalid hyper-parameters or a
/// bound that is not finite with `lo <= hi`, and
/// [`OptError::EmptyChromosome`] when `bounds` is empty.
///
/// # Example
///
/// ```
/// use mc_opt::ga::{optimize, GaConfig, GeneBounds};
///
/// # fn main() -> Result<(), mc_opt::OptError> {
/// // Maximise -(x-3)² over [0, 10]: optimum at x = 3.
/// let bounds = [GeneBounds::new(0.0, 10.0)?];
/// let result = optimize(&bounds, |c| -(c[0] - 3.0).powi(2), &GaConfig::default())?;
/// assert!((result.best[0] - 3.0).abs() < 0.5);
/// # Ok(())
/// # }
/// ```
pub fn optimize<F>(bounds: &[GeneBounds], fitness: F, cfg: &GaConfig) -> Result<GaResult, OptError>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    optimize_with_stats(bounds, fitness, cfg).map(|(result, _)| result)
}

/// [`optimize`], additionally reporting how the evaluations were served
/// (memo hits, batch duplicates, full evaluations).
///
/// # Errors
///
/// Same conditions as [`optimize`].
pub fn optimize_with_stats<F>(
    bounds: &[GeneBounds],
    fitness: F,
    cfg: &GaConfig,
) -> Result<(GaResult, EvalStats), OptError>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    let pool = WorkerPool::with_budget(ThreadBudget::explicit(cfg.threads));
    let mut backend = ClosureBackend::new(&fitness, cfg.serial_eval_threshold);
    run_ga(bounds, cfg, &pool, &mut backend)
}

/// The GA loop shared by every backend: selection, variation, elitism and
/// provenance tracking happen here, scoring is delegated.
pub(crate) fn run_ga<B: EvalBackend>(
    bounds: &[GeneBounds],
    cfg: &GaConfig,
    pool: &WorkerPool,
    backend: &mut B,
) -> Result<(GaResult, EvalStats), OptError> {
    cfg.validate()?;
    if bounds.is_empty() {
        return Err(OptError::EmptyChromosome);
    }
    for b in bounds {
        b.validate()?;
    }
    let _run_span = mc_obs::span("ga.run");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let genes = bounds.len();
    let pop_n = cfg.population_size;

    // Flat strided population, double-buffered: `pop` is the current
    // generation, `next` the one under construction. Scores ride along in
    // matching buffers so elite fitness carries over without re-evaluation.
    let mut pop = FlatPopulation::zeroed(pop_n, genes);
    let mut next = FlatPopulation::zeroed(pop_n, genes);
    let mut scores = vec![0.0f64; pop_n];
    let mut next_scores = vec![0.0f64; pop_n];
    // Overflow slot: the last pair's second child when the remaining room
    // is odd. It is bred (and consumes RNG draws) but never admitted.
    let mut spare = vec![0.0f64; genes];
    let mut elite: Vec<usize> = Vec::with_capacity(cfg.elitism);
    // Provenance of each `next` slot, for the incremental backend.
    let mut prov = vec![Provenance::child_of(0); pop_n];
    let mut stats = EvalStats::default();

    // Initial population: uniformly sampled within bounds.
    for chromosome in pop.as_mut_slice().chunks_exact_mut(genes) {
        for (x, b) in chromosome.iter_mut().zip(bounds) {
            *x = b.sample(&mut rng);
        }
    }
    stats.considered += pop_n as u64;
    stats.genes_total += (pop_n * genes) as u64;
    backend.evaluate(pool, &pop, None, &mut scores, 0, &mut stats);

    let mut best = pop.genome(0).to_vec();
    let mut best_fitness = scores[0];
    let mut history = Vec::with_capacity(cfg.generations);

    for generation in 0..cfg.generations {
        // Track statistics and the all-time best.
        let mut gen_best = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for (c, &s) in pop.genomes().zip(&scores) {
            if s > best_fitness {
                best_fitness = s;
                best.copy_from_slice(c);
            }
            gen_best = gen_best.max(s);
            sum += if s.is_finite() { s } else { 0.0 };
        }
        history.push(GenerationStats {
            generation,
            best: gen_best,
            mean: sum / pop_n as f64,
        });

        // Elitism: carry the top individuals over unchanged, scores
        // included.
        let elites = cfg.elitism;
        top_k(&scores, elites, &mut elite);
        for (slot, &i) in elite.iter().enumerate() {
            next.genome_mut(slot).copy_from_slice(pop.genome(i));
            next_scores[slot] = scores[i];
            prov[slot] = Provenance::child_of(i);
        }

        // Fill the rest via tournament selection + variation. All RNG
        // draws happen here, on one serial stream.
        let mut filled = elites;
        while filled < pop_n {
            let a = tournament(&scores, cfg.tournament_size, &mut rng);
            let b = tournament(&scores, cfg.tournament_size, &mut rng);
            let paired = filled + 1 < pop_n;
            let (head, tail) = next.as_mut_slice().split_at_mut((filled + 1) * genes);
            let child1 = &mut head[filled * genes..];
            let child2: &mut [f64] = if paired {
                &mut tail[..genes]
            } else {
                &mut spare[..]
            };
            child1.copy_from_slice(pop.genome(a));
            child2.copy_from_slice(pop.genome(b));
            let mut pv1 = Provenance::child_of(a);
            let mut pv2 = Provenance::child_of(b);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "population and genome indices stay far below u32::MAX"
            )]
            if rng.random::<f64>() < cfg.crossover_probability {
                let (p1, p2) = two_point_crossover(child1, child2, &mut rng);
                (pv1.x_lo, pv1.x_hi) = (p1 as u32, p2 as u32);
                (pv2.x_lo, pv2.x_hi) = (p1 as u32, p2 as u32);
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "population and genome indices stay far below u32::MAX"
            )]
            for (child, pv) in [(&mut *child1, &mut pv1), (child2, &mut pv2)] {
                if rng.random::<f64>() < cfg.mutation_probability {
                    let g = rng.random_range(0..genes);
                    child[g] = bounds[g].sample(&mut rng);
                    pv.mutated = g as u32;
                }
                for (x, b) in child.iter_mut().zip(bounds) {
                    *x = b.clamp(*x);
                }
            }
            prov[filled] = pv1;
            if paired {
                prov[filled + 1] = pv2;
            }
            filled += if paired { 2 } else { 1 };
        }

        std::mem::swap(&mut pop, &mut next);
        std::mem::swap(&mut scores, &mut next_scores);
        stats.considered += (pop_n - elites) as u64;
        stats.genes_total += ((pop_n - elites) * genes) as u64;
        backend.evaluate(
            pool,
            &pop,
            Some(PrevGen {
                pop: &next,
                scores: &next_scores,
                prov: &prov,
            }),
            &mut scores,
            elites,
            &mut stats,
        );
    }

    // Final sweep over the last generation.
    for (c, &s) in pop.genomes().zip(&scores) {
        if s > best_fitness {
            best_fitness = s;
            best.copy_from_slice(c);
        }
    }

    Ok((
        GaResult {
            best,
            best_fitness,
            history,
        },
        stats,
    ))
}

/// Clamps non-finite fitness to `NEG_INFINITY` (never selected).
fn sanitize(f: f64) -> f64 {
    if f.is_finite() {
        f
    } else {
        f64::NEG_INFINITY
    }
}

/// Entries past this point evict the whole cache — a backstop for huge
/// search budgets, far above the paper-scale 64 × 80 runs.
const MEMO_CAPACITY: usize = 1 << 17;

/// Hashes a chromosome's IEEE-754 bit patterns with a SplitMix-style
/// multiplicative mix. The WCET objective is only a handful of FMAs per
/// task, so a memo probe must cost nanoseconds to pay for itself —
/// SipHash (or hashing the genome more than once per evaluation) would
/// cost more than the evaluations it saves. Genome bit patterns are not
/// attacker-controlled, so a fast non-cryptographic mix is safe here.
fn hash_genome(chromosome: &[f64]) -> u64 {
    let mut h = 0xA076_1D64_78BD_642Fu64;
    for x in chromosome {
        h = (h ^ x.to_bits())
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }
    // Final avalanche so the table's bucket index (the low bits) depends
    // on every gene.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 31)
}

/// Slot sentinel: `offset == usize::MAX` marks an empty slot.
const EMPTY: usize = usize::MAX;

#[derive(Clone, Copy)]
struct Slot<V> {
    hash: u64,
    /// Start of the key's bit pattern in the arena, or [`EMPTY`].
    offset: usize,
    value: V,
}

/// Open-addressed genome → value table, tuned for the evaluation hot
/// path: the caller hashes each genome once (via [`hash_genome`]) and
/// passes the hash to every operation, keys live back-to-back in a
/// shared arena (no per-entry boxing), and lookups are a masked index
/// plus a linear probe. Keys are the genes' bit patterns, so a hit is
/// bit-exact: it returns the identical value a fresh evaluation would
/// (fitness functions are required to be pure).
struct GenomeTable<V> {
    /// Power-of-two slot array; load factor kept below 0.7.
    slots: Vec<Slot<V>>,
    /// Key storage: each entry's genes as `f64::to_bits`, contiguous.
    arena: Vec<u64>,
    len: usize,
}

impl<V: Copy + Default> GenomeTable<V> {
    fn new() -> Self {
        GenomeTable {
            slots: Vec::new(),
            arena: Vec::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Drops all entries but keeps the allocations.
    fn clear(&mut self) {
        self.slots.fill(Slot {
            hash: 0,
            offset: EMPTY,
            value: V::default(),
        });
        self.arena.clear();
        self.len = 0;
    }

    fn key_eq(&self, offset: usize, key: &[f64]) -> bool {
        self.arena[offset..offset + key.len()]
            .iter()
            .zip(key)
            .all(|(&stored, x)| stored == x.to_bits())
    }

    fn get(&self, hash: u64, key: &[f64]) -> Option<V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the mask keeps only the low bits, which truncation keeps too"
        )]
        let mut idx = hash as usize & mask;
        loop {
            let slot = &self.slots[idx];
            if slot.offset == EMPTY {
                return None;
            }
            if slot.hash == hash && self.key_eq(slot.offset, key) {
                return Some(slot.value);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Inserts a key the caller has just verified absent via [`get`].
    fn insert(&mut self, hash: u64, key: &[f64], value: V) {
        if (self.len + 1) * 10 >= self.slots.len() * 7 {
            self.grow();
        }
        let offset = self.arena.len();
        self.arena.extend(key.iter().map(|x| x.to_bits()));
        let mask = self.slots.len() - 1;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the mask keeps only the low bits, which truncation keeps too"
        )]
        let mut idx = hash as usize & mask;
        while self.slots[idx].offset != EMPTY {
            idx = (idx + 1) & mask;
        }
        self.slots[idx] = Slot {
            hash,
            offset,
            value,
        };
        self.len += 1;
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                Slot {
                    hash: 0,
                    offset: EMPTY,
                    value: V::default(),
                };
                cap
            ],
        );
        let mask = cap - 1;
        for slot in old {
            if slot.offset == EMPTY {
                continue;
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the mask keeps only the low bits, which truncation keeps too"
            )]
            let mut idx = slot.hash as usize & mask;
            while self.slots[idx].offset != EMPTY {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = slot;
        }
    }
}

/// Closure-fitness backend: memo cache plus reusable dispatch buffers, so
/// the per-generation evaluation allocates nothing on the steady path
/// (table growth amortizes away once the cache warms up).
struct ClosureBackend<'f, F> {
    fitness: &'f F,
    serial_threshold: usize,
    /// Genome → fitness, persistent across generations.
    memo: GenomeTable<f64>,
    /// Genome → pending slot for the current batch only. Converged
    /// populations breed many identical offspring per generation; each
    /// unique genome is dispatched exactly once.
    batch: GenomeTable<usize>,
    /// Indices whose genome missed the memo cache this round.
    pending: Vec<usize>,
    /// Their genome hashes, kept so the post-evaluation memo insert
    /// does not hash a second time.
    pending_hashes: Vec<u64>,
    /// Their freshly computed scores, filled in parallel.
    pending_scores: Vec<f64>,
    /// Within-batch duplicates: `(individual, pending slot to copy)`.
    dups: Vec<(usize, usize)>,
}

impl<'f, F> ClosureBackend<'f, F> {
    fn new(fitness: &'f F, serial_threshold: usize) -> Self {
        ClosureBackend {
            fitness,
            serial_threshold,
            memo: GenomeTable::new(),
            batch: GenomeTable::new(),
            pending: Vec::new(),
            pending_hashes: Vec::new(),
            pending_scores: Vec::new(),
            dups: Vec::new(),
        }
    }
}

impl<F> EvalBackend for ClosureBackend<'_, F>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    /// Memo hits are served serially; unique misses fan out over `pool`
    /// (or stay on the calling thread below the serial threshold). Each
    /// genome is hashed exactly once per call.
    fn evaluate(
        &mut self,
        pool: &WorkerPool,
        pop: &FlatPopulation,
        _prev: Option<PrevGen<'_>>,
        scores: &mut [f64],
        skip: usize,
        stats: &mut EvalStats,
    ) {
        let genes = pop.genes();
        let flat = pop.as_slice();
        self.pending.clear();
        self.pending_hashes.clear();
        self.dups.clear();
        self.batch.clear();
        for (i, score) in scores.iter_mut().enumerate().skip(skip) {
            let key = pop.genome(i);
            let hash = hash_genome(key);
            if let Some(cached) = self.memo.get(hash, key) {
                *score = cached;
            } else if let Some(slot) = self.batch.get(hash, key) {
                self.dups.push((i, slot));
            } else {
                self.batch.insert(hash, key, self.pending.len());
                self.pending_hashes.push(hash);
                self.pending.push(i);
            }
        }
        let considered = (scores.len() - skip) as u64;
        let misses = self.pending.len() as u64;
        let dups = self.dups.len() as u64;
        stats.full_evals += misses;
        stats.memo_hits += considered - misses - dups;
        stats.batch_dups += dups;
        stats.genes_evaluated += misses * genes as u64;
        if mc_obs::is_enabled() {
            mc_obs::counter("ga.evals", misses);
            mc_obs::counter("ga.memo_hits", considered - misses - dups);
            mc_obs::counter("ga.batch_dups", dups);
        }
        self.pending_scores.resize(self.pending.len(), 0.0);
        let pending = &self.pending;
        let fitness = self.fitness;
        let score_of = |j: usize| {
            let i = pending[j];
            sanitize(fitness(&flat[i * genes..(i + 1) * genes]))
        };
        if self.serial_threshold > 0 && pending.len() * genes < self.serial_threshold {
            for (j, slot) in self.pending_scores.iter_mut().enumerate() {
                *slot = score_of(j);
            }
        } else {
            pool.fill(&mut self.pending_scores, score_of);
        }
        if self.memo.len() + self.pending.len() >= MEMO_CAPACITY {
            self.memo.clear();
        }
        for ((&i, &hash), &s) in self
            .pending
            .iter()
            .zip(&self.pending_hashes)
            .zip(&self.pending_scores)
        {
            scores[i] = s;
            self.memo.insert(hash, pop.genome(i), s);
        }
        for &(i, slot) in &self.dups {
            scores[i] = self.pending_scores[slot];
        }
    }
}

/// Incremental delta-fitness backend over an
/// [`ObjectiveCache`](crate::incremental::ObjectiveCache): each
/// individual's per-block partial reductions are kept alongside its
/// genome (double-buffered the same way), children are scored by patching
/// their parent's partials, and bitwise-unchanged children carry the
/// parent's score without touching a single gene.
pub(crate) struct IncrementalBackend<'c> {
    cache: &'c ObjectiveCache,
    serial_threshold: usize,
    /// Block partials of the generation being scored (row `i` is
    /// individual `i`'s blocks).
    cur: Vec<Block>,
    /// Block partials of the previous generation.
    prev: Vec<Block>,
}

impl<'c> IncrementalBackend<'c> {
    pub(crate) fn new(cache: &'c ObjectiveCache, serial_threshold: usize) -> Self {
        IncrementalBackend {
            cache,
            serial_threshold,
            cur: Vec::new(),
            prev: Vec::new(),
        }
    }
}

impl EvalBackend for IncrementalBackend<'_> {
    fn evaluate(
        &mut self,
        pool: &WorkerPool,
        pop: &FlatPopulation,
        prev: Option<PrevGen<'_>>,
        scores: &mut [f64],
        skip: usize,
        stats: &mut EvalStats,
    ) {
        let nb = self.cache.n_blocks();
        let n = scores.len();
        let genes = pop.genes();
        let serial = |work: usize| self.serial_threshold > 0 && work < self.serial_threshold;
        let Some(pg) = prev else {
            // Initial population: full evaluation, partials materialised.
            self.cur.clear();
            self.cur.resize(n * nb, Block::default());
            self.prev.clear();
            self.prev.resize(n * nb, Block::default());
            let cache = self.cache;
            if serial(n * genes) || pool.threads() == 1 {
                for (i, row) in self.cur.chunks_exact_mut(nb).enumerate() {
                    scores[i] = cache.eval_full(pop.genome(i), row).fitness;
                }
            } else {
                let rows = DisjointSlice::new(&mut self.cur);
                let slots = DisjointSlice::new(scores);
                let (rows, slots) = (&rows, &slots);
                pool.for_each(n, |i| {
                    // SAFETY: per-index rows are pairwise disjoint and the
                    // pool claims each index exactly once.
                    let row = unsafe { rows.slice_mut(i * nb, nb) };
                    let value = cache.eval_full(pop.genome(i), row);
                    // SAFETY: sole writer of slot `i` (same claim).
                    unsafe { slots.write(i, value.fitness) };
                });
            }
            stats.full_evals += n as u64;
            stats.genes_evaluated += (n * genes) as u64;
            if mc_obs::is_enabled() {
                mc_obs::counter("ga.evals", n as u64);
                mc_obs::counter("ga.genes_evaluated", (n * genes) as u64);
            }
            return;
        };

        // `cur` holds the previous generation's rows (written when that
        // generation was scored); swap so they become the delta source and
        // this generation's rows overwrite the older scratch buffer.
        std::mem::swap(&mut self.cur, &mut self.prev);
        let cache = self.cache;
        let (cur, prev_rows) = (&mut self.cur, &self.prev);
        // Elites first: their rows copy over with their carried scores.
        for slot in 0..skip {
            let parent = pg.prov[slot].parent();
            cur[slot * nb..(slot + 1) * nb]
                .copy_from_slice(&prev_rows[parent * nb..(parent + 1) * nb]);
        }
        let mut delta = 0u64;
        let mut carried = 0u64;
        let mut genes_re = 0u64;
        if serial((n - skip) * genes) || pool.threads() == 1 {
            for i in skip..n {
                let pv = pg.prov[i];
                let parent = pv.parent();
                let d = cache.eval_delta(
                    pop.genome(i),
                    pg.pop.genome(parent),
                    &prev_rows[parent * nb..(parent + 1) * nb],
                    &mut cur[i * nb..(i + 1) * nb],
                    pv.crossover(),
                    pv.mutation(),
                );
                match d.value {
                    Some(v) => {
                        scores[i] = v.fitness;
                        delta += 1;
                        genes_re += u64::from(d.genes_recomputed);
                    }
                    None => {
                        scores[i] = pg.scores[parent];
                        carried += 1;
                    }
                }
            }
        } else {
            let delta_ct = AtomicU64::new(0);
            let carried_ct = AtomicU64::new(0);
            let genes_ct = AtomicU64::new(0);
            let rows = DisjointSlice::new(cur);
            let slots = DisjointSlice::new(scores);
            let (rows, slots) = (&rows, &slots);
            pool.for_each(n - skip, |j| {
                let i = skip + j;
                let pv = pg.prov[i];
                let parent = pv.parent();
                // SAFETY: the pool claims each index exactly once and
                // per-index rows are pairwise disjoint (elite rows below
                // `skip` are never indexed here).
                let row = unsafe { rows.slice_mut(i * nb, nb) };
                let d = cache.eval_delta(
                    pop.genome(i),
                    pg.pop.genome(parent),
                    &prev_rows[parent * nb..(parent + 1) * nb],
                    row,
                    pv.crossover(),
                    pv.mutation(),
                );
                match d.value {
                    Some(v) => {
                        // SAFETY: sole writer of slot `i` (same claim).
                        unsafe { slots.write(i, v.fitness) };
                        delta_ct.fetch_add(1, Ordering::Relaxed);
                        genes_ct.fetch_add(u64::from(d.genes_recomputed), Ordering::Relaxed);
                    }
                    None => {
                        // SAFETY: sole writer of slot `i` (same claim).
                        unsafe { slots.write(i, pg.scores[parent]) };
                        carried_ct.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            delta = delta_ct.into_inner();
            carried = carried_ct.into_inner();
            genes_re = genes_ct.into_inner();
        }
        stats.delta_evals += delta;
        stats.carried += carried;
        stats.genes_evaluated += genes_re;
        if mc_obs::is_enabled() {
            mc_obs::counter("ga.evals", delta);
            mc_obs::counter("ga.delta_evals", delta);
            mc_obs::counter("ga.carried", carried);
            mc_obs::counter("ga.genes_evaluated", genes_re);
        }
    }
}

/// Writes into `top` the indices of the `k` best scores, best first:
/// descending under `total_cmp` (so even NaN has a place), ties broken by
/// the lower index. That is the first `k` entries of a stable descending
/// sort, found in one pass over `scores` with an insertion into `top`.
fn top_k(scores: &[f64], k: usize, top: &mut Vec<usize>) {
    top.clear();
    if k == 0 {
        return;
    }
    for (i, s) in scores.iter().enumerate() {
        if top.len() == k {
            // A later index must beat the last kept one strictly.
            if s.total_cmp(&scores[top[k - 1]]).is_le() {
                continue;
            }
            top.pop();
        }
        let at = top.partition_point(|&j| scores[j].total_cmp(s).is_ge());
        top.insert(at, i);
    }
}

/// Tournament selection: the fittest of `k` uniformly drawn individuals.
/// A challenger wins only with a strictly higher score, so ties (and NaN)
/// keep the earlier draw; the pick is a select, not a data-dependent
/// branch.
fn tournament<R: Rng + ?Sized>(scores: &[f64], k: usize, rng: &mut R) -> usize {
    let mut winner = rng.random_range(0..scores.len());
    let mut best = scores[winner];
    for _ in 1..k {
        let challenger = rng.random_range(0..scores.len());
        let score = scores[challenger];
        let wins = score > best;
        winner = std::hint::select_unpredictable(wins, challenger, winner);
        best = std::hint::select_unpredictable(wins, score, best);
    }
    winner
}

/// Two-point crossover: swaps the segment between two cut points and
/// returns the inclusive `(lo, hi)` span that was exchanged.
/// Degenerates to a full swap, drawing nothing, for single-gene
/// chromosomes.
fn two_point_crossover<R: Rng + ?Sized>(
    a: &mut [f64],
    b: &mut [f64],
    rng: &mut R,
) -> (usize, usize) {
    let n = a.len();
    let (lo, hi) = if n == 1 {
        (0, 0)
    } else {
        let p1 = rng.random_range(0..n);
        let p2 = rng.random_range(0..n);
        (p1.min(p2), p1.max(p2))
    };
    a[lo..=hi].swap_with_slice(&mut b[lo..=hi]);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let ok = GaConfig::default();
        assert!(ok.validate().is_ok());
        assert!(GaConfig {
            population_size: 1,
            ..ok
        }
        .validate()
        .is_err());
        assert!(GaConfig {
            generations: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(GaConfig {
            crossover_probability: 1.1,
            ..ok
        }
        .validate()
        .is_err());
        assert!(GaConfig {
            mutation_probability: -0.1,
            ..ok
        }
        .validate()
        .is_err());
        assert!(GaConfig {
            tournament_size: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(GaConfig {
            tournament_size: 100,
            population_size: 10,
            ..ok
        }
        .validate()
        .is_err());
        assert!(GaConfig { elitism: 64, ..ok }.validate().is_err());
    }

    #[test]
    fn config_deserializes_without_new_knobs() {
        // Configs serialized before the serial knob existed must keep their
        // historical behaviour: fallback disabled.
        let cfg: GaConfig = serde_json::from_str(
            r#"{"population_size":64,"generations":80,"crossover_probability":0.8,
                "mutation_probability":0.2,"tournament_size":5,"elitism":2,"seed":0}"#,
        )
        .unwrap();
        assert_eq!(cfg.serial_eval_threshold, 0);
        assert_eq!(cfg.threads, 0);
        // Unknown keys, such as a knob a later version removed, are ignored.
        let old: GaConfig = serde_json::from_str(
            r#"{"population_size":64,"generations":80,"crossover_probability":0.8,
                "mutation_probability":0.2,"tournament_size":5,"elitism":2,"seed":0,
                "removed_knob":true}"#,
        )
        .unwrap();
        assert_eq!(old, cfg);
    }

    #[test]
    fn bounds_validation() {
        assert!(GeneBounds::new(1.0, 0.0).is_err());
        assert!(GeneBounds::new(f64::NAN, 1.0).is_err());
        assert!(GeneBounds::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn empty_chromosome_is_rejected() {
        let r = optimize(&[], |_| 0.0, &GaConfig::default());
        assert!(matches!(r.unwrap_err(), OptError::EmptyChromosome));
    }

    #[test]
    fn finds_one_dimensional_optimum() {
        let bounds = [GeneBounds::new(0.0, 10.0).unwrap()];
        let r = optimize(&bounds, |c| -(c[0] - 7.0).powi(2), &GaConfig::default()).unwrap();
        assert!((r.best[0] - 7.0).abs() < 0.3, "got {}", r.best[0]);
    }

    #[test]
    fn finds_multi_dimensional_optimum() {
        // Sphere function, optimum at (1, 2, 3, 4).
        let target = [1.0, 2.0, 3.0, 4.0];
        let bounds: Vec<GeneBounds> = (0..4).map(|_| GeneBounds::new(0.0, 5.0).unwrap()).collect();
        let cfg = GaConfig {
            generations: 200,
            population_size: 128,
            ..GaConfig::default()
        };
        let r = optimize(
            &bounds,
            |c| {
                -c.iter()
                    .zip(&target)
                    .map(|(x, t)| (x - t).powi(2))
                    .sum::<f64>()
            },
            &cfg,
        )
        .unwrap();
        for (x, t) in r.best.iter().zip(&target) {
            assert!((x - t).abs() < 0.5, "got {:?}", r.best);
        }
    }

    #[test]
    fn respects_bounds() {
        let bounds = [
            GeneBounds::new(2.0, 3.0).unwrap(),
            GeneBounds::new(-1.0, 0.5).unwrap(),
        ];
        let r = optimize(&bounds, |c| c.iter().sum(), &GaConfig::default()).unwrap();
        assert!((2.0..=3.0).contains(&r.best[0]));
        assert!((-1.0..=0.5).contains(&r.best[1]));
        // Maximising the sum drives genes to their upper bounds.
        assert!(r.best[0] > 2.9);
        assert!(r.best[1] > 0.4);
    }

    #[test]
    fn deterministic_per_seed() {
        let bounds = [GeneBounds::new(0.0, 1.0).unwrap(); 3];
        let cfg = GaConfig::default();
        let a = optimize(&bounds, |c| c.iter().sum(), &cfg).unwrap();
        let b = optimize(&bounds, |c| c.iter().sum(), &cfg).unwrap();
        assert_eq!(a, b);
        let cfg2 = GaConfig { seed: 1, ..cfg };
        let c = optimize(&bounds, |x| x.iter().sum(), &cfg2).unwrap();
        // Different seed explores differently (history differs even if the
        // optimum coincides).
        assert_ne!(a.history, c.history);
    }

    #[test]
    fn serial_threshold_is_a_pure_perf_knob() {
        // The auto-serial fallback changes evaluation cost, never values:
        // every threshold and thread count must produce the byte-identical
        // GaResult.
        let bounds = [GeneBounds::new(0.0, 1.0).unwrap(); 5];
        let f = |c: &[f64]| c.iter().map(|x| x * (1.0 - x)).sum::<f64>();
        let cfg = GaConfig {
            generations: 20,
            population_size: 32,
            threads: 1,
            ..GaConfig::default()
        };
        let reference = optimize(&bounds, f, &cfg).unwrap();
        for serial_eval_threshold in [0, 1, 8192, usize::MAX] {
            for threads in [1, 2] {
                let cfg = GaConfig {
                    serial_eval_threshold,
                    threads,
                    ..cfg
                };
                let r = optimize(&bounds, f, &cfg).unwrap();
                assert_eq!(
                    r, reference,
                    "threshold={serial_eval_threshold} threads={threads} diverged"
                );
            }
        }
    }

    #[test]
    fn eval_stats_are_consistent() {
        let bounds = [GeneBounds::new(0.0, 1.0).unwrap(); 4];
        let f = |c: &[f64]| c.iter().sum::<f64>();
        let cfg = GaConfig {
            generations: 15,
            population_size: 24,
            threads: 1,
            ..GaConfig::default()
        };
        let (_, stats) = optimize_with_stats(&bounds, f, &cfg).unwrap();
        // Every considered slot was served exactly one way.
        assert_eq!(
            stats.considered,
            stats.full_evals
                + stats.delta_evals
                + stats.carried
                + stats.memo_hits
                + stats.batch_dups
        );
        // Gen 0 evaluates the whole population; later generations skip
        // elites.
        assert_eq!(stats.considered, 24 + 15 * (24 - 2));
        assert_eq!(stats.genes_total, stats.considered * 4);
        assert_eq!(stats.genes_evaluated, stats.full_evals * 4);
        // A converging run must hit the memo at least once.
        assert!(stats.memo_hits > 0);
        // The closure path never delta-patches or carries.
        assert_eq!(stats.delta_evals, 0);
        assert_eq!(stats.carried, 0);
    }

    #[test]
    fn best_fitness_is_monotone_over_generations() {
        let bounds = [GeneBounds::new(-5.0, 5.0).unwrap(); 2];
        let r = optimize(
            &bounds,
            |c| -(c[0].powi(2) + c[1].powi(2)),
            &GaConfig::default(),
        )
        .unwrap();
        // With elitism, the running best never regresses.
        let mut prev = f64::NEG_INFINITY;
        for g in &r.history {
            assert!(g.best >= prev - 1e-12, "generation {}", g.generation);
            prev = g.best;
        }
    }

    #[test]
    fn every_genome_non_finite_still_completes() {
        // Regression: with *every* objective value non-finite the elitism
        // ordering must stay total (no partial_cmp panic) and the run must
        // finish with the sentinel best rather than aborting.
        let bounds = [GeneBounds::new(0.0, 1.0).unwrap(); 2];
        let cfg = GaConfig {
            generations: 5,
            population_size: 16,
            elitism: 4,
            ..GaConfig::default()
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let r = optimize(&bounds, |_| bad, &cfg).unwrap();
            assert_eq!(r.best_fitness, f64::NEG_INFINITY, "objective {bad}");
            assert!(r.history.iter().all(|g| g.best == f64::NEG_INFINITY));
        }
    }

    #[test]
    fn non_finite_fitness_is_never_selected_as_best() {
        let bounds = [GeneBounds::new(0.0, 1.0).unwrap()];
        // NaN on the left half, increasing on the right half.
        let r = optimize(
            &bounds,
            |c| {
                if c[0] < 0.5 {
                    f64::NAN
                } else {
                    c[0]
                }
            },
            &GaConfig::default(),
        )
        .unwrap();
        assert!(r.best[0] >= 0.5);
        assert!(r.best_fitness.is_finite());
    }

    #[test]
    fn a_bad_bound_is_an_error_not_a_panic() {
        let good = GeneBounds::new(0.0, 1.0).unwrap();
        let inverted: GeneBounds = serde_json::from_str(r#"{"lo":1.0,"hi":0.0}"#).unwrap();
        for bad in [
            inverted,
            GeneBounds {
                lo: f64::NAN,
                hi: 1.0,
            },
            GeneBounds {
                lo: 0.0,
                hi: f64::INFINITY,
            },
        ] {
            let r = optimize(&[good, bad], |c| c.iter().sum(), &GaConfig::default());
            assert!(
                matches!(r, Err(OptError::InvalidConfig { .. })),
                "{bad:?}: {r:?}"
            );
        }
    }

    #[test]
    fn clamp_matches_f64_clamp_bit_for_bit() {
        let special = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1e-300,
            -1e-300,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let mut xs = special.to_vec();
        xs.extend((0..64).map(|_| rng.random_range(-2.0..2.0)));
        let ends: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        for &lo in &ends {
            for &hi in ends.iter().filter(|&&hi| lo <= hi) {
                let b = GeneBounds::new(lo, hi).unwrap();
                for &x in &xs {
                    assert_eq!(
                        b.clamp(x).to_bits(),
                        x.clamp(lo, hi).to_bits(),
                        "clamp({x:?}) to [{lo:?}, {hi:?}]"
                    );
                }
            }
        }
    }

    /// Scores drawn half from a small pool, so ties are common, with the
    /// values an ordering must place: ±0.0, ±∞ and NaN of either sign.
    fn random_scores(rng: &mut StdRng, n: usize) -> Vec<f64> {
        const POOL: [f64; 10] = [
            0.0,
            -0.0,
            0.25,
            0.5,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            0.75,
        ];
        (0..n)
            .map(|_| {
                if rng.random::<f64>() < 0.5 {
                    POOL[rng.random_range(0..POOL.len())]
                } else {
                    rng.random::<f64>()
                }
            })
            .collect()
    }

    #[test]
    fn top_k_matches_a_stable_descending_sort() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut top = Vec::new();
        for case in 0..2000 {
            let n = rng.random_range(1..70);
            let scores = random_scores(&mut rng, n);
            let mut sorted: Vec<usize> = (0..n).collect();
            sorted.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
            for k in [0, 1, 2, n / 2, n - 1, n].into_iter().filter(|&k| k <= n) {
                top_k(&scores, k, &mut top);
                assert_eq!(top, sorted[..k], "case {case}, k {k}: {scores:?}");
            }
        }
    }

    /// The selection loop as it was before the best score moved into a
    /// local: it re-reads the winner's score and branches per challenger.
    fn branching_tournament(scores: &[f64], k: usize, rng: &mut StdRng) -> usize {
        let mut winner = rng.random_range(0..scores.len());
        for _ in 1..k {
            let challenger = rng.random_range(0..scores.len());
            if scores[challenger] > scores[winner] {
                winner = challenger;
            }
        }
        winner
    }

    #[test]
    fn tournament_matches_the_branching_loop_on_one_stream() {
        let mut rng = StdRng::seed_from_u64(12);
        for case in 0..500 {
            let n = rng.random_range(1..70);
            let scores = random_scores(&mut rng, n);
            let k = rng.random_range(1..=n.min(8));
            let seed = rng.random::<u64>();
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            for draw in 0..20 {
                assert_eq!(
                    tournament(&scores, k, &mut a),
                    branching_tournament(&scores, k, &mut b),
                    "case {case}, draw {draw}: {scores:?}"
                );
            }
            assert_eq!(a.random::<u64>(), b.random::<u64>(), "case {case}");
        }
    }

    #[test]
    fn single_gene_crossover_swaps() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut a = [1.0];
        let mut b = [2.0];
        assert_eq!(two_point_crossover(&mut a, &mut b, &mut rng), (0, 0));
        assert_eq!(a[0], 2.0);
        assert_eq!(b[0], 1.0);
    }

    #[test]
    fn crossover_preserves_multiset_of_genes() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let mut a = [1.0, 2.0, 3.0, 4.0, 5.0];
            let mut b = [10.0, 20.0, 30.0, 40.0, 50.0];
            let (p1, p2) = two_point_crossover(&mut a, &mut b, &mut rng);
            assert!(p1 <= p2 && p2 < 5);
            for i in 0..5 {
                let pair = (a[i].min(b[i]), a[i].max(b[i]));
                assert_eq!(pair, ((i + 1) as f64, ((i + 1) * 10) as f64));
                // The reported span is exactly the swapped range.
                let swapped = (p1..=p2).contains(&i);
                assert_eq!(a[i] > 6.0, swapped, "gene {i}, span ({p1}, {p2})");
            }
        }
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn result_respects_bounds() {
            assert_prop(
                &PropConfig::named("result_respects_bounds").cases(16),
                #[expect(clippy::cast_possible_truncation, reason = "a draw below 5")]
                |rng| (rng.below(1_000), rng.below(5) as usize),
                |&(seed, extra_genes)| {
                    let bounds: Vec<GeneBounds> = (0..1 + extra_genes)
                        .map(|i| GeneBounds::new(i as f64, i as f64 + 2.0).unwrap())
                        .collect();
                    let cfg = GaConfig {
                        seed,
                        generations: 10,
                        population_size: 16,
                        ..GaConfig::default()
                    };
                    let r = optimize(&bounds, |c| c.iter().sum(), &cfg).unwrap();
                    for (x, b) in r.best.iter().zip(&bounds) {
                        assert!((b.lo..=b.hi).contains(x));
                    }
                    Ok(())
                },
            );
        }

        #[test]
        fn ga_beats_random_baseline() {
            assert_prop(
                &PropConfig::named("ga_beats_random_baseline").cases(16),
                |rng| rng.below(200),
                |&seed| {
                    // On a smooth unimodal function, 80 generations of GA must
                    // at least match the best of its own initial population.
                    let bounds = [GeneBounds::new(-10.0, 10.0).unwrap(); 3];
                    let f = |c: &[f64]| -c.iter().map(|x| (x - 1.5).powi(2)).sum::<f64>();
                    let cfg = GaConfig {
                        seed,
                        ..GaConfig::default()
                    };
                    let r = optimize(&bounds, f, &cfg).unwrap();
                    assert!(r.best_fitness >= r.history[0].best);
                    Ok(())
                },
            );
        }
    }
}
