//! The paper's benchmark suite, modelled synthetically.
//!
//! Table I of the paper reports, for seven benchmark configurations
//! (three qsort input sizes and four image/media kernels), the measured
//! ACET, the OTAWA-analysed pessimistic WCET, and the execution-time
//! standard deviation. This module rebuilds each benchmark as:
//!
//! * a [`Program`] model whose *statically analysed* WCET equals the
//!   published `WCET_pes` exactly (the qsort models have the paper's
//!   O(k log k) average vs O(k²) worst-case asymmetry), and
//! * an [`ExecutionModel`] whose sampling distribution is calibrated to the
//!   published `(ACET, σ)`.
//!
//! Distribution families: the qsort variants use a truncated normal — this
//! reproduces Table II's qsort-100 row almost exactly (15.78 % measured at
//! `n = 1` vs the normal's 15.87 %). The image kernels (`corner`, `edge`,
//! `smooth`, `epic`) show a lighter 1σ tail (~9–10 %) with a small secondary
//! mode near `µ + 2σ` (~3 % at 2σ, ≈0 at 3σ); they are modelled as a
//! left-skewed Gumbel bulk plus a narrow high-cost cluster — a shape typical
//! of data-dependent image kernels (hot path plus an occasional busy tile).

use crate::program::{BasicBlock, Program};
use crate::sampler::ExecutionModel;
use crate::trace::ExecutionTrace;
use crate::wcet::{analyze, WcetReport};
use crate::ExecError;
use mc_stats::dist::Dist;
use serde::{Deserialize, Serialize};

/// The published Table I statistics of a benchmark, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableSpec {
    /// Average-case execution time.
    pub acet: f64,
    /// Standard deviation of the execution time.
    pub sigma: f64,
    /// Pessimistic WCET (static analysis).
    pub wcet_pes: f64,
}

impl TableSpec {
    /// Validates `0 < acet ≤ wcet_pes` and `σ ≥ 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidModel`] on violation.
    pub fn validate(&self) -> Result<(), ExecError> {
        if !(self.acet.is_finite() && self.sigma.is_finite() && self.wcet_pes.is_finite()) {
            return Err(ExecError::InvalidModel {
                reason: "benchmark spec values must be finite",
            });
        }
        if self.acet <= 0.0 || self.sigma < 0.0 || self.wcet_pes < self.acet {
            return Err(ExecError::InvalidModel {
                reason: "benchmark spec must satisfy 0 < acet <= wcet_pes, sigma >= 0",
            });
        }
        Ok(())
    }
}

/// A fully modelled benchmark: published statistics, a program model whose
/// analysed WCET matches, and a calibrated execution-time sampler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Benchmark {
    name: String,
    spec: TableSpec,
    model: ExecutionModel,
    program: Program,
}

impl Benchmark {
    /// Assembles a benchmark from parts, validating the spec and that the
    /// program's analysed WCET equals the spec's `wcet_pes`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidModel`] when the program's WCET disagrees
    /// with the spec, plus any analysis error.
    pub fn from_parts(
        name: impl Into<String>,
        spec: TableSpec,
        program: Program,
        dist: Dist,
    ) -> Result<Self, ExecError> {
        spec.validate()?;
        let report = analyze(&program)?;
        if report.wcet as f64 != spec.wcet_pes {
            return Err(ExecError::InvalidModel {
                reason: "program WCET must equal the spec's wcet_pes",
            });
        }
        let model = ExecutionModel::new(dist, spec.wcet_pes)?;
        Ok(Benchmark {
            name: name.into(),
            spec,
            model,
            program,
        })
    }

    /// Benchmark name (e.g. `"qsort-100"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The published Table I statistics.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// The calibrated execution-time model (MEET stand-in).
    pub fn model(&self) -> &ExecutionModel {
        &self.model
    }

    /// The structural program model (OTAWA-analysable stand-in).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Runs the static analyser on the program model.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors (none occur for the built-in benchmarks).
    pub fn analyze(&self) -> Result<WcetReport, ExecError> {
        analyze(&self.program)
    }

    /// Samples a `count`-job execution trace with the given seed — the
    /// analogue of the paper's "20000 instances with different inputs".
    ///
    /// # Errors
    ///
    /// Returns an error when `count` is zero.
    pub fn sample_trace(&self, count: usize, seed: u64) -> Result<ExecutionTrace, ExecError> {
        self.model.sample_trace(self.name.clone(), count, seed)
    }
}

/// Truncated-normal execution model used by the qsort family.
fn qsort_dist(spec: &TableSpec) -> Result<Dist, ExecError> {
    Dist::normal(spec.acet, spec.sigma)
        .and_then(|d| d.truncated_above(spec.wcet_pes))
        .map_err(ExecError::Stats)
}

/// Left-skewed bulk plus a narrow secondary cluster for the image kernels.
///
/// Component placement was solved so the mixture's mean and variance equal
/// the published `(ACET, σ²)` while reproducing Table II's measured overrun
/// profile (~54 % at n = 0, ~10 % at n = 1, ~3 % at n = 2, ≈0 at n = 3):
/// a Gumbel-min bulk (95 %) centred slightly below the ACET and a tight
/// normal cluster (5 %) at `ACET + 2.185σ`.
fn image_dist(spec: &TableSpec) -> Result<Dist, ExecError> {
    let bulk = Dist::gumbel_min_from_moments(spec.acet - 0.1150 * spec.sigma, 0.8868 * spec.sigma)
        .map_err(ExecError::Stats)?;
    let cluster = Dist::normal(spec.acet + 2.185 * spec.sigma, 0.1774 * spec.sigma)
        .map_err(ExecError::Stats)?;
    Dist::mixture([(0.95, bulk), (0.05, cluster)])
        .and_then(|d| d.truncated_above(spec.wcet_pes))
        .map_err(ExecError::Stats)
}

/// Builds the qsort program model: k×k nested comparison loops (the O(k²)
/// worst case) whose average inner iteration count is tuned so that the
/// model's ACET estimate matches the published one (the O(k log k) average).
#[expect(
    clippy::cast_possible_truncation,
    reason = "wcet_pes is a whole Table I cycle count, far below 2^64"
)]
fn qsort_program(k: u64, spec: &TableSpec) -> Program {
    let n = k * k;
    let cmp_cost = (spec.wcet_pes as u64) / n;
    let pad = spec.wcet_pes as u64 - n * cmp_cost;
    let avg_inner = ((spec.acet - pad as f64) / (k as f64 * cmp_cost as f64)).clamp(0.0, k as f64);
    Program::seq([
        Program::block("partition-setup", pad),
        Program::fixed_loop(
            BasicBlock::new("outer", 0),
            k,
            Program::variable_loop(
                BasicBlock::new("inner", 0),
                k,
                0,
                avg_inner,
                Program::block("compare-swap", cmp_cost),
            ),
        ),
    ])
}

/// Builds an image-kernel program model: a rows×cols pixel scan with a
/// data-dependent branch between a cheap pass and an expensive response
/// computation, with the taken-probability tuned to the published ACET.
#[expect(
    clippy::cast_possible_truncation,
    reason = "wcet_pes is a whole Table I cycle count, far below 2^64"
)]
fn image_program(rows: u64, cols: u64, spec: &TableSpec) -> Program {
    const COND: u64 = 3;
    const CHEAP: u64 = 2;
    let pixels = rows * cols;
    let per_pixel = (spec.wcet_pes as u64) / pixels;
    let expensive = per_pixel - COND;
    let pad = spec.wcet_pes as u64 - pixels * per_pixel;
    let base = pad as f64 + pixels as f64 * (COND + CHEAP) as f64;
    let p = ((spec.acet - base) / (pixels as f64 * (expensive - CHEAP) as f64)).clamp(0.0, 1.0);
    Program::seq([
        Program::block("frame-setup", pad),
        Program::fixed_loop(
            BasicBlock::new("rows", 0),
            rows,
            Program::fixed_loop(
                BasicBlock::new("cols", 0),
                cols,
                Program::branch(
                    BasicBlock::new("pixel-test", COND),
                    Program::block("kernel-response", expensive),
                    Program::block("skip", CHEAP),
                    p,
                ),
            ),
        ),
    ])
}

fn qsort_spec(k: u64) -> Option<TableSpec> {
    match k {
        10 => Some(TableSpec {
            acet: 2.3e2,
            sigma: 3.9e1,
            wcet_pes: 1.9e3,
        }),
        100 => Some(TableSpec {
            acet: 1.8e4,
            sigma: 1.2e3,
            wcet_pes: 4.1e5,
        }),
        10_000 => Some(TableSpec {
            acet: 1.8e8,
            sigma: 1.1e6,
            wcet_pes: 1.0e10,
        }),
        _ => None,
    }
}

/// The `qsort-k` benchmark for the paper's input sizes `k ∈ {10, 100, 10000}`.
///
/// # Errors
///
/// Returns [`ExecError::UnknownBenchmark`] for other sizes (Table I only
/// publishes these three).
pub fn qsort(k: u64) -> Result<Benchmark, ExecError> {
    let spec = qsort_spec(k).ok_or_else(|| ExecError::UnknownBenchmark {
        name: format!("qsort-{k}"),
    })?;
    Benchmark::from_parts(
        format!("qsort-{k}"),
        spec,
        qsort_program(k, &spec),
        qsort_dist(&spec)?,
    )
}

fn image_benchmark(name: &str, spec: TableSpec) -> Result<Benchmark, ExecError> {
    Benchmark::from_parts(
        name,
        spec,
        image_program(256, 256, &spec),
        image_dist(&spec)?,
    )
}

/// The `corner` (corner-detection) benchmark.
///
/// # Errors
///
/// Construction is infallible for the published spec; errors indicate an
/// internal inconsistency.
pub fn corner() -> Result<Benchmark, ExecError> {
    image_benchmark(
        "corner",
        TableSpec {
            acet: 5.6e5,
            sigma: 6.2e4,
            wcet_pes: 9.4e6,
        },
    )
}

/// The `edge` (edge-detection) benchmark. See [`corner`] for errors.
///
/// # Errors
///
/// Same conditions as [`corner`].
pub fn edge() -> Result<Benchmark, ExecError> {
    image_benchmark(
        "edge",
        TableSpec {
            acet: 9.8e5,
            sigma: 1.1e5,
            wcet_pes: 1.1e7,
        },
    )
}

/// The `smooth` (smoothing-filter) benchmark. See [`corner`] for errors.
///
/// # Errors
///
/// Same conditions as [`corner`].
pub fn smooth() -> Result<Benchmark, ExecError> {
    image_benchmark(
        "smooth",
        TableSpec {
            acet: 1.9e7,
            sigma: 5.1e6,
            wcet_pes: 4.9e8,
        },
    )
}

/// The `epic` (image-compression) benchmark. See [`corner`] for errors.
///
/// # Errors
///
/// Same conditions as [`corner`].
pub fn epic() -> Result<Benchmark, ExecError> {
    image_benchmark(
        "epic",
        TableSpec {
            acet: 1.1e7,
            sigma: 1.9e6,
            wcet_pes: 7.0e8,
        },
    )
}

/// All seven Table I benchmark configurations, in table order.
///
/// # Errors
///
/// Construction is infallible for the published specs; errors indicate an
/// internal inconsistency.
pub fn all() -> Result<Vec<Benchmark>, ExecError> {
    Ok(vec![
        qsort(10)?,
        qsort(100)?,
        qsort(10_000)?,
        corner()?,
        edge()?,
        smooth()?,
        epic()?,
    ])
}

/// The five benchmarks used by the paper's Table II (qsort-100 plus the
/// image kernels).
///
/// # Errors
///
/// Same conditions as [`all`].
pub fn table2_suite() -> Result<Vec<Benchmark>, ExecError> {
    Ok(vec![qsort(100)?, corner()?, edge()?, smooth()?, epic()?])
}

/// Looks a benchmark up by its Table I name (e.g. `"qsort-100"`, `"epic"`).
///
/// # Errors
///
/// Returns [`ExecError::UnknownBenchmark`] for unknown names.
pub fn by_name(name: &str) -> Result<Benchmark, ExecError> {
    match name {
        "qsort-10" => qsort(10),
        "qsort-100" => qsort(100),
        "qsort-10000" => qsort(10_000),
        "corner" => corner(),
        "edge" => edge(),
        "smooth" => smooth(),
        "epic" => epic(),
        other => Err(ExecError::UnknownBenchmark {
            name: other.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build() {
        let benches = all().unwrap();
        assert_eq!(benches.len(), 7);
        let names: Vec<&str> = benches.iter().map(Benchmark::name).collect();
        assert_eq!(
            names,
            vec![
                "qsort-10",
                "qsort-100",
                "qsort-10000",
                "corner",
                "edge",
                "smooth",
                "epic"
            ]
        );
    }

    #[test]
    fn analyzed_wcet_matches_published_wcet_exactly() {
        for b in all().unwrap() {
            let report = b.analyze().unwrap();
            assert_eq!(
                report.wcet as f64,
                b.spec().wcet_pes,
                "benchmark {}",
                b.name()
            );
        }
    }

    #[test]
    fn program_acet_estimate_tracks_published_acet() {
        for b in all().unwrap() {
            let report = b.analyze().unwrap();
            let rel = (report.acet_estimate - b.spec().acet).abs() / b.spec().acet;
            assert!(
                rel < 0.02,
                "benchmark {}: model ACET {} vs published {}",
                b.name(),
                report.acet_estimate,
                b.spec().acet
            );
        }
    }

    #[test]
    fn sampled_moments_match_published_stats() {
        for b in all().unwrap() {
            let trace = b.sample_trace(20_000, 42).unwrap();
            let s = trace.summary().unwrap();
            let mean_err = (s.mean() - b.spec().acet).abs() / b.spec().acet;
            assert!(
                mean_err < 0.02,
                "{}: sampled mean {} vs published {}",
                b.name(),
                s.mean(),
                b.spec().acet
            );
            let sd_err = (s.std_dev() - b.spec().sigma).abs() / b.spec().sigma;
            assert!(
                sd_err < 0.05,
                "{}: sampled sigma {} vs published {}",
                b.name(),
                s.std_dev(),
                b.spec().sigma
            );
        }
    }

    #[test]
    fn samples_never_exceed_wcet_pes() {
        for b in all().unwrap() {
            let trace = b.sample_trace(5_000, 7).unwrap();
            assert!(trace
                .samples()
                .iter()
                .all(|&x| x <= b.spec().wcet_pes && x >= 1.0));
        }
    }

    #[test]
    fn measured_overruns_respect_chebyshev_bound() {
        // Table II's headline: measured ≪ 1/(1+n²) for every benchmark.
        for b in table2_suite().unwrap() {
            let trace = b.sample_trace(20_000, 11).unwrap();
            let s = trace.summary().unwrap();
            for n in 1..=4u32 {
                let level = s.mean() + n as f64 * s.std_dev();
                let rate = trace.overrun_rate(level).unwrap().rate();
                let bound = mc_stats::chebyshev::one_sided_bound(n as f64);
                assert!(
                    rate <= bound,
                    "{} at n={n}: measured {rate} exceeds bound {bound}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn qsort_overrun_profile_is_normal_like() {
        // Paper Table II, qsort-100 row: 50.22 / 15.78 / 2.36 / 0.22 / 0.02 %.
        let b = qsort(100).unwrap();
        let trace = b.sample_trace(20_000, 5).unwrap();
        let s = trace.summary().unwrap();
        let rate = |n: f64| {
            trace
                .overrun_rate(s.mean() + n * s.std_dev())
                .unwrap()
                .percent()
        };
        assert!((45.0..55.0).contains(&rate(0.0)), "n=0: {}", rate(0.0));
        assert!((12.0..20.0).contains(&rate(1.0)), "n=1: {}", rate(1.0));
        assert!((1.0..4.5).contains(&rate(2.0)), "n=2: {}", rate(2.0));
        assert!(rate(3.0) < 0.6, "n=3: {}", rate(3.0));
    }

    #[test]
    fn image_overrun_profile_matches_table2_shape() {
        // Paper Table II, image rows: ~53-55 / ~8-10 / ~3 / ~0.01 / 0 %.
        for b in [corner().unwrap(), edge().unwrap(), epic().unwrap()] {
            let trace = b.sample_trace(20_000, 9).unwrap();
            let s = trace.summary().unwrap();
            let rate = |n: f64| {
                trace
                    .overrun_rate(s.mean() + n * s.std_dev())
                    .unwrap()
                    .percent()
            };
            assert!(
                (48.0..60.0).contains(&rate(0.0)),
                "{} n=0: {}",
                b.name(),
                rate(0.0)
            );
            assert!(
                (6.0..14.0).contains(&rate(1.0)),
                "{} n=1: {}",
                b.name(),
                rate(1.0)
            );
            assert!(
                (1.5..6.5).contains(&rate(2.0)),
                "{} n=2: {}",
                b.name(),
                rate(2.0)
            );
            assert!(rate(3.0) < 0.5, "{} n=3: {}", b.name(), rate(3.0));
        }
    }

    #[test]
    fn wcet_acet_gap_matches_table1() {
        // qsort's gap grows with input size: 8.1×, 22.7×, 59× (silently
        // large gaps are the paper's whole motivation).
        let gaps: Vec<f64> = [10u64, 100, 10_000]
            .iter()
            .map(|&k| {
                let b = qsort(k).unwrap();
                b.spec().wcet_pes / b.spec().acet
            })
            .collect();
        assert!((gaps[0] - 8.26).abs() < 0.1);
        assert!((gaps[1] - 22.8).abs() < 0.2);
        assert!((gaps[2] - 55.6).abs() < 1.0);
        assert!(gaps[0] < gaps[1] && gaps[1] < gaps[2]);
    }

    #[test]
    fn by_name_round_trips() {
        for b in all().unwrap() {
            let again = by_name(b.name()).unwrap();
            assert_eq!(again.name(), b.name());
            assert_eq!(again.spec(), b.spec());
        }
        assert!(matches!(
            by_name("fft").unwrap_err(),
            ExecError::UnknownBenchmark { .. }
        ));
        assert!(qsort(37).is_err());
    }

    #[test]
    fn from_parts_rejects_mismatched_program() {
        let spec = TableSpec {
            acet: 100.0,
            sigma: 10.0,
            wcet_pes: 1_000.0,
        };
        let wrong_program = Program::block("b", 999); // != 1000
        let dist = Dist::normal(100.0, 10.0).unwrap();
        assert!(matches!(
            Benchmark::from_parts("x", spec, wrong_program, dist).unwrap_err(),
            ExecError::InvalidModel { .. }
        ));
    }

    #[test]
    fn spec_validation() {
        assert!(TableSpec {
            acet: 0.0,
            sigma: 1.0,
            wcet_pes: 10.0
        }
        .validate()
        .is_err());
        assert!(TableSpec {
            acet: 10.0,
            sigma: -1.0,
            wcet_pes: 20.0
        }
        .validate()
        .is_err());
        assert!(TableSpec {
            acet: 10.0,
            sigma: 1.0,
            wcet_pes: 5.0
        }
        .validate()
        .is_err());
        assert!(TableSpec {
            acet: 10.0,
            sigma: 1.0,
            wcet_pes: f64::NAN
        }
        .validate()
        .is_err());
    }
}
