//! A minimal seeded property-testing harness.
//!
//! The workspace's only property harness. A case is a pure function of
//! `mix64(config_seed, case_index)`, shrinking is a greedy,
//! iteration-bounded walk over candidate simplifications, and every
//! failure — an `Err` or a panic — carries the copy-pasteable seed that
//! reproduces it. The module itself uses `std` alone; the crate depends
//! on `mc-task` (and through it on `mc-stats` and the vendored `rand`),
//! so those crates reach this harness through dev-dependency cycles.
//!
//! A generator draws raw values — unit-interval floats, indices, a case
//! seed — and the property maps them into its domain, so every shrink
//! candidate is a valid input.
//!
//! ```
//! use mc_fault::prop::{check, PropConfig, Shrink};
//!
//! let cfg = PropConfig::named("sum-is-commutative");
//! let passed = check(
//!     &cfg,
//!     |rng| (rng.below(100), rng.below(100)),
//!     |&(a, b)| {
//!         if a + b == b + a {
//!             Ok(())
//!         } else {
//!             Err("addition is not commutative".into())
//!         }
//!     },
//! );
//! assert!(passed.is_ok());
//! ```

use crate::rng::{mix64, FaultRng};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Configuration of one property check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropConfig {
    /// Property name, printed in failure reports.
    pub name: &'static str,
    /// Root seed; case `i` derives its own seed as `mix64(seed, i)`.
    pub seed: u64,
    /// Number of generated cases.
    pub cases: u32,
    /// Upper bound on shrink candidate evaluations after a failure.
    pub max_shrink_iters: u32,
}

impl PropConfig {
    /// A named configuration with the harness defaults (seed `0xC1EB`,
    /// 64 cases, 256 shrink iterations).
    #[must_use]
    pub fn named(name: &'static str) -> Self {
        PropConfig {
            name,
            seed: 0xC1EB,
            cases: 64,
            max_shrink_iters: 256,
        }
    }

    /// Overrides the case count.
    #[must_use]
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Overrides the root seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Types that can propose simpler versions of themselves for shrinking.
///
/// The default implementation proposes nothing (no shrinking); the harness
/// then reports the originally generated counterexample.
pub trait Shrink: Sized {
    /// Candidate simplifications, most aggressive first. Each candidate
    /// must be strictly "smaller" by some well-founded measure, or the
    /// bounded shrink loop will waste its iteration budget cycling.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

impl Shrink for u64 {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if *self > 0 {
            out.push(0);
            if *self > 1 {
                out.push(self / 2);
            }
            out.push(self - 1);
        }
        out.dedup();
        out
    }
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "shrinking moves toward zero, so every candidate fits the usize it came from"
)]
impl Shrink for usize {
    fn shrink(&self) -> Vec<Self> {
        (*self as u64)
            .shrink()
            .into_iter()
            .map(|v| v as usize)
            .collect()
    }
}

impl Shrink for f64 {
    fn shrink(&self) -> Vec<Self> {
        if !self.is_finite() || *self == 0.0 {
            return Vec::new();
        }
        let mut out = vec![0.0];
        if self.abs() > 1e-9 {
            out.push(self / 2.0);
        }
        out
    }
}

impl Shrink for bool {
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl<T: Shrink + Clone> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let n = self.len();
        if n == 0 {
            return out;
        }
        // Structural shrinks first: halves, then single-element removals.
        // A one-element vector has no proper halves: its upper "half" is
        // itself, which would spend the whole shrink budget adopting it.
        if n > 1 {
            out.push(self[..n / 2].to_vec());
            out.push(self[n / 2..].to_vec());
        }
        for i in 0..n.min(8) {
            let mut v = self.clone();
            v.remove(i);
            out.push(v);
        }
        // Then element-wise shrinks on a bounded prefix.
        for i in 0..n.min(8) {
            for cand in self[i].shrink() {
                let mut v = self.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

/// Each element's candidates in turn, the others held fixed.
macro_rules! impl_shrink_for_tuples {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Shrink + Clone),+> Shrink for ($($name,)+) {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink() {
                        let mut t = self.clone();
                        t.$idx = candidate;
                        out.push(t);
                    }
                )+
                out
            }
        }
    )*};
}
impl_shrink_for_tuples! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// A failed property: the (possibly shrunk) counterexample plus everything
/// needed to reproduce it from one integer.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample<T> {
    /// Property name.
    pub name: &'static str,
    /// Root seed of the run that failed.
    pub config_seed: u64,
    /// Index of the failing case.
    pub case_index: u32,
    /// The failing case's derived seed (`mix64(config_seed, case_index)`) —
    /// regenerating with this seed reproduces the pre-shrink value.
    pub case_seed: u64,
    /// The smallest failing value found.
    pub value: T,
    /// The property's failure message for `value`.
    pub message: String,
    /// Shrink candidates evaluated.
    pub shrink_iters: u32,
    /// Whether shrinking simplified the original counterexample.
    pub shrunk: bool,
}

impl<T: fmt::Debug> fmt::Display for Counterexample<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "property `{}` failed at case {} ({}): {}",
            self.name,
            self.case_index,
            if self.shrunk {
                "shrunk counterexample"
            } else {
                "counterexample"
            },
            self.message
        )?;
        writeln!(f, "  value: {:?}", self.value)?;
        write!(
            f,
            "  reproduce with: seed {} (case seed {:#x})",
            self.config_seed, self.case_seed
        )
    }
}

/// Runs `prop` over `cfg.cases` generated values. Returns the number of
/// cases that ran on success, or the shrunk counterexample on failure.
///
/// `generate` must be a pure function of the `FaultRng` it is handed; the
/// harness seeds a fresh generator per case so any failing case replays
/// from its `case_seed` alone. A property that panics fails like one that
/// returns `Err`, with the panic message as its failure message.
///
/// # Errors
///
/// The first failing case, after bounded shrinking.
pub fn check<T, G, P>(cfg: &PropConfig, generate: G, prop: P) -> Result<u32, Counterexample<T>>
where
    T: Shrink + fmt::Debug,
    G: Fn(&mut FaultRng) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    for case_index in 0..cfg.cases {
        let case_seed = mix64(cfg.seed, u64::from(case_index));
        let mut rng = FaultRng::new(case_seed);
        let value = generate(&mut rng);
        if let Err(message) = run(&prop, &value) {
            let (value, message, shrink_iters, shrunk) =
                shrink_failure(value, message, &prop, cfg.max_shrink_iters);
            return Err(Counterexample {
                name: cfg.name,
                config_seed: cfg.seed,
                case_index,
                case_seed,
                value,
                message,
                shrink_iters,
                shrunk,
            });
        }
    }
    Ok(cfg.cases)
}

/// Runs `prop` on one value, turning a panic (an `assert!` or `unwrap()`
/// in the property body) into a failure so it keeps its case seed.
fn run<T, P>(prop: &P, value: &T) -> Result<(), String>
where
    P: Fn(&T) -> Result<(), String>,
{
    catch_unwind(AssertUnwindSafe(|| prop(value))).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|m| (*m).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a non-string payload".to_owned());
        Err(format!("panicked: {message}"))
    })
}

/// Greedy bounded shrink: repeatedly adopt the first failing candidate
/// until no candidate fails or the iteration budget is exhausted.
fn shrink_failure<T, P>(
    mut value: T,
    mut message: String,
    prop: &P,
    max_iters: u32,
) -> (T, String, u32, bool)
where
    T: Shrink,
    P: Fn(&T) -> Result<(), String>,
{
    let mut iters = 0u32;
    let mut shrunk = false;
    'outer: loop {
        for candidate in value.shrink() {
            if iters >= max_iters {
                break 'outer;
            }
            iters += 1;
            if let Err(m) = run(prop, &candidate) {
                value = candidate;
                message = m;
                shrunk = true;
                continue 'outer;
            }
        }
        break;
    }
    (value, message, iters, shrunk)
}

/// [`check`], panicking on failure with the full reproduction report —
/// the form the workspace's `#[test]` functions use.
///
/// # Panics
///
/// Panics with the counterexample display when the property fails.
pub fn assert_prop<T, G, P>(cfg: &PropConfig, generate: G, prop: P)
where
    T: Shrink + fmt::Debug,
    G: Fn(&mut FaultRng) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    if let Err(cex) = check(cfg, generate, prop) {
        panic!("{cex}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_every_case() {
        let cfg = PropConfig::named("tautology").cases(17);
        let ran = check(&cfg, |rng| rng.below(10), |_| Ok(())).unwrap();
        assert_eq!(ran, 17);
    }

    #[test]
    fn failure_reports_a_reproducible_seed() {
        let cfg = PropConfig::named("le-1000");
        let cex = check(
            &cfg,
            |rng| rng.below(10_000),
            |&v| {
                if v <= 1_000 {
                    Ok(())
                } else {
                    Err(format!("{v} > 1000"))
                }
            },
        )
        .unwrap_err();
        // The case seed regenerates the original (pre-shrink) value.
        let mut rng = FaultRng::new(cex.case_seed);
        let regenerated = rng.below(10_000);
        assert!(regenerated > 1_000, "case seed must reproduce a failure");
        assert_eq!(
            cex.case_seed,
            mix64(cex.config_seed, u64::from(cex.case_index))
        );
        let report = cex.to_string();
        assert!(report.contains("reproduce with"), "{report}");
        assert!(report.contains("le-1000"), "{report}");
    }

    #[test]
    fn shrinking_finds_the_boundary() {
        let cfg = PropConfig::named("lt-boundary");
        let cex = check(
            &cfg,
            |rng| rng.below(1 << 40),
            |&v| {
                if v < 37 {
                    Ok(())
                } else {
                    Err("too big".into())
                }
            },
        )
        .unwrap_err();
        // Greedy halving+decrement shrink lands exactly on the boundary.
        assert_eq!(cex.value, 37, "shrunk to the minimal failing value");
        assert!(cex.shrunk);
        assert!(cex.shrink_iters <= cfg.max_shrink_iters);
    }

    #[test]
    fn shrink_iterations_are_bounded() {
        let cfg = PropConfig {
            max_shrink_iters: 5,
            ..PropConfig::named("bounded")
        };
        let cex = check(
            &cfg,
            |rng| rng.below(1 << 50),
            |&v| {
                if v == 0 {
                    Ok(())
                } else {
                    Err("nonzero".into())
                }
            },
        )
        .unwrap_err();
        assert!(cex.shrink_iters <= 5);
    }

    #[test]
    fn vec_shrink_removes_irrelevant_elements() {
        let cfg = PropConfig::named("no-odd").cases(200);
        let cex = check(
            &cfg,
            |rng| {
                #[expect(clippy::cast_possible_truncation, reason = "a draw in [1, 12]")]
                let n = rng.range_u64(1, 12) as usize;
                (0..n).map(|_| rng.below(100)).collect::<Vec<u64>>()
            },
            |v| {
                if v.iter().all(|x| x % 2 == 0) {
                    Ok(())
                } else {
                    Err("contains an odd element".into())
                }
            },
        )
        .unwrap_err();
        // A minimal failing vector is a single odd element (shrunk toward 1).
        assert_eq!(cex.value.len(), 1, "shrunk to one element: {:?}", cex.value);
        assert_eq!(cex.value[0] % 2, 1);
        assert!(
            cex.shrink_iters < cfg.max_shrink_iters,
            "a one-element vector must not re-adopt itself until the budget runs out"
        );
    }

    #[test]
    fn a_panicking_property_keeps_its_case_seed() {
        let cfg = PropConfig::named("unwrap-le-1000");
        let cex = check(
            &cfg,
            |rng| rng.below(10_000),
            |&v| {
                let small: Option<u64> = (v <= 1_000).then_some(v);
                small.unwrap();
                Ok(())
            },
        )
        .unwrap_err();
        assert!(cex.message.starts_with("panicked"), "{}", cex.message);
        assert!(cex.value > 1_000, "shrinking adopts only panicking values");
        let regenerated = FaultRng::new(cex.case_seed).below(10_000);
        assert!(regenerated > 1_000, "case seed must reproduce the panic");
    }

    #[test]
    fn tuples_shrink_every_element() {
        let cex = check(
            &PropConfig::named("always-fails"),
            |rng| (rng.below(50), rng.bool(0.5), rng.f64(), 7usize, u64::MAX),
            |_| Err("nope".into()),
        )
        .unwrap_err();
        assert_eq!(cex.value, (0, false, 0.0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "reproduce with")]
    fn assert_prop_panics_with_the_seed() {
        assert_prop(
            &PropConfig::named("always-false"),
            |rng| rng.below(4),
            |_| Err("nope".into()),
        );
    }

    #[test]
    fn scalar_shrinks_are_well_founded() {
        for v in [0u64, 1, 2, 17, u64::MAX] {
            for s in v.shrink() {
                assert!(s < v);
            }
        }
        for v in [0.0f64, 1.0, -8.0] {
            for s in v.shrink() {
                assert!(s.abs() < v.abs() || (v != 0.0 && s == 0.0));
            }
        }
        assert_eq!(true.shrink(), vec![false]);
        assert!(false.shrink().is_empty());
    }
}
