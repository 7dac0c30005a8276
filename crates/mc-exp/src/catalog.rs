//! The built-in campaign catalog: every table, figure and ablation of the
//! paper, plus the policy-arena and automotive extensions, as declarative
//! campaign definitions run by `chebymc exp` and `chebymc serve`.
//!
//! Each entry pairs a [`CampaignSpec`] (the axis and replication) with a
//! [`UnitRunner`] (how one unit is computed), usually a closure over the
//! library functions the experiment exercises. One table, `CATALOG`,
//! names every campaign and its builder, so a campaign cannot be listed
//! without being buildable.
//!
//! Seeds follow two rules:
//!
//! * Set-based campaigns (`fig3`–`fig6`, `policy_arena`, `automotive`)
//!   evaluate the `replica`-th set of utilisation index `u_index` at
//!   `derive_set_seed(campaign_seed, u_index, replica)`, shared by every
//!   policy of the utilisation, so the comparison is paired. (The
//!   framework's per-unit identity seed still follows the
//!   `hash(seed, point, replica)` contract; a campaign point is
//!   *policy × utilisation*, while a task set depends on the utilisation
//!   alone.)
//! * Fixed-instance campaigns (the tables, `fig1`, `fig2`, the ablations,
//!   `runtime`, `convergence*`, `multi_*`) pin the per-instance seeds of
//!   the experiment they reproduce (Table II's trace of benchmark `i` is
//!   sampled at seed `200 + i`, for example) and run one replica per point.

mod ablation;
mod extension;
mod paper;

pub use paper::fig5_policies;

use crate::run::UnitRunner;
use crate::spec::{CampaignSpec, Param, PointSpec, WorkUnit};
use crate::store::Metric;
use crate::ExpError;

/// A built campaign: its spec plus the runner that computes one unit.
pub struct Campaign {
    /// The campaign's declarative spec.
    pub spec: CampaignSpec,
    /// The unit runner.
    pub runner: Box<dyn UnitRunner + Send + Sync>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("spec", &self.spec)
            .finish()
    }
}

/// Knobs the CLI threads into the catalog. `None` keeps each campaign's
/// paper-scale default; a campaign ignores the knobs it has no use for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogOptions {
    /// Task-set replicas per point (the set-based campaigns).
    pub sets: Option<usize>,
    /// Sampled instances per benchmark or distribution (`fig1`, `table1`,
    /// `table2`, `ablation_distributions`, `ablation_evt`,
    /// `ablation_noise`).
    pub samples: Option<usize>,
    /// Utilisation axis override (the policy × utilisation campaigns).
    pub points: Option<Vec<f64>>,
    /// Campaign base seed (the set-based campaigns derive every set from
    /// it; the fixed-instance campaigns only record it).
    pub seed: Option<u64>,
    /// Runnables per generated task set (`automotive`).
    pub runnables: Option<usize>,
}

/// Builds one campaign from the options.
type Builder = fn(&CatalogOptions) -> Result<Campaign, ExpError>;

/// Every campaign in listing order, with its builder. [`names`], [`build`]
/// and [`rebuild`] all read this table.
const CATALOG: &[(&str, Builder)] = &[
    ("table1", paper::table1),
    ("table2", paper::table2),
    ("fig1", paper::fig1),
    ("fig2", paper::fig2),
    ("fig3", paper::fig3),
    ("fig4", paper::fig4),
    ("fig5", paper::fig5),
    ("fig6", paper::fig6),
    ("runtime", paper::runtime),
    ("ablation_optimizers", ablation::optimizers),
    ("ablation_constraints", ablation::constraints),
    ("ablation_distributions", ablation::distributions),
    ("ablation_evt", ablation::evt),
    ("ablation_sigma", ablation::sigma),
    ("ablation_noise", ablation::noise),
    ("convergence", ablation::convergence),
    ("convergence_population", ablation::convergence_population),
    ("multi_sweep", extension::multi_sweep),
    ("multi_runtime", extension::multi_runtime),
    ("policy_arena", extension::policy_arena),
    ("automotive", extension::automotive),
];

/// The catalog's campaign names, in listing order.
pub fn names() -> impl Iterator<Item = &'static str> {
    CATALOG.iter().map(|&(name, _)| name)
}

/// Builds a named campaign.
///
/// # Errors
///
/// [`ExpError::Config`] for unknown names or benchmark-construction
/// failures.
pub fn build(name: &str, opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let Some(&(_, builder)) = CATALOG.iter().find(|&&(n, _)| n == name) else {
        return Err(ExpError::Config(format!(
            "unknown campaign `{name}` (known: {})",
            names().collect::<Vec<_>>().join(", ")
        )));
    };
    builder(opts)
}

/// Rebuilds the runner for a spec received from elsewhere (a store header,
/// a coordinator lease): recovers the [`CatalogOptions`] the spec encodes,
/// rebuilds the named campaign, and verifies the result is fingerprint-
/// identical to what was received — so a worker computing against a
/// rebuilt runner provably runs the *same* campaign the submitter
/// declared, not a near-miss with different axis values.
///
/// # Errors
///
/// [`ExpError::Config`] for unknown names, and [`ExpError::Mismatch`] when
/// the rebuilt spec disagrees with the received one (a spec produced by a
/// different catalog version, or hand-edited points this catalog cannot
/// reproduce).
pub fn rebuild(spec: &CampaignSpec) -> Result<Campaign, ExpError> {
    let param = |name: &str| {
        spec.params
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.value.round() as usize)
    };
    // Policy × utilisation campaigns repeat their utilisation axis per
    // policy, so the policy-0 block recovers it exactly.
    let u_values: Vec<f64> = spec
        .points
        .iter()
        .filter(|p| p.param("policy") == Some(0.0))
        .filter_map(|p| p.param("u"))
        .collect();
    let opts = CatalogOptions {
        sets: Some(spec.replicas),
        samples: param("samples"),
        points: (!u_values.is_empty()).then_some(u_values),
        seed: Some(spec.seed),
        runnables: param("runnables"),
    };
    let campaign = build(&spec.name, &opts)?;
    if campaign.spec != *spec {
        return Err(ExpError::Mismatch {
            path: format!("campaign:{}", spec.name),
            detail: format!(
                "spec fingerprint {} cannot be rebuilt from this catalog \
                 (rebuilt {})",
                spec.fingerprint(),
                campaign.spec.fingerprint()
            ),
        });
    }
    Ok(campaign)
}

/// Pairs a spec with a closure runner.
fn campaign<R>(spec: CampaignSpec, runner: R) -> Campaign
where
    R: Fn(&WorkUnit, usize) -> Result<Vec<Metric>, ExpError> + Send + Sync + 'static,
{
    Campaign {
        spec,
        runner: Box::new(runner),
    }
}

/// The spec of a fixed-instance campaign: one replica per labelled point,
/// campaign-level `params` (such as a sample count) in the fingerprint.
fn fixed_spec(
    name: &str,
    opts: &CatalogOptions,
    params: Vec<Param>,
    labels: impl IntoIterator<Item = String>,
) -> CampaignSpec {
    CampaignSpec {
        name: name.into(),
        seed: opts.seed.unwrap_or(0),
        params,
        points: labels
            .into_iter()
            .map(|label| PointSpec::new(label, vec![]))
            .collect(),
        replicas: 1,
    }
}

/// The points of a policy × utilisation campaign, policy-major
/// (`point = policy_index * |u| + u_index`), each labelled
/// `<policy>/u<u>` and carrying `policy`, `u` and `u_index` parameters.
fn policy_major_points(
    policy_names: impl Iterator<Item = String>,
    u_values: &[f64],
) -> Vec<PointSpec> {
    let mut points = Vec::new();
    for (pi, name) in policy_names.enumerate() {
        for (ui, &u) in u_values.iter().enumerate() {
            points.push(PointSpec::new(
                format!("{name}/u{u:.2}"),
                vec![
                    Param::new("policy", pi as f64),
                    Param::new("u", u),
                    Param::new("u_index", ui as f64),
                ],
            ));
        }
    }
    points
}

/// The `(policy_index, u_index)` of a unit of a policy-major campaign.
fn split_policy_major(unit: &WorkUnit, u_count: usize) -> (usize, usize) {
    (unit.point / u_count, unit.point % u_count)
}

/// `1.0` for true, `0.0` for false: verdicts stay numeric so a point's
/// mean is a ratio.
fn indicator(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate;
    use crate::run::{run_campaign, RunConfig};
    use crate::store::Store;

    #[test]
    fn unknown_campaigns_name_the_known_ones() {
        let err = build("fig7", &CatalogOptions::default()).unwrap_err();
        assert!(err.to_string().contains("fig5"), "{err}");
    }

    #[test]
    fn every_listed_campaign_builds_under_its_own_name() {
        for name in names() {
            let c = build(name, &CatalogOptions::default()).unwrap();
            assert_eq!(c.spec.name, name);
        }
        let mut sorted: Vec<&str> = names().collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), CATALOG.len(), "names are unique");
    }

    #[test]
    fn rebuild_round_trips_every_catalog_campaign() {
        let scaled = CatalogOptions {
            sets: Some(3),
            samples: Some(400),
            points: Some(vec![0.5, 0.8]),
            seed: Some(9),
            runnables: Some(60),
        };
        for name in names() {
            for opts in [CatalogOptions::default(), scaled.clone()] {
                let original = build(name, &opts).unwrap();
                let rebuilt = rebuild(&original.spec).unwrap();
                assert_eq!(rebuilt.spec, original.spec, "{name}");
                assert_eq!(
                    rebuilt.spec.fingerprint(),
                    original.spec.fingerprint(),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn rebuild_rejects_tampered_and_unknown_specs() {
        let mut spec = build("ablation_sigma", &CatalogOptions::default())
            .unwrap()
            .spec;
        spec.points[0].label = "m11".into();
        assert!(matches!(
            rebuild(&spec).unwrap_err(),
            ExpError::Mismatch { .. }
        ));
        let mut unknown = spec;
        unknown.name = "fig7".into();
        assert!(matches!(
            rebuild(&unknown).unwrap_err(),
            ExpError::Config(_)
        ));
    }

    /// Runs a whole campaign in memory and returns its per-point means.
    pub(super) fn run_in_memory(c: &Campaign) -> Vec<crate::aggregate::PointAggregate> {
        let mut store = Store::in_memory(&c.spec);
        let summary = run_campaign(
            &c.spec,
            c.runner.as_ref(),
            &mut store,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(summary.ran, c.spec.total_units());
        aggregate(&c.spec, store.records()).unwrap()
    }
}
