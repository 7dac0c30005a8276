//! The three workloads: which catalog campaign each runs, at what size,
//! and the canonical store digest it must produce at the catalog's
//! default seed.

use chebymc::exp::catalog::{self, CatalogOptions};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 5 campaign through `run_campaign`: 6000 small
    /// units, no simulator.
    Fig5,
    /// The `automotive` campaign at 1000 runnables and one set per point:
    /// 15 simulator-heavy units.
    Automotive1k,
    /// `policy_arena` through one coordinator and one 1-thread worker.
    ArenaServe,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Fig5, Workload::Automotive1k, Workload::ArenaServe];

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5 => "fig5",
            Workload::Automotive1k => "automotive_1k",
            Workload::ArenaServe => "arena_serve",
        }
    }

    /// The catalog campaign the workload runs.
    pub fn campaign(self) -> &'static str {
        match self {
            Workload::Fig5 => "fig5",
            Workload::Automotive1k => "automotive",
            Workload::ArenaServe => "policy_arena",
        }
    }

    /// Whether the campaign runs through `mc-serve` instead of
    /// `run_campaign`.
    pub fn served(self) -> bool {
        self == Workload::ArenaServe
    }

    /// The catalog options of the benchmarked campaign. The seed is the
    /// only input that varies, and it reaches the program only here.
    ///
    /// `arena_serve` leaves u = 1.0 out of the catalog's axis: there, at
    /// some seeds (2 and 5 among 0–5), the demand-bound entrant's
    /// simulation runs into the simulator's fixed event bound, after
    /// seconds or minutes. The other points ran clean at seeds 0–60.
    pub fn options(self, seed: Option<u64>) -> CatalogOptions {
        CatalogOptions {
            sets: (self == Workload::Automotive1k).then_some(1),
            points: (self == Workload::ArenaServe).then(|| vec![0.6, 0.8, 1.1, 1.2, 1.3]),
            seed,
            ..CatalogOptions::default()
        }
    }

    /// A campaign of the same family small enough for the self-test.
    pub fn tiny_options(self, seed: u64) -> CatalogOptions {
        let (sets, points, runnables) = match self {
            Workload::Fig5 => (2, vec![0.5, 0.8], None),
            Workload::Automotive1k => (1, vec![0.5, 0.9], Some(60)),
            Workload::ArenaServe => (2, vec![0.8, 1.2], None),
        };
        CatalogOptions {
            sets: Some(sets),
            points: Some(points),
            seed: Some(seed),
            runnables,
            ..CatalogOptions::default()
        }
    }

    /// The campaign's own default seed (5, 17 and 11 today).
    ///
    /// # Errors
    ///
    /// A catalog that cannot build the campaign.
    pub fn default_seed(self) -> Result<u64, String> {
        catalog::build(self.campaign(), &self.options(None))
            .map(|c| c.spec.seed)
            .map_err(|e| e.to_string())
    }

    /// SHA-256 of the canonical store at the default seed. For `fig5` and
    /// `automotive_1k` the same bytes come out of
    /// `chebymc exp run <campaign> --store s.jsonl` (with `--sets 1` for
    /// `automotive`), so `sha256sum s.jsonl` re-checks them. The served
    /// store equals a serial `run_campaign` of the same spec.
    pub fn pinned_digest(self) -> &'static str {
        match self {
            Workload::Fig5 => "f5ecef851969ccefe56d3a1978c9b19209f8038fd9698a7f886c38828c3a58f8",
            Workload::Automotive1k => {
                "f2c30a108e8466e2cfbd175d796712dd55a51e0019f0d2950e3c4a435f3dca8d"
            }
            Workload::ArenaServe => {
                "0f404fb584727e7d357d59836502155865b41708f3da99341d6bc1d396447521"
            }
        }
    }
}
