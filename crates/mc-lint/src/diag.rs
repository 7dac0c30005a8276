//! The unified diagnostics framework: stable codes, severities, source
//! labels, and the human-readable / JSON renderers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory only; no action required.
    Info,
    /// Suspicious but analysable; results may be degraded.
    Warning,
    /// Structurally unsound; downstream analysis would be wrong or panic.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Info => write!(f, "info"),
        }
    }
}

/// Stable diagnostic codes. `C0xx` cover CFG structure, `T0xx` task-set
/// invariants, `S0xx` scheme/GA/generator configuration, `E0xx` campaign
/// specs, `P0xx` the scheduling-policy rosters campaigns race, `A0xx` the
/// automotive workload family.
///
/// Codes are append-only: a code's meaning never changes once released,
/// and retired codes are not reused. `D001`–`D004` and `U001`–`U005`, the
/// former source audit's codes, are retired; clippy checks the workspace's
/// sources instead (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(clippy::upper_case_acronyms)]
pub enum Code {
    /// CFG has no entry block.
    C001,
    /// CFG has no exit block.
    C002,
    /// Live block unreachable from the entry.
    C003,
    /// Live block cannot reach the exit.
    C004,
    /// Loop header (target of a back edge) has no loop bound.
    C005,
    /// Irreducible control flow: a cycle with no dominating header.
    C006,
    /// Edge incident to a collapsed (dead) block.
    C007,
    /// Loop bound set on a block that heads no loop.
    C008,
    /// Loop bound of zero: the loop body never executes.
    C009,
    /// `C_LO` exceeds `C_HI`.
    T001,
    /// Profile mean (ACET) exceeds the optimistic budget `C_LO`.
    T002,
    /// Execution profile parameters out of range.
    T003,
    /// Timing parameters out of order (period/deadline/budgets).
    T004,
    /// Empty Chebyshev range: pessimistic WCET below the ACET.
    T005,
    /// High-criticality task without an execution profile.
    T006,
    /// Duplicate task id.
    T007,
    /// Task set is empty or has no high-criticality tasks.
    T008,
    /// Total LO-mode utilization exceeds 1.
    T009,
    /// EDF-VD preconditions fail (Eq. 8 / `x ∉ (0, 1]`).
    T010,
    /// Low-criticality task carries an (unused) execution profile.
    T011,
    /// Profile's pessimistic WCET disagrees with `C_HI`.
    T012,
    /// GA population smaller than 2.
    S001,
    /// GA generation count is zero.
    S002,
    /// GA probability outside `[0, 1]`.
    S003,
    /// GA tournament size outside `[1, population]`.
    S004,
    /// GA elitism at least the population size.
    S005,
    /// GA search budget is very large.
    S006,
    /// Chebyshev factor cap out of range.
    S007,
    /// Chebyshev factor cap below the paper's operating region.
    S008,
    /// Task-generator configuration invalid.
    S009,
    /// Campaign has no axis points.
    E001,
    /// Campaign replica count is zero.
    E002,
    /// Shard index not below the shard count.
    E003,
    /// Duplicate campaign point labels.
    E004,
    /// Output path collision (store and export would overwrite each other).
    E005,
    /// Campaign is very large.
    E006,
    /// Scheduling-policy parameter out of range (fraction/floor outside
    /// `[0, 1]` or non-finite).
    P001,
    /// Duplicate scheduling-policy names in one roster.
    P002,
    /// Policy roster is empty.
    P003,
    /// Automotive share-table entry invalid (negative, non-finite, or the
    /// shares no longer sum to the documented total).
    A001,
    /// Automotive period bins not strictly increasing or zero.
    A002,
    /// Automotive factor-matrix violation (BCET factors outside `(0, 1)`,
    /// WCET factors not above 1, or a min above its max).
    A003,
    /// Automotive ACET statistics out of order (`min ≤ avg ≤ max` broken).
    A004,
    /// Automotive generator configuration invalid.
    A005,
    /// Automotive calibration admits no Weibull-feasible factor pair for
    /// some bin (the discard loop could never terminate).
    A006,
}

impl Code {
    /// The severity this code always carries.
    #[must_use]
    pub fn severity(self) -> Severity {
        use Code::{
            A001, A002, A003, A004, A005, A006, C001, C002, C003, C004, C005, C006, C007, C008,
            C009, E001, E002, E003, E004, E005, E006, P001, P002, P003, S001, S002, S003, S004,
            S005, S006, S007, S008, S009, T001, T002, T003, T004, T005, T006, T007, T008, T009,
            T010, T011, T012,
        };
        match self {
            C001 | C002 | C003 | C004 | C005 | C006 => Severity::Error,
            C007 | C008 => Severity::Warning,
            C009 => Severity::Info,
            T001 | T003 | T004 | T005 | T007 => Severity::Error,
            T002 | T006 | T008 | T009 | T010 | T012 => Severity::Warning,
            T011 => Severity::Info,
            S001 | S002 | S003 | S004 | S005 | S007 | S009 => Severity::Error,
            S006 => Severity::Warning,
            S008 => Severity::Info,
            E001 | E002 | E003 | E004 | E005 => Severity::Error,
            E006 => Severity::Warning,
            P001 | P002 | P003 => Severity::Error,
            A001 | A002 | A003 | A004 | A005 | A006 => Severity::Error,
        }
    }

    /// One-line description of what the code means (the DESIGN.md table's
    /// "meaning" column).
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Code::C001 => "control-flow graph has no entry block",
            Code::C002 => "control-flow graph has no exit block",
            Code::C003 => "live block is unreachable from the entry",
            Code::C004 => "live block cannot reach the exit",
            Code::C005 => "loop header has no loop bound",
            Code::C006 => "irreducible control flow (cycle without a dominating header)",
            Code::C007 => "edge incident to a collapsed (dead) block",
            Code::C008 => "loop bound set on a block that heads no loop",
            Code::C009 => "loop bound of zero (body never executes)",
            Code::T001 => "optimistic budget C_LO exceeds pessimistic budget C_HI",
            Code::T002 => "profile mean (ACET) exceeds the optimistic budget C_LO",
            Code::T003 => "execution-profile parameters out of range",
            Code::T004 => "timing parameters out of order",
            Code::T005 => "empty Chebyshev range (WCET_pes below ACET)",
            Code::T006 => "high-criticality task lacks an execution profile",
            Code::T007 => "duplicate task id",
            Code::T008 => "task set empty or without high-criticality tasks",
            Code::T009 => "total LO-mode utilization exceeds 1",
            Code::T010 => "EDF-VD preconditions fail",
            Code::T011 => "low-criticality task carries an unused profile",
            Code::T012 => "profile WCET_pes disagrees with C_HI",
            Code::S001 => "GA population smaller than 2",
            Code::S002 => "GA generation count is zero",
            Code::S003 => "GA probability outside [0, 1]",
            Code::S004 => "GA tournament size outside [1, population]",
            Code::S005 => "GA elitism not smaller than the population",
            Code::S006 => "GA search budget is very large",
            Code::S007 => "Chebyshev factor cap out of range",
            Code::S008 => "Chebyshev factor cap below the paper's operating region",
            Code::S009 => "task-generator configuration invalid",
            Code::E001 => "campaign has no axis points",
            Code::E002 => "campaign replica count is zero",
            Code::E003 => "shard index is not below the shard count",
            Code::E004 => "duplicate campaign point labels",
            Code::E005 => "output path collision",
            Code::E006 => "campaign is very large",
            Code::P001 => "scheduling-policy parameter out of range",
            Code::P002 => "duplicate scheduling-policy names in one roster",
            Code::P003 => "policy roster is empty",
            Code::A001 => "automotive share-table entry invalid",
            Code::A002 => "automotive period bins not strictly increasing",
            Code::A003 => "automotive BCET/WCET factor-matrix violation",
            Code::A004 => "automotive ACET statistics out of order",
            Code::A005 => "automotive generator configuration invalid",
            Code::A006 => "automotive bin admits no Weibull-feasible factor pair",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Every released code, in class/number order (the DESIGN.md table order).
pub const ALL_CODES: &[Code] = &[
    Code::C001,
    Code::C002,
    Code::C003,
    Code::C004,
    Code::C005,
    Code::C006,
    Code::C007,
    Code::C008,
    Code::C009,
    Code::T001,
    Code::T002,
    Code::T003,
    Code::T004,
    Code::T005,
    Code::T006,
    Code::T007,
    Code::T008,
    Code::T009,
    Code::T010,
    Code::T011,
    Code::T012,
    Code::S001,
    Code::S002,
    Code::S003,
    Code::S004,
    Code::S005,
    Code::S006,
    Code::S007,
    Code::S008,
    Code::S009,
    Code::E001,
    Code::E002,
    Code::E003,
    Code::E004,
    Code::E005,
    Code::E006,
    Code::P001,
    Code::P002,
    Code::P003,
    Code::A001,
    Code::A002,
    Code::A003,
    Code::A004,
    Code::A005,
    Code::A006,
];

/// One finding: a stable code, its severity, where it was found, and a
/// human-readable explanation with the offending values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable machine-readable code.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// What the finding is attached to, e.g. `cfg:qsort-10/n3 (inner)`
    /// or `task τ2`.
    pub source: String,
    /// Human-readable message with concrete values.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic; the severity comes from the code.
    #[must_use]
    pub fn new(code: Code, source: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            source: source.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.source, self.message
        )
    }
}

/// An ordered collection of findings from one or more lint passes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LintReport {
    /// The findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Appends every finding of `other`.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of findings at the given severity.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any finding is an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether the report has no findings at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Iterates over the findings.
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.diagnostics.iter()
    }

    /// The distinct codes present, in first-appearance order.
    #[must_use]
    pub fn codes(&self) -> Vec<Code> {
        let mut seen = Vec::new();
        for d in &self.diagnostics {
            if !seen.contains(&d.code) {
                seen.push(d.code);
            }
        }
        seen
    }

    /// Renders the report for terminals: one line per finding plus a
    /// summary line.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let (e, w, i) = (
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        if self.is_clean() {
            out.push_str("clean: no findings\n");
        } else {
            out.push_str(&format!("{e} error(s), {w} warning(s), {i} info(s)\n"));
        }
        out
    }

    /// Renders the report as JSON (stable shape: `{"diagnostics": [...]}`).
    ///
    /// # Errors
    ///
    /// Propagates serialization failures (none occur in practice).
    pub fn render_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_human())
    }
}

impl IntoIterator for LintReport {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.diagnostics.into_iter()
    }
}

impl<'a> IntoIterator for &'a LintReport {
    type Item = &'a Diagnostic;
    type IntoIter = std::slice::Iter<'a, Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.diagnostics.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_below_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn codes_render_as_stable_strings() {
        assert_eq!(Code::C005.to_string(), "C005");
        assert_eq!(Code::T001.to_string(), "T001");
        assert_eq!(Code::S009.to_string(), "S009");
    }

    #[test]
    fn diagnostics_inherit_code_severity() {
        let d = Diagnostic::new(Code::C003, "cfg:demo/n2", "block `skip` is unreachable");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.to_string().contains("C003"));
        assert!(d.to_string().contains("cfg:demo/n2"));
    }

    #[test]
    fn report_counts_and_codes() {
        let mut r = LintReport::new();
        r.push(Diagnostic::new(Code::C005, "a", "x"));
        r.push(Diagnostic::new(Code::C009, "b", "y"));
        r.push(Diagnostic::new(Code::C005, "c", "z"));
        assert_eq!(r.count(Severity::Error), 2);
        assert_eq!(r.count(Severity::Info), 1);
        assert!(r.has_errors());
        assert_eq!(r.codes(), vec![Code::C005, Code::C009]);
        let human = r.render_human();
        assert!(human.contains("2 error(s)"));
    }

    #[test]
    fn report_json_round_trips() {
        let mut r = LintReport::new();
        r.push(Diagnostic::new(
            Code::T001,
            "task τ1",
            "C_LO 5ms > C_HI 4ms",
        ));
        r.push(Diagnostic::new(Code::S006, "ga", "budget 10^9"));
        let json = r.render_json().unwrap();
        let back: LintReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn every_code_has_description_and_severity() {
        for &code in ALL_CODES {
            assert!(!code.description().is_empty());
            let _ = code.severity();
        }
    }
}
