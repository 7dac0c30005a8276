//! Schedulability analysis for uniprocessor mixed-criticality systems.
//!
//! * [`edf_vd`] — EDF-VD (Baruah et al., RTNS 2012): the paper's Eq. 8
//!   conditions, the deadline-shrinking factor `x`, virtual deadlines, and
//!   the `max(U_LC^LO)` bound of Eqs. 11–12.
//! * [`liu`] — the degraded-quality variant (Liu et al., RTSS 2016) where
//!   LC tasks keep a fraction of their budget in HI mode.

pub mod dbf;
pub mod edf_vd;
pub mod liu;
pub mod multi;

pub use edf_vd::{max_u_lc_lo, EdfVdAnalysis};
