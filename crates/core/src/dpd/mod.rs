//! The Dynamic Periodicity Detector (DPD) and its predictor.
//!
//! The paper adapts the DPD of Freitag, Corbalan and Labarta (IPDPS 2001)
//! to predict MPI message streams. The detector evaluates, for every
//! candidate lag `m`, the distance metric of equation (1):
//!
//! ```text
//! d(m) = sign( Σ_{i} | x[i] − x[i−m] | )
//! ```
//!
//! over a sliding window. A lag with `d(m) = 0` means the window repeats
//! with period `m`; the smallest such lag is the pattern length. Because
//! the full pattern is then known, *several* future values can be emitted
//! at once — the property §5.3 exploits for buffer pre-allocation.
//!
//! Three pieces live here:
//!
//! * [`distance`] — offline reference implementation of the metric.
//! * [`detector`] — [`PeriodicityDetector`], an incremental implementation
//!   ("circular lists", §4.2) with optional mismatch tolerance for noisy
//!   physical streams. It keeps one 16-bit mismatch counter per lag and
//!   updates them with two compare passes over the retained history per
//!   observation, O(M) each; once the history is full, selection is a
//!   minimum over those counters. The history stores one byte per
//!   symbol until a symbol above 255 arrives, so on the engine's dense
//!   ids each pass reads M bytes rather than 8·M.
//! * [`predictor`] — [`DpdPredictor`], the [`Predictor`](crate::predictors::Predictor)
//!   built on top, including the majority-vote variant used in ablations.

pub mod detector;
pub mod distance;
pub mod predictor;

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

pub use detector::{DpdConfig, PeriodicityDetector};
pub use distance::{distance_sign, mismatch_profile};
pub use predictor::{DpdPredictor, DpdPredictorState};
