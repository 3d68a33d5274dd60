//! # servebench — the serving benchmark of the mpi-predict engine
//!
//! Runs three workloads through `FederatedClient` over
//! `PersistentEngine` workers, checks the engine's outputs against
//! computations made apart from it, and reports end-to-end metrics
//! (untraced runs) or per-layer metrics (traced runs). See `README.md`
//! beside this crate for the workloads, the statistics and the layer
//! table.

pub mod alloc;
pub mod inputs;
pub mod layers;
pub mod reference;
pub mod serve;
pub mod spans;
pub mod stats;

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;
