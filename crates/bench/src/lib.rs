//! Shared harness code for the benchmark suite and the `experiments` binary:
//! reproducible workloads, spanner-construction wrappers and plain-text table
//! rendering for the tables that binary prints to stdout.

pub mod tables;
pub mod workloads;

pub use tables::Table;
