//! Seeded violations that the repository's clippy configuration must
//! report: hash-order iteration, NaN-unsafe comparators and thread-unsafe
//! shared state. The `expected` file next to `Cargo.toml` lists the
//! `path line lint` triples clippy must report here.

#![allow(dead_code)]

mod bad_determinism;
mod bad_float;
mod bad_parallel;
