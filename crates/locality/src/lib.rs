//! # foc-locality — the decomposition machinery of Section 6
//!
//! This crate implements the symbolic pipeline that turns FOC1(P)
//! counting into *connected local* counting:
//!
//! * [`radius`] — syntactic locality analysis for the separable fragment
//!   (computes a radius `r` such that a formula is r-local around its
//!   free variables);
//! * [`gk`] — the connectivity graphs `G ∈ G_k` and distance formulas
//!   `δ_G,r` of Section 6.1;
//! * [`separate`] — Feferman–Vaught splitting of a local formula across
//!   far-apart variable groups (the engine of Lemma 6.4);
//! * [`clterm`] / [`decompose`] — cl-terms (Definition 6.2) and the
//!   decomposition `#ȳ.ψ ↦ polynomial of basic cl-terms` (Lemma 6.4);
//! * [`gnf`] — a constructive Gaifman normal form (Theorem 6.7) for the
//!   separable fragment, including the far-witness case analysis;
//! * [`clnf`] — the cl-normalform of Theorem 6.8 (local matrix + ground
//!   cl-terms behind 0-ary markers);
//! * [`local_eval`] — ball-based evaluation of basic cl-terms
//!   (Remark 6.3) through one planned, allocation-free kernel: the
//!   workhorse of the `Local` engine and of the `Cover` engine's leaves;
//! * [`cache`] — a content-keyed, thread-safe memo of basic-cl-term
//!   values shared across the recursion of the main algorithm.
//!
//! Every transformation in this crate is property-tested for semantic
//! equivalence against the reference evaluator of `foc-eval`.

#![warn(missing_docs)]
#![allow(
    clippy::should_implement_trait,
    clippy::type_complexity,
    clippy::needless_range_loop
)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod clnf;
pub mod clterm;
pub mod decompose;
pub mod delta;
pub mod error;
pub mod gk;
pub mod gnf;
mod kernel;
pub mod local_eval;
pub mod radius;
pub mod separate;

pub use cache::TermCache;
pub use clnf::{cl_normalform, ClNormalForm, ClnfSentence};
pub use clterm::{BasicClTerm, ClTerm};
pub use decompose::{decompose_ground, decompose_unary};
pub use delta::{migrate_cache, MigrationStats};
pub use error::{LocalityError, Result};
pub use gk::Gk;
pub use gnf::gaifman_nf;
pub use local_eval::{ClValue, LocalEvaluator, LocalStats};
pub use radius::locality_radius;
