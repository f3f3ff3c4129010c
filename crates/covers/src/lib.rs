//! # foc-covers — neighbourhood covers, the splitter game, and the
//! Removal Lemma (Sections 7–8)
//!
//! The structural toolkit behind the paper's main algorithm:
//!
//! * [`cover`] — sparse (r, 2r)-neighbourhood covers (Theorem 8.1's
//!   substitute construction; see DESIGN.md §3.4);
//! * [`splitter`] — the splitter game characterising nowhere dense
//!   classes: game engine, heuristic strategies for the empirical λ̂(r)
//!   estimates of experiment E9, and an exact minimax solver for small
//!   graphs;
//! * [`removal`] — the Removal Lemma: structure surgery `A *_r d` and
//!   the formula/term rewritings of Lemmas 7.8/7.9;
//! * [`cover_eval`] — the Section 8.2 evaluation strategy for basic
//!   cl-terms: cover the structure, localise to clusters, remove
//!   Splitter's vertex, rewrite, recurse.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cover;
pub mod cover_eval;
pub mod removal;
pub mod splitter;

pub use cover::{build_cover, cover_structure, trivial_cover, NeighborhoodCover};
pub use cover_eval::{CoverConfig, CoverEvaluator, CoverStats};
pub use removal::{remove_element, remove_formula, remove_unary_count, RemovedCount};
pub use splitter::{
    estimate_game_length, exact_game_value, play, Connector, PlayOutcome, Splitter,
};
