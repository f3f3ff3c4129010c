//! # foc-core — FOC1(P) query evaluation
//!
//! The public API of the reproduction of Grohe & Schweikardt, *First-
//! Order Query Evaluation with Cardinality Conditions* (PODS 2018): an
//! evaluator for the logic FOC1(P) (first-order logic with SQL-COUNT-
//! style cardinality conditions over terms with at most one free
//! variable) with three interchangeable engines — the reference
//! semantics, the locality-decomposition engine (Theorem 6.10 +
//! Remark 6.3), and the neighbourhood-cover engine (Section 8.2).
//!
//! ```
//! use foc_core::{EngineKind, Evaluator};
//! use foc_logic::parse::parse_formula;
//! use foc_structures::gen::grid;
//!
//! // "some vertex's degree equals the total number of corner vertices"
//! let f = parse_formula(
//!     "exists x. (#(y). E(x,y) = #(z). (#(w). E(z,w) = 2))",
//! ).unwrap();
//! let g = grid(8, 8);
//! let local = Evaluator::builder().kind(EngineKind::Local).build().unwrap();
//! let naive = Evaluator::builder().kind(EngineKind::Naive).build().unwrap();
//! let want = naive.check_sentence(&g, &f).unwrap();
//! assert_eq!(local.check_sentence(&g, &f).unwrap(), want);
//! // A grid has 4 corners (degree-2 vertices) and interior degree 4 —
//! // so the sentence holds (some vertex has degree 4).
//! assert!(want);
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod anytime;
pub mod approx;
pub mod engine;
pub mod enumerate;
pub mod error;
pub mod sql;

pub use aggregate::{AvgResult, SumAggregate, Weights};
pub use anytime::{AnswerValue, Anytime, CostModel, PassKind, PassReport, PassStatus};
pub use approx::{sample_size, ApproxConfig, ApproxValue};
pub use engine::{
    DegradePolicy, EngineConfig, EngineKind, EngineStats, Evaluator, EvaluatorBuilder, MarkerDef,
    Session,
};
pub use enumerate::QueryEnumerator;
pub use error::{Error, Result};
pub use foc_covers::CoverConfig;
pub use foc_guard::Confidence;
pub use foc_guard::{Budget, CancelToken, Interrupt, Phase, TraceContext, TripReason};
