//! Errors of the rewriting pipeline.

use std::fmt;

/// Why a formula could not be processed by the locality machinery.
///
/// The Gaifman normal form of Theorem 6.7 exists for *all* of FO, but its
/// general construction is non-elementary; this implementation covers the
/// separable fragment described in DESIGN.md §3. Formulas outside it are
/// rejected with these errors and remain evaluable by the naive engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalityError {
    /// The formula contains an unguarded quantifier whose witness cannot
    /// be localised; the payload describes the offending subformula.
    NotLocal(String),
    /// The Feferman–Vaught splitting or Shannon expansion exceeded the
    /// configured size budget.
    TooComplex(String),
    /// The formula is not first-order (contains counting constructs where
    /// only FO/FO⁺ is allowed).
    NotFirstOrder(String),
    /// An evaluation step inside the rewriting failed.
    Eval(foc_eval::EvalError),
    /// The requested Gaifman-graph pattern width exceeds the implemented
    /// enumeration bound (G_k is only tabulated for small k).
    WidthTooLarge {
        /// The requested width.
        width: usize,
        /// The largest supported width.
        max: usize,
    },
    /// A locality/decomposition radius is too large to represent
    /// faithfully: δ-formulas carry `u32` distance bounds, so a radius
    /// `r` with `2r + 1 > u32::MAX` (or a radius sum overflowing `u64`)
    /// cannot be decomposed without silently changing semantics. The
    /// machinery errors instead of saturating or truncating; the error
    /// is degradable, so the engine ladder answers via the naive
    /// evaluator, which has no radius arithmetic at all.
    RadiusTooLarge {
        /// The offending radius (clamped to `u64::MAX` when the value
        /// itself overflowed `u64`).
        radius: u64,
    },
    /// A parallel worker panicked while evaluating an independent piece;
    /// the panic was contained and the remaining workers joined.
    WorkerPanicked {
        /// The rendered panic payload.
        payload: String,
        /// The index of the work item that panicked: the element's
        /// position in the enumerated element list for ball
        /// enumeration, the cluster's index in its cover for the cover
        /// engine's removal clusters.
        item_index: usize,
    },
}

impl fmt::Display for LocalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocalityError::NotLocal(s) => write!(f, "formula is not (recognisably) local: {s}"),
            LocalityError::TooComplex(s) => write!(f, "decomposition too complex: {s}"),
            LocalityError::NotFirstOrder(s) => write!(f, "not a first-order (sub)formula: {s}"),
            LocalityError::Eval(e) => write!(f, "evaluation error during rewriting: {e}"),
            LocalityError::WidthTooLarge { width, max } => {
                write!(f, "pattern width {width} exceeds the supported bound {max}")
            }
            LocalityError::RadiusTooLarge { radius } => {
                write!(
                    f,
                    "locality radius {radius} exceeds the representable distance bound"
                )
            }
            LocalityError::WorkerPanicked {
                payload,
                item_index,
            } => {
                write!(f, "worker panicked on item {item_index}: {payload}")
            }
        }
    }
}

impl LocalityError {
    /// Whether this is a *capability* error — the formula is outside what
    /// the locality machinery handles, but a simpler strategy (naive
    /// evaluation) can still answer. Evaluation errors, interrupts, and
    /// worker panics are not degradable: retrying them elsewhere would
    /// repeat the failure or mask a fault.
    pub fn is_degradable(&self) -> bool {
        match self {
            LocalityError::NotLocal(_)
            | LocalityError::TooComplex(_)
            | LocalityError::NotFirstOrder(_)
            | LocalityError::WidthTooLarge { .. }
            | LocalityError::RadiusTooLarge { .. } => true,
            LocalityError::Eval(_) | LocalityError::WorkerPanicked { .. } => false,
        }
    }
}

impl std::error::Error for LocalityError {}

impl From<foc_eval::EvalError> for LocalityError {
    fn from(e: foc_eval::EvalError) -> Self {
        LocalityError::Eval(e)
    }
}

impl From<foc_guard::Interrupt> for LocalityError {
    fn from(i: foc_guard::Interrupt) -> Self {
        LocalityError::Eval(foc_eval::EvalError::Interrupted(i))
    }
}

impl From<foc_parallel::WorkerPanic> for LocalityError {
    fn from(p: foc_parallel::WorkerPanic) -> Self {
        LocalityError::WorkerPanicked {
            payload: p.payload,
            item_index: p.item_index,
        }
    }
}

/// Result alias for the locality machinery.
pub type Result<T> = std::result::Result<T, LocalityError>;
