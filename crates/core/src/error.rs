//! Unified error type of the evaluation engines.

use std::fmt;

/// Errors surfaced by the FOC1(P) engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The expression is not in FOC1(P) (Definition 5.1).
    NotFoc1(String),
    /// A semantic evaluation error (unknown relation, unbound variable,
    /// arithmetic overflow, …).
    Eval(foc_eval::EvalError),
    /// A rewriting error from the locality machinery. The decomposing
    /// engines degrade to naive evaluation for the offending component
    /// where possible; this surfaces only when that is impossible too.
    Locality(foc_locality::LocalityError),
    /// A query shape the requested engine cannot process.
    Unsupported(String),
    /// An invalid engine configuration rejected by [`crate::EvaluatorBuilder`].
    Config(String),
    /// The evaluation was interrupted by its resource budget (deadline,
    /// fuel, or cancellation; see [`foc_guard::Budget`]). The carried
    /// [`foc_guard::Interrupt`] records the reason, the phase that was
    /// running, and the fuel spent so far.
    Interrupted(foc_guard::Interrupt),
    /// A worker thread panicked; the panic was caught at the parallelism
    /// boundary and the remaining workers were drained cleanly.
    WorkerPanicked {
        /// Rendered panic payload.
        payload: String,
        /// Index of the work item whose evaluation panicked (see
        /// [`foc_locality::LocalityError::WorkerPanicked`]).
        item_index: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFoc1(s) => write!(f, "expression is not in FOC1(P): {s}"),
            Error::Eval(e) => write!(f, "{e}"),
            Error::Locality(e) => write!(f, "{e}"),
            Error::Unsupported(s) => write!(f, "unsupported: {s}"),
            Error::Config(s) => write!(f, "invalid engine configuration: {s}"),
            Error::Interrupted(i) => write!(f, "{i}"),
            Error::WorkerPanicked {
                payload,
                item_index,
            } => {
                write!(f, "worker panicked on item {item_index}: {payload}")
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<foc_eval::EvalError> for Error {
    fn from(e: foc_eval::EvalError) -> Self {
        match e {
            foc_eval::EvalError::Interrupted(i) => Error::Interrupted(i),
            other => Error::Eval(other),
        }
    }
}

impl From<foc_locality::LocalityError> for Error {
    fn from(e: foc_locality::LocalityError) -> Self {
        match e {
            foc_locality::LocalityError::Eval(inner) => inner.into(),
            foc_locality::LocalityError::WorkerPanicked {
                payload,
                item_index,
            } => Error::WorkerPanicked {
                payload,
                item_index,
            },
            other => Error::Locality(other),
        }
    }
}

impl From<foc_guard::Interrupt> for Error {
    fn from(i: foc_guard::Interrupt) -> Self {
        Error::Interrupted(i)
    }
}

impl Error {
    /// Whether the degradation ladder may step past this error to a
    /// simpler engine. Only *capability* errors degrade — the query shape
    /// is outside what the engine handles, but a weaker strategy can
    /// still answer. Resource interrupts, worker panics, and semantic
    /// evaluation errors never degrade: retrying them on another engine
    /// would either repeat the failure or mask a fault.
    pub fn is_degradable(&self) -> bool {
        match self {
            Error::Locality(e) => e.is_degradable(),
            Error::NotFoc1(_) | Error::Unsupported(_) => true,
            Error::Eval(_)
            | Error::Config(_)
            | Error::Interrupted(_)
            | Error::WorkerPanicked { .. } => false,
        }
    }
}

/// Result alias for the engines.
pub type Result<T> = std::result::Result<T, Error>;
