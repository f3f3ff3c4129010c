//! Anytime-evaluation primitives: confidence tags and the time manager.
//!
//! The deepening driver (in `foc-core`) runs a query through
//! progressively stronger passes and keeps the best answer produced so
//! far. Two vocabulary types live here, at the bottom of the crate
//! graph, so every layer (serve frames, diff comparison, CLI rendering)
//! speaks the same language without depending on the engine:
//!
//! * [`Confidence`] — how much an answer is worth: `exact`, an
//!   `(ε, δ)` estimate with an explicit error bound, or a sound
//!   `lower_bound`;
//! * [`TimeManager`] — splits one request budget (deadline and/or
//!   fuel) across the passes, using per-pass cost estimates fed back
//!   from observed history, and decides when a pass is not worth
//!   starting because its projected completion exceeds the remaining
//!   budget.
//!
//! The shape follows the iterative-deepening searchers of game engines
//! (a `Deepening` executor around a `TimeManager`): each pass is bounded
//! so a trip costs only that pass, never the answers already banked.

use std::fmt;
use std::time::{Duration, Instant};

/// How trustworthy a best-so-far answer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Confidence {
    /// The answer is the true value: a pass ran the full computation to
    /// completion.
    Exact,
    /// A sampling estimate with an explicit additive error guarantee:
    /// the true value lies within `error_bound` of the answer with the
    /// configured probability (the `(ε, δ)` knob of the approximate
    /// counting engine).
    Approximate {
        /// The additive half-width of the guarantee interval.
        error_bound: u64,
    },
    /// A sound lower bound: every counted witness was verified against
    /// the *full* structure, but enumeration stopped early, so the true
    /// value can only be larger.
    LowerBound,
}

impl Confidence {
    /// The wire tag: `"exact"`, `"approx"` or `"lower_bound"`.
    pub fn tag(&self) -> &'static str {
        match self {
            Confidence::Exact => "exact",
            Confidence::Approximate { .. } => "approx",
            Confidence::LowerBound => "lower_bound",
        }
    }

    /// Whether the answer is the true value.
    pub fn is_exact(&self) -> bool {
        matches!(self, Confidence::Exact)
    }

    /// A strict ordering of usefulness: exact beats an ε-bounded
    /// estimate beats a lower bound.
    pub fn rank(&self) -> u8 {
        match self {
            Confidence::Exact => 2,
            Confidence::Approximate { .. } => 1,
            Confidence::LowerBound => 0,
        }
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Confidence::Exact => write!(f, "exact"),
            Confidence::Approximate { error_bound } => write!(f, "approx(±{error_bound})"),
            Confidence::LowerBound => write!(f, "lower_bound"),
        }
    }
}

/// The slice of the request budget one pass may spend, as decided by
/// [`TimeManager::plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassPlan {
    /// Wall-clock slice, if the request carries a deadline.
    pub deadline: Option<Duration>,
    /// Fuel slice, if the request carries a fuel budget.
    pub fuel: Option<u64>,
}

/// Why the time manager declined to start a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The request budget is already spent.
    BudgetExhausted,
    /// The pass's projected completion time exceeds the remaining
    /// budget, so starting it would burn budget without finishing.
    ProjectedOverrun,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::BudgetExhausted => write!(f, "budget exhausted"),
            SkipReason::ProjectedOverrun => write!(f, "projected overrun"),
        }
    }
}

/// Splits one request budget across the passes of a deepening run.
///
/// The manager tracks wall-clock spend from its own start instant and
/// fuel spend as reported by the driver after each pass. [`plan`] hands
/// each pass a *slice*: a weighted fraction of what remains for
/// non-final passes, everything that remains for the final pass. When a
/// cost estimate (from observed pass history) is available and already
/// exceeds the remaining budget, the pass is skipped outright — the
/// canonical anytime rule that a pass you cannot finish is a pass you
/// should not start.
///
/// [`plan`]: TimeManager::plan
#[derive(Debug, Clone)]
pub struct TimeManager {
    started: Instant,
    deadline: Option<Duration>,
    fuel: Option<u64>,
    fuel_spent: u64,
}

/// Floor for any wall-clock slice, so a pass is never armed with a
/// degenerate budget that trips on its first stride poll.
const MIN_SLICE: Duration = Duration::from_millis(1);

/// Floor for any fuel slice (one deadline stride's worth of checks).
const MIN_FUEL_SLICE: u64 = 256;

impl TimeManager {
    /// A manager for one request budget. `deadline` and `fuel` are the
    /// request totals; `None` means the resource is unlimited.
    pub fn new(deadline: Option<Duration>, fuel: Option<u64>) -> TimeManager {
        TimeManager {
            started: Instant::now(),
            deadline,
            fuel,
            fuel_spent: 0,
        }
    }

    /// Whether any resource is actually bounded — with neither a
    /// deadline nor fuel there is nothing to split and deepening is
    /// pointless.
    pub fn bounded(&self) -> bool {
        self.deadline.is_some() || self.fuel.is_some()
    }

    /// Records fuel spent by a finished pass.
    pub fn record_fuel(&mut self, spent: u64) {
        self.fuel_spent = self.fuel_spent.saturating_add(spent);
    }

    /// Wall-clock budget remaining, if bounded.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_sub(self.started.elapsed()))
    }

    /// Fuel budget remaining, if bounded.
    pub fn remaining_fuel(&self) -> Option<u64> {
        self.fuel.map(|f| f.saturating_sub(self.fuel_spent))
    }

    /// Whether the request budget still has anything left to spend.
    pub fn exhausted(&self) -> bool {
        matches!(self.remaining(), Some(d) if d < MIN_SLICE)
            || matches!(self.remaining_fuel(), Some(f) if f < MIN_FUEL_SLICE)
    }

    /// Plans the next pass.
    ///
    /// `weight` is the fraction of the *remaining* budget a non-final
    /// pass may spend (clamped to `[0.05, 1.0]`); the final pass gets
    /// everything left. `estimate` is the pass's projected completion
    /// time from observed history; when it exceeds the remaining
    /// wall-clock budget a *non-final* pass is skipped
    /// (`ProjectedOverrun`). The final pass is never projection-skipped:
    /// it is the last rung on the ladder, so it always runs with
    /// whatever budget remains — an anytime run must never end with no
    /// rung at all because an estimate looked grim.
    pub fn plan(
        &self,
        weight: f64,
        estimate: Option<Duration>,
        is_final: bool,
    ) -> Result<PassPlan, SkipReason> {
        if self.exhausted() {
            return Err(SkipReason::BudgetExhausted);
        }
        let remaining = self.remaining();
        if !is_final {
            if let (Some(est), Some(rem)) = (estimate, remaining) {
                if est > rem {
                    return Err(SkipReason::ProjectedOverrun);
                }
            }
        }
        let w = weight.clamp(0.05, 1.0);
        let deadline = remaining.map(|rem| {
            if is_final {
                rem
            } else {
                let mut slice = rem.mul_f64(w);
                // A reliable estimate smaller than the weighted slice
                // frees budget for the later, stronger passes; leave
                // 2x headroom over the estimate for variance.
                if let Some(est) = estimate {
                    let padded = est.saturating_mul(2);
                    if padded < slice {
                        slice = padded;
                    }
                }
                slice.max(MIN_SLICE)
            }
        });
        let fuel = self.remaining_fuel().map(|rem| {
            if is_final {
                rem
            } else {
                (((rem as f64) * w) as u64).max(MIN_FUEL_SLICE).min(rem)
            }
        });
        Ok(PassPlan { deadline, fuel })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_and_ranks() {
        let ap = Confidence::Approximate { error_bound: 12 };
        assert_eq!(Confidence::Exact.tag(), "exact");
        assert_eq!(ap.tag(), "approx");
        assert_eq!(ap.to_string(), "approx(±12)");
        assert_eq!(Confidence::LowerBound.tag(), "lower_bound");
        assert!(Confidence::Exact.rank() > ap.rank());
        assert!(ap.rank() > Confidence::LowerBound.rank());
    }

    #[test]
    fn unbounded_manager_plans_unlimited_passes() {
        let tm = TimeManager::new(None, None);
        assert!(!tm.bounded());
        assert!(!tm.exhausted());
        let plan = tm.plan(0.25, None, false).unwrap();
        assert_eq!(plan.deadline, None);
        assert_eq!(plan.fuel, None);
    }

    #[test]
    fn weighted_slices_and_final_pass() {
        let tm = TimeManager::new(Some(Duration::from_millis(100)), Some(100_000));
        let p1 = tm.plan(0.25, None, false).unwrap();
        let d1 = p1.deadline.unwrap();
        assert!(d1 <= Duration::from_millis(26), "quarter slice, got {d1:?}");
        let f1 = p1.fuel.unwrap();
        assert!((MIN_FUEL_SLICE..=26_000).contains(&f1), "got {f1}");
        let pf = tm.plan(0.25, None, true).unwrap();
        assert!(pf.deadline.unwrap() > d1, "final pass gets the rest");
        assert!(pf.fuel.unwrap() >= 99_000);
    }

    #[test]
    fn estimate_caps_the_slice() {
        let tm = TimeManager::new(Some(Duration::from_millis(100)), None);
        let p = tm.plan(0.5, Some(Duration::from_millis(2)), false).unwrap();
        // 2x the estimate, well under the 50ms weighted slice.
        assert!(p.deadline.unwrap() <= Duration::from_millis(5));
    }

    #[test]
    fn projected_overrun_skips_the_pass() {
        let tm = TimeManager::new(Some(Duration::from_millis(10)), None);
        let err = tm
            .plan(0.5, Some(Duration::from_millis(50)), false)
            .unwrap_err();
        assert_eq!(err, SkipReason::ProjectedOverrun);
    }

    #[test]
    fn final_pass_is_never_projection_skipped() {
        // The p75 estimate dwarfs the remaining budget, yet the final
        // pass must still be planned — with everything that remains.
        let tm = TimeManager::new(Some(Duration::from_millis(10)), Some(100_000));
        let plan = tm
            .plan(0.5, Some(Duration::from_millis(50)), true)
            .expect("final pass must run with whatever budget remains");
        let d = plan.deadline.unwrap();
        assert!(d <= Duration::from_millis(10));
        assert!(d >= Duration::from_millis(1));
        assert!(plan.fuel.unwrap() >= 99_000, "final pass gets all the fuel");
    }

    #[test]
    fn spent_fuel_exhausts_the_budget() {
        let mut tm = TimeManager::new(None, Some(1_000));
        assert!(!tm.exhausted());
        tm.record_fuel(900);
        assert!(tm.exhausted(), "less than a stride of fuel left");
        assert_eq!(tm.plan(0.5, None, false), Err(SkipReason::BudgetExhausted));
    }
}
