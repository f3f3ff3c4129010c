//! Resource governance for FOC(P) evaluation.
//!
//! Section 4 of the paper proves FOC(P) model checking is AW\[*\]-hard
//! already on strings and trees, so a deployed engine must assume some
//! queries are computationally hostile and *bound* them instead of
//! hanging. This crate provides the one primitive the whole pipeline
//! shares: a [`Budget`] (wall-clock deadline, fuel, cancellation token)
//! that arms into a [`Guard`] whose [`Guard::check`] is cheap enough to
//! call from the hottest loops — one relaxed `fetch_add` per call, with
//! the deadline and the cancellation flag polled every
//! [`DEADLINE_STRIDE`] fuel units.
//!
//! Budgets are *cooperative*: every evaluator loop (assignment
//! enumeration, ball exploration, cover recursion, rewriting) calls
//! `check` and propagates the resulting [`Interrupt`] as an error. Once
//! a guard trips it stays tripped — every later `check` fails too — so
//! parallel workers drain quickly and deterministically instead of
//! racing a half-cancelled computation.
//!
//! The crate is dependency-free so the bottom of the crate graph
//! (`foc-eval`) can use it.

#![warn(missing_docs)]

pub mod anytime;

pub use anytime::{Confidence, PassPlan, SkipReason, TimeManager};

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in fuel units) an armed guard polls the wall clock and the
/// cancellation flag. Fuel overruns are detected on every check.
pub const DEADLINE_STRIDE: u64 = 256;

/// A shared cancellation flag: clone it, hand one copy to the evaluating
/// thread (inside a [`Budget`]) and keep the other to call
/// [`CancelToken::cancel`] from anywhere.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation: every guard armed with this token trips at
    /// its next poll.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A shared byte account for memory-watermark enforcement. Producers of
/// resident memory (loaded structures, memo caches, result buffers)
/// `add`/`sub` their footprint as it changes; a [`Budget`] armed with a
/// meter and a limit trips with [`TripReason::Memory`] once the account
/// crosses the limit. Clones share the account.
///
/// The meter is *cooperative* like everything else in this crate: it
/// measures what the instrumented components report, not RSS. Its value
/// is that a long-running process can see pressure building and shed or
/// shrink *before* the allocator fails.
#[derive(Debug, Clone, Default)]
pub struct MemoryMeter {
    used: Arc<AtomicU64>,
}

impl MemoryMeter {
    /// A fresh meter accounting zero bytes.
    pub fn new() -> MemoryMeter {
        MemoryMeter::default()
    }

    /// Adds `bytes` to the account.
    pub fn add(&self, bytes: u64) {
        self.used.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Subtracts `bytes` from the account (saturating at zero: a
    /// mis-paired release must not wrap into an instant trip).
    pub fn sub(&self, bytes: u64) {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Bytes currently accounted.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }
}

/// The identity of one request as it flows through admission,
/// evaluation, and response frames: a process-unique `trace_id` minted
/// by the server at admission, and the caller-supplied `request_id`
/// echoed back on every frame.
///
/// The context rides inside a [`Budget`] and its armed [`Guard`] so
/// every layer that already receives the guard — evaluator sessions,
/// parallel workers, interrupt reports — can attribute its work to one
/// request without new plumbing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Process-unique trace id (hex), minted at admission.
    pub trace_id: String,
    /// The request id the client supplied (or the `"-"` default).
    pub request_id: String,
}

impl TraceContext {
    /// A context from its two ids.
    pub fn new(trace_id: impl Into<String>, request_id: impl Into<String>) -> TraceContext {
        TraceContext {
            trace_id: trace_id.into(),
            request_id: request_id.into(),
        }
    }
}

/// The pipeline phase a guard check (and hence an interruption) is
/// attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Predicate-to-marker materialisation (Theorem 6.10 preprocessing).
    Materialize,
    /// Normal-form rewriting (Gaifman NF / cl-normalform).
    Rewrite,
    /// Decomposition of counting bodies into cl-terms (Lemma 6.4).
    Decompose,
    /// Ball enumeration (Remark 6.3) and memo-cache fill.
    BallEnum,
    /// Neighbourhood-cover construction and splitter-removal recursion
    /// (Section 8.2).
    Cover,
    /// Reference-semantics assignment enumeration (Definition 3.1).
    NaiveEval,
    /// Engine-level orchestration (sentence resolution, query loops).
    Engine,
}

impl Phase {
    /// Stable lowercase name (used in error messages and metrics).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Materialize => "materialize",
            Phase::Rewrite => "rewrite",
            Phase::Decompose => "decompose",
            Phase::BallEnum => "ball_enum",
            Phase::Cover => "cover",
            Phase::NaiveEval => "naive_eval",
            Phase::Engine => "engine",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a guard tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TripReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The fuel allowance was spent.
    Fuel,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The [`MemoryMeter`] crossed its byte limit.
    Memory,
}

impl fmt::Display for TripReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TripReason::Deadline => "deadline",
            TripReason::Fuel => "fuel",
            TripReason::Cancelled => "cancellation",
            TripReason::Memory => "memory limit",
        })
    }
}

/// A tripped budget: the reason, the phase the check was in, and the
/// fuel spent so far (checks performed across all threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupt {
    /// What tripped.
    pub reason: TripReason,
    /// The phase whose check observed the trip.
    pub phase: Phase,
    /// Fuel spent when the trip was observed.
    pub fuel_spent: u64,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interrupted by {} during {} after {} fuel units",
            self.reason, self.phase, self.fuel_spent
        )
    }
}

impl std::error::Error for Interrupt {}

/// A declarative resource budget. `Default` is unlimited; arm it into a
/// [`Guard`] when evaluation starts (that is when the deadline clock
/// begins ticking).
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock allowance, measured from [`Budget::arm`].
    pub deadline: Option<Duration>,
    /// Fuel allowance: roughly "loop iterations across the pipeline"
    /// (one unit per guard check).
    pub fuel: Option<u64>,
    /// Cooperative cancellation flag.
    pub cancel: CancelToken,
    /// Memory watermark: trip once the shared meter crosses the byte
    /// limit. Polled on the same stride as the deadline.
    pub memory: Option<(MemoryMeter, u64)>,
    /// Request identity carried into the armed guard (and from there
    /// into session span trees and interrupt attribution). Not a
    /// resource: it never trips anything.
    pub trace: Option<TraceContext>,
}

impl Budget {
    /// The unlimited budget.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Sets the wall-clock allowance.
    pub fn with_deadline(mut self, d: Duration) -> Budget {
        self.deadline = Some(d);
        self
    }

    /// Sets the fuel allowance.
    pub fn with_fuel(mut self, fuel: u64) -> Budget {
        self.fuel = Some(fuel);
        self
    }

    /// Replaces the cancellation token (so the caller keeps a handle).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Budget {
        self.cancel = cancel;
        self
    }

    /// Arms a memory watermark: checks trip with
    /// [`TripReason::Memory`] once `meter` accounts more than `limit`
    /// bytes.
    pub fn with_memory(mut self, meter: MemoryMeter, limit: u64) -> Budget {
        self.memory = Some((meter, limit));
        self
    }

    /// Attaches a request identity; the armed guard exposes it via
    /// [`Guard::trace`].
    pub fn with_trace(mut self, trace: TraceContext) -> Budget {
        self.trace = Some(trace);
        self
    }

    /// Whether this budget can never trip.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.fuel.is_none()
            && self.memory.is_none()
            && Arc::strong_count(&self.cancel.flag) == 1
            && !self.cancel.is_cancelled()
    }

    /// Arms the budget: starts the deadline clock and returns the
    /// shareable runtime guard. A budget that can never trip but
    /// carries a [`TraceContext`] still arms a (cheap) inner guard so
    /// the context survives into [`Guard::trace`].
    pub fn arm(&self) -> Guard {
        if self.is_unlimited() && self.trace.is_none() {
            return Guard::unlimited();
        }
        Guard {
            inner: Some(Arc::new(GuardInner {
                deadline: self.deadline.map(|d| Instant::now() + d),
                fuel: self.fuel.unwrap_or(u64::MAX),
                spent: AtomicU64::new(0),
                cancel: self.cancel.clone(),
                memory: self.memory.clone(),
                trace: self.trace.clone(),
                tripped: AtomicBool::new(false),
            })),
        }
    }
}

#[derive(Debug)]
struct GuardInner {
    deadline: Option<Instant>,
    fuel: u64,
    spent: AtomicU64,
    cancel: CancelToken,
    memory: Option<(MemoryMeter, u64)>,
    trace: Option<TraceContext>,
    /// Sticky: set on first trip so every thread sharing the guard stops
    /// at its next check, regardless of stride alignment.
    tripped: AtomicBool,
}

impl GuardInner {
    fn over_memory(&self) -> bool {
        self.memory
            .as_ref()
            .is_some_and(|(meter, limit)| meter.used() > *limit)
    }
}

/// The armed, shareable runtime form of a [`Budget`]. Cloning is cheap
/// (an `Arc` bump, or nothing for the unlimited guard); clones share the
/// fuel account and the trip state.
#[derive(Debug, Clone, Default)]
pub struct Guard {
    inner: Option<Arc<GuardInner>>,
}

impl Guard {
    /// A guard that never trips and whose [`Guard::check`] is a single
    /// branch.
    pub fn unlimited() -> Guard {
        Guard { inner: None }
    }

    /// Whether this guard can ever trip.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// Fuel spent so far (checks performed across all clones).
    pub fn fuel_spent(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.spent.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The request identity this guard was armed with, if any.
    pub fn trace(&self) -> Option<&TraceContext> {
        self.inner.as_ref().and_then(|i| i.trace.as_ref())
    }

    /// Spends one fuel unit and verifies the budget. Fuel overruns trip
    /// immediately; the deadline and the cancellation flag are polled
    /// every [`DEADLINE_STRIDE`] units (and on the first check). Once
    /// tripped, every subsequent check on any clone fails.
    #[inline]
    pub fn check(&self, phase: Phase) -> Result<(), Interrupt> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let spent = inner.spent.fetch_add(1, Ordering::Relaxed) + 1;
        if inner.tripped.load(Ordering::Relaxed) {
            // Another check already tripped; re-derive the cheapest
            // matching reason so drain errors stay meaningful.
            return Err(self.trip(inner, phase, spent));
        }
        if spent > inner.fuel {
            inner.tripped.store(true, Ordering::Relaxed);
            return Err(Interrupt {
                reason: TripReason::Fuel,
                phase,
                fuel_spent: spent,
            });
        }
        if spent == 1 || spent % DEADLINE_STRIDE == 0 {
            if inner.cancel.is_cancelled() {
                inner.tripped.store(true, Ordering::Relaxed);
                return Err(Interrupt {
                    reason: TripReason::Cancelled,
                    phase,
                    fuel_spent: spent,
                });
            }
            if let Some(d) = inner.deadline {
                if Instant::now() >= d {
                    inner.tripped.store(true, Ordering::Relaxed);
                    return Err(Interrupt {
                        reason: TripReason::Deadline,
                        phase,
                        fuel_spent: spent,
                    });
                }
            }
            if inner.over_memory() {
                inner.tripped.store(true, Ordering::Relaxed);
                return Err(Interrupt {
                    reason: TripReason::Memory,
                    phase,
                    fuel_spent: spent,
                });
            }
        }
        Ok(())
    }

    /// The reason reported when the guard is already tripped.
    fn trip(&self, inner: &GuardInner, phase: Phase, spent: u64) -> Interrupt {
        let reason = if spent > inner.fuel {
            TripReason::Fuel
        } else if inner.cancel.is_cancelled() {
            TripReason::Cancelled
        } else if inner.over_memory() {
            TripReason::Memory
        } else {
            TripReason::Deadline
        };
        Interrupt {
            reason,
            phase,
            fuel_spent: spent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = Budget::unlimited().arm();
        assert!(g.is_unlimited());
        for _ in 0..10_000 {
            g.check(Phase::NaiveEval).unwrap();
        }
        assert_eq!(g.fuel_spent(), 0);
    }

    #[test]
    fn fuel_exhaustion_trips_exactly_and_stays_tripped() {
        let g = Budget::unlimited().with_fuel(10).arm();
        for _ in 0..10 {
            g.check(Phase::BallEnum).unwrap();
        }
        let e = g.check(Phase::BallEnum).unwrap_err();
        assert_eq!(e.reason, TripReason::Fuel);
        assert_eq!(e.phase, Phase::BallEnum);
        assert_eq!(e.fuel_spent, 11);
        // Sticky: later checks (any clone, any phase) fail too.
        let clone = g.clone();
        let e2 = clone.check(Phase::Cover).unwrap_err();
        assert_eq!(e2.reason, TripReason::Fuel);
        assert_eq!(e2.phase, Phase::Cover);
    }

    #[test]
    fn deadline_trips_within_stride() {
        let g = Budget::unlimited()
            .with_deadline(Duration::from_millis(0))
            .arm();
        // The first check polls the clock (spent == 1).
        let e = g.check(Phase::Rewrite).unwrap_err();
        assert_eq!(e.reason, TripReason::Deadline);
    }

    #[test]
    fn deadline_not_yet_reached_passes() {
        let g = Budget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .arm();
        for _ in 0..(DEADLINE_STRIDE * 3) {
            g.check(Phase::NaiveEval).unwrap();
        }
        assert_eq!(g.fuel_spent(), DEADLINE_STRIDE * 3);
    }

    #[test]
    fn cancellation_is_observed() {
        let tok = CancelToken::new();
        let g = Budget::unlimited().with_cancel(tok.clone()).arm();
        // Holding a token clone makes the budget non-trivial even
        // without deadline/fuel.
        assert!(!g.is_unlimited());
        g.check(Phase::Engine).unwrap();
        tok.cancel();
        // Cancellation is polled on stride boundaries; drive past one.
        let mut tripped = None;
        for _ in 0..(DEADLINE_STRIDE + 2) {
            if let Err(e) = g.check(Phase::Engine) {
                tripped = Some(e);
                break;
            }
        }
        let e = tripped.expect("cancellation must be observed within a stride");
        assert_eq!(e.reason, TripReason::Cancelled);
    }

    #[test]
    fn clones_share_the_fuel_account() {
        let g = Budget::unlimited().with_fuel(100).arm();
        let h = g.clone();
        for _ in 0..50 {
            g.check(Phase::NaiveEval).unwrap();
            h.check(Phase::NaiveEval).unwrap();
        }
        assert!(g.check(Phase::NaiveEval).is_err());
        assert_eq!(g.fuel_spent(), h.fuel_spent());
    }

    #[test]
    fn memory_watermark_trips_within_stride() {
        let meter = MemoryMeter::new();
        let g = Budget::unlimited().with_memory(meter.clone(), 1000).arm();
        assert!(!g.is_unlimited());
        g.check(Phase::Engine).unwrap();
        meter.add(1001);
        let mut tripped = None;
        for _ in 0..(DEADLINE_STRIDE + 2) {
            if let Err(e) = g.check(Phase::Engine) {
                tripped = Some(e);
                break;
            }
        }
        let e = tripped.expect("memory pressure must be observed within a stride");
        assert_eq!(e.reason, TripReason::Memory);
        // Sticky, and clones share the account.
        assert_eq!(
            g.clone().check(Phase::Cover).unwrap_err().reason,
            TripReason::Memory
        );
        // Releasing below the limit does not un-trip an armed guard, but
        // a freshly armed one passes again.
        meter.sub(600);
        assert!(g.check(Phase::Engine).is_err());
        let g2 = Budget::unlimited().with_memory(meter.clone(), 1000).arm();
        g2.check(Phase::Engine).unwrap();
        assert_eq!(meter.used(), 401);
        meter.sub(10_000);
        assert_eq!(meter.used(), 0, "release saturates at zero");
    }

    #[test]
    fn trace_context_survives_arming_and_never_trips() {
        let b = Budget::unlimited().with_trace(TraceContext::new("t-1f2e", "q7"));
        assert!(b.is_unlimited(), "trace is identity, not a resource");
        let g = b.arm();
        assert!(!g.is_unlimited(), "context needs an inner guard to ride in");
        for _ in 0..(DEADLINE_STRIDE * 2) {
            g.check(Phase::Engine).unwrap();
        }
        let t = g.trace().expect("context survives arming");
        assert_eq!(t.trace_id, "t-1f2e");
        assert_eq!(t.request_id, "q7");
        // Clones share it; guards without one report none.
        assert_eq!(g.clone().trace(), Some(t));
        assert_eq!(Guard::unlimited().trace(), None);
        // Resources still trip normally alongside a context.
        let g2 = Budget::unlimited()
            .with_trace(TraceContext::new("t", "q"))
            .with_fuel(1)
            .arm();
        g2.check(Phase::Engine).unwrap();
        assert_eq!(
            g2.check(Phase::Engine).unwrap_err().reason,
            TripReason::Fuel
        );
        assert!(g2.trace().is_some());
    }

    #[test]
    fn interrupt_displays_reason_phase_and_fuel() {
        let i = Interrupt {
            reason: TripReason::Deadline,
            phase: Phase::Cover,
            fuel_spent: 512,
        };
        assert_eq!(
            i.to_string(),
            "interrupted by deadline during cover after 512 fuel units"
        );
    }
}
