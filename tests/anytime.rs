//! Anytime evaluation end to end: a budget that previously meant
//! `Interrupted` now yields a tagged best-so-far answer, interrupts
//! stay deterministic across thread counts, and identical seeded
//! anytime runs agree on their confidence tag.

use std::sync::Arc;
use std::time::Duration;

use foc_core::{Confidence, EngineKind, Error, Evaluator, Phase, TripReason};
use foc_logic::build::{cnt, dist_le, not, v};
use foc_logic::parse::parse_term;
use foc_logic::Term;
use foc_obs::{MemorySink, Sink};
use foc_structures::gen::grid;
use foc_structures::Structure;

/// The locality-heavy counting query the anytime suite leans on: big
/// enough per-element work that budgets trip mid-flight, local enough
/// that every engine supports it.
fn far_pairs() -> Arc<Term> {
    let x = v("ax");
    let y = v("ay");
    cnt([x, y], not(dist_le(x, y, 2)))
}

fn engine(kind: EngineKind, threads: usize, fuel: u64) -> Evaluator {
    Evaluator::builder()
        .kind(kind)
        .threads(threads)
        .fuel(fuel)
        .build()
        .unwrap()
}

/// The acceptance criterion of the anytime layer: arm a wall-clock
/// deadline small enough to trip inside the cover recursion. The plain
/// engine can only report `Interrupted`; the same deadline under the
/// deepening driver returns a best-so-far answer with a sound tag.
#[test]
fn deadline_tripping_mid_cover_recursion_yields_a_tagged_answer() {
    // Big enough that the plain cover run (seconds of work) always
    // trips at 50ms, small enough that the sample pass banks inside
    // its slice even in a debug build on a loaded machine.
    let a = grid(32, 32);
    let q = far_pairs();
    let deadline = Duration::from_millis(50);

    // Plain run: the deadline cuts the cover machinery short and the
    // caller gets nothing but the interrupt.
    let plain = Evaluator::builder()
        .kind(EngineKind::Cover)
        .timeout(deadline)
        .build()
        .unwrap();
    match plain.eval_ground(&a, &q) {
        Err(Error::Interrupted(i)) => {
            assert_eq!(i.reason, TripReason::Deadline);
            assert!(
                !matches!(i.phase, Phase::NaiveEval),
                "the cover engine tripped in {:?} — expected its own machinery",
                i.phase
            );
        }
        other => panic!("expected the deadline to trip the plain run, got {other:?}"),
    }

    // Anytime run under the *same* deadline: the sample pass banks a
    // verified lower bound long before the budget dies, so the driver
    // returns it tagged instead of erroring.
    let anytime = Evaluator::builder()
        .kind(EngineKind::Cover)
        .timeout(deadline)
        .build()
        .unwrap();
    let out = anytime
        .eval_ground_anytime(&a, &q, None, None)
        .expect("a 50ms deadline leaves the sample pass room to bank an answer");
    // What exactly got banked depends on machine speed (this is a
    // wall-clock test), so assert each tag's *contract* against an
    // unbounded reference run rather than pinning the rung reached: a
    // sub-exact tag must carry the trip that stopped deepening and a
    // lower bound must actually bound, while an exact tag (a fast
    // machine finished the local pass inside the deadline) must be
    // the true value.
    let exact = Evaluator::builder()
        .kind(EngineKind::Local)
        .build()
        .unwrap()
        .eval_ground(&a, &q)
        .unwrap();
    match out.confidence {
        Confidence::LowerBound => {
            assert!(
                out.value <= exact,
                "lower bound {} exceeds exact {exact}",
                out.value
            );
            assert!(
                out.interrupt.is_some(),
                "a degraded answer must carry the trip that stopped deepening"
            );
        }
        Confidence::Approximate { error_bound } => {
            assert!(
                out.value.abs_diff(exact) <= error_bound,
                "approx estimate {} strays past ±{error_bound} of exact {exact}",
                out.value
            );
            assert!(
                out.interrupt.is_some(),
                "a degraded answer must carry the trip that stopped deepening"
            );
        }
        Confidence::Exact => assert_eq!(out.value, exact, "an exact tag must be the true value"),
    }
}

/// Satellite: a fuel-tripped run reports the same `Interrupt` — reason
/// and phase — no matter how many worker threads evaluated it. Fuel is
/// a deterministic allowance, so the trip site cannot depend on
/// scheduling.
#[test]
fn fuel_trips_agree_across_thread_counts() {
    let a = grid(10, 10);
    let q = far_pairs();
    for kind in [EngineKind::Naive, EngineKind::Local, EngineKind::Cover] {
        let trips: Vec<(TripReason, Phase)> = [1usize, 4]
            .iter()
            .map(
                |&threads| match engine(kind, threads, 400).eval_ground(&a, &q) {
                    Err(Error::Interrupted(i)) => (i.reason, i.phase),
                    other => panic!("{kind:?} t{threads}: expected a fuel trip, got {other:?}"),
                },
            )
            .collect();
        assert_eq!(
            trips[0], trips[1],
            "{kind:?}: interrupt differs between 1 and 4 threads"
        );
    }
}

/// Satellite: with anytime on, two identical runs of the same seeded
/// case report the same confidence tag and the same value — and thread
/// count does not change the tag either.
#[test]
fn anytime_confidence_is_deterministic_across_runs_and_threads() {
    let a: Structure = grid(12, 12);
    let q = far_pairs();
    let run = |threads: usize| {
        engine(EngineKind::Cover, threads, 2_000)
            .eval_ground_anytime(&a, &q, None, None)
            .expect("a 2000-fuel budget banks the sample pass")
    };
    let first = run(1);
    let second = run(1);
    assert_eq!(first.confidence, second.confidence, "tag must be stable");
    assert_eq!(first.value, second.value, "value must be stable");
    assert_eq!(
        first.fuel_spent(),
        second.fuel_spent(),
        "fuel accounting must be stable"
    );

    let wide = run(4);
    assert_eq!(
        first.confidence, wide.confidence,
        "thread count changed the confidence tag"
    );
    assert_eq!(first.value, wide.value, "thread count changed the value");
}

/// A real (non-budget) error surfaces from the pass that hit it: the
/// anytime run returns the same error as plain evaluation, and no full
/// pass runs a second time to recover it.
#[test]
fn anytime_errors_come_from_the_passes_that_ran() {
    let a = grid(6, 6);
    let q = parse_term("#(x). @nosuch(#(y). E(x,y))").unwrap();
    let plain = Evaluator::builder()
        .kind(EngineKind::Cover)
        .build()
        .unwrap()
        .eval_ground(&a, &q)
        .unwrap_err();
    // The cover ladder's full passes are `local` and `exact`; the
    // sample and approx rungs run outside any session.
    let sink = MemorySink::shared();
    let ev = Evaluator::builder()
        .kind(EngineKind::Cover)
        .fuel(1_000_000)
        .sink(sink.clone() as Arc<dyn Sink>)
        .build()
        .unwrap();
    let err = ev.eval_ground_anytime(&a, &q, None, None).unwrap_err();
    assert_eq!(err, plain);
    let sessions = sink.spans().iter().filter(|s| s.name == "session").count();
    assert_eq!(sessions, 2, "one session per full pass, none re-run");
}
