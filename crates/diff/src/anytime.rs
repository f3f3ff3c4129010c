//! Confidence-aware differential checking for anytime runs.
//!
//! The anytime driver is allowed to return *less* than the exact answer
//! — but only in the ways its confidence tag promises. This module pins
//! those promises against the unbounded naive oracle:
//!
//! * `exact` answers must equal the oracle bit-for-bit;
//! * a sentence's verdict must be `exact` — a Boolean is never
//!   guessed;
//! * `approx` answers must land within their own claimed
//!   `error_bound` of the oracle — the `(ε, δ)` estimator's whole
//!   value proposition is that the bound it ships is real;
//! * `lower_bound` answers must never exceed the oracle.
//!
//! A run that ends in `Interrupted` banked nothing, which is always
//! acceptable; any other error where the oracle produced a value is a
//! divergence, exactly as in the plain matrix.

use foc_core::{Confidence, EngineKind, Evaluator};

use crate::oracle::{classify, Case, Divergence, Outcome, QueryCase};

/// Fuel budgets the anytime battery runs each engine under: one tight
/// enough to leave most cases degraded and one generous enough to reach
/// the exact rung on small cases. Fuel-only budgets keep the battery
/// fully deterministic — no wall clock is consulted.
pub const ANYTIME_FUEL_BUDGETS: [u64; 2] = [1_500, 200_000];

/// The confidence-contract violation in `got` relative to `oracle`, if
/// any. `None` means the tagged answer keeps every promise its tag
/// makes.
pub fn contract_violation(
    oracle: &Outcome,
    got: &Outcome,
    confidence: &Confidence,
) -> Option<String> {
    match confidence {
        Confidence::Exact => (got != oracle).then(|| format!("exact answer {got} != oracle")),
        _ if matches!(got, Outcome::Bool(_)) => {
            Some(format!("verdict {got} tagged {confidence}, not exact"))
        }
        Confidence::Approximate { error_bound } => match (oracle, got) {
            (Outcome::Int(o), Outcome::Int(g)) => (g.abs_diff(*o) > *error_bound)
                .then(|| format!("approx estimate {g} strays past ±{error_bound} of oracle {o}")),
            _ => Some(format!(
                "approx estimate {got} incomparable with oracle {oracle}"
            )),
        },
        Confidence::LowerBound => match (oracle, got) {
            (Outcome::Int(o), Outcome::Int(g)) => {
                (g > o).then(|| format!("lower bound {g} exceeds oracle {o}"))
            }
            _ => Some(format!(
                "lower bound {got} incomparable with oracle {oracle}"
            )),
        },
    }
}

/// Runs the anytime battery on one case: every engine kind under every
/// [`ANYTIME_FUEL_BUDGETS`] entry, each tagged answer checked against
/// the unbounded naive oracle's value via [`contract_violation`].
/// Returns the oracle outcome and every violation found. An erring
/// oracle (overflow, out-of-fragment) cannot adjudicate bounds, so the
/// battery is skipped for that case.
pub fn run_anytime_battery(case: &Case) -> (Outcome, Vec<Divergence>) {
    let oracle = anytime_outcome(
        &Evaluator::builder()
            .kind(EngineKind::Naive)
            .build()
            .expect("the unbounded naive oracle is a valid configuration"),
        case,
    )
    .0;
    let mut divergences = Vec::new();
    if matches!(oracle, Outcome::Err(_)) {
        return (oracle, divergences);
    }
    for kind in [EngineKind::Naive, EngineKind::Local, EngineKind::Cover] {
        for fuel in ANYTIME_FUEL_BUDGETS {
            let ev = Evaluator::builder()
                .kind(kind)
                .fuel(fuel)
                .build()
                .expect("anytime battery variants are valid configurations");
            let (got, confidence) = anytime_outcome(&ev, case);
            let name = format!("anytime:{kind:?}-fuel{fuel}").to_lowercase();
            let violation = match (&got, &confidence) {
                // Zero progress is the driver's honest refusal, never a
                // divergence.
                (Outcome::Err(class), _) if class == "interrupted" => None,
                (Outcome::Err(_), _) => Some(got.clone()),
                (_, Some(c)) => contract_violation(&oracle, &got, c).map(|why| {
                    // Fold the tag into the reported outcome so the log
                    // line explains *which* promise broke.
                    Outcome::Err(format!("confidence:{c}:{why}"))
                }),
                // A value without a tag cannot happen: the driver always
                // tags what it banks.
                (_, None) => Some(Outcome::Err("missing confidence tag".into())),
            };
            if let Some(reported) = violation {
                divergences.push(Divergence {
                    variant: name,
                    expected: oracle.clone(),
                    got: reported,
                });
            }
        }
    }
    (oracle, divergences)
}

/// One anytime evaluation, folded into the comparable outcome taxonomy
/// plus the confidence tag the driver attached (absent on errors).
fn anytime_outcome(ev: &Evaluator, case: &Case) -> (Outcome, Option<Confidence>) {
    match &case.query {
        QueryCase::Sentence(f) => match ev.check_sentence_anytime(&case.structure, f, None, None) {
            Ok(out) => (Outcome::Bool(out.value), Some(out.confidence)),
            Err(e) => (Outcome::Err(classify(&e)), None),
        },
        QueryCase::Ground(t) => match ev.eval_ground_anytime(&case.structure, t, None, None) {
            Ok(out) => (Outcome::Int(out.value), Some(out.confidence)),
            Err(e) => (Outcome::Err(classify(&e)), None),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_logic::parse::{parse_formula, parse_term};
    use foc_structures::gen::{grid, path, star};

    #[test]
    fn contract_accepts_sound_tags() {
        let o = Outcome::Int(10);
        assert!(contract_violation(&o, &Outcome::Int(10), &Confidence::Exact).is_none());
        assert!(contract_violation(&o, &Outcome::Int(7), &Confidence::LowerBound).is_none());
        assert!(contract_violation(
            &Outcome::Bool(true),
            &Outcome::Bool(true),
            &Confidence::Exact
        )
        .is_none());
        // Approx answers may miss by up to their claimed bound, in
        // either direction.
        for est in [7, 10, 13] {
            assert!(contract_violation(
                &o,
                &Outcome::Int(est),
                &Confidence::Approximate { error_bound: 3 }
            )
            .is_none());
        }
    }

    #[test]
    fn contract_rejects_broken_promises() {
        let o = Outcome::Int(10);
        assert!(contract_violation(&o, &Outcome::Int(9), &Confidence::Exact).is_some());
        assert!(contract_violation(&o, &Outcome::Int(11), &Confidence::LowerBound).is_some());
        // A verdict is exact or not given: even a correct Boolean with
        // a sub-exact tag breaks the contract.
        for c in [
            Confidence::LowerBound,
            Confidence::Approximate { error_bound: 3 },
        ] {
            assert!(contract_violation(&Outcome::Bool(true), &Outcome::Bool(true), &c).is_some());
        }
        // An approx estimate outside its own claimed bound is the
        // shrinkable divergence class the tolerance-aware oracle hunts.
        assert!(contract_violation(
            &o,
            &Outcome::Int(14),
            &Confidence::Approximate { error_bound: 3 }
        )
        .is_some());
        assert!(contract_violation(
            &o,
            &Outcome::Bool(true),
            &Confidence::Approximate { error_bound: 3 }
        )
        .is_some());
    }

    #[test]
    fn battery_is_clean_on_healthy_engines() {
        let cases = [
            Case {
                query: QueryCase::Ground(parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap()),
                structure: grid(8, 8),
            },
            Case {
                query: QueryCase::Sentence(parse_formula("exists y. #(z). E(y,z) >= 1").unwrap()),
                structure: star(6),
            },
            Case {
                query: QueryCase::Ground(parse_term("#(x,y). E(x,y)").unwrap()),
                structure: path(30),
            },
        ];
        for case in cases {
            let (oracle, div) = run_anytime_battery(&case);
            assert!(!matches!(oracle, Outcome::Err(_)), "oracle errs: {oracle}");
            assert!(div.is_empty(), "contract violations: {div:?}");
        }
    }

    #[test]
    fn battery_runs_are_deterministic() {
        let case = Case {
            query: QueryCase::Ground(parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap()),
            structure: grid(6, 6),
        };
        let a = format!("{:?}", run_anytime_battery(&case));
        let b = format!("{:?}", run_anytime_battery(&case));
        assert_eq!(a, b);
    }
}
