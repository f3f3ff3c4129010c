//! The fan-out's threads come from one persistent pool: a thousand
//! fan-outs at threads 4 add at most three threads to the process, at
//! every moment, and those helpers stay alive afterwards. This is its own
//! test binary so no other test's threads move the count.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicUsize, Ordering};

use foc_parallel::par_map_ok;

fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn a_thousand_fan_outs_stay_within_three_helper_threads() {
    let before = threads_now();
    let items: Vec<u64> = (0..64).collect();
    let peak = AtomicUsize::new(before);
    for round in 0..1000u64 {
        let got = par_map_ok(&items, 4, |i, &x| {
            if i % 16 == 0 {
                peak.fetch_max(threads_now(), Ordering::Relaxed);
            }
            x * 3 + round
        });
        assert!(got.iter().zip(&items).all(|(&g, &x)| g == x * 3 + round));
    }
    let (peak, after) = (peak.into_inner(), threads_now());
    assert!(
        peak <= before + 3,
        "{peak} threads during fan-outs, {before} before"
    );
    assert!(
        after > before && after <= before + 3,
        "{after} threads after, {before} before: helpers live on, at most three"
    );
}
