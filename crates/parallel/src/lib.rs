//! # foc-parallel — deterministic parallel map over independent work items
//!
//! Theorem 5.5's evaluation localises to *independent* pieces — clusters
//! of a neighbourhood cover, elements of a support set — so the pipeline
//! parallelises embarrassingly. This crate provides the one primitive
//! the engines need: [`par_map`], an order-preserving, dynamically
//! load-balanced map over a slice.
//!
//! Scheduling is work-stealing in the only sense that matters for a
//! shared-memory fan-out: idle workers claim the next unclaimed batch
//! from a shared atomic cursor, so a thread stuck on a huge cluster
//! never blocks the others, and no static partition can go pathological.
//! Results are written back under their input index, which makes the
//! output **bit-identical to the sequential map regardless of thread
//! count or interleaving** — the property the engine's agreement suite
//! pins down. Errors are deterministic too: when several items fail, the
//! one with the smallest index wins, exactly as in a sequential
//! left-to-right loop.
//!
//! The workers are the calling thread plus helpers from one process-wide
//! pool of persistent threads. The pool starts empty, grows only when a
//! fan-out asks for more helpers than it has, and never shrinks. A
//! fan-out offers its batch loop to `threads − 1` helpers, runs the same
//! loop itself, then takes back every offer no helper has picked up and
//! waits only for the helpers that started. So nested and concurrent
//! fan-outs never wait on a busy helper, and the process's thread count
//! stays at the callers plus the largest helper count asked for. The
//! crate stays dependency-free (it replaces the `rayon` dependency the
//! design called for).

#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use foc_obs::{names, pow2_buckets, Counter, Gauge, Histogram, Metrics};

mod pool;

/// A panic caught inside a worker closure, reported as data instead of
/// unwinding through (or aborting) the fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic payload, rendered to a string (`&str` / `String`
    /// payloads verbatim, anything else a placeholder).
    pub payload: String,
    /// Index of the input item whose evaluation panicked.
    pub item_index: usize,
}

/// A worker failure: either the closure's own error, or a caught panic.
/// As with errors in [`par_map`], the *lowest-index* fault wins when
/// several items fail, so the surfaced fault is scheduling-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault<E> {
    /// The closure returned an error.
    Error(E),
    /// The closure panicked; the panic was caught and the remaining
    /// workers drained cleanly.
    Panic(WorkerPanic),
}

/// One result slot of the isolated fan-out: unfilled, or the item's
/// outcome.
type FaultSlot<R, E> = Mutex<Option<Result<R, Fault<E>>>>;

/// Renders a panic payload (as captured by `catch_unwind`) to a string.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Metric handles for one fan-out site: items processed, batches
/// claimed from the stealing cursor, the worker fan-out, and the
/// distribution of batches claimed per worker (the "steal" profile — a
/// flat distribution means the load balanced; a skewed one means a few
/// workers dragged the tail).
#[derive(Debug, Clone)]
pub struct ParMeter {
    /// Work items processed.
    pub items: Counter,
    /// Batches claimed from the shared cursor.
    pub batches: Counter,
    /// Largest worker fan-out used (running max).
    pub workers: Gauge,
    /// Batches claimed per worker, one observation per worker per
    /// fan-out.
    pub batches_per_worker: Histogram,
}

impl ParMeter {
    /// Resolves the meter's instruments from a registry (see
    /// [`foc_obs::names`]).
    pub fn from_metrics(m: &Metrics) -> ParMeter {
        ParMeter {
            items: m.counter(names::PARALLEL_ITEMS),
            batches: m.counter(names::PARALLEL_BATCHES),
            workers: m.gauge(names::PARALLEL_WORKERS),
            batches_per_worker: m.histogram(names::PARALLEL_BATCHES_PER_WORKER, &pow2_buckets(12)),
        }
    }
}

/// The hardware parallelism available to this process (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a configured thread count: `0` means "use the hardware",
/// anything else is taken literally (and clamped to ≥ 1).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Applies `f` to every item, in parallel over `threads` workers,
/// returning results in input order.
///
/// With `threads <= 1` (or fewer than two items) this is exactly the
/// sequential left-to-right loop, including its early-exit-on-error
/// behaviour. The parallel path evaluates every claimed item and then
/// reports the *lowest-index* error, so which error surfaces does not
/// depend on scheduling.
pub fn par_map<T, R, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    par_map_metered(items, threads, None, f)
}

/// [`par_map`] with optional scheduling metrics: when a [`ParMeter`] is
/// given, every fan-out records items processed, batches claimed, and
/// the per-worker batch distribution. Metering never changes scheduling
/// or results — the instruments are relaxed atomics off the claim path.
pub fn par_map_metered<T, R, E, F>(
    items: &[T],
    threads: usize,
    meter: Option<&ParMeter>,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    match par_map_isolated(items, threads, meter, f) {
        Ok(v) => Ok(v),
        Err(Fault::Error(e)) => Err(e),
        // Callers of this entry point did not opt into panic containment;
        // re-raise the (already finished) worker panic on the caller thread.
        Err(Fault::Panic(p)) => std::panic::resume_unwind(Box::new(format!(
            "worker panicked on item {}: {}",
            p.item_index, p.payload
        ))),
    }
}

/// [`par_map_metered`] with **panic isolation**: a panic inside `f` is
/// caught on the worker, the remaining items are still evaluated (the
/// other workers drain cleanly and every helper finishes), and the
/// panic surfaces to the caller as [`Fault::Panic`] carrying the payload
/// and the item index. When several items fault, the lowest-index fault
/// wins regardless of thread count.
///
/// With `threads <= 1` (or fewer than two items) this is the sequential
/// left-to-right loop, including early exit at the first fault.
pub fn par_map_isolated<T, R, E, F>(
    items: &[T],
    threads: usize,
    meter: Option<&ParMeter>,
    f: F,
) -> Result<Vec<R>, Fault<E>>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let n = items.len();
    let threads = resolve_threads(threads).min(n.max(1));
    let run = |i: usize, item: &T| -> Result<R, Fault<E>> {
        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(Fault::Error(e)),
            Err(payload) => Err(Fault::Panic(WorkerPanic {
                payload: panic_message(payload.as_ref()),
                item_index: i,
            })),
        }
    };
    if threads <= 1 || n <= 1 {
        if let Some(m) = meter {
            m.items.add(n as u64);
            m.batches.add(u64::from(n > 0));
            m.workers.set_max(1);
            if n > 0 {
                m.batches_per_worker.observe(1);
            }
        }
        return items.iter().enumerate().map(|(i, t)| run(i, t)).collect();
    }
    if let Some(m) = meter {
        m.items.add(n as u64);
        m.workers.set_max(threads as u64);
    }

    // Batched claiming: big enough to keep the cursor cool, small enough
    // that a skewed batch cannot serialise the tail.
    let batch = (n / (threads * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<FaultSlot<R, E>> = (0..n).map(|_| Mutex::new(None)).collect();

    // One worker's share: claim batches until the cursor runs out. The
    // caller runs it, and so does every pool helper that picks up one of
    // the fan-out's tickets.
    let worker = || {
        let mut claimed: u64 = 0;
        loop {
            let start = cursor.fetch_add(batch, Ordering::Relaxed);
            if start >= n {
                break;
            }
            claimed += 1;
            let end = (start + batch).min(n);
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                // `run` never unwinds, so the slot lock cannot be
                // poisoned by a faulting item.
                *slots[i].lock().expect("result slot poisoned") = Some(run(i, item));
            }
        }
        if let Some(m) = meter {
            m.batches.add(claimed);
            m.batches_per_worker.observe(claimed);
        }
    };
    let taken_back = pool::run(threads - 1, &worker);
    if let Some(m) = meter {
        // A helper whose ticket was taken back claimed nothing.
        for _ in 0..taken_back {
            m.batches_per_worker.observe(0);
        }
    }

    let mut out = Vec::with_capacity(n);
    let mut first_err: Option<Fault<E>> = None;
    for slot in slots {
        let res = slot
            .into_inner()
            .expect("result slot poisoned")
            .expect("item evaluated");
        match res {
            Ok(v) => out.push(v),
            Err(e) => {
                first_err = Some(e);
                break;
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Runs one fallible closure with [`par_map_isolated`]-style panic
/// containment: a panic is caught and surfaced as [`Fault::Panic`]
/// (with `item_index == 0`) instead of unwinding into the caller.
///
/// This is the request-level isolation primitive: a server evaluates
/// each request under `run_isolated` so a poisoned query is answered
/// with an error while the serving thread survives.
pub fn run_isolated<R, E, F>(f: F) -> Result<R, Fault<E>>
where
    F: FnOnce() -> Result<R, E>,
{
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(Fault::Error(e)),
        Err(payload) => Err(Fault::Panic(WorkerPanic {
            payload: panic_message(payload.as_ref()),
            item_index: 0,
        })),
    }
}

/// [`run_isolated`] with a panic-path hook: when the closure panics,
/// `on_panic` runs on the catching thread with the captured
/// [`WorkerPanic`] *before* the fault is returned to the caller. This
/// is where a serving process dumps its flight recorder — the evidence
/// (recent spans, the panic payload) is captured at the moment of
/// containment, not later when the error frame is assembled.
///
/// The hook only fires for panics; closure errors pass through
/// untouched. A panic *inside the hook itself* is not contained.
pub fn run_isolated_observed<R, E, F, H>(f: F, on_panic: H) -> Result<R, Fault<E>>
where
    F: FnOnce() -> Result<R, E>,
    H: FnOnce(&WorkerPanic),
{
    let r = run_isolated(f);
    if let Err(Fault::Panic(p)) = &r {
        on_panic(p);
    }
    r
}

/// Infallible convenience wrapper around [`par_map`].
pub fn par_map_ok<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match par_map(items, threads, |i, t| {
        Ok::<R, std::convert::Infallible>(f(i, t))
    }) {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn matches_sequential_for_all_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map_ok(&items, threads, |_, &x| x * x + 1);
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        par_map_ok(&items, 8, |i, _| counters[i].fetch_add(1, Ordering::SeqCst));
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 4, 16] {
            let got: Result<Vec<u32>, usize> =
                par_map(
                    &items,
                    threads,
                    |i, &x| if x % 7 == 3 { Err(i) } else { Ok(x) },
                );
            assert_eq!(got.unwrap_err(), 3, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_ok(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map_ok(&[5u32], 8, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn meter_accounts_for_every_item_and_batch() {
        let m = foc_obs::Metrics::new();
        let meter = ParMeter::from_metrics(&m);
        let items: Vec<u64> = (0..257).collect();
        let got = par_map_metered(&items, 4, Some(&meter), |_, &x| {
            Ok::<u64, std::convert::Infallible>(x + 1)
        })
        .unwrap();
        assert_eq!(got.len(), 257);
        assert_eq!(meter.items.get(), 257);
        assert!(meter.batches.get() >= 1);
        assert_eq!(meter.workers.get(), 4);
        // One observation per worker, each counting its claimed batches.
        assert_eq!(meter.batches_per_worker.count(), 4);
        assert_eq!(meter.batches_per_worker.sum(), meter.batches.get());

        // The sequential path accounts too.
        let m1 = foc_obs::Metrics::new();
        let meter1 = ParMeter::from_metrics(&m1);
        par_map_metered(&items, 1, Some(&meter1), |_, &x| {
            Ok::<u64, std::convert::Infallible>(x)
        })
        .unwrap();
        assert_eq!(meter1.items.get(), 257);
        assert_eq!(meter1.workers.get(), 1);
    }

    #[test]
    fn panic_is_isolated_at_every_thread_count() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 2, 8] {
            let got: Result<Vec<u32>, Fault<&str>> =
                par_map_isolated(&items, threads, None, |_, &x| {
                    if x == 13 {
                        panic!("boom on {x}");
                    }
                    Ok(x)
                });
            match got {
                Err(Fault::Panic(p)) => {
                    assert_eq!(p.item_index, 13, "threads = {threads}");
                    assert_eq!(p.payload, "boom on 13", "threads = {threads}");
                }
                other => panic!("expected caught panic at threads={threads}, got {other:?}"),
            }
        }
    }

    #[test]
    fn lowest_index_fault_wins_across_panics_and_errors() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 4, 16] {
            let got: Result<Vec<u32>, Fault<usize>> =
                par_map_isolated(&items, threads, None, |i, &x| {
                    if x == 20 {
                        panic!("late panic");
                    }
                    if x == 5 {
                        return Err(i);
                    }
                    Ok(x)
                });
            assert_eq!(got.unwrap_err(), Fault::Error(5), "threads = {threads}");
        }
    }

    #[test]
    fn parallel_workers_drain_after_a_panic() {
        // In the parallel path every claimed item is still evaluated after
        // a panic — workers drain instead of tearing the fan-out down.
        let ran = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let got: Result<Vec<u32>, Fault<&str>> = par_map_isolated(&items, 8, None, |_, &x| {
            ran.fetch_add(1, Ordering::SeqCst);
            if x == 0 {
                panic!("first item");
            }
            Ok(x)
        });
        assert!(matches!(got, Err(Fault::Panic(p)) if p.item_index == 0));
        assert_eq!(ran.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn run_isolated_contains_a_panic_and_passes_results_through() {
        let ok: Result<u32, Fault<&str>> = run_isolated(|| Ok(7));
        assert_eq!(ok.unwrap(), 7);
        let err: Result<u32, Fault<&str>> = run_isolated(|| Err("bad"));
        assert_eq!(err.unwrap_err(), Fault::Error("bad"));
        let boom: Result<u32, Fault<&str>> = run_isolated(|| panic!("poisoned request"));
        match boom {
            Err(Fault::Panic(p)) => assert_eq!(p.payload, "poisoned request"),
            other => panic!("expected caught panic, got {other:?}"),
        }
    }

    #[test]
    fn run_isolated_observed_fires_the_hook_only_on_panic() {
        let fired = AtomicUsize::new(0);
        let ok: Result<u32, Fault<&str>> = run_isolated_observed(
            || Ok(7),
            |_| {
                fired.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(ok.unwrap(), 7);
        let err: Result<u32, Fault<&str>> = run_isolated_observed(
            || Err("bad"),
            |_| {
                fired.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(err.unwrap_err(), Fault::Error("bad"));
        assert_eq!(fired.load(Ordering::SeqCst), 0, "hook must not fire yet");
        let boom: Result<u32, Fault<&str>> = run_isolated_observed(
            || panic!("dump me"),
            |p| {
                assert_eq!(p.payload, "dump me");
                fired.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert!(matches!(boom, Err(Fault::Panic(_))));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "hook fires once per panic");
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        assert_eq!(
            panic_message(&"static" as &(dyn std::any::Any + Send)),
            "static"
        );
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let other: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
    }

    /// A barrier for two with a 10-s timeout: `arrive` returns whether
    /// the other party came too.
    #[derive(Default)]
    struct Meet(Mutex<usize>, std::sync::Condvar);

    impl Meet {
        fn arrive(&self) -> bool {
            let mut here = self.0.lock().expect("meet lock");
            *here += 1;
            self.1.notify_all();
            let timeout = std::time::Duration::from_secs(10);
            let (here, _) = self
                .1
                .wait_timeout_while(here, timeout, |here| *here < 2)
                .expect("meet lock");
            *here == 2
        }
    }

    /// A two-item fan-out whose items each wait until both have started,
    /// which needs a pool helper running one item alongside the caller;
    /// every item reports whether they met. After they meet, `then` runs
    /// on whichever thread holds the item.
    fn meet_in_pairs(threads: usize, then: impl Fn() + Sync) -> Result<Vec<bool>, Fault<()>> {
        let meet = Meet::default();
        par_map_isolated(&[0u8, 1], threads, None, |_, _| {
            let met = meet.arrive();
            then();
            Ok(met)
        })
    }

    #[test]
    fn concurrent_nested_fan_outs_match_sequential() {
        let items: Vec<u64> = (0..40).collect();
        let inner: Vec<u64> = (0..5).collect();
        let want: Vec<u64> = items
            .iter()
            .map(|&x| inner.iter().map(|&y| x * y + 1).sum())
            .collect();
        let callers: Vec<_> = (0..4)
            .map(|_| {
                let (items, inner, want) = (items.clone(), inner.clone(), want.clone());
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let got = par_map_ok(&items, 3, |_, &x| {
                            par_map_ok(&inner, 2, |_, &y| x * y + 1).iter().sum::<u64>()
                        });
                        assert_eq!(got, want);
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().expect("caller thread");
        }
    }

    #[test]
    fn helpers_survive_a_panic_on_a_helper() {
        let caller = std::thread::current().id();
        let on_helper = || {
            if std::thread::current().id() != caller {
                panic!("helper fault");
            }
        };
        match meet_in_pairs(2, on_helper) {
            Err(Fault::Panic(p)) => assert_eq!(p.payload, "helper fault"),
            other => panic!("expected the helper's panic, got {other:?}"),
        }
        // A job that unwinds outside the per-item catch: the helper's own
        // catch keeps it alive and still releases the caller.
        let meet = Meet::default();
        pool::run(1, &|| {
            assert!(meet.arrive(), "a helper ran the job");
            on_helper();
        });
        // The next fan-outs still get a helper and stay bit-identical.
        assert_eq!(meet_in_pairs(2, || ()).unwrap(), vec![true, true]);
        let items: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        assert_eq!(par_map_ok(&items, 2, |_, &x| x * x + 1), want);
    }

    #[test]
    fn zero_threads_resolves_to_hardware() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(par_map_ok(&items, 0, |_, &x| x), items);
    }
}
