//! The process-wide helper pool behind every parallel fan-out.
//!
//! The pool starts empty and grows only when a fan-out asks for more
//! helpers than it has; it never shrinks. A fan-out publishes one
//! *ticket* per helper it wants, runs the same job on the calling
//! thread, then takes back every ticket no helper has picked up and
//! waits only for the helpers that did start. So a fan-out never waits
//! for a helper that is busy elsewhere (nested or concurrent fan-outs),
//! and the threads of the process stay at the callers plus the largest
//! helper count any fan-out asked for.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Counts the published tickets of one fan-out that have not been
/// taken back or finished; the caller returns once it reaches zero.
struct Latch {
    left: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    fn count_down(&self, by: usize) {
        let mut left = lock(&self.left);
        *left -= by;
        if *left == 0 {
            self.zero.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = lock(&self.left);
        while *left > 0 {
            left = self.zero.wait(left).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One fan-out's job, offered to one helper.
struct Ticket {
    job: &'static (dyn Fn() + Sync),
    latch: Arc<Latch>,
}

struct State {
    tickets: VecDeque<Ticket>,
    helpers: usize,
}

struct Pool {
    state: Mutex<State>,
    work: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        tickets: VecDeque::new(),
        helpers: 0,
    }),
    work: Condvar::new(),
};

/// Every lock here guards plain counters and queues that no user code
/// runs under, so a poisoned lock still holds consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A helper's life: take the next ticket, run its job, count down its
/// fan-out's latch, forever. A panicking job is caught, so neither the
/// helper nor the waiting caller is lost to it.
fn helper() {
    loop {
        let ticket = {
            let mut st = lock(&POOL.state);
            loop {
                if let Some(t) = st.tickets.pop_front() {
                    break t;
                }
                st = POOL.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let _ = catch_unwind(AssertUnwindSafe(ticket.job));
        ticket.latch.count_down(1);
    }
}

/// Runs `job` on the calling thread and on up to `helpers` pool
/// threads at once, returning when every copy has finished. Returns
/// how many of the offered copies no helper started (their tickets were
/// taken back). A panic in the caller's own copy is re-raised only
/// after every ticket is taken back or finished.
pub(crate) fn run(helpers: usize, job: &(dyn Fn() + Sync)) -> usize {
    let latch = Arc::new(Latch {
        left: Mutex::new(helpers),
        zero: Condvar::new(),
    });
    // SAFETY: a helper dereferences `job` only while its ticket is
    // counted on `latch`, and this function takes back every ticket no
    // helper has started and waits for the latch to reach zero before
    // it returns or unwinds, so no use of the borrow outlives it.
    let erased =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(job) };
    {
        let mut st = lock(&POOL.state);
        while st.helpers < helpers {
            // Helpers live for the process and are never joined; each
            // catches its jobs' panics, so detaching hides none. A
            // helper that cannot be spawned just leaves its ticket to be
            // taken back: the caller runs that share itself.
            if std::thread::Builder::new()
                .name("foc-pool".into())
                .spawn(helper)
                .is_err()
            {
                break;
            }
            st.helpers += 1;
        }
        for _ in 0..helpers {
            st.tickets.push_back(Ticket {
                job: erased,
                latch: latch.clone(),
            });
        }
    }
    for _ in 0..helpers {
        POOL.work.notify_one();
    }

    let share = catch_unwind(AssertUnwindSafe(job));
    let taken_back = {
        let mut st = lock(&POOL.state);
        let before = st.tickets.len();
        st.tickets.retain(|t| !Arc::ptr_eq(&t.latch, &latch));
        before - st.tickets.len()
    };
    latch.count_down(taken_back);
    latch.wait();
    if let Err(payload) = share {
        resume_unwind(payload);
    }
    taken_back
}
