//! The ball-enumeration kernel does no heap allocation per element or per
//! tuple: evaluating a term allocates the same number of times on a
//! 20×20 grid as on a 40×40 grid, once the worker's scratch is warm.
//!
//! Allocations are counted per thread by this binary's own global
//! allocator, so concurrently running tests do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use foc_locality::{decompose_ground, BasicClTerm, Gk, LocalEvaluator};
use foc_logic::build::{dist_le, v};
use foc_logic::Predicates;
use foc_structures::gen::grid;
use foc_structures::Structure;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local without a destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by a second evaluation of every basic term of
/// `#(x,y). dist(x,y) <= 2` on `s` (the first warms the scratch, the
/// Gaifman graph and the relation indexes), plus one term whose
/// distance bound exceeds its layers' cap, so it takes the bounded BFS.
fn steady_allocs(s: &Structure) -> u64 {
    let (x, y) = (v("x"), v("y"));
    let cl = decompose_ground(&dist_le(x, y, 2), &[x, y]).unwrap();
    let p = Predicates::standard();
    let mut basics = cl.basics();
    let edge = Gk::from_edges(2, &[(0, 1)]);
    let far = BasicClTerm::new(vec![x, y], true, edge, 0, dist_le(x, y, 3)).unwrap();
    basics.push(far.into());
    let run = || {
        let mut lev = LocalEvaluator::new(s, &p);
        for b in &basics {
            lev.eval_basic_for(b, None).unwrap();
        }
    };
    run();
    let before = ALLOCS.with(Cell::get);
    run();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn allocations_do_not_scale_with_the_structure() {
    let small = steady_allocs(&grid(20, 20));
    let large = steady_allocs(&grid(40, 40));
    assert!(
        small > 0,
        "the counting allocator must see the per-term work"
    );
    assert_eq!(small, large, "an allocation scales with n");
}
