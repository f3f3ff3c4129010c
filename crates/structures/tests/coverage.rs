//! Additional coverage for the structure substrate: graph algorithms
//! against brute-force references, builder/IO edge cases, and generator
//! invariants.

use foc_logic::Symbol;
use foc_structures::gen::*;
use foc_structures::graph::{BfsScratch, DistLayer, Graph};
use foc_structures::io::{parse_structure, write_structure};
use foc_structures::{RelDecl, Signature, Structure, StructureBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Floyd–Warshall reference distances.
fn apsp(g: &Graph) -> Vec<Vec<u32>> {
    let n = g.n() as usize;
    let inf = u32::MAX / 4;
    let mut d = vec![vec![inf; n]; n];
    #[allow(clippy::needless_range_loop)]
    for v in 0..n {
        d[v][v] = 0;
        for &w in g.neighbors(v as u32) {
            d[v][w as usize] = 1;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                d[i][j] = d[i][j].min(d[i][k].saturating_add(d[k][j]));
            }
        }
    }
    d
}

#[test]
fn bfs_distances_match_floyd_warshall() {
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..10 {
        let n = rng.gen_range(2..20u32);
        let m = rng.gen_range(0..(n as usize * 2));
        let s = gnm(n, m, &mut rng);
        let g = s.gaifman();
        let reference = apsp(g);
        let mut scratch = BfsScratch::new();
        let mut dists = DistLayer::new();
        for a in 0..n {
            dists.fill(g, a, n);
            for b in 0..n {
                let want = reference[a as usize][b as usize];
                match dists.get(b) {
                    Some(d) => assert_eq!(d, want, "({a},{b})"),
                    None => assert!(want > n, "missing finite distance ({a},{b})"),
                }
                assert_eq!(
                    g.dist_bounded(a, b, n, &mut scratch),
                    (want <= n).then_some(want),
                    "bounded distance ({a},{b})"
                );
            }
        }
    }
}

#[test]
fn balls_are_distance_sublevel_sets() {
    let mut rng = StdRng::seed_from_u64(7);
    let s = gnm(18, 30, &mut rng);
    let g = s.gaifman();
    let reference = apsp(g);
    let mut scratch = BfsScratch::new();
    for a in 0..g.n() {
        for r in 0..5u32 {
            let ball = g.ball(&[a], r, &mut scratch);
            for b in 0..g.n() {
                let inside = reference[a as usize][b as usize] <= r;
                assert_eq!(ball.binary_search(&b).is_ok(), inside, "a={a} b={b} r={r}");
            }
        }
    }
}

#[test]
fn gaifman_cache_is_reused_for_unary_expansions() {
    let s = grid(6, 6);
    let g1 = s.gaifman() as *const Graph;
    let exp = s.expand(vec![(RelDecl::new("Mark", 1), vec![vec![0], vec![5]])]);
    let g2 = exp.gaifman() as *const Graph;
    assert_eq!(
        g1, g2,
        "unary expansion must reuse the cached Gaifman graph"
    );
    // A binary expansion must NOT reuse it.
    let exp2 = s.expand(vec![(RelDecl::new("Link", 2), vec![vec![0, 35]])]);
    assert!(exp2.gaifman().has_edge(0, 35));
}

#[test]
fn disjoint_union_gaifman_is_disconnected() {
    let a = path(4);
    let b = cycle(5);
    let u = Structure::disjoint_union(&a, &b);
    let (comp, k) = u.gaifman().components();
    assert_eq!(k, 2);
    assert_eq!(comp[0], comp[3]);
    assert_ne!(comp[0], comp[4]);
    assert_eq!(u.size(), a.size() + b.size());
}

#[test]
fn signature_equality_and_size() {
    let s1 = Signature::new(vec![RelDecl::new("A", 1), RelDecl::new("B", 3)]);
    let s2 = Signature::new(vec![RelDecl::new("A", 1), RelDecl::new("B", 3)]);
    let s3 = Signature::new(vec![RelDecl::new("B", 3), RelDecl::new("A", 1)]);
    assert_eq!(*s1, *s2);
    assert_ne!(*s1, *s3, "declaration order is significant");
    assert_eq!(s1.size(), 4);
    assert!(format!("{s1:?}").contains("B/3"));
}

#[test]
fn builder_allocates_fresh_elements_beyond_tuples() {
    let mut b = StructureBuilder::new();
    b.declare("R", 1);
    let e1 = b.add_element();
    let e2 = b.add_element();
    b.try_insert("R", &[e2]).unwrap();
    b.ensure_universe(10);
    let s = b.finish();
    assert_eq!(s.order(), 10);
    assert_ne!(e1, e2);
    assert!(s.holds(Symbol::new("R"), &[e2]));
}

#[test]
fn io_roundtrip_preserves_all_generators() {
    let mut rng = StdRng::seed_from_u64(3);
    let cases = vec![
        star(7),
        caterpillar(3, 2),
        string_structure("abcba", &['a', 'b', 'c']),
        colored_digraph(
            ColoredParams {
                n: 20,
                ..Default::default()
            },
            &mut rng,
        ),
    ];
    for s in cases {
        let text = write_structure(&s);
        let back = parse_structure(&text).unwrap();
        assert_eq!(back.order(), s.order());
        assert_eq!(back.size(), s.size());
        for decl in s.signature().rels() {
            let r1 = s.relation(decl.name).unwrap();
            let r2 = back.relation(decl.name).unwrap();
            assert_eq!(r1.len(), r2.len(), "relation {} differs", decl.name);
        }
    }
}

#[test]
fn string_structures_encode_words_faithfully() {
    let alphabet = ['a', 'b', 'c'];
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..5 {
        let len = rng.gen_range(1..12);
        let word: String = (0..len)
            .map(|_| alphabet[rng.gen_range(0..3usize)])
            .collect();
        let s = string_structure(&word, &alphabet);
        assert_eq!(read_word(&s, &alphabet), word);
        // The order relation has exactly n(n+1)/2 tuples.
        let n = word.len();
        assert_eq!(
            s.relation(Symbol::new(ORDER_REL)).unwrap().len(),
            n * (n + 1) / 2
        );
    }
}

#[test]
fn generator_degree_invariants() {
    let mut rng = StdRng::seed_from_u64(6);
    // Caterpillar: spine interior degree = 2 + legs.
    let c = caterpillar(6, 3);
    assert_eq!(c.gaifman().degree(2), 2 + 3);
    // Balanced binary tree: root degree = branching, leaf degree = 1.
    let b = balanced_tree(3, 2);
    assert_eq!(b.gaifman().degree(0), 3);
    assert_eq!(b.gaifman().degree(b.order() - 1), 1);
    // unranked_tree with spread 0 is a path.
    let p = unranked_tree(10, 0.0, &mut rng);
    assert_eq!(p.gaifman().max_degree(), 2);
    // thinned grid never exceeds grid degrees.
    let t = thinned_grid(5, 5, 0.5, &mut rng);
    assert!(t.gaifman().max_degree() <= 4);
}

#[test]
fn induced_substructure_of_whole_is_identity() {
    let s = grid(4, 4);
    let all: Vec<u32> = s.universe().collect();
    let ind = s.induced(&all);
    assert_eq!(ind.structure.size(), s.size());
    for (new, &old) in ind.back.iter().enumerate() {
        assert_eq!(new as u32, old);
    }
}

#[test]
fn relation_contains_agrees_with_row_scan() {
    let mut rng = StdRng::seed_from_u64(8);
    let s = gnm(15, 25, &mut rng);
    let rel = s.relation(Symbol::new("E")).unwrap();
    for a in 0..15u32 {
        for b in 0..15u32 {
            let scan = rel.rows().any(|r| r == [a, b]);
            assert_eq!(rel.contains(&[a, b]), scan, "({a},{b})");
        }
    }
}
