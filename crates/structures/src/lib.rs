//! # foc-structures — relational structures and Gaifman graphs
//!
//! The database substrate of the reproduction of Grohe & Schweikardt
//! (PODS 2018): finite relational structures with universe `0..n`
//! (Section 2), their Gaifman graphs with BFS/ball/distance machinery,
//! induced substructures, expansions, disjoint unions, and generators for
//! all the structure classes the paper discusses (trees, strings, grids,
//! bounded-degree and random sparse graphs, cliques, coloured digraphs,
//! and the Customer/Order database of Example 5.3).
//!
//! ```
//! use foc_structures::gen::grid;
//! use foc_structures::graph::BfsScratch;
//!
//! let g = grid(10, 10);
//! assert_eq!(g.order(), 100);
//! let mut scratch = BfsScratch::new();
//! // The radius-1 ball of the corner has 3 elements.
//! assert_eq!(g.gaifman().ball(&[0], 1, &mut scratch).len(), 3);
//! ```

#![warn(missing_docs)]

pub mod delta;
pub mod gen;
pub mod graph;
pub mod hash;
pub mod io;
pub mod signature;
pub mod structure;

pub use delta::{CommitInfo, DeltaStructure, TupleOp};
pub use graph::{BfsScratch, DistLayer, Graph};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use signature::{RelDecl, Signature};
pub use structure::{InducedSubstructure, MutationError, Relation, Structure, StructureBuilder};
