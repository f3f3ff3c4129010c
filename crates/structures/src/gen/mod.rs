//! Generators for every structure class the paper's claims are tested on.

pub mod colored;
pub mod graphs;
pub mod sqldb;
pub mod strings;

pub use colored::{colored_digraph, example_colored, ColoredParams};
pub use graphs::{
    balanced_tree, bounded_degree, caterpillar, clique, cycle, gnm, graph_structure, grid, path,
    random_tree, star, star_chain, thinned_grid, unranked_tree,
};
pub use sqldb::{sql_database, SqlDb, SqlDbParams};
pub use strings::{letter_rel, read_word, string_structure, ORDER_REL};
