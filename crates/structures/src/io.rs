//! A plain-text interchange format for structures, so databases can be
//! loaded from files (and the CLI can operate on user data).
//!
//! Format, line oriented:
//!
//! ```text
//! # comment
//! universe 10          # optional: ensure at least this many elements
//! rel E 2              # declare relation E with arity 2
//! E 0 1                # one tuple per line: relation name + elements
//! E 1 0
//! rel Color 1
//! Color 2
//! ```
//!
//! Elements are non-negative integers; the universe is the range
//! `0..max(universe directive, max element + 1)`.

use std::fmt::Write as _;

use foc_logic::Symbol;

use crate::structure::{Structure, StructureBuilder};

/// A parse error for the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for FormatError {}

/// Parses a structure from the text format.
pub fn parse_structure(input: &str) -> Result<Structure, FormatError> {
    let mut b = StructureBuilder::new();
    // Declared names with their builder index and arity, so tuple lines
    // resolve without interning the name again.
    let mut declared: Vec<(&str, usize, usize)> = Vec::new();
    let mut tuple: Vec<u32> = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let head = parts.next().expect("non-empty line");
        let err = |msg: String| FormatError { line: lineno, msg };
        match head {
            "universe" => {
                let n: u32 = parts
                    .next()
                    .ok_or_else(|| err("universe needs a size".into()))?
                    .parse()
                    .map_err(|_| err("universe size must be a non-negative integer".into()))?;
                if parts.next().is_some() {
                    return Err(err("trailing tokens after universe size".into()));
                }
                b.ensure_universe(n);
            }
            "rel" => {
                let name = parts.next().ok_or_else(|| err("rel needs a name".into()))?;
                let arity: usize = parts
                    .next()
                    .ok_or_else(|| err("rel needs an arity".into()))?
                    .parse()
                    .map_err(|_| err("arity must be a non-negative integer".into()))?;
                if parts.next().is_some() {
                    return Err(err("trailing tokens after rel declaration".into()));
                }
                if declared.iter().any(|&(n, _, _)| n == name) {
                    return Err(err(format!("relation {name} declared twice")));
                }
                declared.push((name, b.declare(name, arity), arity));
            }
            name => {
                let Some(&(_, idx, arity)) = declared.iter().find(|&&(n, _, _)| n == name) else {
                    return Err(err(format!("relation {name} used before declaration")));
                };
                // Grow with the actual tokens on the line, not the declared
                // arity: a hostile header like `rel E 99999999999` must not
                // translate into an arity-sized allocation.
                tuple.clear();
                for p in parts {
                    let e: u32 = p
                        .parse()
                        .map_err(|_| err(format!("element {p:?} is not an integer")))?;
                    if e == u32::MAX {
                        return Err(err(format!("element {e} is too large")));
                    }
                    tuple.push(e);
                }
                if tuple.len() != arity {
                    return Err(err(format!(
                        "relation {name} has arity {arity}, got {} elements",
                        tuple.len()
                    )));
                }
                b.try_insert_at(idx, &tuple)
                    .map_err(|e| err(e.to_string()))?;
            }
        }
    }
    Ok(b.finish())
}

/// Serialises a structure to the text format (inverse of
/// [`parse_structure`] up to ordering).
pub fn write_structure(s: &Structure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "universe {}", s.order());
    for decl in s.signature().rels() {
        let _ = writeln!(out, "rel {} {}", decl.name, decl.arity);
    }
    for decl in s.signature().rels() {
        let rel = s
            .relation(Symbol::new(&decl.name.name()))
            .expect("declared");
        for row in rel.rows() {
            let _ = write!(out, "{}", decl.name);
            for &e in row {
                let _ = write!(out, " {e}");
            }
            let _ = writeln!(out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid;

    #[test]
    fn parse_simple_structure() {
        let text = "\
# a triangle with one red vertex
rel E 2
rel Red 1
E 0 1
E 1 2
E 2 0
Red 1
universe 4
";
        let s = parse_structure(text).unwrap();
        assert_eq!(s.order(), 4);
        assert!(s.holds(Symbol::new("E"), &[0, 1]));
        assert!(!s.holds(Symbol::new("E"), &[1, 0]));
        assert!(s.holds(Symbol::new("Red"), &[1]));
    }

    #[test]
    fn round_trip() {
        let s = grid(4, 3);
        let text = write_structure(&s);
        let s2 = parse_structure(&text).unwrap();
        assert_eq!(s2.order(), s.order());
        assert_eq!(s2.size(), s.size());
        let e = Symbol::new("E");
        for row in s.relation(e).unwrap().rows() {
            assert!(s2.holds(e, row));
        }
    }

    #[test]
    fn errors_have_line_numbers() {
        let e = parse_structure("rel E 2\nE 0\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_structure("E 0 1\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("before declaration"));
        let e = parse_structure("rel E 2\nrel E 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_structure("universe x\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let s = parse_structure("\n# only comments\nuniverse 3\n# done\n").unwrap();
        assert_eq!(s.order(), 3);
        assert!(s.signature().is_empty());
    }

    #[test]
    fn flat_rows_sort_dedup_and_keep_nullary_presence() {
        let text = "rel T 3\nrel On 0\nrel Off 0\nT 2 0 1\nT 0 5 1\nT 2 0 1\nOn\nOn\n";
        let s = parse_structure(text).unwrap();
        assert_eq!(s.order(), 6);
        let t = s.relation(Symbol::new("T")).unwrap();
        let rows: Vec<&[u32]> = t.rows().collect();
        assert_eq!(rows, [&[0, 5, 1][..], &[2, 0, 1][..]]);
        assert!(s.holds(Symbol::new("On"), &[]));
        assert!(!s.holds(Symbol::new("Off"), &[]));
        let again = parse_structure(&write_structure(&s)).unwrap();
        assert_eq!(again.fingerprint(), s.fingerprint());
    }
}
