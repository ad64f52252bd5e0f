//! Parsing of declarative query-catalog specs.
//!
//! One grammar serves both front ends: the `implicate --query-file` line
//! format and the body of `implicate-serve`'s `POST /query` control
//! endpoint. A spec line is
//!
//! ```text
//! name kind lhs rhs [options…]
//! ```
//!
//! where `kind` is `distinct` | `one-to-one` | `at-most` | `more-than` |
//! `noisy`; `lhs`/`rhs` are comma-separated 0-based column lists (`-`
//! for none); and options are `k=K`, `c=C`, `psi=PERCENT`, `support=N`,
//! the bare flag `complement`, and repeatable `where=COL=VALUE`
//! conditions (`VALUE` is matched as a raw text field, hashed with the
//! same field hasher the data rows go through).

use imp_core::query::{Filter, ImplicationQuery};
use imp_core::wire::MAX_WIRE_MULTIPLICITY;
use imp_sketch::hash::MixHasher;
use imp_stream::{AttrId, AttrSet};

/// Seed of the hasher folding raw text fields into 64-bit fingerprints.
/// Rows and `where=` literals must agree on it, so it is fixed across
/// every front end (CLI, serve).
pub const FIELD_HASHER_SEED: u64 = 0x00f1_e1d5;

/// One parsed spec line: a registration name, the query, and the raw
/// column lists (kept for exact-audit projections and schema sizing).
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The name the query registers under.
    pub name: String,
    /// The declarative query (filter included).
    pub query: ImplicationQuery,
    /// `lhs` columns in spec order.
    pub lhs_cols: Vec<usize>,
    /// `rhs` columns in spec order.
    pub rhs_cols: Vec<usize>,
}

impl QuerySpec {
    /// The highest column this spec touches (lhs, rhs, or a `where=`
    /// clause) — schemas must span at least `max_column() + 1`.
    pub fn max_column(&self) -> usize {
        self.lhs_cols
            .iter()
            .chain(&self.rhs_cols)
            .copied()
            .chain(self.query.filter.attrs().iter().map(|a| a.index()))
            .max()
            .unwrap_or(0)
    }
}

fn parse_cols(raw: &str, side: &str) -> Result<Vec<usize>, String> {
    if raw == "-" {
        return Ok(Vec::new());
    }
    raw.split(',')
        .map(|c| {
            let col: usize = c
                .trim()
                .parse()
                .map_err(|_| format!("bad {side} column {c:?}"))?;
            if col >= 64 {
                return Err(format!("{side} column {col} out of range (max 63)"));
            }
            Ok(col)
        })
        .collect()
}

/// A `k=`/`c=` value: at least 1 and at most the wire codec's cap, since
/// memory per tracked itemset grows with it.
fn multiplicity(raw: &str) -> Option<u32> {
    raw.parse()
        .ok()
        .filter(|m| (1..=MAX_WIRE_MULTIPLICITY).contains(m))
}

/// Parses one spec line (which must not be empty or a comment).
pub fn parse_query_line(line: &str) -> Result<QuerySpec, String> {
    let mut tokens = line.split_whitespace();
    let name = tokens.next().ok_or("missing query name")?;
    let kind = tokens.next().ok_or("missing query kind")?;
    let lhs_cols = parse_cols(tokens.next().ok_or("missing lhs columns")?, "lhs")?;
    let rhs_cols = parse_cols(tokens.next().ok_or("missing rhs columns")?, "rhs")?;
    let set = |cols: &[usize]| AttrSet::from_bits(cols.iter().fold(0, |m, &c| m | 1 << c));
    let (lhs, rhs) = (set(&lhs_cols), set(&rhs_cols));
    if !lhs.is_disjoint(rhs) {
        return Err("lhs and rhs columns must be disjoint".into());
    }

    let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
    let mut k: u32 = 1;
    let mut c: u32 = 1;
    let mut psi: f64 = 100.0;
    let mut support: u64 = 1;
    let mut complement = false;
    let mut filter = Filter::new();
    // The first option other than `where=`: each one tunes the
    // conditions or the kind, which a `distinct` query has no use for.
    let mut tuning: Option<&str> = None;
    for opt in tokens {
        let name = opt.find('=').map_or(opt, |eq| &opt[..=eq]);
        if name != "where=" {
            tuning.get_or_insert(name);
        }
        if opt == "complement" {
            complement = true;
        } else if let Some(v) = opt.strip_prefix("k=") {
            k = multiplicity(v).ok_or("bad k=")?;
        } else if let Some(v) = opt.strip_prefix("c=") {
            c = multiplicity(v).ok_or("bad c=")?;
        } else if let Some(v) = opt.strip_prefix("psi=") {
            psi = v.parse().map_err(|_| "bad psi=")?;
            if !(0.0..=100.0).contains(&psi) {
                return Err("psi= must be in [0, 100]".into());
            }
        } else if let Some(v) = opt.strip_prefix("support=") {
            support = v.parse().map_err(|_| "bad support=")?;
            if support == 0 {
                return Err("support= must be at least 1".into());
            }
        } else if let Some(v) = opt.strip_prefix("where=") {
            let (col, value) = v.split_once('=').ok_or("where= needs COL=VALUE")?;
            let col: usize = col.parse().map_err(|_| "bad where= column")?;
            if col >= 64 {
                return Err(format!("where= column {col} out of range (max 63)"));
            }
            filter = filter.and_eq(
                AttrId(col as u8),
                crate::text::hash_field(&field_hasher, value),
            );
        } else {
            return Err(format!("unknown option {opt:?}"));
        }
    }

    if rhs_cols.is_empty() && kind != "distinct" {
        return Err(format!("kind {kind:?} needs rhs columns"));
    }
    let mut query = match kind {
        "distinct" => {
            if !rhs_cols.is_empty() {
                return Err("distinct takes no rhs (use `-`)".into());
            }
            // A distinct count fixes σ = 1 and has no implication side or
            // complement, so these options would be silently dropped.
            if let Some(opt) = tuning {
                return Err(format!("distinct takes no {opt} option"));
            }
            ImplicationQuery::distinct_count(lhs)
        }
        "one-to-one" => ImplicationQuery::one_to_one(lhs, rhs, support),
        "at-most" => ImplicationQuery::at_most(lhs, rhs, k, support),
        "more-than" => ImplicationQuery::more_than(lhs, rhs, k, support),
        "noisy" => ImplicationQuery::noisy(lhs, rhs, c, psi / 100.0, support),
        other => return Err(format!("unknown query kind {other:?}")),
    };
    if complement {
        query = query.complement();
    }
    query = query.filtered(filter);
    Ok(QuerySpec {
        name: name.to_owned(),
        query,
        lhs_cols,
        rhs_cols,
    })
}

/// Parses a whole query file (empty lines and `#` comments skipped);
/// errors carry 1-based line numbers.
pub fn parse_query_file(body: &str) -> Result<Vec<QuerySpec>, String> {
    let mut out = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_query_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    if out.is_empty() {
        return Err("no queries".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_core::query::QueryKind;
    use imp_stream::Tuple;

    #[test]
    fn parses_every_kind() {
        let file = "\
            # comment\n\
            sources   distinct    0    -\n\
            loyal     one-to-one  0    1     support=2\n\
            capped    at-most     0    1,2   k=3\n\
            fanout    more-than   0    1     k=10 support=5\n\
            mostly    noisy       0,2  1     c=2 psi=85 support=3\n\
            flipped   one-to-one  1    2     complement\n";
        let specs = parse_query_file(file).expect("parses");
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].name, "sources");
        assert_eq!(specs[0].query.kind, QueryKind::DistinctCount);
        assert_eq!(specs[1].query.conditions.min_support, 2);
        assert_eq!(specs[2].query.conditions.max_multiplicity, 3);
        assert_eq!(specs[2].rhs_cols, vec![1, 2]);
        assert_eq!(specs[3].query.kind, QueryKind::Complement);
        assert_eq!(specs[4].lhs_cols, vec![0, 2]);
        assert_eq!(specs[5].query.kind, QueryKind::Complement);
        assert_eq!(specs[4].max_column(), 2);
    }

    #[test]
    fn where_clause_hashes_the_literal_like_a_row_field() {
        let spec = parse_query_line("morning one-to-one 0 1 where=2=am").expect("parses");
        let hasher = MixHasher::new(FIELD_HASHER_SEED);
        let am = crate::text::hash_field(&hasher, "am");
        let pm = crate::text::hash_field(&hasher, "pm");
        assert!(spec.query.filter.matches(&Tuple::from([1, 2, am])));
        assert!(!spec.query.filter.matches(&Tuple::from([1, 2, pm])));
        assert_eq!(spec.max_column(), 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "only-a-name",
            "q unknown-kind 0 1",
            "q distinct 0 1",
            "q one-to-one 0 -",
            "q one-to-one 0 64",
            "q one-to-one 0 1 k=x",
            "q one-to-one 0 1 psi=140",
            "q one-to-one 0 1 where=2",
            "q one-to-one 0 1 bogus",
            "q one-to-one 0 0",
            "q at-most 0,1 1",
            "q noisy 2 0,2 c=1",
            "q at-most 0 1 k=4294967295",
            "q at-most 0 1 k=4097",
            "q at-most 0 1 k=0",
            "q noisy 0 1 c=4294967295",
            "q noisy 0 1 c=0",
            "q one-to-one 0 1 support=0",
        ] {
            assert!(parse_query_line(bad).is_err(), "{bad:?} should be rejected");
        }
        assert!(parse_query_file("# only comments\n").is_err());
        assert!(parse_query_line("q at-most 0 1 k=4096").is_ok());
    }

    #[test]
    fn distinct_rejects_the_options_it_would_ignore() {
        for (line, option) in [
            ("q distinct 0 - k=2", "k="),
            ("q distinct 0 - c=2", "c="),
            ("q distinct 0 - psi=50", "psi="),
            ("q distinct 0 - support=3", "support="),
            ("q distinct 0 - complement", "complement"),
            ("q distinct 0 - where=1=x support=3 k=2", "support="),
        ] {
            let err = parse_query_line(line).expect_err(line);
            assert_eq!(err, format!("distinct takes no {option} option"), "{line}");
        }
        let spec = parse_query_line("q distinct 0,1 - where=2=am where=3=x").expect("parses");
        assert_eq!(spec.query.kind, QueryKind::DistinctCount);
        assert!(!spec.query.filter.is_empty());
    }
}
