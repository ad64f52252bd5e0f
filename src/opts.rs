//! The estimator flags both front ends accept.
//!
//! `implicate` and `implicate-serve` take the same 13 flags for the
//! projection, the line format, the implication conditions and the
//! estimator's shape. [`FLAGS`] defines each of them once: name, value
//! syntax, help text and validation. [`EstimatorOpts::config`] then
//! assembles the [`EstimatorConfig`]. Nothing here exits: every error
//! comes back as a message for the front end's own `die`.
//!
//! Each front end keeps its own flags, its own defaults for `--lhs` and
//! `--rhs` (required by the CLI, `0` and `1` in serve) and its own
//! cross-checks between flags.

use imp_core::wire::{MAX_WIRE_BITMAPS, MAX_WIRE_MULTIPLICITY};
use imp_core::{EstimatorConfig, Fringe, ImplicationConditions, MultiplicityPolicy};

/// One command-line flag: its name, its value placeholder (empty for a
/// flag that takes no value), its help text (extra lines indent under
/// the first), and the action applying one occurrence to a `T`.
pub struct Flag<T> {
    /// The flag as typed, e.g. `--lhs`.
    pub name: &'static str,
    /// Placeholder for the value in the usage text; empty for a flag
    /// that takes no value.
    pub metavar: &'static str,
    /// Help text; `\n` starts a continuation line.
    pub doc: &'static str,
    /// Parses and checks one value into the target.
    pub set: fn(&mut T, &str) -> Result<(), String>,
}

/// Values of the shared flags, defaults applied.
#[derive(Debug, Clone)]
pub struct EstimatorOpts {
    /// `--lhs`; `None` when not given.
    pub lhs: Option<Vec<usize>>,
    /// `--rhs`; `None` when not given.
    pub rhs: Option<Vec<usize>>,
    /// `--delimiter`; `None` splits on any whitespace.
    pub delimiter: Option<char>,
    /// `--threads`, at least 1.
    pub threads: usize,
    max_mult: u32,
    support: u64,
    top_c: Option<u32>,
    confidence: f64,
    policy: MultiplicityPolicy,
    bitmaps: usize,
    fringe: u32,
    memory_budget: Option<usize>,
    seed: u64,
}

impl Default for EstimatorOpts {
    fn default() -> Self {
        Self {
            lhs: None,
            rhs: None,
            delimiter: None,
            threads: 1,
            max_mult: 1,
            support: 1,
            top_c: None,
            confidence: 100.0,
            policy: MultiplicityPolicy::Strict,
            bitmaps: 64,
            fringe: 4,
            memory_budget: None,
            seed: 42,
        }
    }
}

fn cols(raw: &str) -> Result<Vec<usize>, String> {
    raw.split(',')
        .map(|c| c.trim().parse().map_err(|_| format!("bad column {c:?}")))
        .collect()
}

/// Parses the value `raw` given to flag `name`.
pub fn value<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("bad {name} value {raw:?}"))
}

/// Parses the value `raw` given to flag `name`, which must be at least 1.
pub fn at_least_one<T: std::str::FromStr + PartialOrd + From<u8>>(
    raw: &str,
    name: &str,
) -> Result<T, String> {
    let v = value(raw, name)?;
    check(v >= T::from(1), &format!("{name} must be at least 1"))?;
    Ok(v)
}

/// Parses the value `raw` given to flag `name`, which must lie in
/// `1..=max` (the wire caps: an aggregator rejects larger estimators).
fn in_range<T: std::str::FromStr + PartialOrd + From<u8> + std::fmt::Display>(
    raw: &str,
    name: &str,
    max: T,
) -> Result<T, String> {
    let v = at_least_one(raw, name)?;
    check(v <= max, &format!("{name} must be at most {max}"))?;
    Ok(v)
}

fn check(ok: bool, msg: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg.into())
    }
}

/// The shared flags, in usage order.
pub const FLAGS: &[Flag<EstimatorOpts>] = &[
    Flag {
        name: "--lhs",
        metavar: "COLS",
        doc: "comma-separated 0-based columns forming the counted\nitemset A (e.g. --lhs 0 or --lhs 0,2)",
        set: |o, v| cols(v).map(|c| o.lhs = Some(c)),
    },
    Flag {
        name: "--rhs",
        metavar: "COLS",
        doc: "columns forming the implied itemset B",
        set: |o, v| cols(v).map(|c| o.rhs = Some(c)),
    },
    Flag {
        name: "--max-mult",
        metavar: "K",
        doc: "maximum multiplicity, 1 to 4096 (default 1)",
        set: |o, v| in_range(v, "--max-mult", MAX_WIRE_MULTIPLICITY).map(|k| o.max_mult = k),
    },
    Flag {
        name: "--support",
        metavar: "N",
        doc: "minimum absolute support σ (default 1)",
        set: |o, v| at_least_one(v, "--support").map(|s| o.support = s),
    },
    Flag {
        name: "--top-c",
        metavar: "C",
        doc: "the c of the top-confidence level, 1 to 4096 (default K)",
        set: |o, v| in_range(v, "--top-c", MAX_WIRE_MULTIPLICITY).map(|c| o.top_c = Some(c)),
    },
    Flag {
        name: "--confidence",
        metavar: "P",
        doc: "minimum top-c confidence in percent (default 100)",
        set: |o, v| {
            o.confidence = value(v, "--confidence")?;
            check((0.0..=100.0).contains(&o.confidence), "--confidence must be in [0, 100]")
        },
    },
    Flag {
        name: "--policy",
        metavar: "P",
        doc: "strict | tracktop (default strict)",
        set: |o, v| {
            o.policy = match v {
                "strict" => MultiplicityPolicy::Strict,
                "tracktop" => MultiplicityPolicy::TrackTop,
                other => return Err(format!("unknown policy {other:?}")),
            };
            Ok(())
        },
    },
    Flag {
        name: "--delimiter",
        metavar: "C",
        doc: "field delimiter (default: any whitespace; e.g. ',')",
        set: |o, v| {
            let mut chars = v.chars();
            o.delimiter = chars.next();
            check(
                o.delimiter.is_some() && chars.next().is_none(),
                "--delimiter must be a single character",
            )
        },
    },
    Flag {
        name: "--bitmaps",
        metavar: "M",
        doc: "stochastic-averaging bitmaps, a power of two up to 4096\n(default 64)",
        set: |o, v| {
            o.bitmaps = in_range(v, "--bitmaps", MAX_WIRE_BITMAPS)?;
            check(o.bitmaps.is_power_of_two(), "--bitmaps must be a power of two")
        },
    },
    Flag {
        name: "--fringe",
        metavar: "F",
        doc: "fringe size, at most 64 (default 4); 0 = unbounded",
        set: |o, v| {
            o.fringe = value(v, "--fringe")?;
            check(o.fringe <= 64, "--fringe must be at most 64")
        },
    },
    Flag {
        name: "--memory-budget",
        metavar: "BYTES",
        doc: "hard cap on tracked-state memory (default: unlimited);\nat the cap, admissions shed the weakest tracked\nitemsets instead of growing (watch estimator.mem_bytes\nand estimator.shed_events in the metrics)",
        set: |o, v| {
            o.memory_budget = Some(value(v, "--memory-budget")?);
            check(o.memory_budget > Some(0), "--memory-budget must be at least 1 byte")
        },
    },
    Flag {
        name: "--seed",
        metavar: "N",
        doc: "hash seed (default 42)",
        set: |o, v| value(v, "--seed").map(|s| o.seed = s),
    },
    Flag {
        name: "--threads",
        metavar: "N",
        doc: "ingestion lanes, and the CLI's parser threads (default\n1); N > 1 gives output identical to N = 1",
        set: |o, v| at_least_one(v, "--threads").map(|n| o.threads = n),
    },
];

impl EstimatorOpts {
    /// The estimator configuration the flags describe. Fails when
    /// `--memory-budget` is below the smallest budget this configuration
    /// can enforce.
    pub fn config(&self) -> Result<EstimatorConfig, String> {
        let cond = ImplicationConditions::builder()
            .max_multiplicity(self.max_mult)
            .min_support(self.support)
            .top_confidence(self.top_c.unwrap_or(self.max_mult), self.confidence / 100.0)
            .multiplicity_policy(self.policy)
            .build();
        let fringe = match self.fringe {
            0 => Fringe::Unbounded,
            f => Fringe::Bounded(f),
        };
        let config = EstimatorConfig::new(cond)
            .bitmaps(self.bitmaps)
            .fringe(fringe)
            .seed(self.seed);
        let Some(bytes) = self.memory_budget else {
            return Ok(config);
        };
        let floor = config.construction_floor();
        if bytes < floor {
            return Err(format!(
                "--memory-budget {bytes} is below the smallest enforceable budget \
                 for this configuration: {floor} bytes ({m} initial arena tables; \
                 lower --bitmaps or raise the budget)",
                m = self.bitmaps * 2,
            ));
        }
        Ok(config.memory_budget(bytes))
    }
}

/// The flag called `name` in `flags`.
pub fn find<'f, T>(flags: &'f [Flag<T>], name: &str) -> Option<&'f Flag<T>> {
    flags.iter().find(|f| f.name == name)
}

/// The usage lines for `flags`: `NAME METAVAR` padded to `width`, then
/// the help text, continuation lines indented under it.
pub fn usage<T>(flags: &[Flag<T>], width: usize) -> String {
    let mut out = String::new();
    for f in flags {
        let mut lines = f.doc.lines();
        let first = lines.next().unwrap_or("");
        out.push_str(&format!("  {:<width$}  {first}\n", left(f)));
        for line in lines {
            out.push_str(&format!("  {:<width$}  {line}\n", ""));
        }
    }
    out
}

/// The widest `NAME METAVAR` column among `flags`.
pub fn width<T>(flags: &[Flag<T>]) -> usize {
    flags.iter().map(|f| left(f).len()).max().unwrap_or(0)
}

fn left<T>(f: &Flag<T>) -> String {
    if f.metavar.is_empty() {
        f.name.to_string()
    } else {
        format!("{} {}", f.name, f.metavar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[(&str, &str)]) -> Result<EstimatorOpts, String> {
        let mut o = EstimatorOpts::default();
        for (name, value) in args {
            let flag = find(FLAGS, name).ok_or_else(|| format!("no flag {name}"))?;
            (flag.set)(&mut o, value)?;
        }
        Ok(o)
    }

    #[test]
    fn defaults_build_the_default_config() {
        let config = EstimatorOpts::default()
            .config()
            .expect("defaults are valid");
        assert_eq!(config.conditions_ref().to_string(), "K=1 σ=1 ψ_1≥100.00%");
        assert_eq!(config.memory_budget_limit(), None);
    }

    #[test]
    fn flags_are_unique_and_take_values() {
        assert_eq!(FLAGS.len(), 13);
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(!f.metavar.is_empty(), "{} takes a value", f.name);
            assert!(FLAGS[..i].iter().all(|g| g.name != f.name), "{}", f.name);
        }
    }

    #[test]
    fn rejects_values_the_estimator_cannot_take() {
        for (args, want) in [
            (
                &[("--bitmaps", "3")][..],
                "--bitmaps must be a power of two",
            ),
            (
                &[("--confidence", "150")],
                "--confidence must be in [0, 100]",
            ),
            (&[("--max-mult", "0")], "--max-mult must be at least 1"),
            (&[("--support", "0")], "--support must be at least 1"),
            (&[("--top-c", "0")], "--top-c must be at least 1"),
            (
                &[("--max-mult", "4294967295")],
                "--max-mult must be at most 4096",
            ),
            (&[("--top-c", "4097")], "--top-c must be at most 4096"),
            (
                &[("--bitmaps", "1073741824")],
                "--bitmaps must be at most 4096",
            ),
            (&[("--threads", "0")], "--threads must be at least 1"),
            (&[("--fringe", "65")], "--fringe must be at most 64"),
            (&[("--memory-budget", "0")], "at least 1 byte"),
            (&[("--lhs", "0,x")], "bad column \"x\""),
            (&[("--seed", "-1")], "bad --seed value \"-1\""),
            (&[("--policy", "lax")], "unknown policy \"lax\""),
            (&[("--delimiter", ",,")], "single character"),
        ] {
            let err = parse(args).expect_err(want);
            assert!(err.contains(want), "{args:?}: {err}");
        }
        let low = parse(&[("--memory-budget", "1")]).expect("parses");
        let err = low.config().expect_err("below the floor");
        assert!(err.contains("smallest enforceable budget"), "{err}");
    }

    #[test]
    fn usage_aligns_every_flag() {
        let w = width(FLAGS);
        let text = usage(FLAGS, w);
        assert_eq!(text.lines().filter(|l| l.starts_with("  --")).count(), 13);
        assert!(text.contains(&format!("  {:<w$}  hash seed (default 42)\n", "--seed N")));
        assert!(text.contains(&format!("  {:<w$}  itemset A (e.g.", "")));
    }
}
