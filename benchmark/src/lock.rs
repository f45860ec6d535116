//! `inputs.lock`: the generated traffic, pinned.
//!
//! For the pinned seeds the file holds a fingerprint of everything a
//! workload generates (catalogs, queries, specs, data) and each
//! execution op's full-scale result digest. A later change to
//! `crates/workload` can then not silently change what the benchmark
//! measures: a mismatch fails **every op** of the workload. Seeds the
//! file does not name are unpinned and pass.
//!
//! ```text
//! inputs <workload> <seed> <fingerprint, 16 hex digits>
//! result <workload> <seed> <op index> <rows> <hash, 16 hex digits>
//! ```

use crate::naive::ResultDigest;
use crate::util::Hasher64;
use ofw_catalog::Catalog;
use ofw_core::{Fd, InputSpec, LogicalProperty};
use ofw_query::{AggFunc, Query};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Default, PartialEq)]
pub struct Lock {
    inputs: BTreeMap<(String, u64), u64>,
    results: BTreeMap<(String, u64, usize), ResultDigest>,
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// The file names no such workload and seed.
    Unpinned,
    Match,
    Mismatch(String),
}

fn hex(field: &str) -> Result<u64, String> {
    u64::from_str_radix(field, 16).map_err(|e| format!("bad hex {field:?}: {e}"))
}

fn int<T: std::str::FromStr>(field: &str) -> Result<T, String> {
    field.parse().map_err(|_| format!("bad number {field:?}"))
}

impl Lock {
    pub fn parse(text: &str) -> Result<Lock, String> {
        let mut lock = Lock::default();
        for (n, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields.as_slice() {
                [] => Ok(()),
                [first, ..] if first.starts_with('#') => Ok(()),
                ["inputs", w, seed, fp] => int(seed).and_then(|s| {
                    lock.inputs.insert((w.to_string(), s), hex(fp)?);
                    Ok(())
                }),
                ["result", w, seed, op, rows, hash] => (|| {
                    let digest = ResultDigest {
                        rows: int(rows)?,
                        hash: hex(hash)?,
                    };
                    lock.results
                        .insert((w.to_string(), int(seed)?, int(op)?), digest);
                    Ok(())
                })(),
                _ => Err("unknown record".to_string()),
            };
            parsed.map_err(|e: String| format!("inputs.lock line {}: {e}", n + 1))?;
        }
        Ok(lock)
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for ((w, seed), fp) in &self.inputs {
            let _ = writeln!(out, "inputs {w} {seed} {fp:016x}");
        }
        for ((w, seed, op), d) in &self.results {
            let _ = writeln!(out, "result {w} {seed} {op} {} {:016x}", d.rows, d.hash);
        }
        out
    }

    pub fn pin(
        &mut self,
        workload: &str,
        seed: u64,
        fingerprint: u64,
        results: &[Option<ResultDigest>],
    ) {
        self.inputs
            .insert((workload.to_string(), seed), fingerprint);
        for (op, d) in results.iter().enumerate() {
            if let Some(d) = d {
                self.results.insert((workload.to_string(), seed, op), *d);
            }
        }
    }

    /// Compares what a run generated (`fingerprint`) and computed
    /// (`results`, one per op, `None` for ops without a result) with
    /// the pinned values.
    pub fn check(
        &self,
        workload: &str,
        seed: u64,
        fingerprint: u64,
        results: &[Option<ResultDigest>],
    ) -> Verdict {
        let Some(&pinned) = self.inputs.get(&(workload.to_string(), seed)) else {
            return Verdict::Unpinned;
        };
        if pinned != fingerprint {
            return Verdict::Mismatch(format!(
                "inputs of {workload} seed {seed}: generated {fingerprint:016x}, pinned {pinned:016x}"
            ));
        }
        for (op, got) in results.iter().enumerate() {
            let want = self.results.get(&(workload.to_string(), seed, op));
            if want != got.as_ref() {
                return Verdict::Mismatch(format!(
                    "result of {workload} seed {seed} op {op}: computed {got:?}, pinned {want:?}"
                ));
            }
        }
        Verdict::Match
    }
}

/// Fingerprints a catalog and a query through their public fields.
pub fn hash_query(h: &mut Hasher64, catalog: &Catalog, query: &Query) {
    h.word(query.relations.len() as u64);
    for &rel in &query.relations {
        let r = catalog.relation(rel);
        h.text(&r.name);
        h.float(r.cardinality);
        for &a in &r.attrs {
            h.word(u64::from(a.0));
            h.float(catalog.distinct_values(a).unwrap_or(-1.0));
        }
        for index in &r.indexes {
            h.word(u64::from(index.clustered));
            index.key.iter().for_each(|a| h.word(u64::from(a.0)));
        }
    }
    let attrs = |h: &mut Hasher64, list: &[ofw_catalog::AttrId]| {
        h.word(list.len() as u64);
        list.iter().for_each(|a| h.word(u64::from(a.0)));
    };
    h.word(query.joins.len() as u64);
    for j in &query.joins {
        attrs(h, &[j.left, j.right]);
        h.float(j.selectivity);
    }
    for (attr, selectivity) in query
        .constants
        .iter()
        .map(|c| (c.attr, c.selectivity))
        .chain(query.filters.iter().map(|f| (f.attr, -f.selectivity)))
    {
        h.word(u64::from(attr.0));
        h.float(selectivity);
    }
    attrs(h, &query.group_by);
    attrs(h, &query.distinct);
    attrs(h, &query.order_by);
    for call in &query.aggregates {
        h.word(match call.func {
            AggFunc::Count => 1,
            AggFunc::Sum => 2,
            AggFunc::Min => 3,
            AggFunc::Max => 4,
        });
        h.word(call.input.map_or(u64::MAX, |a| u64::from(a.0)));
    }
}

pub fn hash_columns(h: &mut Hasher64, data: &crate::data::Columns) {
    for rel in data {
        h.word(rel.len() as u64);
        for col in rel {
            h.word(col.len() as u64);
            col.iter().for_each(|&v| h.int(v));
        }
    }
}

pub fn hash_spec(h: &mut Hasher64, spec: &InputSpec) {
    let prop = |h: &mut Hasher64, p: &LogicalProperty| {
        let (tag, split) = match p {
            LogicalProperty::Ordering(_) => (1, 0),
            LogicalProperty::Grouping(_) => (2, 0),
            LogicalProperty::HeadTail(ht) => (3, ht.head_attrs().len()),
        };
        h.word(tag);
        h.word(split as u64);
        h.word(p.attrs().len() as u64);
        p.attrs().iter().for_each(|a| h.word(u64::from(a.0)));
    };
    h.word(spec.produced().len() as u64);
    spec.produced().iter().for_each(|p| prop(h, p));
    h.word(spec.tested().len() as u64);
    spec.tested().iter().for_each(|p| prop(h, p));
    for set in spec.fd_sets() {
        h.word(set.len() as u64);
        for fd in set.fds() {
            match fd {
                Fd::Functional { lhs, rhs } => {
                    h.word(1);
                    h.word(lhs.len() as u64);
                    lhs.iter().for_each(|a| h.word(u64::from(a.0)));
                    h.word(u64::from(rhs.0));
                }
                Fd::Equation(a, b) => {
                    h.word(2);
                    h.word(u64::from(a.0));
                    h.word(u64::from(b.0));
                }
                Fd::Constant(a) => {
                    h.word(3);
                    h.word(u64::from(a.0));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests() -> Vec<Option<ResultDigest>> {
        vec![
            Some(ResultDigest {
                rows: 12,
                hash: 0xABCD,
            }),
            None,
            Some(ResultDigest { rows: 0, hash: 7 }),
        ]
    }

    #[test]
    fn lock_file_round_trips() {
        let mut lock = Lock::default();
        lock.pin("exec_join", 1, 0x1234_5678_9ABC_DEF0, &digests());
        lock.pin("plan_small", 2, 42, &[]);
        let text = lock.render();
        assert!(text.contains("inputs exec_join 1 123456789abcdef0"));
        assert!(text.contains("result exec_join 1 0 12 000000000000abcd"));
        assert_eq!(Lock::parse(&text).unwrap(), lock);
        assert!(Lock::parse("inputs plan_small one 00").is_err());
        assert!(Lock::parse("bogus line").is_err());
        assert_eq!(
            Lock::parse("\n# only a comment\n").unwrap(),
            Lock::default()
        );
    }

    #[test]
    fn a_corrupted_pin_is_a_mismatch_and_other_seeds_are_unpinned() {
        let mut lock = Lock::default();
        lock.pin("exec_join", 1, 99, &digests());
        assert_eq!(lock.check("exec_join", 1, 99, &digests()), Verdict::Match);
        assert_eq!(
            lock.check("exec_join", 3, 99, &digests()),
            Verdict::Unpinned
        );
        assert_eq!(lock.check("exec_agg", 1, 99, &digests()), Verdict::Unpinned);
        assert!(matches!(
            lock.check("exec_join", 1, 98, &digests()),
            Verdict::Mismatch(_)
        ));
        // One flipped hash digit in the file.
        let corrupted = lock
            .render()
            .replace("000000000000abcd", "000000000000abce");
        let corrupted = Lock::parse(&corrupted).unwrap();
        assert!(matches!(
            corrupted.check("exec_join", 1, 99, &digests()),
            Verdict::Mismatch(_)
        ));
        // A result the file pins but the run did not produce.
        let mut fewer = digests();
        fewer[2] = None;
        assert!(matches!(
            lock.check("exec_join", 1, 99, &fewer),
            Verdict::Mismatch(_)
        ));
    }

    #[test]
    fn fingerprints_see_every_part_of_a_query() {
        let fp = |seed: u64, reorder: bool| {
            let (c, mut q) = ofw_workload::random_query(&ofw_workload::RandomQueryConfig {
                num_relations: 5,
                extra_edges: 1,
                seed,
            });
            if reorder {
                q.order_by = vec![q.joins[0].right];
            }
            let mut h = Hasher64::default();
            hash_query(&mut h, &c, &q);
            h.finish()
        };
        assert_eq!(fp(3, false), fp(3, false));
        assert_ne!(fp(3, false), fp(4, false));
        assert_ne!(fp(3, false), fp(3, true));

        let spec = |families| {
            let mut h = Hasher64::default();
            hash_spec(
                &mut h,
                &ofw_workload::prep_spec(&ofw_workload::PrepSpecConfig::with_families(families)),
            );
            h.finish()
        };
        assert_eq!(spec(3), spec(3));
        assert_ne!(spec(3), spec(4));
    }
}
