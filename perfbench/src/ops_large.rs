//! `ops-large`: the Table-II operators on 2^22-row device columns, called
//! directly on all four backends. Kernel bodies and backend adapters do
//! the work; the planner, executor, recovery layer and gpu-lint do none.
//! One operation is one operator call plus downloading and freeing its
//! outputs.

use crate::check::{is_sorted, multiset, Digest};
use crate::{timed, Verdict, Workload};
use gpu_sim::{Device, DeviceSpec, Result};
use proto_core::backend::{Col, GpuBackend, Pred};
use proto_core::framework::Framework;
use proto_core::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use proto_core::workload as gen;
use rand::prelude::*;
use std::rc::Rc;
use std::sync::Arc;
use tpch::queries::close;

/// Rows of every operator column (32 MiB as `f64`, 16 MiB as `u32`).
pub const ROWS: usize = 1 << 22;
/// Key domain of the uniform key columns: 2^20 distinct groups.
const KEY_DOMAIN: u32 = 1 << 20;
/// Literal selecting half the key domain.
const HALF: f64 = (KEY_DOMAIN / 2) as f64;
/// Groups of the skewed grouping column.
const ZIPF_GROUPS: usize = 64;
/// Zipf skew of the grouping column (the E6 setting).
const ZIPF_THETA: f64 = 0.5;
/// Foreign-key join sides, sized so no single join dominates the mix.
const JOIN_OUTER: usize = 1 << 18;
const JOIN_INNER: usize = 1 << 16;

/// The operators of one pass, per backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `k1 < 2^19`: 50% selectivity.
    Selection,
    /// `k1 < 2^19 ∧ k2 ≥ 2^19 ∧ k3 < 2^19`.
    SelectionMulti,
    /// Sort `k1`.
    Sort,
    /// Sort `(k1, v1)` by key.
    SortByKey,
    /// Grouped SUM of `v1` over 64 Zipf groups.
    GroupedSumZipf,
    /// Grouped SUM of `v1` over `k1`: 2^20 uniform groups.
    GroupedSumUniform,
    /// Grouped SUM and COUNT of `v2` over the Zipf groups.
    GroupedSumCount,
    /// Exclusive prefix sum of small values.
    PrefixSum,
    /// Gather `k1` at uniform random positions.
    Gather,
    /// Scatter `k1` through a random permutation.
    Scatter,
    /// `v1 · v2`.
    Product,
    /// SUM of `v1`.
    Reduction,
    /// Foreign-key equi join with the backend's best join algorithm.
    Join,
}

/// Every operator, in pass order.
pub const OPS: [Op; 13] = [
    Op::Selection,
    Op::SelectionMulti,
    Op::Sort,
    Op::SortByKey,
    Op::GroupedSumZipf,
    Op::GroupedSumUniform,
    Op::GroupedSumCount,
    Op::PrefixSum,
    Op::Gather,
    Op::Scatter,
    Op::Product,
    Op::Reduction,
    Op::Join,
];

impl Op {
    /// The Table-II row this operator exercises (`None` for the join,
    /// whose row depends on the algorithm).
    fn operator(self) -> Option<DbOperator> {
        Some(match self {
            Op::Selection => DbOperator::Selection,
            Op::SelectionMulti => DbOperator::ConjunctionDisjunction,
            Op::Sort => DbOperator::Sort,
            Op::SortByKey => DbOperator::SortByKey,
            Op::GroupedSumZipf | Op::GroupedSumUniform | Op::GroupedSumCount => {
                DbOperator::GroupedAggregation
            }
            Op::PrefixSum => DbOperator::PrefixSum,
            Op::Gather | Op::Scatter => DbOperator::ScatterGather,
            Op::Product => DbOperator::Product,
            Op::Reduction => DbOperator::Reduction,
            Op::Join => return None,
        })
    }
}

/// The pass: every (backend, operator) pair the backend supports, operator
/// major. Table-II "–" cells, and joins on a backend without any join
/// algorithm, are left out rather than counted as failures.
pub fn mix(backends: &[Box<dyn GpuBackend>]) -> Vec<(usize, Op)> {
    let mut mix = Vec::new();
    for op in OPS {
        for (bi, b) in backends.iter().enumerate() {
            let supported = match op.operator() {
                Some(row) => b.support(row) != Support::None,
                None => proto_core::optimizer::best_join(b.as_ref()).is_some(),
            };
            if supported {
                mix.push((bi, op));
            }
        }
    }
    mix
}

/// Generated host columns.
#[derive(Debug)]
pub struct Inputs {
    k1: Vec<u32>,
    k2: Vec<u32>,
    k3: Vec<u32>,
    zipf: Vec<u32>,
    small: Vec<u32>,
    gidx: Vec<u32>,
    perm: Vec<u32>,
    v1: Vec<f64>,
    v2: Vec<f64>,
    outer: Vec<u32>,
    inner: Vec<u32>,
}

/// Expected answers.
#[derive(Debug)]
pub struct Oracle {
    selection: u64,
    selection_multi: u64,
    sort: (u64, u64),
    sort_by_key: (u64, u64),
    zipf: Groups,
    uniform: Groups,
    zipf_count: Groups,
    prefix: u64,
    gather: u64,
    scatter: u64,
    product: u64,
    reduction: f64,
    outer: Vec<u32>,
    inner: Vec<u32>,
}

/// Host-computed grouped aggregate: ascending keys, sums, counts.
#[derive(Debug, Default, PartialEq)]
struct Groups {
    keys: Vec<u32>,
    sums: Vec<f64>,
    counts: Vec<f64>,
}

impl Groups {
    fn of(keys: &[u32], vals: &[f64], domain: usize) -> Groups {
        let mut sums = vec![0.0; domain];
        let mut counts = vec![0.0; domain];
        for (&k, &v) in keys.iter().zip(vals) {
            sums[k as usize] += v;
            counts[k as usize] += 1.0;
        }
        let mut g = Groups::default();
        for k in 0..domain {
            if counts[k] > 0.0 {
                g.keys.push(k as u32);
                g.sums.push(sums[k]);
                g.counts.push(counts[k]);
            }
        }
        g
    }

    /// Keys exact, sums within `close`, counts exact when given.
    fn matches(&self, keys: &[u32], sums: &[f64], counts: Option<&[f64]>) -> bool {
        keys == self.keys
            && sums.len() == self.sums.len()
            && sums.iter().zip(&self.sums).all(|(&a, &b)| close(a, b))
            && counts.is_none_or(|c| c == self.counts)
    }
}

/// Ids of rows where every `(column, cmp, literal)` holds.
fn select(preds: &[(&[u32], CmpOp, f64)]) -> Vec<u32> {
    (0..ROWS)
        .filter(|&i| {
            preds
                .iter()
                .all(|&(c, cmp, lit)| cmp.eval(f64::from(c[i]), lit))
        })
        .map(|i| i as u32)
        .collect()
}

/// One downloaded answer.
#[derive(Debug)]
pub enum Answer {
    /// A `u32` column.
    U32(Vec<u32>),
    /// An `f64` column.
    F64(Vec<f64>),
    /// Sorted pairs.
    Pairs(Vec<u32>, Vec<f64>),
    /// Group keys, sums and (for SUM+COUNT) counts.
    Groups(Vec<u32>, Vec<f64>, Option<Vec<f64>>),
    /// A scalar.
    Scalar(f64),
    /// Join match pairs `(outer row, inner row)`.
    Join(Vec<u32>, Vec<u32>),
}

/// One backend's device columns.
#[derive(Debug)]
struct Cols {
    k1: Col,
    k2: Col,
    k3: Col,
    zipf: Col,
    small: Col,
    gidx: Col,
    perm: Col,
    v1: Col,
    v2: Col,
    outer: Col,
    inner: Col,
}

/// The workload state of one set-up.
pub struct OpsLarge {
    backends: Vec<Box<dyn GpuBackend>>,
    cols: Vec<Option<Cols>>,
    mix: Vec<(usize, Op)>,
    oracle: Rc<Oracle>,
}

impl Drop for OpsLarge {
    fn drop(&mut self) {
        for (b, cols) in self.backends.iter().zip(&mut self.cols) {
            if let Some(c) = cols.take() {
                for col in [
                    c.k1, c.k2, c.k3, c.zipf, c.small, c.gidx, c.perm, c.v1, c.v2, c.outer, c.inner,
                ] {
                    let _ = b.free(col);
                }
            }
        }
    }
}

/// Download a `u32` column and free it.
fn take_u32(b: &dyn GpuBackend, col: Col) -> Result<Vec<u32>> {
    let v = b.download_u32(&col);
    b.free(col)?;
    v
}

/// Download an `f64` column and free it.
fn take_f64(b: &dyn GpuBackend, col: Col) -> Result<Vec<f64>> {
    let v = b.download_f64(&col);
    b.free(col)?;
    v
}

impl Workload for OpsLarge {
    type Inputs = Inputs;
    type Oracle = Oracle;
    type Answer = Answer;
    const GEN_LAYER: &'static str = "workload";

    fn generate(seed: u64) -> Inputs {
        let s = |k: u64| seed.wrapping_mul(0x9e37_79b9).wrapping_add(k);
        let mut perm: Vec<u32> = (0..ROWS as u32).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(s(7)));
        let (outer, inner) = gen::fk_join(JOIN_OUTER, JOIN_INNER, s(9));
        Inputs {
            k1: gen::uniform_u32(ROWS, KEY_DOMAIN, s(1)),
            k2: gen::uniform_u32(ROWS, KEY_DOMAIN, s(2)),
            k3: gen::uniform_u32(ROWS, KEY_DOMAIN, s(3)),
            zipf: gen::zipf_keys(ROWS, ZIPF_GROUPS, ZIPF_THETA, s(4)),
            small: gen::uniform_u32(ROWS, 16, s(5)),
            gidx: gen::uniform_u32(ROWS, ROWS as u32, s(6)),
            perm,
            v1: gen::uniform_f64(ROWS, s(10)),
            v2: gen::uniform_f64(ROWS, s(11)),
            outer,
            inner,
        }
    }

    fn oracle(i: &Inputs) -> Oracle {
        let digest_u32 = |v: &[u32]| Digest::default().u32s(v).finish();
        let mut prefix = Vec::with_capacity(ROWS);
        let mut acc = 0u32;
        for &x in &i.small {
            prefix.push(acc);
            acc += x;
        }
        let mut scattered = vec![0u32; ROWS];
        for (&x, &p) in i.k1.iter().zip(&i.perm) {
            scattered[p as usize] = x;
        }
        let gathered: Vec<u32> = i.gidx.iter().map(|&p| i.k1[p as usize]).collect();
        let product: Vec<f64> = i.v1.iter().zip(&i.v2).map(|(a, b)| a * b).collect();
        Oracle {
            selection: digest_u32(&select(&[(&i.k1, CmpOp::Lt, HALF)])),
            selection_multi: digest_u32(&select(&[
                (&i.k1, CmpOp::Lt, HALF),
                (&i.k2, CmpOp::Ge, HALF),
                (&i.k3, CmpOp::Lt, HALF),
            ])),
            sort: multiset(i.k1.iter().map(|&k| k.into())),
            sort_by_key: multiset(pairs(&i.k1, &i.v1)),
            zipf: Groups::of(&i.zipf, &i.v1, ZIPF_GROUPS),
            uniform: Groups::of(&i.k1, &i.v1, KEY_DOMAIN as usize),
            zipf_count: Groups::of(&i.zipf, &i.v2, ZIPF_GROUPS),
            prefix: digest_u32(&prefix),
            gather: digest_u32(&gathered),
            scatter: digest_u32(&scattered),
            product: Digest::default().f64s(&product).finish(),
            reduction: i.v1.iter().sum(),
            outer: i.outer.clone(),
            inner: i.inner.clone(),
        }
    }

    fn upload(i: Inputs, oracle: Rc<Oracle>, wrap: bool) -> Result<Self> {
        let spec = DeviceSpec::gtx1080();
        let backends: Vec<Box<dyn GpuBackend>> = proto_core::backends::PAPER_BACKENDS
            .iter()
            .map(|name| timed::maybe_wrap(Framework::single_backend(&spec, name), wrap))
            .collect();
        let mut w = OpsLarge {
            mix: mix(&backends),
            cols: Vec::new(),
            backends,
            oracle,
        };
        for b in &w.backends {
            let b = b.as_ref();
            w.cols.push(Some(Cols {
                k1: b.upload_u32(&i.k1)?,
                k2: b.upload_u32(&i.k2)?,
                k3: b.upload_u32(&i.k3)?,
                zipf: b.upload_u32(&i.zipf)?,
                small: b.upload_u32(&i.small)?,
                gidx: b.upload_u32(&i.gidx)?,
                perm: b.upload_u32(&i.perm)?,
                v1: b.upload_f64(&i.v1)?,
                v2: b.upload_f64(&i.v2)?,
                outer: b.upload_u32(&i.outer)?,
                inner: b.upload_u32(&i.inner)?,
            }));
        }
        Ok(w)
    }

    fn pass_len(&self) -> usize {
        self.mix.len()
    }

    fn exec(&mut self, i: usize) -> Result<Answer> {
        let (bi, op) = self.mix[i];
        let b = self.backends[bi].as_ref();
        let c = self.cols[bi].as_ref().expect("columns live until drop");
        Ok(match op {
            Op::Selection => Answer::U32(take_u32(b, b.selection(&c.k1, CmpOp::Lt, HALF)?)?),
            Op::SelectionMulti => {
                let pred = |col, cmp| Pred {
                    col,
                    cmp,
                    lit: HALF,
                };
                let preds = [
                    pred(&c.k1, CmpOp::Lt),
                    pred(&c.k2, CmpOp::Ge),
                    pred(&c.k3, CmpOp::Lt),
                ];
                Answer::U32(take_u32(b, b.selection_multi(&preds, Connective::And)?)?)
            }
            Op::Sort => Answer::U32(take_u32(b, b.sort(&c.k1)?)?),
            Op::SortByKey => {
                let (k, v) = b.sort_by_key(&c.k1, &c.v1)?;
                Answer::Pairs(take_u32(b, k)?, take_f64(b, v)?)
            }
            Op::GroupedSumZipf | Op::GroupedSumUniform => {
                let keys = if op == Op::GroupedSumZipf {
                    &c.zipf
                } else {
                    &c.k1
                };
                let (k, s) = b.grouped_sum(keys, &c.v1)?;
                Answer::Groups(take_u32(b, k)?, take_f64(b, s)?, None)
            }
            Op::GroupedSumCount => {
                let (k, s, n) = b.grouped_sum_count(&c.zipf, &c.v2)?;
                Answer::Groups(take_u32(b, k)?, take_f64(b, s)?, Some(take_f64(b, n)?))
            }
            Op::PrefixSum => Answer::U32(take_u32(b, b.prefix_sum(&c.small)?)?),
            Op::Gather => Answer::U32(take_u32(b, b.gather(&c.k1, &c.gidx)?)?),
            Op::Scatter => Answer::U32(take_u32(b, b.scatter(&c.k1, &c.perm, ROWS)?)?),
            Op::Product => Answer::F64(take_f64(b, b.product(&c.v1, &c.v2)?)?),
            Op::Reduction => Answer::Scalar(b.reduction(&c.v1)?),
            Op::Join => {
                let algo = proto_core::optimizer::best_join(b).unwrap_or(JoinAlgo::Hash);
                let (l, r) = b.join(&c.outer, &c.inner, algo)?;
                Answer::Join(take_u32(b, l)?, take_u32(b, r)?)
            }
        })
    }

    fn check(&mut self, i: usize, answer: Answer) -> Verdict {
        let o = &self.oracle;
        let op = self.mix[i].1;
        let d = Digest::default();
        let (ok, digest) = match (op, &answer) {
            (Op::Selection | Op::SelectionMulti, Answer::U32(v)) => {
                let want = if op == Op::Selection {
                    o.selection
                } else {
                    o.selection_multi
                };
                let got = d.u32s(v).finish();
                (got == want, got)
            }
            (Op::Sort, Answer::U32(v)) => (
                is_sorted(v) && multiset(v.iter().map(|&k| k.into())) == o.sort,
                d.u32s(v).finish(),
            ),
            (Op::SortByKey, Answer::Pairs(k, v)) => (
                k.len() == v.len() && is_sorted(k) && multiset(pairs(k, v)) == o.sort_by_key,
                d.u32s(k).f64s(v).finish(),
            ),
            (
                Op::GroupedSumZipf | Op::GroupedSumUniform | Op::GroupedSumCount,
                Answer::Groups(k, s, n),
            ) => {
                let want = match op {
                    Op::GroupedSumZipf => &o.zipf,
                    Op::GroupedSumUniform => &o.uniform,
                    _ => &o.zipf_count,
                };
                let counts = n.as_deref();
                let ok =
                    want.matches(k, s, counts) && counts.is_some() == (op == Op::GroupedSumCount);
                (ok, d.u32s(k).f64s(s).f64s(counts.unwrap_or(&[])).finish())
            }
            (Op::PrefixSum | Op::Gather | Op::Scatter, Answer::U32(v)) => {
                let want = match op {
                    Op::PrefixSum => o.prefix,
                    Op::Gather => o.gather,
                    _ => o.scatter,
                };
                let got = d.u32s(v).finish();
                (got == want, got)
            }
            (Op::Product, Answer::F64(v)) => {
                let got = d.f64s(v).finish();
                (got == o.product, got)
            }
            (Op::Reduction, Answer::Scalar(x)) => (close(*x, o.reduction), x.to_bits()),
            (Op::Join, Answer::Join(l, r)) => (
                join_ok(&o.outer, &o.inner, l, r),
                d.u32s(l).u32s(r).finish(),
            ),
            _ => (false, 0),
        };
        Verdict { ok, digest }
    }

    fn devices(&self) -> Vec<Arc<Device>> {
        self.backends.iter().map(|b| b.device()).collect()
    }
}

/// `(key, value bits)` pairs as mixable words.
fn pairs<'a>(k: &'a [u32], v: &'a [f64]) -> impl Iterator<Item = u64> + 'a {
    k.iter()
        .zip(v)
        .map(|(&k, &v)| crate::check::splitmix(v.to_bits()) ^ u64::from(k))
}

/// A foreign-key join answer: every outer row matches exactly once, the
/// pairs are in `(outer, inner)` order and each joins equal keys.
fn join_ok(outer: &[u32], inner: &[u32], l: &[u32], r: &[u32]) -> bool {
    l.len() == outer.len()
        && r.len() == l.len()
        && l.iter().enumerate().all(|(i, &o)| o as usize == i)
        && l.iter().zip(r).all(|(&o, &i)| {
            inner
                .get(i as usize)
                .is_some_and(|&k| outer[o as usize] == k)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsupported_operators_are_left_out_of_the_mix() {
        let spec = DeviceSpec::gtx1080();
        let backends: Vec<Box<dyn GpuBackend>> = proto_core::backends::PAPER_BACKENDS
            .iter()
            .map(|n| Framework::single_backend(&spec, n))
            .collect();
        let m = mix(&backends);
        let af = backends
            .iter()
            .position(|b| b.name() == "ArrayFire")
            .unwrap();
        // ArrayFire has no join algorithm (Table II); every other pair runs.
        assert!(!m.contains(&(af, Op::Join)));
        assert_eq!(m.len(), OPS.len() * backends.len() - 1);
        for (bi, op) in m {
            if let Some(row) = op.operator() {
                assert_ne!(backends[bi].support(row), Support::None);
            }
        }
    }

    #[test]
    fn join_check_counts_wrong_answers() {
        let (outer, inner) = (vec![2, 0, 1], vec![1, 2, 0]);
        assert!(join_ok(&outer, &inner, &[0, 1, 2], &[1, 2, 0]));
        assert!(!join_ok(&outer, &inner, &[0, 1, 2], &[1, 0, 2]));
        assert!(!join_ok(&outer, &inner, &[0, 1], &[1, 2]));
    }
}
