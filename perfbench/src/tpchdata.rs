//! TPC-H plumbing shared by the `tpch-small` and `tpch-faults` workloads:
//! the six queries, the benchmark's own column uploads and
//! [`PlanBindings`], output digests, and answer checks against each
//! query's host `reference`.

use crate::check::Digest;
use gpu_sim::{Result, SimError};
use proto_core::backend::{Col, GpuBackend};
use proto_core::logical::LogicalPlan;
use proto_core::physical::{PhysicalPlan, PlanBindings, PlanOutput};
use std::collections::BTreeMap;
use tpch::queries::{close, q1, q14, q3, q4, q5, q6};
use tpch::Database;

/// A query's name and the function that returns its logical plan.
pub type Query = (&'static str, fn() -> LogicalPlan);

/// The studied queries, in report order.
pub const QUERIES: [Query; 6] = [
    ("Q1", q1::logical_plan),
    ("Q3", q3::logical_plan),
    ("Q4", q4::logical_plan),
    ("Q5", q5::logical_plan),
    ("Q6", q6::logical_plan),
    ("Q14", q14::logical_plan),
];

/// Whether `backend` can run query `q` at all: a join-bearing query
/// needs a join algorithm the backend supports (Table II rules out
/// ArrayFire).
pub fn supported(backend: &dyn GpuBackend, logical: &LogicalPlan) -> bool {
    !logical.contains_join() || proto_core::optimizer::best_join(backend).is_some()
}

/// A host column, borrowed from the database or derived from it.
enum HostCol<'a> {
    U32(std::borrow::Cow<'a, [u32]>),
    F64(&'a [f64]),
}

/// The host data behind the qualified plan column `name`.
fn host_column<'a>(db: &'a Database, name: &str) -> Option<HostCol<'a>> {
    use HostCol::{F64, U32};
    let (li, o, c) = (&db.lineitem, &db.orders, &db.customer);
    let u = |v: &'a Vec<u32>| U32(v.as_slice().into());
    Some(match name {
        "lineitem.orderkey" => u(&li.orderkey),
        "lineitem.partkey" => u(&li.partkey),
        "lineitem.suppkey" => u(&li.suppkey),
        "lineitem.shipdate" => u(&li.shipdate),
        "lineitem.commitdate" => u(&li.commitdate),
        "lineitem.receiptdate" => u(&li.receiptdate),
        // Q1's composite (returnflag, linestatus) group key, encoded at
        // load time exactly as `Q1Data::upload` does.
        "lineitem.groupkey" => U32(li
            .returnflag
            .iter()
            .zip(&li.linestatus)
            .map(|(&rf, &ls)| rf * 2 + ls)
            .collect::<Vec<u32>>()
            .into()),
        "lineitem.quantity" => F64(&li.quantity),
        "lineitem.extendedprice" => F64(&li.extendedprice),
        "lineitem.discount" => F64(&li.discount),
        "lineitem.tax" => F64(&li.tax),
        "orders.orderkey" => u(&o.orderkey),
        "orders.custkey" => u(&o.custkey),
        "orders.orderdate" => u(&o.orderdate),
        "orders.orderpriority" => u(&o.orderpriority),
        "customer.custkey" => u(&c.custkey),
        "customer.nationkey" => u(&c.nationkey),
        "customer.mktsegment" => u(&c.mktsegment),
        "supplier.suppkey" => u(&db.supplier.suppkey),
        "supplier.nationkey" => u(&db.supplier.nationkey),
        "nation.nationkey" => u(&db.nation.nationkey),
        "nation.regionkey" => u(&db.nation.regionkey),
        "part.partkey" => u(&db.part.partkey),
        "part.size" => u(&db.part.size),
        _ => return None,
    })
}

/// Device-resident base columns of one backend, by qualified name.
pub type Columns = BTreeMap<String, Col>;

/// Upload every base column the `plans` read to `backend`.
pub fn upload<'p>(
    backend: &dyn GpuBackend,
    db: &Database,
    plans: impl Iterator<Item = &'p PhysicalPlan>,
) -> Result<Columns> {
    let mut cols = Columns::new();
    for plan in plans {
        for name in plan.base_columns().keys() {
            if cols.contains_key(name) {
                continue;
            }
            let col = match host_column(db, name) {
                Some(HostCol::U32(v)) => backend.upload_u32(&v)?,
                Some(HostCol::F64(v)) => backend.upload_f64(v)?,
                None => {
                    return Err(SimError::Unsupported(format!(
                        "no host data for plan column `{name}`"
                    )))
                }
            };
            cols.insert(name.clone(), col);
        }
    }
    Ok(cols)
}

/// Bind the base columns `plan` reads.
pub fn bind<'a>(plan: &PhysicalPlan, cols: &'a Columns) -> Result<PlanBindings<'a>> {
    let mut binds = PlanBindings::new();
    for name in plan.base_columns().keys() {
        let col = cols
            .get(name)
            .ok_or_else(|| SimError::Unsupported(format!("column `{name}` not uploaded")))?;
        binds.bind(name, col);
    }
    Ok(binds)
}

/// Free every column of `cols`.
pub fn free(backend: &dyn GpuBackend, cols: Columns) -> Result<()> {
    cols.into_values().try_for_each(|c| backend.free(c))
}

/// Bit-exact digest of every named output of `plan` in `out`.
pub fn output_digest(plan: &PhysicalPlan, out: &PlanOutput) -> u64 {
    let mut d = Digest::default();
    for (name, _) in plan.outputs() {
        d = if let Ok(v) = out.scalar(name) {
            d.word(v.to_bits())
        } else if let Ok(v) = out.u32s(name) {
            d.u32s(v)
        } else if let Ok(v) = out.f64s(name) {
            d.f64s(v)
        } else {
            d.word(u64::MAX)
        };
    }
    d.finish()
}

/// Host reference answers of the six queries.
#[derive(Debug)]
pub struct References {
    q1: Vec<q1::Q1Row>,
    q3: Vec<q3::Q3Row>,
    q4: Vec<q4::Q4Row>,
    q5: Vec<q5::Q5Row>,
    q6: f64,
    q14: f64,
}

impl References {
    /// Compute every reference answer on the host.
    pub fn compute(db: &Database) -> Self {
        References {
            q1: q1::reference(db),
            q3: q3::reference(db),
            q4: q4::reference(db),
            q5: q5::reference(db),
            q6: q6::reference(db),
            q14: q14::reference(db),
        }
    }

    /// Whether `out`, the output of query `QUERIES[q]`, matches the
    /// reference: keys and counts exactly, aggregates within
    /// [`tpch::queries::close`]. Errors mean a missing or mistyped output.
    pub fn matches(&self, q: usize, out: &PlanOutput, db: &Database) -> Result<bool> {
        Ok(match QUERIES[q].0 {
            "Q1" => {
                let keys = out.u32s("keys")?;
                let [qty, base, disc_price, charge, disc, count] = [
                    "sum_qty",
                    "sum_base_price",
                    "sum_disc_price",
                    "sum_charge",
                    "sum_disc",
                    "count",
                ]
                .map(|n| out.f64s(n));
                let (qty, base, disc_price, charge, disc, count) =
                    (qty?, base?, disc_price?, charge?, disc?, count?);
                let n = self.q1.len();
                [qty, base, disc_price, charge, disc, count]
                    .iter()
                    .all(|v| v.len() == n)
                    && keys.len() == n
                    && self.q1.iter().enumerate().all(|(i, r)| {
                        keys[i] == r.returnflag * 2 + r.linestatus
                            && count[i] as u64 == r.count
                            && close(qty[i], r.sum_qty)
                            && close(base[i], r.sum_base_price)
                            && close(disc_price[i], r.sum_disc_price)
                            && close(charge[i], r.sum_charge)
                            && close(disc[i] / count[i], r.avg_disc)
                    })
            }
            "Q3" => {
                let (keys, revs) = (out.u32s("keys")?, out.f64s("revenue")?);
                let rows = q3_top10(keys, revs, db);
                keys.len() == revs.len()
                    && rows.len() == self.q3.len()
                    && rows.iter().zip(&self.q3).all(|(g, r)| {
                        (g.orderkey, g.orderdate, g.shippriority)
                            == (r.orderkey, r.orderdate, r.shippriority)
                            && close(g.revenue, r.revenue)
                    })
            }
            "Q4" => {
                let (keys, counts) = (out.u32s("keys")?, out.f64s("order_count")?);
                keys.len() == self.q4.len()
                    && counts.len() == keys.len()
                    && self
                        .q4
                        .iter()
                        .zip(keys.iter().zip(counts))
                        .all(|(r, (&k, &n))| r.priority == k && r.order_count == n as u64)
            }
            "Q5" => {
                let (keys, revs) = (out.u32s("keys")?, out.f64s("revenue")?);
                let mut got: Vec<(u32, f64)> =
                    keys.iter().copied().zip(revs.iter().copied()).collect();
                got.sort_by_key(|g| g.0);
                let mut want: Vec<(u32, f64)> =
                    self.q5.iter().map(|r| (r.nationkey, r.revenue)).collect();
                want.sort_by_key(|w| w.0);
                keys.len() == revs.len()
                    && got.len() == want.len()
                    && got
                        .iter()
                        .zip(&want)
                        .all(|(g, w)| g.0 == w.0 && close(g.1, w.1))
            }
            "Q6" => close(out.scalar("revenue")?, self.q6),
            "Q14" => {
                let (promo, total) = (out.scalar("promo_rev")?, out.scalar("total_rev")?);
                let ratio = if total == 0.0 {
                    0.0
                } else {
                    100.0 * promo / total
                };
                close(ratio, self.q14)
            }
            other => return Err(SimError::Unsupported(format!("unknown query {other}"))),
        })
    }
}

/// Q3's host-side decoration and LIMIT, as `Q3Data::execute_with` does
/// it: attach orderdate/shippriority, order by revenue desc, orderdate,
/// orderkey, keep ten.
fn q3_top10(keys: &[u32], revs: &[f64], db: &Database) -> Vec<q3::Q3Row> {
    let mut rows: Vec<q3::Q3Row> = keys
        .iter()
        .zip(revs)
        .map(|(&orderkey, &revenue)| {
            // Dense keys; an out-of-range key from a wrong answer
            // decorates as u32::MAX and fails the comparison.
            let row = (orderkey as usize).wrapping_sub(1);
            let at = |v: &[u32]| v.get(row).copied().unwrap_or(u32::MAX);
            q3::Q3Row {
                orderkey,
                revenue,
                orderdate: at(&db.orders.orderdate),
                shippriority: at(&db.orders.shippriority),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.revenue
            .total_cmp(&a.revenue)
            .then(a.orderdate.cmp(&b.orderdate))
            .then(a.orderkey.cmp(&b.orderkey))
    });
    rows.truncate(10);
    rows
}
