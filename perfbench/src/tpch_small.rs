//! `tpch-small`: Q1/Q3/Q4/Q5/Q6/Q14 at SF 0.001 on all four backends
//! under the three planner modes. The tables fit in CPU cache, so the
//! query stack's fixed costs show. One operation is four steps:
//!
//! 1. plan with `optimizer::plan_traced`;
//! 2. validate the rewrite trace with `gpu_lint::lint_translation`;
//! 3. run `PhysicalPlan::execute` over the benchmark's own bindings;
//! 4. check the answer against the query's host reference, and its bits
//!    against the first mode's answer for the same (query, backend).

use crate::tpchdata::{self, Columns, References, QUERIES};
use crate::{timed, trace, Counters, Verdict, Workload};
use gpu_sim::{Device, DeviceSpec, Result};
use proto_core::backend::GpuBackend;
use proto_core::costing::TableStats;
use proto_core::framework::Framework;
use proto_core::logical::LogicalPlan;
use proto_core::optimizer::{self, CostingOptions, FusionPolicy, PlannerOptions};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use tpch::Database;

/// TPC-H scale factor.
pub const SF: f64 = 0.001;

/// Planner modes, in pass order.
pub const MODES: [&str; 3] = ["heuristic", "fusion", "costing"];

/// Options of planner mode `MODES[m]`.
fn options(m: usize, spec: &DeviceSpec) -> PlannerOptions {
    match MODES[m] {
        "fusion" => PlannerOptions {
            fusion: FusionPolicy::on(),
            ..PlannerOptions::default()
        },
        "costing" => PlannerOptions {
            costing: Some(CostingOptions::new(spec, TableStats::new())),
            ..PlannerOptions::default()
        },
        _ => PlannerOptions::default(),
    }
}

/// One operation of the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    q: usize,
    b: usize,
    mode: usize,
}

/// The pass: every (query, backend, mode) the backend supports. A
/// join-bearing query on a backend without a join algorithm (ArrayFire,
/// Table II) is left out.
fn mix(backends: &[Box<dyn GpuBackend>], logical: &[LogicalPlan]) -> Vec<Entry> {
    let mut mix = Vec::new();
    for (q, l) in logical.iter().enumerate() {
        for (b, backend) in backends.iter().enumerate() {
            if tpchdata::supported(backend.as_ref(), l) {
                mix.extend((0..MODES.len()).map(|mode| Entry { q, b, mode }));
            }
        }
    }
    mix
}

/// The workload state of one set-up.
pub struct TpchSmall {
    db: Database,
    refs: Rc<References>,
    backends: Vec<Box<dyn GpuBackend>>,
    cols: Vec<Columns>,
    logical: Vec<LogicalPlan>,
    options: Vec<PlannerOptions>,
    mix: Vec<Entry>,
    /// Answer bits of the first run of each (query, backend).
    first: HashMap<(usize, usize), u64>,
    counters: Counters,
}

impl Drop for TpchSmall {
    fn drop(&mut self) {
        for (b, cols) in self.backends.iter().zip(&mut self.cols) {
            let _ = tpchdata::free(b.as_ref(), std::mem::take(cols));
        }
    }
}

impl Workload for TpchSmall {
    type Inputs = Database;
    type Oracle = References;
    type Answer = Verdict;
    const GEN_LAYER: &'static str = "tpch";
    /// Set-up is cheap, so more repetitions steady its median.
    const SETUP_REPS: usize = 9;

    fn generate(seed: u64) -> Database {
        tpch::generate_seeded(SF, seed)
    }

    fn oracle(db: &Database) -> References {
        References::compute(db)
    }

    fn upload(db: Database, refs: Rc<References>, wrap: bool) -> Result<Self> {
        let spec = DeviceSpec::gtx1080();
        let backends: Vec<Box<dyn GpuBackend>> = proto_core::backends::PAPER_BACKENDS
            .iter()
            .map(|name| timed::maybe_wrap(Framework::single_backend(&spec, name), wrap))
            .collect();
        let logical: Vec<LogicalPlan> = QUERIES.iter().map(|(_, l)| l()).collect();
        let options: Vec<PlannerOptions> = (0..MODES.len()).map(|m| options(m, &spec)).collect();
        let mut w = TpchSmall {
            mix: mix(&backends, &logical),
            cols: Vec::new(),
            first: HashMap::new(),
            counters: Counters::default(),
            db,
            refs,
            backends,
            logical,
            options,
        };
        for (bi, b) in w.backends.iter().enumerate() {
            let mut plans = Vec::new();
            for e in w.mix.iter().filter(|e| e.b == bi) {
                let (name, _) = QUERIES[e.q];
                plans.push(optimizer::plan_with(
                    name,
                    &w.logical[e.q],
                    b.as_ref(),
                    &w.options[e.mode],
                )?);
            }
            w.cols
                .push(tpchdata::upload(b.as_ref(), &w.db, plans.iter())?);
        }
        Ok(w)
    }

    fn pass_len(&self) -> usize {
        self.mix.len()
    }

    fn exec(&mut self, i: usize) -> Result<Verdict> {
        let e = self.mix[i];
        let b = self.backends[e.b].as_ref();
        let name = QUERIES[e.q].0;
        let (plan, traces) = {
            let _s = trace::span("optimizer", MODES[e.mode]);
            optimizer::plan_traced(name, &self.logical[e.q], b, &self.options[e.mode])?
        };
        let report = {
            let _s = trace::span("gpu_lint", "");
            let view = gpu_lint::phys_view(&plan, optimizer::supported_joins(b));
            gpu_lint::lint_translation(name, &traces, &view)
        };
        let out = {
            let _s = trace::span("executor", "");
            plan.execute(b, &tpchdata::bind(&plan, &self.cols[e.b])?)?
        };
        let _s = trace::span("check", "");
        let errors = report.errors() as u64;
        self.counters.lint_errors += errors;
        self.counters.steps += plan.steps().len() as u64;
        self.counters.step_attempts += plan.steps().len() as u64;
        let digest = tpchdata::output_digest(&plan, &out);
        let same_bits = *self.first.entry((e.q, e.b)).or_insert(digest) == digest;
        let right = self.refs.matches(e.q, &out, &self.db)?;
        Ok(Verdict {
            ok: errors == 0 && same_bits && right,
            digest,
        })
    }

    fn check(&mut self, _i: usize, verdict: Verdict) -> Verdict {
        verdict
    }

    fn devices(&self) -> Vec<Arc<Device>> {
        self.backends.iter().map(|b| b.device()).collect()
    }

    fn take_counters(&mut self) -> Counters {
        std::mem::take(&mut self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_queries_are_left_out_where_table_ii_has_no_join() {
        let spec = DeviceSpec::gtx1080();
        let backends: Vec<Box<dyn GpuBackend>> = proto_core::backends::PAPER_BACKENDS
            .iter()
            .map(|n| Framework::single_backend(&spec, n))
            .collect();
        let logical: Vec<LogicalPlan> = QUERIES.iter().map(|(_, l)| l()).collect();
        let m = mix(&backends, &logical);
        let af = backends
            .iter()
            .position(|b| b.name() == "ArrayFire")
            .unwrap();
        let af_queries: Vec<&str> = m
            .iter()
            .filter(|e| e.b == af && e.mode == 0)
            .map(|e| QUERIES[e.q].0)
            .collect();
        assert_eq!(af_queries, ["Q1", "Q6"]);
        assert_eq!(m.len(), (6 * 3 + 2) * MODES.len());
    }

    #[test]
    fn every_mode_answers_right_and_bit_equal_and_a_wrong_answer_fails() {
        let db = tpch::generate_seeded(SF, 3);
        let refs = Rc::new(References::compute(&db));
        let mut w = TpchSmall::upload(db, refs, true).unwrap();
        for i in 0..w.pass_len() {
            let v = w.exec(i).unwrap();
            assert!(v.ok, "{:?}", w.mix[i]);
        }
        assert_eq!(w.take_counters().lint_errors, 0);
        // A recorded first answer that differs makes every later run of
        // that (query, backend) a failure.
        let e = w.mix[0];
        w.first.insert((e.q, e.b), 0);
        assert!(!w.exec(0).unwrap().ok);
    }
}
