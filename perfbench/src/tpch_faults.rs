//! `tpch-faults`: the six queries at SF 0.01 through
//! `ResilientPlanExecutor` under a seeded 5% uniform fault plan, installed
//! after the working set is uploaded and one fault-free pass has recorded
//! every answer, and restarted at the start of every later pass. Q1/Q6/Q14 also run under a device-memory budget that
//! forces partitioned re-execution. Every faulted answer must be
//! bit-identical to the same backend's fault-free answer.

use crate::tpchdata::{self, Columns, References, QUERIES};
use crate::{timed, trace, Counters, Verdict, Workload};
use gpu_sim::{Device, DeviceSpec, FaultPlan, Result};
use proto_core::backend::GpuBackend;
use proto_core::framework::Framework;
use proto_core::optimizer;
use proto_core::physical::{PhysicalPlan, PlanOutput};
use proto_core::resilient::RetryPolicy;
use proto_core::resilient_plan::{
    PartitionSource, PlanRecovery, RecoveryEventKind, RecoveryLog, ResilientPlanExecutor,
};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;
use tpch::queries::{q1, q14, q6};
use tpch::Database;

/// TPC-H scale factor.
pub const SF: f64 = 0.01;
/// Probability that any fault site faults.
pub const FAULT_RATE: f64 = 0.05;
/// Seed of the fault schedule. It is fixed rather than taken from
/// `--seed`, and restarted every pass: retries make a pass's simulated and
/// host time heavy-tailed, so a schedule that changed from pass to pass
/// or seed to seed would dominate the run-to-run spread. `--seed` varies
/// the TPC-H data.
const FAULT_SEED: u64 = 0x5EED_FA17;
/// Retries per step: backoff is simulated time, so a deep ladder costs
/// no host time, and a multi-kernel step only completes when every call
/// in one attempt survives.
const MAX_RETRIES: u32 = 1_000;

/// The partition source of a partition-safe query, or `None`.
fn partition_source<'a>(query: &str, db: &'a Database) -> Option<PartitionSource<'a>> {
    match query {
        "Q1" => Some(q1::Q1Data::partition_source(db)),
        "Q6" => Some(q6::Q6Data::partition_source(db)),
        "Q14" => Some(q14::Q14Data::partition_source(db)),
        _ => None,
    }
}

/// One operation of the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    q: usize,
    b: usize,
    /// Run under the memory budget, partitioned.
    budgeted: bool,
}

/// The workload state of one set-up.
pub struct TpchFaults {
    db: Database,
    refs: Rc<References>,
    /// Passes begun so far.
    passes: usize,
    backends: Vec<Box<dyn GpuBackend>>,
    cols: Vec<Columns>,
    /// Heuristic plan per (query, backend); `None` where unsupported.
    plans: Vec<Vec<Option<PhysicalPlan>>>,
    mix: Vec<Entry>,
    whole: ResilientPlanExecutor,
    budget: ResilientPlanExecutor,
    /// Fault-free answer bits per pass entry, once recorded.
    clean: Vec<Option<u64>>,
    counters: Counters,
}

impl Drop for TpchFaults {
    fn drop(&mut self) {
        for (b, cols) in self.backends.iter().zip(&mut self.cols) {
            b.device().clear_fault_plan();
            let _ = tpchdata::free(b.as_ref(), std::mem::take(cols));
        }
    }
}

impl TpchFaults {
    /// Fold one execution's recovery journal into the counters.
    fn count(&mut self, log: Option<RecoveryLog>) {
        let Some(log) = log else { return };
        let c = &mut self.counters;
        let mut attempt = 0usize;
        let mut completed: HashSet<(usize, usize)> = HashSet::new();
        for e in &log.events {
            match &e.kind {
                RecoveryEventKind::AttemptStart => attempt += 1,
                RecoveryEventKind::Checkpoint { .. } => {
                    c.checkpoints += 1;
                    completed.insert((attempt, e.step));
                }
                RecoveryEventKind::Freed { .. } => {
                    completed.insert((attempt, e.step));
                }
                RecoveryEventKind::Retry { backoff_ns } => {
                    c.retries += 1;
                    c.step_attempts += 1;
                    c.backoff_ns += backoff_ns;
                }
                RecoveryEventKind::Fallback { .. } => c.fallbacks += 1,
                RecoveryEventKind::Partition { parts } => c.partitions += *parts as u64,
            }
        }
        c.steps += completed.len() as u64;
        c.step_attempts += completed.len() as u64;
    }
}

impl Workload for TpchFaults {
    type Inputs = Database;
    type Oracle = References;
    type Answer = PlanOutput;
    const GEN_LAYER: &'static str = "tpch";
    /// Set-up is cheap, so more repetitions steady its median.
    const SETUP_REPS: usize = 9;
    /// A fault-free pass, then the first faulted pass.
    const WARM_PASSES: usize = 2;
    const EXPECTS_FAULTS: bool = true;

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
        let retry = RetryPolicy {
            max_retries: MAX_RETRIES,
            ..RetryPolicy::default()
        };
        // About four partitions: the executor sizes chunks with an 8x
        // working-set slack over Q1's 40 B/row partition source.
        let budget = db.lineitem.len() as u64 * 80;
        let mut plans = Vec::new();
        let mut mix = Vec::new();
        for (q, (name, logical)) in QUERIES.iter().enumerate() {
            let logical = logical();
            let mut row = Vec::new();
            for (b, backend) in backends.iter().enumerate() {
                if !tpchdata::supported(backend.as_ref(), &logical) {
                    row.push(None);
                    continue;
                }
                row.push(Some(optimizer::plan(name, &logical, backend.as_ref())?));
                mix.push(Entry {
                    q,
                    b,
                    budgeted: false,
                });
                if partition_source(name, &db).is_some() {
                    mix.push(Entry {
                        q,
                        b,
                        budgeted: true,
                    });
                }
            }
            plans.push(row);
        }
        mix.sort_by_key(|e| (e.b, e.budgeted, e.q));
        let mut cols = Vec::new();
        for (b, backend) in backends.iter().enumerate() {
            let mine = plans.iter().filter_map(|row| row[b].as_ref());
            cols.push(tpchdata::upload(backend.as_ref(), &db, mine)?);
        }
        Ok(TpchFaults {
            clean: vec![None; mix.len()],
            whole: ResilientPlanExecutor::new(PlanRecovery {
                retry,
                ..PlanRecovery::default()
            }),
            budget: ResilientPlanExecutor::new(PlanRecovery {
                retry,
                mem_budget_bytes: Some(budget),
                ..PlanRecovery::default()
            }),
            counters: Counters::default(),
            db,
            refs,
            passes: 0,
            backends,
            cols,
            plans,
            mix,
        })
    }

    fn pass_len(&self) -> usize {
        self.mix.len()
    }

    fn exec(&mut self, i: usize) -> Result<PlanOutput> {
        let e = self.mix[i];
        let b = self.backends[e.b].as_ref();
        let plan = self.plans[e.q][e.b]
            .as_ref()
            .expect("mix holds planned entries");
        let (out, log) = {
            let _s = trace::span("executor", "");
            let binds = tpchdata::bind(plan, &self.cols[e.b])?;
            let (exec, out) = if e.budgeted {
                let src = partition_source(QUERIES[e.q].0, &self.db).expect("partition-safe");
                let out = self.budget.execute_partitionable(b, plan, &binds, &src);
                (&self.budget, out)
            } else {
                (&self.whole, self.whole.execute(b, plan, &binds))
            };
            (out, exec.take_log())
        };
        self.count(log);
        out
    }

    fn check(&mut self, i: usize, out: PlanOutput) -> Verdict {
        let e = self.mix[i];
        let plan = self.plans[e.q][e.b]
            .as_ref()
            .expect("mix holds planned entries");
        let digest = tpchdata::output_digest(plan, &out);
        let ok = match self.clean[i] {
            Some(clean) => clean == digest,
            None => {
                // The fault-free pass: record the answer once it matches
                // the host reference.
                let right = self.refs.matches(e.q, &out, &self.db).unwrap_or(false);
                if right {
                    self.clean[i] = Some(digest);
                }
                right
            }
        };
        Verdict { ok, digest }
    }

    fn begin_pass(&mut self) {
        // The first pass runs fault-free and records every answer; each
        // later pass restarts the same fault schedule.
        if self.passes > 0 {
            for (k, b) in self.backends.iter().enumerate() {
                let plan = FaultPlan::uniform(FAULT_SEED ^ k as u64, FAULT_RATE);
                b.device().install_fault_plan(plan);
            }
        }
        self.passes += 1;
    }

    fn devices(&self) -> Vec<Arc<Device>> {
        self.backends.iter().map(|b| b.device()).collect()
    }

    fn take_counters(&mut self) -> Counters {
        std::mem::take(&mut self.counters)
    }
}
