//! Per-layer metrics of the traced run: span aggregates, simulated-side
//! `DeviceStats` deltas, host allocator and page-fault counters, and the
//! workloads' own counters, all normalised per operation.

use crate::trace::{self, Span};
use crate::{host, timed, Counters};
use gpu_sim::{Device, DeviceStats};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Report {
    entries: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Append a metric. Non-finite values (a ratio over nothing) print 0.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name.into(), value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
                crate::json_str(name),
                crate::json_str(unit)
            );
        }
        out.push('}');
        out
    }
}

/// Host-side counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct HostCounters {
    minflt: u64,
    alloc: (u64, u64, u64),
}

/// Host-side counter changes over a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostDelta {
    hit_ratio: f64,
    evictions_per_op: f64,
    minor_faults_per_op: f64,
}

impl HostCounters {
    /// Read the counters now.
    pub fn now() -> Self {
        HostCounters {
            minflt: host::minor_faults(),
            alloc: gpu_sim::hostalloc::stats(),
        }
    }

    /// Changes since `before`, over `ops` operations.
    pub fn since(&self, before: &HostCounters, ops: usize) -> HostDelta {
        let ops = ops.max(1) as f64;
        let hits = self.alloc.0 - before.alloc.0;
        let misses = self.alloc.1 - before.alloc.1;
        HostDelta {
            hit_ratio: hits as f64 / (hits + misses) as f64,
            evictions_per_op: (self.alloc.2 - before.alloc.2) as f64 / ops,
            minor_faults_per_op: (self.minflt - before.minflt) as f64 / ops,
        }
    }
}

/// Simulated-side changes over the traced phase, summed over devices.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimDelta {
    total_ns: u64,
    launches: u64,
    kernel_ns: u64,
    jit_ns: u64,
    jit_compiles: u64,
    kernel_bytes: u64,
    transfer_bytes: u64,
    pool_hits: u64,
    allocs: u64,
    mem_peak: u64,
    faults: u64,
}

impl SimDelta {
    /// Deltas of `devices` since `stats0` / `sim0` (one per device).
    pub fn new(devices: &[Arc<Device>], stats0: &[DeviceStats], sim0: &[u64]) -> Self {
        let mut d = SimDelta::default();
        for ((dev, a), t0) in devices.iter().zip(stats0).zip(sim0) {
            let b = dev.stats();
            let transfers = |s: &DeviceStats| s.htod_bytes + s.dtoh_bytes + s.dtod_bytes;
            d.total_ns += dev.now().as_nanos() - t0;
            d.launches += b.total_launches() - a.total_launches();
            d.kernel_ns += b.total_kernel_time().as_nanos() - a.total_kernel_time().as_nanos();
            d.jit_ns += b.jit_time.0 - a.jit_time.0;
            d.jit_compiles += b.jit_compiles - a.jit_compiles;
            d.kernel_bytes += b.total_kernel_bytes() - a.total_kernel_bytes();
            d.transfer_bytes += transfers(&b) - transfers(a);
            d.pool_hits += b.pool_hits - a.pool_hits;
            d.allocs += b.allocs - a.allocs;
            d.mem_peak = d.mem_peak.max(b.mem_peak);
            d.faults += b.faults_injected - a.faults_injected;
        }
        d
    }
}

/// Everything [`per_layer`] reduces.
#[derive(Debug)]
pub struct Inputs<'a> {
    /// Spans of the traced phase.
    pub spans: &'a [Span],
    /// Operations in the traced phase.
    pub ops: usize,
    /// Workload counters over the traced phase.
    pub counters: Counters,
    /// Simulated-side deltas over the traced phase.
    pub sim: SimDelta,
    /// Host counters over the untraced phase.
    pub host: HostDelta,
    /// `workload` or `tpch`: the generator layer of this workload.
    pub gen_layer: &'static str,
    /// Median input-generation time per set-up, ms.
    pub gen_ms: f64,
    /// Oracle computation time, ms.
    pub oracle_ms: f64,
    /// Untraced over traced operations per second.
    pub overhead: f64,
}

/// Span totals of one name (and tag).
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    dur_ns: u64,
    self_ns: u64,
    count: u64,
}

/// Reduce the traced phase to the per-layer metrics, every one of them
/// present on every workload.
pub fn per_layer(inp: Inputs<'_>) -> Report {
    let self_ns = trace::self_times(inp.spans);
    let mut by_name: HashMap<&str, Agg> = HashMap::new();
    let mut by_name_tag: HashMap<(&str, &str), Agg> = HashMap::new();
    let mut by_backend: HashMap<&str, Agg> = HashMap::new();
    for (s, &own) in inp.spans.iter().zip(&self_ns) {
        let add = |a: &mut Agg| {
            a.dur_ns += s.dur_ns();
            a.self_ns += own;
            a.count += 1;
        };
        add(by_name.entry(s.name).or_default());
        add(by_name_tag.entry((s.name, s.tag)).or_default());
        if s.name.starts_with("backend.") {
            add(by_backend.entry(s.tag).or_default());
        }
    }
    let name = |n: &str| by_name.get(n).copied().unwrap_or_default();
    let ops = inp.ops.max(1) as f64;
    let op_ns = name("op").dur_ns as f64;
    let c = inp.counters;
    let sim = inp.sim;
    let mut r = Report::default();

    let plan = name("optimizer");
    r.push("optimizer.plan_us", plan.dur_ns as f64 / 1e3 / ops, "us/op");
    for mode in crate::tpch_small::MODES {
        let a = by_name_tag
            .get(&("optimizer", mode))
            .copied()
            .unwrap_or_default();
        let mean_us = a.dur_ns as f64 / 1e3 / a.count.max(1) as f64;
        r.push(format!("optimizer.plan_us.{mode}"), mean_us, "us");
    }
    r.push("optimizer.plan_share", plan.dur_ns as f64 / op_ns, "ratio");

    let lint = name("gpu_lint");
    r.push(
        "gpu_lint.validate_us",
        lint.dur_ns as f64 / 1e3 / ops,
        "us/op",
    );
    r.push("gpu_lint.share", lint.dur_ns as f64 / op_ns, "ratio");
    r.push("gpu_lint.errors", c.lint_errors as f64, "count");

    r.push(
        "executor.self_us",
        name("executor").self_ns as f64 / 1e3 / ops,
        "us/op",
    );
    r.push("executor.steps_per_op", c.steps as f64 / ops, "1/op");

    for b in proto_core::backends::PAPER_BACKENDS {
        let a = by_backend.get(b).copied().unwrap_or_default();
        r.push(
            format!("backend.{b}.self_ms"),
            a.self_ns as f64 / 1e6 / ops,
            "ms/op",
        );
    }
    let mut calls = 0;
    for m in timed::METHODS {
        let a = by_name
            .get(format!("backend.{m}").as_str())
            .copied()
            .unwrap_or_default();
        calls += a.count;
        r.push(
            format!("backend.{m}.self_ms"),
            a.self_ns as f64 / 1e6 / ops,
            "ms/op",
        );
        r.push(format!("backend.{m}.calls"), a.count as f64 / ops, "1/op");
    }
    r.push("backend.calls_per_op", calls as f64 / ops, "1/op");

    let ms = |ns: u64| ns as f64 / 1e6 / ops;
    let mb = |bytes: u64| bytes as f64 / (1 << 20) as f64 / ops;
    r.push("gpusim.launches_per_op", sim.launches as f64 / ops, "1/op");
    r.push("gpusim.kernel_sim_ms", ms(sim.kernel_ns), "ms/op");
    r.push("gpusim.jit_sim_ms", ms(sim.jit_ns), "ms/op");
    r.push("gpusim.jit_compiles", sim.jit_compiles as f64 / ops, "1/op");
    let other = sim.total_ns.saturating_sub(sim.kernel_ns + sim.jit_ns);
    r.push("gpusim.other_sim_ms", ms(other), "ms/op");
    r.push("gpusim.kernel_mb_per_op", mb(sim.kernel_bytes), "MiB/op");
    r.push("gpusim.transfer_mb", mb(sim.transfer_bytes), "MiB/op");
    let pool = sim.pool_hits as f64 / (sim.pool_hits + sim.allocs) as f64;
    r.push("gpusim.pool_hit_ratio", pool, "ratio");
    r.push(
        "gpusim.mem_peak_mb",
        sim.mem_peak as f64 / (1 << 20) as f64,
        "MiB",
    );
    r.push("gpusim.faults_injected", sim.faults as f64 / ops, "1/op");

    r.push("hostalloc.hit_ratio", inp.host.hit_ratio, "ratio");
    r.push("hostalloc.evictions", inp.host.evictions_per_op, "1/op");
    r.push(
        "host.minor_faults_per_op",
        inp.host.minor_faults_per_op,
        "1/op",
    );

    r.push("recovery.retries_per_op", c.retries as f64 / ops, "1/op");
    r.push(
        "recovery.checkpoints_per_op",
        c.checkpoints as f64 / ops,
        "1/op",
    );
    r.push("recovery.partitions", c.partitions as f64 / ops, "1/op");
    r.push("recovery.fallbacks", c.fallbacks as f64 / ops, "1/op");
    r.push("recovery.backoff_sim_ms", ms(c.backoff_ns), "ms/op");
    // No step attempts means nothing was wasted.
    let useful = if c.step_attempts == 0 {
        1.0
    } else {
        c.steps as f64 / c.step_attempts as f64
    };
    r.push("recovery.useful_attempt_ratio", useful, "ratio");

    let tpch = inp.gen_layer == "tpch";
    r.push("tpch.gen_ms", if tpch { inp.gen_ms } else { 0.0 }, "ms");
    r.push(
        "tpch.reference_ms",
        if tpch { inp.oracle_ms } else { 0.0 },
        "ms",
    );
    r.push("workload.gen_ms", if tpch { 0.0 } else { inp.gen_ms }, "ms");

    r.push("trace.overhead_ratio", inp.overhead, "ratio");
    r.push(
        "other.self_us",
        name("op").self_ns as f64 / 1e3 / ops,
        "us/op",
    );
    r
}

/// Write the traced phase's spans to
/// `.perfbench_out/spans-<workload>-seed<seed>.csv` in the working
/// directory. A failure to write is reported, not fatal.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) {
    let dir = std::path::Path::new(".perfbench_out");
    let path = dir.join(format!("spans-{workload}-seed{seed}.csv"));
    let result = std::fs::create_dir_all(dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "op,name,tag,start_ns,end_ns,parent")?;
        for s in spans {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                f,
                "{},{},{},{},{},{parent}",
                s.op, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    });
    match result {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
