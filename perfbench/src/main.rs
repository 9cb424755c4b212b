//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ops-large|tpch-small|tpch-faults> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client issues operations one after another, each only
//! after the previous one has completed; host kernel bodies use at most
//! `gpu_sim::hostexec::host_threads()` threads. Set-up (generate inputs,
//! upload, warm up) runs [`Workload::SETUP_REPS`] times and reports the
//! median;
//! the correctness oracle is computed once, outside set-up and the timed
//! region. Every answer is checked. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`, where a traced run times calls into each layer from the
//! benchmark's side and writes its spans to `.perfbench_out/`.

mod check;
mod host;
mod layers;
mod ops_large;
mod stats;
mod timed;
mod tpch_faults;
mod tpch_small;
mod tpchdata;
mod trace;

use gpu_sim::{Device, DeviceStats};
use stats::{Tally, MIN_SAMPLES};
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of checking one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The answer was right.
    pub ok: bool,
    /// Bit-exact fingerprint of the answer.
    pub digest: u64,
}

/// Counters a workload keeps about the layers it drives; the runner
/// resets them around the traced phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// GL7xx translation-validation errors.
    pub lint_errors: u64,
    /// Plan steps completed (all attempts, partitions included).
    pub steps: u64,
    /// Plan step attempts, completed or failed.
    pub step_attempts: u64,
    /// Step retries after a fault.
    pub retries: u64,
    /// Slot checkpoints taken.
    pub checkpoints: u64,
    /// Partitioned re-executions, counted in partitions.
    pub partitions: u64,
    /// Backend fallbacks.
    pub fallbacks: u64,
    /// Simulated backoff charged before retries, nanoseconds.
    pub backoff_ns: u64,
}

/// One benchmark workload: a fixed pass of operations over inputs
/// generated from a seed.
pub trait Workload: Sized {
    /// Generated host inputs.
    type Inputs;
    /// Expected answers, computed once per run outside timing.
    type Oracle;
    /// What one operation returns for checking.
    type Answer;
    /// Layer whose generator makes the inputs (`workload` or `tpch`).
    const GEN_LAYER: &'static str;
    /// Set-up repetitions per run (at least 2). Repetition 0 runs plain
    /// backends and repetition 1 the same backends behind
    /// [`timed::TimedBackend`]; every repetition's warm-up must agree with
    /// repetition 0 bit for bit. The last repetition is measured.
    const SETUP_REPS: usize = 3;
    /// Passes run during set-up to warm caches and pools.
    const WARM_PASSES: usize = 1;
    /// The run is only correct if the devices injected faults.
    const EXPECTS_FAULTS: bool = false;

    /// Generate the inputs for `seed`.
    fn generate(seed: u64) -> Self::Inputs;
    /// Compute the expected answers.
    fn oracle(inputs: &Self::Inputs) -> Self::Oracle;
    /// Build the backends (behind the timing wrapper when `wrap`) and
    /// upload the inputs.
    fn upload(inputs: Self::Inputs, oracle: Rc<Self::Oracle>, wrap: bool) -> gpu_sim::Result<Self>;
    /// Operations in one pass.
    fn pass_len(&self) -> usize;
    /// Run operation `i` of the pass: the timed region.
    fn exec(&mut self, i: usize) -> gpu_sim::Result<Self::Answer>;
    /// Check the answer of operation `i`, outside the timed region.
    fn check(&mut self, i: usize, answer: Self::Answer) -> Verdict;
    /// Called before every pass, warm-up and timed alike.
    fn begin_pass(&mut self) {}
    /// The simulated devices, one per backend.
    fn devices(&self) -> Vec<Arc<Device>>;
    /// Counters since the last call.
    fn take_counters(&mut self) -> Counters {
        Counters::default()
    }
}

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "ops-large" => run::<ops_large::OpsLarge>(&args),
        "tpch-small" => run::<tpch_small::TpchSmall>(&args),
        "tpch-faults" => run::<tpch_faults::TpchFaults>(&args),
        other => Err(format!(
            "unknown workload `{other}` (ops-large, tpch-small, tpch-faults)"
        )),
    };
    match result {
        Ok(line) => {
            println!("# env {}", host::env_json());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one set-up repetition produced.
struct Setup<W> {
    workload: W,
    gen_s: f64,
    total_s: f64,
    warm: Tally,
    fingerprint: Fingerprint,
}

/// Answers, device counters and simulated clocks after the warm-up.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    digests: Vec<u64>,
    stats: Vec<DeviceStats>,
    sim_ns: Vec<u64>,
}

/// One set-up repetition: generate, upload, warm up. The oracle is
/// computed on the first repetition, outside the set-up time.
fn set_up<W: Workload>(
    seed: u64,
    wrap: bool,
    oracle: &mut Option<(Rc<W::Oracle>, f64)>,
) -> Result<Setup<W>, String> {
    let t0 = Instant::now();
    let inputs = W::generate(seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let (oracle, _) = oracle.get_or_insert_with(|| {
        let t = Instant::now();
        let o = Rc::new(W::oracle(&inputs));
        (o, t.elapsed().as_secs_f64())
    });
    let t1 = Instant::now();
    let mut w = W::upload(inputs, oracle.clone(), wrap).map_err(|e| format!("upload: {e}"))?;
    let mut warm = Tally::default();
    let mut digests = Vec::new();
    // Answer checks are the benchmark's own work: kept out of set-up time.
    let mut check_s = 0.0;
    for _ in 0..W::WARM_PASSES {
        w.begin_pass();
        for i in 0..w.pass_len() {
            let answer = w.exec(i);
            let t = Instant::now();
            let v = match answer {
                Ok(a) => w.check(i, a),
                Err(_) => Verdict {
                    ok: false,
                    digest: 0,
                },
            };
            check_s += t.elapsed().as_secs_f64();
            warm.record(v.ok);
            digests.push(v.digest);
        }
    }
    let total_s = gen_s + t1.elapsed().as_secs_f64() - check_s;
    let devices = w.devices();
    let fingerprint = Fingerprint {
        digests,
        stats: devices.iter().map(|d| d.stats()).collect(),
        sim_ns: devices.iter().map(|d| d.now().as_nanos()).collect(),
    };
    Ok(Setup {
        workload: w,
        gen_s,
        total_s,
        warm,
        fingerprint,
    })
}

/// Share of each operation's runs, fastest first, that the host-time
/// metrics are taken over.
const QUIET_SHARE: f64 = 0.1;

/// Samples of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Host latency of every operation in issue order, milliseconds; run
    /// `k` of operation `i` is `lat_ms[k * pass_len + i]`.
    pub lat_ms: Vec<f64>,
    /// Host seconds and simulated nanoseconds of each whole pass.
    pub passes: Vec<(f64, u64)>,
    /// Operations per pass.
    pub pass_len: usize,
    /// Attempted and failed operations.
    pub tally: Tally,
}

impl Phase {
    /// Quiet runs kept per operation: the fastest [`QUIET_SHARE`] of its
    /// runs, widened so all operations together keep [`MIN_SAMPLES`].
    fn quiet_runs(&self) -> usize {
        let runs = self.passes.len();
        let by_share = (runs as f64 * QUIET_SHARE).ceil() as usize;
        let by_samples = MIN_SAMPLES.div_ceil(self.pass_len.max(1));
        by_share.max(by_samples).min(runs)
    }

    /// Host latencies of the quiet runs, ascending: each operation's
    /// [`Phase::quiet_runs`] fastest. Every pass runs the same operations
    /// on the same inputs (and `tpch-faults` the same fault schedule), so
    /// the runs of one operation differ in host time only by what the host
    /// did meanwhile. On a shared host, other tenants slow the cores by up
    /// to half for seconds to minutes at a time; the quiet runs are those
    /// they slowed least.
    pub fn quiet_lat_ms(&self) -> Vec<f64> {
        let (len, keep) = (self.pass_len, self.quiet_runs());
        let mut quiet = Vec::with_capacity(len * keep);
        for i in 0..len {
            let mut runs: Vec<f64> = self.lat_ms.iter().skip(i).step_by(len).copied().collect();
            runs.sort_by(f64::total_cmp);
            quiet.extend_from_slice(&runs[..keep]);
        }
        quiet.sort_by(f64::total_cmp);
        quiet
    }

    /// Operations completed per host second of operation time, over the
    /// quiet runs.
    pub fn ops_per_s(&self) -> f64 {
        let lat = self.quiet_lat_ms();
        lat.len() as f64 * 1e3 / lat.iter().sum::<f64>().max(1e-12)
    }

    /// Simulated device milliseconds per operation: the median over
    /// passes, so the heavy tail of fault backoff does not dominate.
    pub fn sim_ms_per_op(&self) -> f64 {
        let per_op: Vec<f64> = self
            .passes
            .iter()
            .map(|&(_, sim_ns)| sim_ns as f64 / 1e6 / self.pass_len.max(1) as f64)
            .collect();
        stats::median(&per_op)
    }
}

/// Run whole passes for at least `seconds` and [`MIN_SAMPLES`]
/// operations. `next_op` numbers the operations across phases.
fn measure<W: Workload>(w: &mut W, seconds: f64, next_op: &mut u64) -> Phase {
    let devices = w.devices();
    let sim_now = || devices.iter().map(|d| d.now().as_nanos()).sum::<u64>();
    let mut phase = Phase {
        pass_len: w.pass_len(),
        ..Phase::default()
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget || phase.lat_ms.len() < MIN_SAMPLES {
        let (mut busy_s, mut sim_ns) = (0.0, 0);
        w.begin_pass();
        for i in 0..phase.pass_len {
            trace::set_op(*next_op);
            *next_op += 1;
            let sim0 = sim_now();
            let t = Instant::now();
            let answer = {
                let _op = trace::span("op", "");
                w.exec(i)
            };
            let dt = t.elapsed().as_secs_f64();
            sim_ns += sim_now() - sim0;
            busy_s += dt;
            phase.lat_ms.push(dt * 1e3);
            let ok = match answer {
                Ok(a) => w.check(i, a).ok,
                Err(_) => false,
            };
            phase.tally.record(ok);
        }
        phase.passes.push((busy_s, sim_ns));
    }
    phase
}

/// Sum of `faults_injected` over `devices`.
fn faults(devices: &[Arc<Device>]) -> u64 {
    devices.iter().map(|d| d.stats().faults_injected).sum()
}

fn run<W: Workload>(args: &Args) -> Result<String, String> {
    let mut oracle: Option<(Rc<W::Oracle>, f64)> = None;
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut first: Option<Fingerprint> = None;
    let mut measured: Option<W> = None;
    for rep in 0..W::SETUP_REPS {
        let last = rep + 1 == W::SETUP_REPS;
        // Repetition 1 is the wrapped self-check; the measured repetition
        // is wrapped only for the traced run.
        let wrap = rep == 1 || (last && args.trace);
        trace::enable(rep == 1 && args.trace);
        let s = set_up::<W>(args.seed, wrap, &mut oracle)?;
        trace::enable(false);
        trace::take();
        setup_s.push(s.total_s);
        gen_s.push(s.gen_s);
        if s.warm.failed > 0 {
            problems.push(format!(
                "set-up {rep}: {} of {} warm-up answers wrong",
                s.warm.failed, s.warm.attempted
            ));
        }
        match &first {
            None => first = Some(s.fingerprint),
            Some(f) if *f != s.fingerprint => problems.push(format!(
                "set-up {rep} disagrees with set-up 0 on answers, device stats or simulated \
                 time (wrapped: {wrap})"
            )),
            Some(_) => {}
        }
        if last {
            measured = Some(s.workload);
        }
        // Earlier repetitions drop here, before the next one allocates.
    }
    let mut w = measured.ok_or("no set-up repetition ran")?;
    let (_, oracle_s) = oracle.ok_or("no oracle")?;
    let devices = w.devices();
    let faults_before = faults(&devices);
    let mut next_op = 0u64;
    let mut body = layers::Report::default();
    let tally;
    if args.trace {
        let host0 = layers::HostCounters::now();
        let untraced = measure(&mut w, args.seconds / 2.0, &mut next_op);
        let host = layers::HostCounters::now().since(&host0, untraced.lat_ms.len());
        let stats0: Vec<DeviceStats> = devices.iter().map(|d| d.stats()).collect();
        let sim0: Vec<u64> = devices.iter().map(|d| d.now().as_nanos()).collect();
        w.take_counters();
        trace::enable(true);
        let traced = measure(&mut w, args.seconds / 2.0, &mut next_op);
        trace::enable(false);
        let spans = trace::take();
        let counters = w.take_counters();
        let sim = layers::SimDelta::new(&devices, &stats0, &sim0);
        let gen_ms = stats::median(&gen_s) * 1e3;
        body = layers::per_layer(layers::Inputs {
            spans: &spans,
            ops: traced.lat_ms.len(),
            counters,
            sim,
            host,
            gen_layer: W::GEN_LAYER,
            gen_ms,
            oracle_ms: oracle_s * 1e3,
            overhead: untraced.ops_per_s() / traced.ops_per_s(),
        });
        layers::write_spans(&args.workload, args.seed, &spans);
        tally = Tally {
            attempted: untraced.tally.attempted + traced.tally.attempted,
            failed: untraced.tally.failed + traced.tally.failed,
        };
        eprintln!(
            "perfbench: {} untraced + {} traced operations",
            untraced.lat_ms.len(),
            traced.lat_ms.len()
        );
    } else {
        let phase = measure(&mut w, args.seconds, &mut next_op);
        let lat = phase.quiet_lat_ms();
        let n = lat.len();
        body.push("setup_s", stats::median(&setup_s), "s");
        body.push("ops_per_s", phase.ops_per_s(), "1/s");
        body.push("op_p50_ms", stats::smoothed_percentile(&lat, 50.0), "ms");
        body.push("op_p90_ms", stats::smoothed_percentile(&lat, 90.0), "ms");
        body.push("sim_ms_per_op", phase.sim_ms_per_op(), "ms");
        body.push("ok_ratio", phase.tally.ok_ratio(), "ratio");
        body.push("peak_rss_mb", host::peak_rss_mb(), "MiB");
        let top = stats::highest_percentile(n).map_or("none".into(), |p| format!("p{p}"));
        println!(
            "# {}: {n} samples, the {} quiet of {} runs of each operation (highest \
             percentile with >=10 beyond: {top}), set-up {:?} s",
            args.workload,
            phase.quiet_runs(),
            phase.passes.len(),
            setup_s
        );
        tally = phase.tally;
    }
    if W::EXPECTS_FAULTS && faults(&devices) == faults_before {
        problems.push("no faults were injected during the timed phase".into());
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let correct = tally.failed == 0 && problems.is_empty();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        body.to_json()
    ))
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase of `busy.len()` passes of `pass_len` operations, each
    /// operation taking its pass's share of the pass time.
    fn phase(pass_len: usize, busy: &[f64]) -> Phase {
        Phase {
            lat_ms: busy
                .iter()
                .flat_map(|&b| std::iter::repeat(b * 1e3 / pass_len as f64).take(pass_len))
                .collect(),
            passes: busy.iter().map(|&b| (b, 0)).collect(),
            pass_len,
            tally: Tally::default(),
        }
    }

    #[test]
    fn host_metrics_come_from_each_operations_fastest_tenth() {
        // 30 passes of 50 operations: a tenth is 3 runs per operation,
        // already 150 >= MIN_SAMPLES samples. Operation 0 is fastest in
        // passes 0-2, every other operation in passes 27-29.
        let mut p = phase(50, &[2.0; 30]);
        for k in 0..3 {
            p.lat_ms[k * 50] = 10.0;
        }
        for k in 27..30 {
            for i in 1..50 {
                p.lat_ms[k * 50 + i] = 20.0;
            }
        }
        assert_eq!(p.quiet_runs(), 3);
        let lat = p.quiet_lat_ms();
        assert_eq!(lat.len(), 150);
        assert_eq!((lat[0], lat[3], lat[149]), (10.0, 20.0, 20.0));
        assert_eq!(p.ops_per_s(), 150.0 * 1e3 / (3.0 * 10.0 + 147.0 * 20.0));
    }

    #[test]
    fn quiet_runs_widen_to_the_minimum_sample_count() {
        // 4 passes of 30 operations: 100 samples need all 4 runs.
        assert_eq!(phase(30, &[4.0, 1.0, 3.0, 2.0]).quiet_runs(), 4);
        // 5 passes of 51 operations: 2 runs each.
        assert_eq!(phase(51, &[1.0; 5]).quiet_runs(), 2);
        // 1 pass: all there is.
        assert_eq!(phase(30, &[1.0]).quiet_runs(), 1);
    }
}
