//! The many-walks benchmark: one command, three workloads, a byte
//! oracle on every output, and a separate traced run for the per-layer
//! metrics. See `README.md` beside this crate for the workloads and the
//! layer → end-to-end mapping.
//!
//! ```text
//! perfbench --mrw PATH --work-dir DIR --rustc VERSION \
//!           --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Normally started through `python3 perfbench/run.py`, which builds the
//! `mrw` binary and this crate first.

#![forbid(unsafe_code)]

mod engine_sweep;
mod fanout_small;
mod host;
mod layers;
mod serve_mix;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use mrw_core::query::spec_hash;
use stats::percentile;

pub const WORKLOADS: [&str; 3] = ["engine-sweep", "fanout-small", "serve-mix"];

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Requests a timed phase completes at least, so `p90` has ten
    /// samples beyond it.
    pub min_requests: usize,
    pub mrw: PathBuf,
    /// Per-run scratch directory inside the checkout, removed at exit.
    pub tmp: PathBuf,
}

/// Oracle checks: `failed ÷ attempted` is the run's error rate.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// A copy of a real output with one byte flipped, for the self-test:
/// each workload pushes it through the same check that feeds its tally,
/// with a scratch [`Tally`] that must record the failure.
pub fn flipped(sample: &[u8]) -> Vec<u8> {
    let mut out = sample.to_vec();
    if let Some(b) = out.get_mut(sample.len() / 2) {
        *b ^= 0x01;
    }
    out
}

/// A workload's result: metrics plus the notes printed above the JSON.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    pub samples: Vec<(String, usize)>,
    /// Every checked report's bytes, in a canonical order; printed as
    /// an FNV-1a digest so two runs at one seed can be compared.
    pub reports: String,
    /// True when the flipped-byte self-test was caught by every
    /// workload's own checks.
    pub selftest_ok: bool,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The end-to-end metrics every workload reports, from its timed
    /// phase: set-up samples, engine steps and requests completed in
    /// `wall_s` seconds, and a peak resident set.
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        steps: u128,
        wall_s: f64,
        latencies_ms: &[f64],
        rss_kib: u64,
    ) {
        let s = stats::sorted(latencies_ms);
        self.samples.push(("setup".into(), setup_s.len()));
        self.samples.push(("latency".into(), s.len()));
        self.metric("setup_s", stats::median(setup_s), "s");
        self.metric("steps_per_s", steps as f64 / wall_s, "steps/s");
        self.metric("requests_per_s", s.len() as f64 / wall_s, "req/s");
        self.metric("p50_ms", percentile(&s, 500), "ms");
        self.metric("p90_ms", percentile(&s, 900), "ms");
        self.metric("peak_rss_mb", rss_kib as f64 / 1024.0, "MiB");
        if stats::beyond(s.len(), 900) < stats::MIN_BEYOND {
            self.tally.check(false, || {
                format!("{} latencies leave fewer than 10 beyond p90", s.len())
            });
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    mrw: PathBuf,
    work_dir: PathBuf,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut mrw, mut work_dir, mut rustc) = (None, None, String::from("unknown"));
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--mrw" => mrw = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--rustc" => rustc = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} ({})",
            WORKLOADS.join(" | ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        mrw: mrw.ok_or("--mrw is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        rustc,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn run(args: &Args, ctx: &Ctx) -> Result<Outcome, String> {
    if args.trace {
        layers::run(ctx, &args.work_dir, &args.workload)
    } else {
        match args.workload.as_str() {
            "engine-sweep" => engine_sweep::e2e(ctx),
            "fanout-small" => fanout_small::e2e(ctx),
            _ => serve_mix::e2e(ctx),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.mrw.is_file() {
        eprintln!("perfbench: no mrw binary at {}", args.mrw.display());
        return ExitCode::from(2);
    }
    let tmp = args.work_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        min_requests: 100,
        mrw: args.mrw.clone(),
        tmp: tmp.clone(),
    };
    let result = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&tmp);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    for note in &out.notes {
        println!("{note}");
    }
    for f in &out.tally.failures {
        println!("FAILED: {f}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<44} {value:>16.6} {unit}");
    }
    let (nproc, model, l2, l3) = host::fingerprint();
    let error_rate = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    println!(
        "error_rate {error_rate} ({} failed of {} checks); flipped-byte self-test {}",
        out.tally.failed,
        out.tally.attempted,
        if out.selftest_ok { "caught" } else { "MISSED" }
    );
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, n)| format!("{}:{n}", json_str(k)))
        .collect();
    println!(
        "perfbench-meta {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"cpu\":{},\"l2\":{},\"l3\":{},\"rustc\":{},\"profile\":{},\"samples\":{{{}}},\"report_digest\":\"{}\",\"error_rate\":{error_rate}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&model),
        json_str(&l2),
        json_str(&l3),
        json_str(&args.rustc),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        samples.join(","),
        spec_hash(&out.reports),
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    let correct = out.tally.failed == 0 && out.selftest_ok;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_copy_differs_in_one_byte_and_fails_counted_checks() {
        let want = serve_mix::pong_frame();
        let bad = flipped(&want);
        assert_eq!(bad.len(), want.len());
        assert_eq!(bad.iter().zip(&want).filter(|(a, b)| a != b).count(), 1);
        assert!(flipped(&[]).is_empty());
        let mut tally = Tally::default();
        tally.check(bad == want, || "flipped".into());
        tally.check(want == serve_mix::pong_frame(), || "same".into());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failures, vec!["flipped".to_string()]);
    }
}
